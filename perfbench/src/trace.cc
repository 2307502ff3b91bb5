#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int32_t SpanRecorder::Add(const char* name, int64_t start_ns, int64_t end_ns,
                          int32_t parent, int64_t op) {
  spans_.push_back({name, start_ns, end_ns, parent, op});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<int64_t> SpanRecorder::SelfTimesNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < 0 || span.end_ns < 0) continue;
    children[static_cast<size_t>(span.parent)].push_back(
        {span.start_ns, span.end_ns});
  }
  std::vector<int64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, span.start_ns);
      hi = std::min(hi, span.end_ns);
      if (hi <= lo) continue;
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanRecorder::Summary> SpanRecorder::Summarize() const {
  std::vector<int64_t> self = SelfTimesNs();
  std::map<std::string, Summary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    Summary& s = out[span.name];
    ++s.count;
    s.total_ns += span.end_ns - span.start_ns;
    s.self_ns += self[i];
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path,
                             const std::string& context_json) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"context\": %s,\n \"summary\": {", context_json.c_str());
  bool first = true;
  for (const auto& [name, s] : Summarize()) {
    std::fprintf(file,
                 "%s\n  \"%s\": {\"count\": %lld, \"total_ns\": %lld, "
                 "\"self_ns\": %lld}",
                 first ? "" : ",", name.c_str(),
                 static_cast<long long>(s.count),
                 static_cast<long long>(s.total_ns),
                 static_cast<long long>(s.self_ns));
    first = false;
  }
  std::fprintf(file, "},\n \"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%s\n  [\"%s\", %lld, %lld, %d, %lld]",
                 i == 0 ? "" : ",", span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<long long>(span.op));
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

double TraceOverheadFrac(double untraced_s_per_unit,
                         double traced_s_per_unit) {
  if (untraced_s_per_unit <= 0.0) return 0.0;
  return traced_s_per_unit / untraced_s_per_unit - 1.0;
}

}  // namespace perfbench
