// The layer ladder on identical bytes, plus the metric helpers shared by
// the workloads.

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "base/byte_scan.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double MibPerS(double bytes, double ms) {
  return ms > 0.0 ? (bytes / kMiB) / (ms / 1000.0) : 0.0;
}

// Byte and millisecond totals of one rung over a set of documents.
struct Rung {
  double bytes = 0.0;
  double ms = 0.0;
  void Add(double b, double t) {
    bytes += b;
    ms += t;
  }
  double mib_s() const { return MibPerS(bytes, ms); }
};

// Counts structural bytes with the stage-1 index, a block at a time so the
// position buffer stays small whatever the document size.
int64_t Stage1(std::string_view bytes, std::vector<uint32_t>& positions) {
  const size_t block = positions.size();
  int64_t structural = 0;
  for (size_t at = 0; at < bytes.size(); at += block) {
    const size_t n = std::min(block, bytes.size() - at);
    structural += static_cast<int64_t>(
        sst::ExtractStructural(bytes.data() + at, n, positions.data()));
  }
  return structural;
}

// The plan's fused runner over a whole clean compact-markup document;
// false when the plan has none.
bool FusedCounts(const CompiledReg& reg, std::string_view bytes,
                 std::vector<int64_t>* counts, double* ms) {
  if (reg.format != sst::StreamFormat::kCompactMarkup) return false;
  if (reg.batch) {
    sst::BatchSession session(reg.batch);
    if (!session.one_scan_eligible()) return false;
    auto start = Clock::now();
    *counts = session.CountSelections(bytes);
    *ms = MsSince(start);
    return true;
  }
  const sst::QueryPlan& plan = *reg.single;
  if (plan.fused() == nullptr && plan.fused_dra() == nullptr) return false;
  auto start = Clock::now();
  const int64_t n = plan.fused() != nullptr
                        ? plan.fused()->CountSelections(bytes)
                        : plan.fused_dra()->CountSelections(bytes);
  *ms = MsSince(start);
  *counts = {n};
  return true;
}

}  // namespace

std::map<std::string, Metric> AllLayerMetrics() {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"base.stage1_mib_s", "MiB/s"},
      {"base.structural_fraction", "fraction"},
      {"dra.fused_mib_s", "MiB/s"},
      {"dra.fused_over_stage1", "ratio"},
      {"engine.session_mib_s.markup", "MiB/s"},
      {"engine.session_mib_s.xml", "MiB/s"},
      {"engine.session_mib_s.term", "MiB/s"},
      {"engine.session_over_fused", "ratio"},
      {"engine.batch_mib_s", "MiB/s"},
      {"engine.feed_busy_share", "fraction"},
      {"engine.bytes.fused_byte", "bytes"},
      {"engine.bytes.fused_dra", "bytes"},
      {"engine.bytes.generic", "bytes"},
      {"engine.bytes.stack", "bytes"},
      {"engine.bytes.product_fused", "bytes"},
      {"engine.bytes.product_lazy", "bytes"},
      {"engine.bytes.mixed", "bytes"},
      {"engine.bytes.independent", "bytes"},
      {"engine.compile_ms_total", "ms"},
      {"engine.compile_ms_max", "ms"},
      {"engine.acquire_us_p50", "us"},
      {"engine.incremental.scan_s", "s"},
      {"engine.incremental.edit_ms_p50", "ms"},
      {"engine.incremental.edit_ms_p99", "ms"},
      {"engine.incremental.bytes_rescanned_per_edit", "bytes"},
      {"engine.incremental.spliced_fraction", "fraction"},
      {"engine.incremental.checkpoints", "count"},
      {"eval.stack_mib_s", "MiB/s"},
      {"eval.max_stack_depth", "count"},
      {"server.register_ms", "ms"},
      {"server.send_ms_p50", "ms"},
      {"server.verdict_wait_ms_p50", "ms"},
      {"server.verdict_wait_ms_p99", "ms"},
      {"server.overhead_ms_per_doc", "ms"},
      {"server.serve_over_session", "ratio"},
      {"server.bytes_in", "bytes"},
      {"server.frames_in", "count"},
      {"server.frames_out", "count"},
      {"server.backpressure_pauses", "count"},
      {"server.sheds", "count"},
      {"server.streams_failed", "count"},
      {"trace.overhead_frac", "fraction"},
  };
  std::map<std::string, Metric> out;
  for (const auto& [name, unit] : kLayers) out[name].unit = unit;
  return out;
}

std::vector<double> EqualBlocks(double phase_s) {
  std::vector<double> ends;
  for (double end = kBlockSeconds; end + kBlockSeconds <= phase_s;
       end += kBlockSeconds) {
    ends.push_back(end);
  }
  ends.push_back(phase_s);
  return ends;
}

void SetOperationMetrics(const std::vector<OpSample>& ops,
                         const std::vector<double>& block_ends,
                         Result* result) {
  const size_t blocks = block_ends.size();
  auto block_of = [&](double t) {
    return static_cast<size_t>(
        std::lower_bound(block_ends.begin(), block_ends.end(), t) -
        block_ends.begin());
  };
  auto block_start = [&](size_t b) { return b == 0 ? 0.0 : block_ends[b - 1]; };
  std::vector<double> block_bytes(blocks, 0.0), block_ops(blocks, 0.0);
  std::vector<std::vector<double>> block_latency(blocks);
  std::vector<double> latencies;
  for (const OpSample& op : ops) {
    latencies.push_back(op.latency_ms);
    if (op.end_s > block_ends.back()) continue;  // past the last block
    const double start_s = op.end_s - op.latency_ms / 1000.0;
    const double duration = op.end_s - start_s;
    const size_t last = block_of(op.end_s);
    for (size_t b = block_of(start_s); b <= last; ++b) {
      const double lo = std::max(start_s, block_start(b));
      const double hi = b == last ? op.end_s : block_ends[b];
      const double share =
          duration > 0 ? std::max(0.0, hi - lo) / duration : 1.0;
      block_bytes[b] += op.bytes * share;
      block_ops[b] += share;
    }
    block_latency[last].push_back(op.latency_ms);
  }
  std::vector<double> mib_s, ops_s, p50;
  for (size_t b = 0; b < blocks; ++b) {
    const double span = block_ends[b] - block_start(b);
    if (span <= 0) continue;
    mib_s.push_back(block_bytes[b] / kMiB / span);
    ops_s.push_back(block_ops[b] / span);
    if (!block_latency[b].empty()) p50.push_back(Median(block_latency[b]));
  }
  const int64_t n = static_cast<int64_t>(mib_s.size());
  auto& e2e = result->end_to_end;
  e2e["throughput_mib_s"] = {PercentileOf(mib_s, 10.0).value, "MiB/s", n, 10.0};
  e2e["ops_per_s"] = {PercentileOf(ops_s, 10.0).value, "1/s", n, 10.0};
  e2e["latency_p50_ms"] = {PercentileOf(p50, 90.0).value, "ms",
                           static_cast<int64_t>(p50.size()), 90.0};
  Quantile tail = TailQuantile(latencies);
  e2e["latency_p99_ms"] = {tail.value, "ms", tail.samples, tail.percentile};
}

void SetSetupMetric(const std::vector<double>& setup_s, Result* result) {
  result->end_to_end["setup_s"] = {Median(setup_s), "s",
                                   static_cast<int64_t>(setup_s.size()), 50.0};
}

void SetCompileMetrics(const SpanRecorder& spans, int rounds, Result* result) {
  double total = 0.0;
  double max = 0.0;
  for (const SpanRecorder::Span& span : spans.spans()) {
    if (std::string_view(span.name) != "compile") continue;
    const double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    total += ms;
    max = std::max(max, ms);
  }
  result->layers["engine.compile_ms_total"].value = total / rounds;
  result->layers["engine.compile_ms_max"].value = max;
}

std::vector<double> RunLadder(const std::vector<LadderDoc>& docs, size_t chunk,
                              int passes, Result* result) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t n = docs.size();
  std::vector<double> stage1_ms(n, kInf), fused_ms(n, kInf),
      session_ms(n, kInf);
  std::vector<int64_t> structural(n, 0);
  std::vector<bool> has_fused(n, false);
  std::vector<const char*> tier(n, "");
  int64_t max_stack_depth = 0;
  std::vector<uint32_t> positions(1 << 16);

  for (int pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < n; ++i) {
      const LadderDoc& doc = docs[i];
      ErrorTally& errors = result->errors;

      auto start = Clock::now();
      structural[i] = Stage1(doc.bytes, positions);
      stage1_ms[i] = std::min(stage1_ms[i], MsSince(start));

      std::vector<int64_t> counts;
      double ms = 0.0;
      if (doc.expected->ok && FusedCounts(*doc.reg, doc.bytes, &counts, &ms)) {
        has_fused[i] = true;
        fused_ms[i] = std::min(fused_ms[i], ms);
        ++errors.attempted;
        if (counts != doc.expected->counts) ++errors.mismatched;
      }

      start = Clock::now();
      PooledStream stream(*doc.reg);
      FeedDocument(stream, doc.bytes, chunk);
      Verdict verdict = stream.verdict();
      session_ms[i] = std::min(session_ms[i], MsSince(start));
      ++errors.attempted;
      if (verdict != *doc.expected) ++errors.mismatched;
      tier[i] = stream.tier_name();
      if (doc.reg->single &&
          doc.reg->single->kind() == sst::EvaluatorKind::kStackBaseline) {
        max_stack_depth =
            std::max(max_stack_depth, stream.stats().max_stack_depth);
      }
    }
  }

  Rung stage1_all, stage1_fused, fused, session_fused, batch, stack;
  std::map<sst::StreamFormat, Rung> by_format;
  double structural_bytes = 0.0;
  auto& layers = result->layers;
  for (size_t i = 0; i < n; ++i) {
    const double bytes = static_cast<double>(docs[i].bytes.size());
    const CompiledReg& reg = *docs[i].reg;
    stage1_all.Add(bytes, stage1_ms[i]);
    structural_bytes += static_cast<double>(structural[i]);
    by_format[reg.format].Add(bytes, session_ms[i]);
    if (has_fused[i]) {
      stage1_fused.Add(bytes, stage1_ms[i]);
      fused.Add(bytes, fused_ms[i]);
      session_fused.Add(bytes, session_ms[i]);
    }
    if (reg.batch) batch.Add(bytes, session_ms[i]);
    if (reg.single && reg.single->kind() == sst::EvaluatorKind::kStackBaseline) {
      stack.Add(bytes, session_ms[i]);
    }
    layers[std::string("engine.bytes.") + tier[i]].value += bytes;
  }
  layers["base.stage1_mib_s"].value = stage1_all.mib_s();
  layers["base.structural_fraction"].value =
      stage1_all.bytes > 0 ? structural_bytes / stage1_all.bytes : 0.0;
  layers["dra.fused_mib_s"].value = fused.mib_s();
  layers["dra.fused_over_stage1"].value =
      stage1_fused.mib_s() > 0 ? fused.mib_s() / stage1_fused.mib_s() : 0.0;
  for (auto& [format, rung] : by_format) {
    layers[std::string("engine.session_mib_s.") + FormatName(format)].value =
        rung.mib_s();
  }
  layers["engine.session_over_fused"].value =
      fused.mib_s() > 0 ? session_fused.mib_s() / fused.mib_s() : 0.0;
  layers["engine.batch_mib_s"].value = batch.mib_s();
  layers["eval.stack_mib_s"].value = stack.mib_s();
  layers["eval.max_stack_depth"].value = static_cast<double>(max_stack_depth);
  return session_ms;
}

}  // namespace perfbench
