#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double MsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now());
}

// In-memory span recorder for the traced run. The benchmark wraps every
// call it makes into a layer of the library in a span (name, start, end,
// parent span, operation id); nothing inside the library is instrumented.
// A disabled recorder records nothing and costs one branch per call, which
// is how the untraced run keeps tracing off.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";  // static string
    int64_t start_ns = 0;   // relative to the recorder's epoch
    int64_t end_ns = -1;    // -1 while open
    int32_t parent = -1;    // index of the enclosing span, -1 for a root
    int64_t op = -1;        // operation (document or edit) id
  };

  // Per-name totals over closed spans.
  struct Summary {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span now and returns its id, or -1 when disabled.
  int32_t Begin(const char* name, int64_t op, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowNs(), -1, parent, op});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  // Records a span with explicit bounds, for intervals whose start was
  // only known in hindsight. Records even when disabled.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, int64_t op);

  const std::vector<Span>& spans() const { return spans_; }
  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  int64_t NowNs() const { return ToNs(Clock::now()); }

  // Self time of every span: its duration minus the part of its interval
  // covered by the union of its closed children. Open spans read 0.
  std::vector<int64_t> SelfTimesNs() const;

  std::map<std::string, Summary> Summarize() const;

  // Writes {"context": ..., "summary": {...}, "spans": [[name, start_ns,
  // end_ns, parent, op], ...]} to `path`. `context_json` must be a JSON
  // object. False when the file cannot be written.
  bool WriteJson(const std::string& path,
                 const std::string& context_json) const;

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

// RAII span over one synchronous call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int64_t op,
             int32_t parent = -1)
      : recorder_(recorder), id_(recorder.Begin(name, op, parent)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  int32_t id_;
};

// Relative cost of tracing: the traced run's time per unit of work over
// the untraced run's, minus one (0.02 = tracing made the work 2% slower).
double TraceOverheadFrac(double untraced_s_per_unit, double traced_s_per_unit);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
