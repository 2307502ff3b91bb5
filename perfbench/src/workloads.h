#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "corpus.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".";
};

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;      // operations behind the value (0: not a sample)
  double percentile = 0.0;  // for order statistics: the percentile used
};

// Everything one run measured. end_to_end is reported by the untraced run,
// layers by the traced one; errors feeds error_rate and the run's
// correct/attempted/failed verdict.
struct Result {
  explicit Result(bool trace) : spans(trace) {}

  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;
  ErrorTally errors;
  SpanRecorder spans;
};

// The per-layer metric names and units every traced run reports, all
// initialised to 0. A layer the workload does not reach keeps reading 0.
std::map<std::string, Metric> AllLayerMetrics();

void RunBulk(const Options& options, Result* result);
void RunServe(const Options& options, Result* result);
void RunEdit(const Options& options, Result* result);

// Entry point of the server process the serve workload spawns.
int ServeChildMain();

// One measured operation: when it completed (seconds into the measured
// phase), the document bytes it answered, and its latency (it started
// latency_ms before end_s).
struct OpSample {
  double end_s = 0.0;
  double bytes = 0.0;
  double latency_ms = 0.0;
};

// Length of the blocks a timed phase is cut into.
inline constexpr double kBlockSeconds = 0.5;

// End times of kBlockSeconds blocks covering a phase of `phase_s` seconds;
// the last block runs to the end of the phase.
std::vector<double> EqualBlocks(double phase_s);

// Records throughput_mib_s, ops_per_s, latency_p50_ms and latency_p99_ms.
// Hosts shared with other tenants run faster for stretches of seconds to
// minutes when their neighbours idle, so the rates and the median are taken
// per block of the phase (block b ends at block_ends[b]) and reported at
// the slow-side decile of the blocks — the rate sustained, and the median
// latency met, in nine blocks of ten; with ten blocks or fewer, the slowest
// block. An
// operation's bytes and its count are shared among the blocks its run
// overlaps, in proportion; its latency belongs to the block it completed
// in; operations completing after the last block count towards the tail
// latency only, which pools every operation (TailQuantile).
void SetOperationMetrics(const std::vector<OpSample>& ops,
                         const std::vector<double>& block_ends,
                         Result* result);

// Median of the set-up repetitions, as setup_s.
void SetSetupMetric(const std::vector<double>& setup_s, Result* result);

// engine.compile_ms_total (per set-up round) and engine.compile_ms_max from
// the "compile" spans of `rounds` set-up rounds.
void SetCompileMetrics(const SpanRecorder& spans, int rounds, Result* result);

// One document of the layer ladder, with its reference verdict.
struct LadderDoc {
  std::string_view bytes;
  CompiledReg* reg = nullptr;
  const Verdict* expected = nullptr;
};

// Pushes every document through stage-1 (ExtractStructural), the plan's
// fused runner (compact markup, clean documents) and a pooled
// Session/BatchSession fed in `chunk`-byte pieces — identical bytes at
// every rung — `passes` times, keeping each document's fastest time per
// rung. Fills the base.*, dra.*, engine.session*, engine.batch_mib_s,
// engine.bytes.* and eval.* layer metrics, checks every fused count and
// session verdict against the reference, and returns each document's
// session time in milliseconds.
std::vector<double> RunLadder(const std::vector<LadderDoc>& docs, size_t chunk,
                              int passes, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
