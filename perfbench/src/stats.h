#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

// One order statistic of a sample: the value at nearest rank, the
// percentile that rank stands for, the sample count, and how many samples
// lie beyond it (strictly later in sorted order).
struct Quantile {
  double value = 0.0;
  double percentile = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;
};

// Nearest-rank percentile p in (0, 100]: rank ceil(p/100 * n), 1-based.
// An empty sample yields a zero Quantile.
Quantile PercentileOf(std::vector<double> values, double p);

// The tail latency the benchmark reports as p99: the highest percentile,
// capped at 99, that still has at least kTailBeyond samples beyond it —
// rank min(ceil(0.99 n), n - kTailBeyond). Below kTailBeyond + 1 samples
// no such percentile exists and the maximum is returned with beyond 0.
inline constexpr int64_t kTailBeyond = 10;
Quantile TailQuantile(std::vector<double> values);

double Median(std::vector<double> values);

// Peak resident set size, in MiB, from the VmHWM line of a
// /proc/<pid>/status text; -1 when the line is missing or malformed.
double ParseVmHwmMib(std::string_view status_text);

// VmHWM of this process (-1 when /proc is unavailable).
double SelfPeakRssMib();

// Operation accounting behind error_rate: every operation attempted, and
// every one that went wrong — a verdict that disagrees with the reference
// (counts, match log or first StreamError), or an operation the system
// shed, dropped or let time out.
struct ErrorTally {
  int64_t attempted = 0;
  int64_t mismatched = 0;
  int64_t shed = 0;
  int64_t dropped = 0;
  int64_t timed_out = 0;

  int64_t failed() const { return mismatched + shed + dropped + timed_out; }
  // failed / attempted; 0 when nothing was attempted.
  double rate() const;
  void Add(const ErrorTally& other);
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
