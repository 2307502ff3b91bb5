// Self-tests of the benchmark's own arithmetic on tiny fixed inputs: the
// tail-percentile rule, span self time, peak-RSS parsing, error_rate
// accounting. run.py runs this before every benchmark run; a failure
// aborts the run.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentiles() {
  using perfbench::PercentileOf;
  using perfbench::TailQuantile;
  Expect(Near(PercentileOf(Range(10), 50).value, 5), "p50 of 1..10 is 5");
  Expect(Near(PercentileOf(Range(11), 50).value, 6), "p50 of 1..11 is 6");
  Expect(Near(perfbench::Median({3.0}), 3), "median of one sample");
  Expect(PercentileOf({}, 50).samples == 0, "empty sample");

  // 2000 samples: p99 has 20 beyond it, so the rule keeps p99.
  perfbench::Quantile q = TailQuantile(Range(2000));
  Expect(Near(q.value, 1980) && Near(q.percentile, 99) && q.beyond == 20,
         "tail of 1..2000 is p99 = 1980");
  // 1000 samples: exactly 10 beyond p99.
  q = TailQuantile(Range(1000));
  Expect(Near(q.value, 990) && q.beyond == 10, "tail of 1..1000 is 990");
  // 500 samples: p99 would leave 5 beyond; the rule steps down to the
  // rank with 10 beyond (p98).
  q = TailQuantile(Range(500));
  Expect(Near(q.value, 490) && q.beyond == 10 && Near(q.percentile, 98),
         "tail of 1..500 keeps 10 samples beyond");
  // Too few samples for any such percentile: the maximum, nothing beyond.
  q = TailQuantile(Range(7));
  Expect(Near(q.value, 7) && q.beyond == 0, "tail of 1..7 is the max");
  q = TailQuantile(Range(11));
  Expect(Near(q.value, 1) && q.beyond == 10, "tail of 1..11 is rank 1");
}

void TestSelfTime() {
  perfbench::SpanRecorder rec(/*enabled=*/true);
  int32_t root = rec.Add("op", 0, 100, -1, 1);
  rec.Add("feed", 10, 30, root, 1);
  rec.Add("feed", 25, 40, root, 1);  // overlaps the previous child
  int32_t finish = rec.Add("finish", 90, 120, root, 1);  // runs past root
  rec.Add("inner", 95, 100, finish, 1);
  std::vector<int64_t> self = rec.SelfTimesNs();
  // Children cover [10,40) and [90,100) of [0,100): 40 of 100.
  Expect(self[0] == 60, "root self time subtracts the union of children");
  Expect(self[1] == 20 && self[2] == 15, "leaf self time is its duration");
  Expect(self[3] == 25, "nested child subtracted from its own parent only");
  auto summary = rec.Summarize();
  Expect(summary["feed"].count == 2 && summary["feed"].total_ns == 35,
         "summary aggregates by name");
  Expect(summary["op"].self_ns == 60, "summary carries self time");

  perfbench::SpanRecorder off(/*enabled=*/false);
  Expect(off.Begin("x", 0) == -1 && off.spans().empty(),
         "disabled recorder records nothing");

  Expect(Near(perfbench::TraceOverheadFrac(2.0, 2.1), 0.05),
         "trace overhead is the relative slowdown");
}

void TestPeakRss() {
  const char* status =
      "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t    5120 kB\n"
      "VmRSS:\t    4096 kB\n";
  Expect(Near(perfbench::ParseVmHwmMib(status), 5.0), "VmHWM 5120 kB = 5 MiB");
  Expect(perfbench::ParseVmHwmMib("VmRSS: 12 kB\n") < 0, "missing VmHWM");
  Expect(perfbench::ParseVmHwmMib("VmHWM: lots\n") < 0, "malformed VmHWM");
  Expect(perfbench::SelfPeakRssMib() > 0, "own VmHWM is readable");
}

void TestErrorRate() {
  perfbench::ErrorTally tally;
  Expect(tally.rate() == 0.0, "nothing attempted reads 0");
  tally.attempted = 200;
  tally.mismatched = 1;
  tally.shed = 2;
  tally.dropped = 1;
  tally.timed_out = 1;
  Expect(tally.failed() == 5 && Near(tally.rate(), 0.025),
         "every failure kind counts against attempts");
  perfbench::ErrorTally more;
  more.attempted = 50;
  tally.Add(more);
  Expect(tally.attempted == 250 && Near(tally.rate(), 0.02),
         "tallies add");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestPeakRss();
  TestErrorRate();
  if (g_failures != 0) return 1;
  std::fprintf(stderr, "selftest: ok\n");
  return 0;
}
