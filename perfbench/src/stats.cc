#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

Quantile AtRank(std::vector<double>& values, int64_t rank) {
  const int64_t n = static_cast<int64_t>(values.size());
  rank = std::clamp<int64_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  Quantile q;
  q.value = values[static_cast<size_t>(rank - 1)];
  q.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  q.samples = n;
  q.beyond = n - rank;
  return q;
}

}  // namespace

Quantile PercentileOf(std::vector<double> values, double p) {
  if (values.empty()) return {};
  const double n = static_cast<double>(values.size());
  return AtRank(values, static_cast<int64_t>(std::ceil(p / 100.0 * n - 1e-9)));
}

Quantile TailQuantile(std::vector<double> values) {
  if (values.empty()) return {};
  const int64_t n = static_cast<int64_t>(values.size());
  if (n <= kTailBeyond) return AtRank(values, n);
  const int64_t p99 =
      static_cast<int64_t>(std::ceil(0.99 * static_cast<double>(n) - 1e-9));
  return AtRank(values, std::min(p99, n - kTailBeyond));
}

double Median(std::vector<double> values) {
  return PercentileOf(std::move(values), 50.0).value;
}

double ParseVmHwmMib(std::string_view status_text) {
  const std::string_view key = "VmHWM:";
  size_t at = status_text.find(key);
  if (at == std::string_view::npos) return -1.0;
  std::string rest(status_text.substr(at + key.size()));
  std::istringstream in(rest);
  double kib = 0.0;
  std::string unit;
  if (!(in >> kib >> unit) || unit != "kB" || kib < 0) return -1.0;
  return kib / 1024.0;
}

double SelfPeakRssMib() {
  std::ifstream in("/proc/self/status");
  if (!in) return -1.0;
  std::stringstream text;
  text << in.rdbuf();
  return ParseVmHwmMib(text.str());
}

double ErrorTally::rate() const {
  if (attempted <= 0) return 0.0;
  return static_cast<double>(failed()) / static_cast<double>(attempted);
}

void ErrorTally::Add(const ErrorTally& other) {
  attempted += other.attempted;
  mismatched += other.mismatched;
  shed += other.shed;
  dropped += other.dropped;
  timed_out += other.timed_out;
}

}  // namespace perfbench
