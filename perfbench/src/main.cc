// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload bulk|serve|edit --seed N --seconds S --trace 0|1
//             [--commit ID] [--out-dir DIR]
//
// Generates the workload's inputs from the seed, measures for S seconds,
// checks every answer against a reference computed outside the timed
// region, and prints two JSON lines: the run's detail (context, every
// metric with its unit and sample count, error_rate), then the result
// line {"correct", "attempted", "failed", "metrics"} — end-to-end metrics
// when untraced, per-layer metrics when traced. A traced run also writes
// its spans to DIR/spans-<workload>-<seed>.json. Exits 1 when any answer
// was wrong or any operation failed.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/byte_scan.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

const char* const kEndToEnd[] = {"throughput_mib_s", "ops_per_s",
                                 "latency_p50_ms",   "latency_p99_ms",
                                 "setup_s",          "peak_rss_mib"};

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string ContextJson(const Options& options, int cpu) {
  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
  return std::string("{") + "\"workload\": " + Quote(options.workload) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"seconds\": " + Number(options.seconds) +
         ", \"trace\": " + (options.trace ? "true" : "false") +
         ", \"host\": " + Quote(host) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"pinned_cpu\": " + std::to_string(cpu) +
         ", \"commit\": " + Quote(options.commit) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + Quote(std::string("g++ ") + __VERSION__) +
         ", \"byte_scan_kernel\": " + Quote(sst::ByteScanKernelName()) + "}";
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics,
                        bool detail) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += std::string(first ? "" : ", ") + Quote(name) +
           ": {\"value\": " + Number(m.value) + ", \"unit\": " + Quote(m.unit);
    if (detail && m.samples > 0) {
      out += ", \"samples\": " + std::to_string(m.samples);
      if (m.percentile > 0) out += ", \"percentile\": " + Number(m.percentile);
    }
    out += "}";
    first = false;
  }
  return out + "}";
}

// Confines this process — and the server process the serve workload
// spawns, which inherits the mask — to the first CPU it may run on. On
// virtual machines that share their cores with other tenants, waking a
// thread on another CPU costs a latency that drifts with the tenants' load
// by a quarter over tens of seconds; on one CPU every hand-off between client, server
// and workers is a local context switch, and the figures are steady.
// Returns the CPU, or -1 when the mask could not be set.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value);
    } else if (flag == "--trace") {
      options->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--commit") {
      options->commit = value;
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->seconds > 0 &&
         (options->workload == "bulk" || options->workload == "serve" ||
          options->workload == "edit");
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--serve-child") == 0) {
    return ServeChildMain();
  }
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload bulk|serve|edit --seed N "
                 "--seconds S --trace 0|1 [--commit ID] [--out-dir DIR]\n");
    return 2;
  }

  const int cpu = PinToOneCpu();
  Result result(options.trace);
  result.layers = AllLayerMetrics();
  const size_t declared_layers = result.layers.size();
  if (options.workload == "bulk") {
    RunBulk(options, &result);
  } else if (options.workload == "serve") {
    RunServe(options, &result);
  } else {
    RunEdit(options, &result);
  }

  bool complete = result.layers.size() == declared_layers;
  for (const char* name : kEndToEnd) {
    if (result.end_to_end.count(name) == 0) {
      complete = false;
      result.end_to_end[name] = {0.0, "?"};
    }
  }
  if (!complete) {
    std::fprintf(stderr, "perfbench: metric set incomplete\n");
    ++result.errors.attempted;
    ++result.errors.dropped;
  }

  const std::string context = ContextJson(options, cpu);
  if (options.trace) {
    const std::string path = options.out_dir + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (!result.spans.WriteJson(path, context)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  const ErrorTally& e = result.errors;
  std::printf(
      "{\"context\": %s, \"end_to_end\": %s, \"layers\": %s, "
      "\"error_rate\": {\"value\": %s, \"unit\": \"fraction\", "
      "\"attempted\": %lld, \"mismatched\": %lld, \"shed\": %lld, "
      "\"dropped\": %lld, \"timed_out\": %lld}}\n",
      context.c_str(), MetricsJson(result.end_to_end, true).c_str(),
      options.trace ? MetricsJson(result.layers, true).c_str() : "{}",
      Number(e.rate()).c_str(), static_cast<long long>(e.attempted),
      static_cast<long long>(e.mismatched), static_cast<long long>(e.shed),
      static_cast<long long>(e.dropped), static_cast<long long>(e.timed_out));

  const bool correct = e.failed() == 0 && e.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(e.attempted, 1)),
              static_cast<long long>(e.failed()),
              MetricsJson(options.trace ? result.layers : result.end_to_end,
                          false)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
