#!/usr/bin/env python3
"""Post-processes Google Benchmark JSON into the BENCH_*.json artifact.

Keeps only the fields that are comparable across machines and PRs (name,
label, throughput, iteration time, user counters), sorts entries by name,
and rounds values so re-running on the same machine produces small diffs.
Usage: bench_to_json.py <raw-google-benchmark.json> [> BENCH_foo.json]
"""

import json
import sys


def compact(raw):
    ctx = raw.get("context", {})
    out = {
        "context": {
            "date": ctx.get("date"),
            "host_name": ctx.get("host_name"),
            "num_cpus": ctx.get("num_cpus"),
            "mhz_per_cpu": ctx.get("mhz_per_cpu"),
            "library_build_type": ctx.get("library_build_type"),
            # Custom context from bench_streaming's main(): which stage-1
            # SIMD kernel the runtime dispatch picked, and the build type
            # of the benchmark binary itself (library_build_type above is
            # the benchmark *library*'s).
            "byte_scan_kernel": ctx.get("byte_scan_kernel"),
            "build_type": ctx.get("build_type"),
        },
        "benchmarks": [],
    }
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        entry = {
            "name": bench.get("name"),
            "label": bench.get("label"),
            "real_time_ns": round(bench.get("real_time", 0.0), 1),
            "cpu_time_ns": round(bench.get("cpu_time", 0.0), 1),
            "iterations": bench.get("iterations"),
        }
        if "bytes_per_second" in bench:
            entry["mib_per_second"] = round(
                bench["bytes_per_second"] / (1 << 20), 1)
        for key, value in bench.items():
            if key in ("threads", "matches", "connections", "streams",
                       "p50_ms", "p99_ms", "sheds",
                       "latency_to_certainty_bytes", "certainty_lead_bytes",
                       "match_p50_ms", "match_p99_ms", "lanes"):
                entry[key] = value
            # Incremental-reevaluation counters (bench_incremental):
            # rounded, since tiny jitter in a 1000x speedup figure is
            # noise in the diff.
            elif key in ("speedup_vs_rescan", "bytes_rescanned",
                         "rescan_ms", "edit_us", "heavy_edit_us",
                         "free_edit_us", "sparse_edit_us", "dense_edit_us",
                         "checkpoints_first", "checkpoints_second",
                         "repair_pair_us", "ordinary_pair_us",
                         "clean_edit_us", "recovering_edit_us"):
                entry[key] = round(value, 1)
            elif key in ("spliced_fraction", "pooled_vs_vector",
                         "inline_over_virtual", "counting_over_off",
                         "selector_over_walk", "term_over_markup",
                         "xml_over_markup",
                         "match_free_over_match_heavy", "dense_over_sparse",
                         "ordinary_over_repair", "clean_over_recovering"):
                entry[key] = round(value, 3)
        out["benchmarks"].append(entry)
    out["benchmarks"].sort(key=lambda entry: entry["name"] or "")
    return out


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as handle:
        raw = json.load(handle)
    json.dump(compact(raw), sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
