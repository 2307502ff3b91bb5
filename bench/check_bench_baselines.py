#!/usr/bin/env python3
"""Compares a BENCH_streaming.json artifact against committed baselines.

bench/bench_baselines.json pins the padded-corpus throughput (MiB/s) of
the fused-tier benchmarks — the rows the structural-index execution path
is responsible for. A run must reach at least (1 - tolerance) of each
committed figure; anything lower fails the check (and CI). Missing rows
fail too, so a silently-skipped benchmark cannot pass.

The baselines file may also carry "relative_floors": same-artifact
throughput ratios that must hold regardless of the machine. Each entry
pins one benchmark to a fraction of another from the SAME run — e.g. the
counting-sink scan must reach >= 95% of the sink-off scan, the
match-event pipeline's <=5% overhead budget.

A third optional section, "counter_floors", pins a user counter of a
named benchmark to an absolute minimum — machine-independent ratios the
benchmark computes itself, like bench_incremental's speedup_vs_rescan
(incremental edits must beat a full rescan by >= 10x). Any section may
be absent; a file may carry only counter_floors.

Usage:
  check_bench_baselines.py [--artifact build/BENCH_streaming.json]
                           [--baselines bench/bench_baselines.json]
                           [--tolerance 0.30]
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact", default="build/BENCH_streaming.json")
    parser.add_argument("--baselines", default="bench/bench_baselines.json")
    parser.add_argument("--tolerance", type=float, default=0.30)
    args = parser.parse_args()

    with open(args.artifact) as handle:
        artifact = json.load(handle)
    with open(args.baselines) as handle:
        baselines = json.load(handle)

    measured = {
        bench["name"]: bench.get("mib_per_second")
        for bench in artifact.get("benchmarks", [])
    }
    rows = {bench["name"]: bench for bench in artifact.get("benchmarks", [])}

    failures = []
    absolute = baselines.get("baselines_mib_per_second", {})
    if absolute:
        print(f"{'benchmark':55} {'baseline':>10} {'floor':>10} "
              f"{'measured':>10}")
    for name, baseline in sorted(absolute.items()):
        floor = baseline * (1.0 - args.tolerance)
        got = measured.get(name)
        shown = "MISSING" if got is None else f"{got:.1f}"
        print(f"{name:55} {baseline:10.1f} {floor:10.1f} {shown:>10}")
        if got is None:
            failures.append(f"{name}: not present in {args.artifact}")
        elif got < floor:
            failures.append(
                f"{name}: {got:.1f} MiB/s < floor {floor:.1f} MiB/s "
                f"(baseline {baseline:.1f}, tolerance {args.tolerance:.0%})")

    relative = baselines.get("relative_floors", {})
    if relative:
        print(f"\n{'benchmark':40} {'vs':28} {'min_ratio':>9} {'ratio':>8}")
    for name, spec in sorted(relative.items()):
        other = spec["of"]
        min_ratio = float(spec["min_ratio"])
        got = measured.get(name)
        ref = measured.get(other)
        if got is None or ref is None:
            missing = name if got is None else other
            print(f"{name:40} {other:28} {min_ratio:9.2f}  MISSING")
            failures.append(
                f"{name} vs {other}: {missing} not present in "
                f"{args.artifact}")
            continue
        ratio = got / ref if ref else 0.0
        print(f"{name:40} {other:28} {min_ratio:9.2f} {ratio:8.3f}")
        if ratio < min_ratio:
            failures.append(
                f"{name}: {got:.1f} MiB/s is {ratio:.1%} of {other} "
                f"({ref:.1f} MiB/s), below the {min_ratio:.0%} floor")

    counters = baselines.get("counter_floors", {})
    if counters:
        print(f"\n{'benchmark':45} {'counter':20} {'min':>10} "
              f"{'measured':>10}")
    for name, spec in sorted(counters.items()):
        counter = spec["counter"]
        floor = float(spec["min"])
        row = rows.get(name)
        got = None if row is None else row.get(counter)
        shown = "MISSING" if got is None else f"{got:.1f}"
        print(f"{name:45} {counter:20} {floor:10.1f} {shown:>10}")
        if got is None:
            failures.append(
                f"{name}.{counter}: not present in {args.artifact}")
        elif got < floor:
            failures.append(
                f"{name}.{counter}: {got:.1f} below the committed floor "
                f"{floor:.1f}")

    if failures:
        print("\nFAIL: padded-corpus throughput regression", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        sys.exit(1)
    print("\nOK: all fused-tier padded-corpus benchmarks within tolerance")


if __name__ == "__main__":
    main()
