#!/usr/bin/env bash
# Runs the incremental-reevaluation benchmark and writes the
# BENCH_incremental.json artifact into the build directory. Usage:
#
#   bench/run_incremental_bench.sh [--build-dir DIR] [--min-time SECONDS]
#                                  [--filter RE]
#
# Same artifact contract as bench/run_benches.sh: Google Benchmark JSON
# post-processed by bench/bench_to_json.py into a stable, diff-friendly
# shape. CI floor-checks the result against
# bench/bench_incremental_baselines.json (the >= 10x edit-vs-rescan bar
# and the pooled-vs-vector stack ratio).
set -euo pipefail

BUILD_DIR=build
MIN_TIME=0.05
FILTER=.
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR=$2; shift 2 ;;
    --min-time)  MIN_TIME=$2;  shift 2 ;;
    --filter)    FILTER=$2;    shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

repo_root=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo_root"
bin="$BUILD_DIR/bench/bench_incremental"
[[ -x $bin ]] || { echo "missing $bin — build the benches first" >&2; exit 1; }

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
# Google Benchmark >= 1.8 wants a unit suffix on --benchmark_min_time and
# older releases reject it; try the suffixed spelling first.
if ! "$bin" --benchmark_format=json --benchmark_min_time="${MIN_TIME}s" \
     --benchmark_filter="$FILTER" > "$raw" 2>/dev/null; then
  "$bin" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
     --benchmark_filter="$FILTER" > "$raw"
fi

python3 bench/bench_to_json.py "$raw" > "$BUILD_DIR/BENCH_incremental.json"
echo "wrote $BUILD_DIR/BENCH_incremental.json"
