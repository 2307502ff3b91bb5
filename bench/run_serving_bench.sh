#!/usr/bin/env bash
# Closed-loop serving benchmark: boots examples/query_server, drives it
# with examples/load_client over loopback, drains the server with SIGTERM
# (so every bench run also exercises the graceful-drain path), and writes
# the BENCH_serving.json artifact into the build directory.
#
#   bench/run_serving_bench.sh [--build-dir DIR] [--connections N]
#                              [--docs N] [--chunk-size BYTES] [--batch Q]
#
# The client exits non-zero on any count mismatch against its offline
# engine run, so a passing bench is also an end-to-end correctness check.
set -euo pipefail

BUILD_DIR=build
CONNECTIONS=1000
DOCS=3
CHUNK=8192
BATCH=4
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir)   BUILD_DIR=$2;   shift 2 ;;
    --connections) CONNECTIONS=$2; shift 2 ;;
    --docs)        DOCS=$2;        shift 2 ;;
    --chunk-size)  CHUNK=$2;       shift 2 ;;
    --batch)       BATCH=$2;       shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

repo_root=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo_root"
server="$BUILD_DIR/examples/query_server"
client="$BUILD_DIR/examples/load_client"
[[ -x $server && -x $client ]] ||
  { echo "missing $server / $client — build the examples first" >&2; exit 1; }

port_file=$(mktemp)
raw=$(mktemp)
server_log=$(mktemp)
cleanup() {
  [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true
  rm -f "$port_file" "$raw" "$server_log"
}
trap cleanup EXIT

: > "$port_file"
"$server" --port 0 --port-file "$port_file" --workers 2 \
  --max-connections 4096 --max-streams 2048 > "$server_log" 2>&1 &
server_pid=$!

# The server writes its kernel-assigned port to the file once it listens.
for _ in $(seq 1 100); do
  [[ -s "$port_file" ]] && break
  kill -0 "$server_pid" 2>/dev/null ||
    { echo "server died during startup:" >&2; cat "$server_log" >&2; exit 1; }
  sleep 0.1
done
[[ -s "$port_file" ]] || { echo "server never published a port" >&2; exit 1; }
port=$(cat "$port_file")

"$client" --port "$port" --connections "$CONNECTIONS" --docs "$DOCS" \
  --chunk-size "$CHUNK" --batch "$BATCH" --timeout-s 300 --json-out "$raw"

# Graceful drain: SIGTERM, then wait for a clean exit (non-zero would mean
# the drain machinery wedged or force-close left the process hanging).
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=

python3 bench/bench_to_json.py "$raw" > "$BUILD_DIR/BENCH_serving.json"
echo "wrote $BUILD_DIR/BENCH_serving.json"
