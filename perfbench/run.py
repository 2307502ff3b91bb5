#!/usr/bin/env python3
"""End-to-end benchmark of the streaming query engine.

Run from the root of the repository:

    python3 perfbench/run.py --workload bulk|serve|edit --seed N \
        --seconds S --trace 0|1

Builds the library and the benchmark binary (Release) under
.bench_build/perfbench, runs its self-tests, then runs one workload in a
fresh process. The benchmark's last output line is the result
JSON: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics of BENCHMARK.json when --trace 0 and its per-layer metrics when
--trace 1. Exits non-zero, without a result line, when the build or the
self-tests fail, and non-zero after the result line when any answer was
wrong.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_id(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def declared_metrics(root, trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["bulk", "serve", "edit"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(build_dir):
        log("perfbench: build failed")
        return 1
    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        log("perfbench: self-tests failed")
        return 1

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(root), "--out-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: no output, exit code", proc.returncode)
        return 1
    result = json.loads(lines[-1])
    expected = declared_metrics(root, args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        log("perfbench: metrics differ from BENCHMARK.json:",
            sorted(set(result["metrics"]) ^ expected))
        return 1
    print(proc.stdout, end="", flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
