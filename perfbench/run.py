#!/usr/bin/env python3
"""Build and run the papm two-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (the papm
libraries from src/ plus the perfbench program) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
one workload. Build output goes to stderr; perfbench's report goes to
stdout, whose last line is one JSON object. Traces land in the build
directory's out/ folder. Exits non-zero, without a result line, when the
build fails or perfbench fails or times out.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"
)
# A run must end well inside three minutes.
RUN_TIMEOUT_S = 170
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures once, then builds incrementally. True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(
            ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        )
    steps.append(["cmake", "--build", BUILD_DIR, "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: run from the repository root (no src/ here)",
              file=sys.stderr)
        return 2
    if not build():
        return 1

    out_dir = os.path.join(BUILD_DIR, "out")
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        print("run.py: perfbench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    # Everything but the result line is the human-readable report.
    body, last = lines[:-1], lines[-1] if lines else ""
    for line in body:
        print(line)
    try:
        result = json.loads(last)
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        print(last, file=sys.stderr)
        print("run.py: perfbench printed no result line", file=sys.stderr)
        return 1
    print(last)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
