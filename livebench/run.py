#!/usr/bin/env python3
"""Builds the live BFT-BC benchmark from source and runs one workload.

    python3 livebench/run.py --workload write_hmac --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/livebench (default .bench_build/livebench,
relative to the repository root). Build output goes to stderr; the benchmark's
own report goes to stdout, and its last line is the JSON result. See README.md
in this directory for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("write_hmac", "write_rsa", "mixed_byz")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "bftbc", "replica.h")):
        sys.exit("livebench: protocol sources not found under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "livebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "livebench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("livebench: build failed: %s" % e)

    trace_dir = os.path.join(target, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(trace_dir, args.workload + ".csv")]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("livebench: run exceeded %d s" % RUN_TIMEOUT_S)
    if result.returncode != 0:
        sys.exit("livebench: benchmark exited with %d" % result.returncode)
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
