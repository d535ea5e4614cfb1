#!/usr/bin/env python3
"""Builds the training benchmark from source and runs one workload.

    python3 trainbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/trainbench (a
Release build of ../src plus the trainbench program); the program's last line
of standard output is one JSON object with the keys correct, attempted, failed and
metrics. --trace 1 also writes a Chrome trace of the run's spans to
.bench_build/trainbench/traces/. The exit code is the program's.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "trainbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "trainbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"trainbench: build failed: {err}", file=sys.stderr)
        return 2

    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(BUILD, "trainbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", traces]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"trainbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
