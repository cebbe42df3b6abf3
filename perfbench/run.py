#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <kloop_cliff|serve_cold|serve_hot> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and compiles perfbench/ (which compiles ../src)
into .bench_build/perfbench; later calls only rebuild what changed. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. Exits non-zero without a result when the sources are missing or the
build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources at {os.path.join(ROOT, 'src')} (run from a full checkout)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    build()
    os.chdir(ROOT)
    completed = subprocess.run([BINARY] + sys.argv[1:])
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
