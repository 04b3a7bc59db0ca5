#!/usr/bin/env python3
"""Builds and runs the collector benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ingest_raw --seed 1 --seconds 10 --trace 0

Configures perfbench/CMakeLists.txt into .bench_build/perfbench (Release),
builds the numdist_perfbench binary from source, and runs it with the
given arguments. Build output goes to stderr, so the benchmark's last
stdout line stays its result JSON. Exits non-zero, printing no result,
when the build fails (e.g. the library sources are missing).
"""
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "numdist_perfbench")


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", here, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "numdist_perfbench", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
