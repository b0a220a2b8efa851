#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig-throughput --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/perfbench under the repository root
(CMake, Release, at most 4 jobs). Build output goes to stderr; stdout is the
benchmark's own output, whose last line is the JSON result. Any other
arguments (--threads, --inputs, --selftest) pass through to the binary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    if not build():
        return 1
    binary = os.path.join(BUILD, "perfbench")
    trace_file = os.path.join(BUILD, "trace-%d.jsonl" % os.getpid())
    done = subprocess.run([binary, "--trace-file", trace_file] + argv, cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
