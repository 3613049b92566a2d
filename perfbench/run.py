#!/usr/bin/env python3
"""Builds and runs the end-to-end EarthQube benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

The benchmark is compiled from source (Release) into .bench_build/perfbench
on first use; later runs only re-check the build.  Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
Exits non-zero, printing no result, when the sources are missing or the
build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    jobs = str(os.cpu_count() or 1)
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", target],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode)


def main():
    if sys.argv[1:2] == ["--selftest"]:
        build("perfbench_test")
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode)
    build("earthqube_bench")
    done = subprocess.run([os.path.join(BUILD, "earthqube_bench")] + sys.argv[1:],
                          cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
