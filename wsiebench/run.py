#!/usr/bin/env python3
"""Builds the wsie benchmark from source and runs one workload.

Run from the repository root:

    python3 wsiebench/run.py --workload crawl --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build, relative
to the working directory; traces and scratch stores go to .bench_out. The
build log goes to stderr, so the last stdout line is the benchmark's JSON
result. The exit code is the benchmark's (non-zero when the build fails or
an output check fails).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def cached_source_dir(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(build_dir):
    cached = cached_source_dir(build_dir)
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        # A build tree configured for another checkout cannot be reused.
        shutil.rmtree(build_dir)
        cached = None
    if cached is None:
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    made = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "wsie_perfbench", "-j", jobs],
        stdout=sys.stderr)
    return made.returncode == 0


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("wsiebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "wsie_perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
