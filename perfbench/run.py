#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload converge-scale --seed 1 --seconds 10 --trace 0

The benchmark (perfbench/*.cpp) is compiled together with the library sources
in src/ into the build directory named by CARGO_TARGET_DIR (default
.bench_build) under the current directory; later runs rebuild only what
changed.  Build output goes to stderr, so stdout carries only the binary's
report, whose last line is the JSON result.  Exits non-zero without a result
when src/ is missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "event_engine.hpp")):
        print("perfbench: library sources (src/) not found next to perfbench/", file=sys.stderr)
        return None
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(os.path.join(build_root, "perfbench")))
    if binary is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
