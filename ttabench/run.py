#!/usr/bin/env python3
"""Builds the library and the time-to-answer benchmark, then runs it.

    python3 ttabench/run.py --workload <paper_sweep|large_n|exact|ppkd_mix|all>
                            --seed N --seconds S --trace 0|1

Run from the repository root.  --seconds defaults to BENCHMARK.json's
run_seconds.  The first run configures and builds the library in Release
under .bench_build/ (about a minute on four cores); later runs only check
that the build is current.  Build output goes to
.bench_build/build.log; stdout carries the benchmark's report, whose last
line is one JSON object (see ttabench/README.md).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
JOBS = "4"


def run_build(cmd):
    """Runs one build step, logging to .bench_build/build.log; on failure
    prints the log to stderr and exits."""
    log = BUILD / "build.log"
    with open(log, "a") as out:
        result = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT)
    if result.returncode != 0:
        sys.stderr.write(log.read_text()[-20000:])
        sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit("run.py: no CMakeLists.txt at the repository root")
    BUILD.mkdir(parents=True, exist_ok=True)
    (BUILD / "build.log").write_text("")
    lib = BUILD / "lib"
    prefix = BUILD / "prefix"
    bench = BUILD / "tta"
    if not (lib / "CMakeCache.txt").is_file():
        run_build(["cmake", "-S", str(ROOT), "-B", str(lib),
                   "-DCMAKE_BUILD_TYPE=Release",
                   "-DPPK_BUILD_TESTS=OFF", "-DPPK_BUILD_BENCHMARKS=OFF",
                   "-DPPK_BUILD_EXAMPLES=OFF",
                   f"-DCMAKE_INSTALL_PREFIX={prefix}"])
    run_build(["cmake", "--build", str(lib), "-j", JOBS])
    run_build(["cmake", "--install", str(lib)])
    if not (bench / "CMakeCache.txt").is_file():
        run_build(["cmake", "-S", str(HERE), "-B", str(bench),
                   "-DCMAKE_BUILD_TYPE=Release",
                   f"-DCMAKE_PREFIX_PATH={prefix}",
                   f"-DPPK_SOURCE_DIR={ROOT}"])
    run_build(["cmake", "--build", str(bench), "-j", JOBS])
    return bench


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_sweep", "large_n", "exact",
                                 "ppkd_mix", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]

    bench = build()
    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    # Relative paths keep the daemon's AF_UNIX socket path short.
    cmd = [str(bench / "tta_bench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--ppkd", str(bench / "ppkd"),
           "--work-dir", os.path.relpath(work, ROOT)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
