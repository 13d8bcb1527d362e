#!/usr/bin/env python3
"""Builds les3_perfbench from this source tree and runs one workload.

    python3 perfbench/run.py --workload knn-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The library and les3_perfbench are built with CMake (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, relative to the repository root. Build output goes to stderr, so the
last line of stdout is les3_perfbench's JSON result. The printed metric names
are checked against BENCHMARK.json before the result is passed on.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "les3_perfbench")
RUN_DIR = os.path.join(BUILD_ROOT, "perfbench-run")
TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))

    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
              *generator])
    step(["cmake", "--build", BUILD, "--target", "les3_perfbench", "-j",
          str(os.cpu_count() or 1)])


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build()
    cmd = [BINARY, "--out", RUN_DIR]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"les3_perfbench did not finish within {TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if args.self_test:
        print("\n".join(lines))
        sys.exit(proc.returncode)

    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"no result line (exit code {proc.returncode})")
    expected = expected_metrics(args.trace)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and printed != expected:
        fail(f"metrics differ from BENCHMARK.json: printed {sorted(printed)}, "
             f"expected {sorted(expected)}")
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
