#!/usr/bin/env python3
"""Runs each workload N times with different seeds and prints the spread.

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 5 --workloads range-pipelined --trace 1

For every metric: the median and quartiles of the runs
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and the bound
BENCHMARK.json sets for it. An end-to-end metric is "steady" when its
spread is below a third of its bound; setup_s is judged by its median
alone. Runs that fail or print no result are listed and left out. Each
run's full output is kept in .bench_build/perfbench-spread/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace, log_dir):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    log = os.path.join(log_dir, f"{workload}-seed{seed}-trace{trace}.txt")
    with open(log, "w") as f:
        f.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return None, proc.returncode
    return result, proc.returncode


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "perfbench-spread")
    os.makedirs(log_dir, exist_ok=True)

    steady = True
    for workload in args.workloads.split(","):
        values, failures = {}, []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, code = run_once(workload, seed, args.seconds, args.trace,
                                    log_dir)
            if result is None or code != 0 or not result["correct"]:
                failures.append((seed, code))
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {args.runs - len(failures)} runs"
              + (f", failed seeds {failures}" if failures else ""))
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                ok = spread < bound / 3
                steady = steady and ok
                verdict = "steady" if ok else "NOT STEADY"
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6} "
                  f"{verdict}")
        steady = steady and not failures
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
