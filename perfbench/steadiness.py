#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

For every workload, runs the benchmark once per seed and prints, for each
metric, the median, the first and third quartiles, and the spread: the
distance between the quartiles as a share of the median (quartiles as
Python's statistics.quantiles(values, n=4) gives them).

    python3 perfbench/steadiness.py                      # seeds 1-10
    python3 perfbench/steadiness.py --first-seed 101     # seeds 101-110
    python3 perfbench/steadiness.py --trace 1 --runs 1

Run it from the repository root. It reads the command, the run length and
the workloads from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            if bound is not None:
                worst = max(worst, spread / bound)
            print(f"  {name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}")
        print(flush=True)
    if args.trace == "0":
        print(f"largest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
