#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py WORKLOAD [--seeds 1-10] [--seconds S] [--trace 0|1]

For every metric prints the median over the seeds and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median: the figure BENCHMARK.json's bounds are set
against.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    if a.seconds is None:
        with open("BENCHMARK.json") as f:
            a.seconds = str(json.load(f)["run_seconds"])
    lo, hi = (int(x) for x in a.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", a.workload, "--seed", str(seed),
             "--seconds", a.seconds, "--trace", a.trace],
            capture_output=True, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr)
        for name, v in res["metrics"].items():
            values.setdefault(name, []).append(v["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:34s} median {med:16.6f}  iqr/median {spread:8.4f}  "
              f"min {min(vs):.6f} max {max(vs):.6f}")


if __name__ == "__main__":
    main()
