#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/spread.py [--runs 10] [--seconds S] [WORKLOAD ...]

Runs each workload (default: all in BENCHMARK.json) once per seed
1..runs through run.py, untraced, one run at a time, and prints for
every end_to_end metric its median and its interquartile spread as a
share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound. A spread above a third of the bound is flagged: the
benchmark is meant to stay well inside its own bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print every run's value")
    p.add_argument("workloads", nargs="*")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    flagged = False
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            last = proc.stdout.strip().splitlines()[-1:]
            if proc.returncode != 0 or not last:
                print("%s seed %d FAILED (exit %d)" % (w, seed, proc.returncode))
                flagged = True
                continue
            for name, m in json.loads(last[0])["metrics"].items():
                values[name].append(m["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bad = spread > m["bound"] / 3
            flagged = flagged or bad
            print("%-17s %-22s median %-12.6g spread %6.3f  bound %.2f %s" % (
                w, m["name"], med, spread, m["bound"], "<-- WIDE" if bad else ""),
                flush=True)
            if args.verbose:
                print("    " + " ".join("%.6g" % x for x in v))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
