#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 girbench/spread.py --workload cold_d5 --seeds 1-5 [--trace 0]

Runs girbench/run.py once per seed and prints, for each metric, the
median of its values and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json. A spread above a third
of the bound is flagged: the benchmark is not steady enough to resolve
a change of that size.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--values", action="store_true", help="also print every run's value")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        start = time.time()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            print("seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        print("seed %d: %.1f s" % (seed, time.time() - start), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-34s %14s %9s %7s" % ("metric", "median", "iqr/med", "bound"))
    steady = True
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above bound/3"
            steady = False
        print("%-34s %14.6g %9.4f %7s%s" % (name, med, spread,
                                            "-" if bound is None else bound, flag))
        if args.values:
            print("    " + " ".join("%.6g" % v for v in vals))
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
