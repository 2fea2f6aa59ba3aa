#!/usr/bin/env python3
"""Steadiness check for the xqa benchmark.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Runs one workload repeatedly from the root of a checkout, each run with the
next seed, and prints for every metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median. With --trace 0 each spread
is compared with the metric's bound from BENCHMARK.json; the bounds are set
from these figures and re-checked against them. The run length defaults to
the one BENCHMARK.json fixes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main(argv):
    parser = argparse.ArgumentParser(description="benchmark steadiness")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, check=False)
        lines = done.stdout.decode("utf-8").strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, done.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: wrong answers" % seed)
            return 1
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: attempted %d failed %d  %s" % (
            seed, result["attempted"], result["failed"],
            " ".join("%s=%.4g" % (name, result["metrics"][name]["value"])
                     for name in bounds if name in result["metrics"])),
            flush=True)

    summary = {}
    print("%-36s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    worst = True
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        ok = bound is None or name == "setup_s" or spread <= bound
        worst = worst and ok
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "unit": units[name]}
        print("%-36s %12.5g %12.5g %12.5g %8.4f %6s%s" %
              (name, median, q1, q3, spread,
               "" if bound is None else "%.3f" % bound,
               "" if ok else "  OVER BOUND"))
    print("failed share per run:", sorted(set(shares)))
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "seconds": seconds, "metrics": summary}))
    return 0 if worst else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
