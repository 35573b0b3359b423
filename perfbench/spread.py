#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py WORKLOAD [RUNS] [FIRST_SEED]

Runs the benchmark RUNS times (default 10) on one workload, each with
another seed, and prints for every end-to-end metric its median and
its interquartile range as a share of the median, beside the bound
BENCHMARK.json gives it.
"""

import json
import statistics
import subprocess
import sys


def main():
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    first = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, first + runs):
        out = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        res = json.loads(out.stdout.splitlines()[-1])
        if out.returncode != 0 or not res["correct"]:
            sys.exit("seed %d: run failed" % seed)
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items())), flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print("%-14s median=%-12.5g iqr/median=%.3f bound=%.2f" %
              (m["name"], statistics.median(v), (q3 - q1) / med, m["bound"]))


if __name__ == "__main__":
    main()
