"""Run the benchmark over several seeds and print each metric's median and spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload scans --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one after the other, for its
default run length, and prints per metric the median of the runs and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="inclusive range such as 1-10")
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4f" % (name, m["value"]) for name, m in sorted(result["metrics"].items()))),
            flush=True)
    print("correct %s, failed %d of %d" % (
        all(r["correct"] for r in results), sum(r["failed"] for r in results),
        sum(r["attempted"] for r in results)))
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        median, share = spread(values)
        print("%-14s median %10.4f  spread %.4f  min %.4f  max %.4f"
              % (name, median, share, min(values), max(values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
