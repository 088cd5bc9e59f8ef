#!/usr/bin/env python3
"""Seed-to-seed spread of the benchmark's end-to-end metrics.

Runs the benchmark command of BENCHMARK.json once per workload and seed,
from the repository root, and reports for every end-to-end metric the
median of the runs and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of that median,
next to the metric's bound.  The table is printed and, with --out,
written as JSON.

  python3 benchmark/spread.py --seeds 1-10 --out benchmark/baseline.json
  python3 benchmark/spread.py --workload serve-mix --seeds 11,12
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stdout[-2000:]}")
    return result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--out", help="write the table as JSON here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    metrics = manifest["end_to_end"]
    seeds = seeds_of(args.seeds)

    table = {}
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in seeds:
            result, wall = run_once(manifest["command"], workload, seed,
                                    manifest["run_seconds"])
            walls.append(wall)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
        rows = {}
        for m in metrics:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            rows[m["name"]] = {
                "median": median,
                "iqr": q3 - q1,
                "spread": spread,
                "bound": m["bound"],
                "within_third_of_bound": spread < m["bound"] / 3,
                "values": vals,
            }
            print(f"  {workload:22} {m['name']:12} median {median:12.6g} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f}"
                  f"{'' if spread < m['bound'] / 3 else '  (>= bound/3)'}")
        table[workload] = {"seeds": seeds, "max_wall_s": max(walls), "metrics": rows}

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"run_seconds": manifest["run_seconds"], "workloads": table},
                      f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
