#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread across seeds.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workload NAME ...]

Runs perfbench/run.py once per seed and workload (separate processes, with
tracing off), and prints for every end-to-end metric the median, the
quartiles and the spread (third minus first quartile, as a share of the
median) next to the metric's bound from BENCHMARK.json.  A spread is
marked "!" when it exceeds a third of the bound.
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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(r.stdout.strip().splitlines()[-1])
            if r.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: run failed ({r.returncode})", flush=True)
                status = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({args.seeds} seeds)")
        for name, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = "!" if spread > bounds[name] / 3 else " "
            print(f"  {name:16s} median {q2:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.3f} {flag} bound {bounds[name]}", flush=True)
    sys.exit(status)


if __name__ == "__main__":
    main()
