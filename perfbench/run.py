#!/usr/bin/env python3
"""Build the benchmark and run one measurement.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/src/main.exe with dune
(build progress goes to stderr), runs it, and passes its standard output
through: the last line is the JSON result.  The result is also written to
perfbench/results/.  Exits non-zero, printing no result, when the build or
the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "src", "main.exe")
WORKLOADS = ["er-clean", "star-hub", "er-recover", "grid-sharded"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at the checkout root; nothing to build")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "perfbench/src/main.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            timeout=840,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed with code {build.returncode}")

    out = os.path.join(HERE, "results")
    os.makedirs(out, exist_ok=True)
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", out,
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded 170 s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
