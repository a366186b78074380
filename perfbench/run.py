#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload flood_grid --seed 31 --seconds 20 --trace 0

Configures perfbench/CMakeLists.txt (Release) into .bench_build/perfbench on
first use, brings the build up to date, then runs wmsn_perfbench with the
same arguments. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. A failed build exits 3 without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "wmsn_perfbench")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "wmsn_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            sys.exit(3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["flood_grid", "secmlr_mobile",
                                 "campaign_churn"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--inject", choices=["off-by-one", "stale-journal"],
                        help="corrupt one result on purpose (self-test)")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload,
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--spec-dir", os.path.join(HERE, "workloads"),
           "--pins", os.path.join(HERE, "pins.txt"),
           "--work-dir", os.path.join(BUILD, "work")]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
