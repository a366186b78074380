#!/usr/bin/env python3
"""Self-test of the benchmark's output check.

Usage (from the repository root):

    python3 perfbench/selftest.py

1. A clean run at a pinned seed passes (exit 0, "correct": true).
2. One delivered reading off (--inject off-by-one) fails the command and
   raises failed_share, at a pinned seed and at an unpinned one.
3. A stale journal that skips a run (--inject stale-journal) fails the
   command and raises failed_share.
4. The pinned flood_grid row at seed 31 equals the 4k/s31 row of
   BENCH_kernel.json, and flood_grid at 16,000 sensors (the kernel_scale
   point the workload was cut down from) still gives its 16k/s31 row
   (both skipped when that file is absent).
5. In a git checkout, BENCHMARK.json and every file under perfbench/ are
   tracked (the root .gitignore ignores *.json).

Exits 1 if any case fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
failures = []


def run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "1",
         *args], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    share = None
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[1] == "failed_share":
            share = float(parts[2])
    return proc.returncode, result, share, proc


def expect(name, ok, proc=None):
    print("%-58s %s" % (name, "ok" if ok else "FAILED"))
    if not ok:
        failures.append(name)
        if proc is not None:
            sys.stdout.write(proc.stdout[-3000:] + proc.stderr[-3000:])


def expect_pass(name, *args):
    code, result, share, proc = run(*args)
    expect(name, code == 0 and result is not None and result["correct"]
           and result["failed"] == 0 and share == 0.0, proc)


def expect_fail(name, *args):
    code, result, share, proc = run(*args)
    expect(name, code == 1 and result is not None and not result["correct"]
           and result["failed"] > 0 and share is not None and share > 0.0,
           proc)


def pinned_row(workload, seed):
    with open(os.path.join(HERE, "pins.txt")) as f:
        for line in f:
            parts = line.split()
            if parts[:2] == [workload, str(seed)]:
                return dict((k, int(v)) for k, v in
                            (p.split("=") for p in parts[2:]))
    return None


def kernel_row(rows, run_id):
    row = next(r for r in rows if r["id"] == run_id)
    return {"frames": row["perf_frames_transmitted"],
            "generated": row["generated"], "delivered": row["delivered"],
            "control_bytes": row["control_bytes"],
            "data_bytes": row["data_bytes"], "collisions": row["collisions"]}


def run_16k():
    """Runs flood_grid at 16,000 sensors, seed 31, unpinned; returns the
    deterministic fields of seed 31 from its pin-candidate line."""
    work = os.path.join(ROOT, ".bench_build", "perfbench", "selftest")
    os.makedirs(work, exist_ok=True)
    with open(os.path.join(HERE, "workloads", "flood_grid.spec")) as f:
        spec = f.read()
    spec = spec.replace("[variant 4k]\nsensors = 4000\narea = 1270\n"
                        "rate = 0.0175", "[variant 16k]\nsensors = 16000\n"
                        "area = 2530\nrate = 0.0044")
    spec = spec.replace("variant = 4k", "variant = 16k")
    with open(os.path.join(work, "flood_grid.spec"), "w") as f:
        f.write(spec)
    pins = os.path.join(work, "pins.txt")
    open(pins, "w").close()
    proc = subprocess.run(
        [os.path.join(ROOT, ".bench_build", "perfbench", "wmsn_perfbench"),
         "--workload", "flood_grid", "--seed", "31", "--seconds", "1",
         "--spec-dir", work, "--pins", pins, "--work-dir", work],
        cwd=ROOT, capture_output=True, text=True)
    for line in proc.stdout.splitlines():
        parts = line.split()
        if parts[:3] == ["pin-candidate:", "flood_grid", "31"]:
            return dict((k, int(v)) for k, v in
                        (p.split("=") for p in parts[3:]))
    return {}


def check_kernel_rows():
    path = os.path.join(ROOT, "BENCH_kernel.json")
    if not os.path.exists(path):
        print("%-58s skipped (no BENCH_kernel.json)" % "pins vs BENCH_kernel")
        return
    with open(path) as f:
        rows = json.load(f)["runs"]
    want = kernel_row(rows, "4k/s31")
    pin = pinned_row("flood_grid", 31) or {}
    expect("pinned flood_grid s31 == BENCH_kernel.json 4k/s31",
           all(pin.get(k) == v for k, v in want.items()))
    want = kernel_row(rows, "16k/s31")
    got = run_16k()
    expect("flood_grid at 16k, s31 == BENCH_kernel.json 16k/s31",
           all(got.get(k) == v for k, v in want.items()))


def check_tracked():
    if subprocess.run(["git", "rev-parse"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        print("%-58s skipped (not a git checkout)" % "files tracked by git")
        return
    wanted = ["BENCHMARK.json"]
    for d, _, files in os.walk(HERE):
        wanted += [os.path.relpath(os.path.join(d, f), ROOT) for f in files
                   if "__pycache__" not in d]
    tracked = set(subprocess.run(["git", "ls-files", "--", *wanted],
                                 cwd=ROOT, capture_output=True,
                                 text=True).stdout.split())
    missing = sorted(set(wanted) - tracked)
    expect("benchmark files tracked by git" +
           (" (missing: %s)" % ", ".join(missing) if missing else ""),
           not missing)


def main():
    expect_pass("clean secmlr_mobile run passes", "--workload",
                "secmlr_mobile")
    expect_fail("delivered off by one fails (pinned seed)", "--workload",
                "secmlr_mobile", "--inject", "off-by-one")
    expect_fail("delivered off by one fails (unpinned seed)", "--workload",
                "secmlr_mobile", "--seed", "990001", "--inject",
                "off-by-one")
    expect_fail("stale journal skipping a run fails", "--workload",
                "campaign_churn", "--inject", "stale-journal")
    check_kernel_rows()
    check_tracked()
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
