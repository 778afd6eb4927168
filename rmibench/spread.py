#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how much each figure spreads.

    python3 rmibench/spread.py [--seeds 10] [--seconds <run_seconds>] [workload ...]

For every workload (default: all in BENCHMARK.json) it runs
`rmibench/run.py --trace 0` once per seed 1..N, then prints for every
end-to-end metric the median of the runs, their spread (the distance
between the first and third quartile, statistics.quantiles(values, n=4),
as a share of the median) and the values themselves.  A spread above a
third of the metric's bound in BENCHMARK.json is flagged (setup_s
excepted, whose bound gates only its median).  Exits 1 if any run failed
or reported correct=false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    result = json.loads(lines[-1])
    return result if result["correct"] else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for w in workloads:
        values = {}
        for seed in range(1, args.seeds + 1):
            result = run_once(w, seed, args.seconds)
            if result is None:
                print("%s seed %d: FAILED" % (w, seed))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d seeds)" % (w, args.seeds))
        for name, vals in values.items():
            s = spread(vals)
            flag = ""
            if name != "setup_s":
                flag = "  OVER 1/3 BOUND" if s > bounds[name] / 3 else ""
            print("  %-32s median %14.6g  spread %.4f%s\n      %s"
                  % (name, statistics.median(vals), s, flag,
                     " ".join("%.6g" % v for v in vals)))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
