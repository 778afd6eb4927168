#!/usr/bin/env python3
"""Builds rmibench from this checkout's sources, then runs one workload.

    python3 rmibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/rmibench (default .bench_build/rmibench)
under the checkout root; the first run configures and compiles the library
and the benchmark, later runs only relink what changed.  Build output goes
to stderr.

With --trace 0 the measuring time is split over SUB_RUNS fresh processes
with the same seed, and each metric is reported as the mean of the middle
half of their values.  On the shared virtual machine this was built on,
one process keeps a host speed for its whole life that differs from the
next process's by up to a third, so a run samples several processes
instead of one; the middle-half mean ignores a stray process and, unlike
a median, moves smoothly when processes fall into two speed groups.  With --trace 1 one process measures
the whole time (its traced and untraced halves must share a process).

The last line of stdout is the JSON result.  Exits 1 when a check failed
or a process died, 2 without a result when the library sources are
missing, the build fails or the arguments are bad.
"""
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUB_RUNS = 12
RUN_BUDGET_S = 170  # a whole run must end within 180 s


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "rmibench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out


def option(argv, name):
    """The value following `name` in argv, or None."""
    for i in range(len(argv) - 1):
        if argv[i] == name:
            return argv[i + 1]
    return None


def with_seconds(argv, seconds):
    out = list(argv)
    out[out.index("--seconds") + 1] = str(seconds)
    return out


def middle_mean(values):
    """Mean of the middle half: drops the lowest and highest quarter."""
    values = sorted(values)
    cut = len(values) // 4
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


def combine(results):
    """One result from several processes' results."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        metrics[name] = {
            "value": middle_mean(r["metrics"][name]["value"] for r in results),
            "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("rmibench: no library sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    try:
        exe = os.path.join(build("rmibench"), "rmibench")
    except (OSError, RuntimeError) as e:
        print("rmibench: %s" % e, file=sys.stderr)
        return 2

    seconds = option(argv, "--seconds")
    processes = 1
    if option(argv, "--trace") == "0" and seconds and seconds.isdigit():
        processes = max(1, min(SUB_RUNS, int(seconds)))
        argv = with_seconds(argv, int(seconds) // processes)

    deadline = time.monotonic() + RUN_BUDGET_S
    results = []
    for i in range(processes):
        try:
            proc = subprocess.run([exe] + argv, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("rmibench: run exceeded %d s" % RUN_BUDGET_S, file=sys.stderr)
            return 1
        lines = proc.stdout.rstrip("\n").split("\n")
        result = None
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines.pop())
        print("\n".join(lines))
        if result is None:
            return proc.returncode or 1
        results.append(result)

    if processes > 1:
        print("\nmiddle-half mean over %d processes:" % processes)
        for name, m in combine(results)["metrics"].items():
            print("%-32s %22.6f  %s" % (name, m["value"], m["unit"]))
    result = combine(results)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
