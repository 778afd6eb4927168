#!/usr/bin/env python3
"""Byte-identity gate for the seven deterministic paper tables and the
deterministic ablations.

Every table except LU's (see check_lu_tolerance.py) is a pure function of
the virtual clock: single-stream RMIs, no host timing in the output.  So
any change to a table's text is a change to what the system computes —
a makespan, a message count, a serializer counter — and must be
deliberate.  The same holds for the ablations listed below.  Left out are
the binaries that print host time or depend on thread scheduling:
ablation_cycle_table, ablation_scaling and ablation_faults (whose lossy
rows vary run to run), and LU's bench_table3_lu.  This script runs each
binary and compares its output byte for byte against its committed
golden file in bench/golden/.

A golden file changes only in a change that means to change that table,
and that change says so (which table, which rows, why) in CHANGES.md.
Regenerate with --update after such a change and commit the result.

Usage: check_tables.py [BUILD_DIR] [--update]
  BUILD_DIR defaults to ./build; the binaries are read from BUILD_DIR/bench.
Exits 1 and prints a unified diff per binary on any difference.
"""

import argparse
import difflib
import pathlib
import subprocess
import sys

TABLES = [
    "bench_table1_linkedlist",
    "bench_table2_array2d",
    "bench_table4_lu_stats",
    "bench_table5_superopt",
    "bench_table6_superopt_stats",
    "bench_table7_webserver",
    "bench_table8_webserver_stats",
    "ablation_wire_typeinfo",
    "ablation_network",
    "ablation_precise_cycles",
    "ablation_reuse_shapecheck",
    "ablation_transport",
]

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench" / "golden"


def run_table(binary: pathlib.Path) -> str:
    if not binary.is_file():
        sys.exit(f"check_tables: {binary} not built")
    proc = subprocess.run([str(binary)], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"check_tables: {binary.name} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", nargs="?", default="build")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden files from this build")
    args = ap.parse_args()
    bench_dir = pathlib.Path(args.build_dir) / "bench"

    failed = []
    for name in TABLES:
        out = run_table(bench_dir / name)
        golden = GOLDEN_DIR / f"{name}.txt"
        if args.update:
            golden.write_text(out)
            print(f"updated {golden}")
            continue
        want = golden.read_text() if golden.is_file() else ""
        if out == want:
            print(f"ok       {name}")
            continue
        failed.append(name)
        print(f"DIFFERS  {name}")
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(keepends=True), out.splitlines(keepends=True),
            fromfile=f"golden/{name}.txt", tofile=f"{name} (this build)"))
    if failed:
        print(f"check_tables: {len(failed)} of {len(TABLES)} outputs differ "
              f"from bench/golden: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
