#!/usr/bin/env python3
"""Build and run the DLFS benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the DLFS library modules plus the benchmark in main.cpp)
into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when
that is set; later runs only re-check the build. Build output goes to
standard error, so the last line on standard output stays the
benchmark's JSON result. Reports and traces are written to .bench_out/.

Workloads: small-local, large-remote, peer-warm, repair-contended
(perfbench/workloads.json says what each one stresses and why).
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # a run must end within 180 s once the build exists


def build(build_dir: Path) -> Path:
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "dlfs_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    try:
        binary = build(target / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    started = time.monotonic()
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(ROOT / ".bench_out")]
    try:
        # subprocess.run kills and reaps the benchmark process if it overruns.
        done = subprocess.run(cmd, cwd=ROOT, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded its deadline after "
              f"{time.monotonic() - started:.0f} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
