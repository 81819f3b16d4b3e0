#!/usr/bin/env python3
"""Build and run the repo benchmark (perfbench) from the root of a checkout.

    python3 perfbench/run.py --workload batch|serving|cluster --seed N \
        --seconds S --trace 0|1

Configures and builds perfbench/CMakeLists.txt (the simulator library from
src/ plus irs_perfbench) under $CARGO_TARGET_DIR (default .bench_build),
runs the metric-code self-test, then runs irs_perfbench, whose last stdout
line is the JSON result. Build output goes to stderr. Exits non-zero
without a result when the build, the self-test, or irs_perfbench fails.

Maintainers re-record the seed-1 reference digests after a deliberate model
change with:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 1 \
        --trace 0 --write-reference
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_TIMEOUT_S = 170


def run(cmd, **kw):
    return subprocess.run(cmd, stdout=sys.stderr, **kw).returncode == 0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        if not run(["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return False
    return run(["cmake", "--build", build_dir, "-j", "4"])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if not run([os.path.join(build_dir, "perfbench_selftest")],
               timeout=60):
        print("perfbench: self-test failed", file=sys.stderr)
        return 1

    spans_dir = os.path.join(root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "irs_perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--reference-dir", os.path.join(HERE, "reference"),
           "--spans-dir", spans_dir]
    if args.write_reference:
        cmd.append("--write-reference")
    try:
        return subprocess.run(cmd, timeout=BENCH_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: irs_perfbench timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
