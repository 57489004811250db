#!/usr/bin/env python3
"""Builds the benchmark driver from the checkout and runs one workload.

    python3 perfbench/run.py --workload serve_light --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first run configures and builds the
repository's libraries and the driver in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed.  Build output goes to stderr, so the driver's result JSON stays
the last line of stdout.  Exits non-zero without a result when the build
fails; otherwise the driver replaces this process and its exit code is
the run's.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve_light", "serve_campaign", "design_flow")


def build(root, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    driver = os.path.join(build_dir, "perfbench_driver")
    sys.stdout.flush()
    sys.stderr.flush()
    # The driver replaces this process: its stdout is the result, and no
    # interpreter stays behind it while it measures.
    os.execv(driver, [driver, "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", repr(args.seconds), "--trace", args.trace])


if __name__ == "__main__":
    sys.exit(main())
