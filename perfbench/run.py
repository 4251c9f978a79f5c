#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload mandelbrot|osem|service_mix \
        --seed N --seconds S --trace 0|1 [--trace-file PATH]

Run it from the root of a SkelCL checkout. The driver (perfbench/*.cpp)
is compiled together with the library sources of the checkout into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
run configures and builds, later runs only rebuild what changed.

Each run gets a fresh private scratch directory (its kernel caches) that
is deleted afterwards, and runs with every inherited SKELCL_* variable
removed. The last line of standard output is the driver's JSON result;
the exit code is the driver's (0 only when every output was correct).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mandelbrot", "osem", "service_mix")
DRIVER_TIMEOUT_S = 170


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("SKELCL_")}


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(base)


def build(build_dir, env):
    """Configures (once) and builds the driver; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_driver(cmd, env):
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-file",
                        help="also write the traced run here (--trace 1)")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    env = clean_env()
    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    os.makedirs(root, exist_ok=True)
    if not build(build_dir, env):
        return 1

    scratch = tempfile.mkdtemp(prefix="run-", dir=root)
    try:
        cmd = [os.path.join(build_dir, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
        if args.trace_file:
            cmd += ["--trace-file", os.path.abspath(args.trace_file)]
        sys.stdout.flush()
        return run_driver(cmd, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
