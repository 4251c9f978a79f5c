#!/usr/bin/env python3
"""Checks that the benchmark's exact counts repeat bit for bit.

    python3 perfbench/check_repeat.py [--seed N] [--seconds S] [WORKLOAD...]

Runs each workload twice with one seed (--trace 1, so the per-layer
counts are printed too) and compares the counts that depend only on the
inputs: the virtual makespan, the VM's kernel cycles, kernel launches and
the byte counts. On mandelbrot and service_mix they must be identical;
the exit code is 1 otherwise.

osem is known not to repeat: its error-image kernel accumulates with a
compare-and-swap loop (atomic_add_f in osem_skelcl.cl) that the VM runs
on real host atomics while work-groups run on a thread pool, so the
retry count, and with it the simulated cycles, depends on host thread
timing. For osem the check reports the measured spread of every count
and does not fail.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = ("virtual_ms", "clc.kernel_mcycles", "ocl.launches", "ocl.h2d_mb",
          "ocl.d2h_mb", "skelcl.intermediate_mb", "skelcl.halo_mb")
KNOWN_NONDETERMINISTIC = {"osem"}


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    metrics = {}
    for line in out.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            metrics[parts[1]] = float(parts[2])
    if out.returncode != 0 or not all(c in metrics for c in COUNTS):
        sys.exit("check_repeat: %s run failed (exit %d)" %
                 (workload, out.returncode))
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    broken = []
    for workload in args.workloads:
        a = run_once(workload, args.seed, args.seconds)
        b = run_once(workload, args.seed, args.seconds)
        differing = [c for c in COUNTS if a[c] != b[c]]
        for c in COUNTS:
            spread = abs(a[c] - b[c]) / abs(a[c]) if a[c] else 0.0
            print("%-12s %-24s %.17g %.17g  %s" %
                  (workload, c, a[c], b[c],
                   "same" if a[c] == b[c] else "DIFFERS by %.3g" % spread))
        if not differing:
            verdict = "exact"
        elif workload in KNOWN_NONDETERMINISTIC:
            verdict = "not exact (known: CAS retries follow host timing)"
        else:
            verdict = "NOT EXACT"
            broken.append(workload)
        print("%-12s %s" % (workload, verdict))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
