#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build` at the checkout root). Its standard output is passed
through; the last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The exit code is 0 only when the build and the
run succeed and that last line is such an object.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pt2pt_vector", "alltoall_struct", "incast_credits", "scale_alltoall")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.exit(f"run.py: build failed with exit code {build.returncode}")

    # Fixed glibc thresholds: freed MiB-sized buffers stay in the heap
    # instead of being unmapped and faulted back in on the next
    # allocation. With the default sliding threshold, kernel page-fault
    # time is about a quarter of pt2pt_vector's process time and swings
    # with the host's memory pressure (see README.md). Allocation churn
    # stays visible in the per-layer allocation counts.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    run = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        sys.exit(f"run.py: benchmark exited with code {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"run.py: malformed result line: {lines[-1]}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
