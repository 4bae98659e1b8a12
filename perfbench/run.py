#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
perfbench package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls only rebuild what changed.  Build output goes to stderr,
so the last line on stdout is the benchmark's JSON result.  Exit codes: the
benchmark's own (0 ok, 1 correctness violation, 2 usage), 3 for a failed
build, 4 for a run that exceeded its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tcp_session", "sim_vc_hotpath", "sim_tier_halt", "threads_dup_replay")
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    """Configure (once) and build; returns the benchmark binary's path."""
    def step(cmd):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(3)

    configured = any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", build_dir, "-j", jobs])
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(source_dir, os.path.join(target_root, "perfbench"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(4)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
