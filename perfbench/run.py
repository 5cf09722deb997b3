#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench program (perfbench/CMakeLists.txt, on top of the
simulator sources in src/) into .bench_build/ at the repository root,
then runs one workload:

    python3 perfbench/run.py --workload single-mid --seed 1 \
        --seconds 20 --trace 0

Workloads: single-mid, single-mem, fleet-capped (see README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
and writes the span file to .bench_build/spans/. The last line of
standard output is the program's JSON result; build output goes to
standard error. Exits nonzero, printing no result, when the build or
the run fails; exits 1 after printing the result when a correctness
check failed.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("single-mid", "single-mem", "fleet-capped")

# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build perfbench; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken workloads, for the self-test")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must be in [1, 120]")

    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        suffix = "-tiny" if args.tiny else ""
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}{suffix}.jsonl")]

    # The simulator reads COSCALE_* overrides (memory backend, knob
    # space, auditing, job count); the benchmark pins the defaults.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("COSCALE_")}
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it on timeout.
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    has_result = bool(lines) and lines[-1].startswith("{")
    if done.returncode not in (0, 1) or not has_result:
        for line in lines:
            if not line.startswith("{"):
                print(line)
        print(f"run.py: perfbench exited with {done.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
