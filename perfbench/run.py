#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/presto_perf.cc).

    python3 perfbench/run.py                      # every workload, human-readable
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is built from source with CMake into .bench_build/perfbench at the
root of the checkout (build output goes to stderr). With --workload, the last
line of stdout is the run's JSON result and the exit code is non-zero when an
output check fails. Without it, every workload runs in turn and the exit code is
non-zero if any of them fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("model_steady", "query_storm", "cells_procs")
# Every run must end within 180 s; leave the wrapper room to report a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds presto_perf and presto_cell; exits on failure."""
    to_stderr = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, **to_stderr).returncode != 0:
            sys.exit("run.py: configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      **to_stderr).returncode != 0:
        sys.exit("run.py: building the benchmark failed")
    return BUILD / "presto_perf"


def run_one(binary, workload, args):
    """Runs one workload, streaming its stdout; returns its exit code."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    if args.drain_s is not None:
        cmd += ["--drain-s", str(args.drain_s)]
    # Own process group, so a hung run takes its forked cell workers down with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="smoke-sized grids (self-test; timings meaningless)")
    parser.add_argument("--drain-s", type=float,
                        help="override the post-window drain (self-test hook)")
    args = parser.parse_args()

    binary = build()
    if args.workload:
        return run_one(binary, args.workload, args)
    failed = [w for w in WORKLOADS if run_one(binary, w, args) != 0]
    if failed:
        print("run.py: failed: " + ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
