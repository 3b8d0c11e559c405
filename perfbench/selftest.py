#!/usr/bin/env python3
"""Self-test of the repository benchmark, on smoke-sized grids.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, prints every metric BENCHMARK.json names
   (end_to_end with --trace 0, per_layer with --trace 1), each by name with its
   unit on a "metric" line and in the closing JSON object, and passes its checks.
2. A deliberately truncated drain (--drain-s 0) leaves queries in flight, so the
   conservation check must fail the run: non-zero exit, "correct": false.

Exits non-zero on the first violation.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(*args):
    cmd = [sys.executable, str(HERE / "run.py"), "--short", "--seed", "5",
           "--seconds", "1", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, proc.stdout, result


def fail(message):
    sys.exit("selftest: FAIL: " + message)


def check_metrics(workload, trace):
    code, out, result = run("--workload", workload, "--trace", str(trace))
    where = f"{workload} --trace {trace}"
    if code != 0 or result is None or result["correct"] is not True:
        fail(f"{where} exited {code}:\n{out}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["attempted"] < 1 or result["failed"] != 0:
        fail(f"{where}: attempted {result['attempted']}, failed {result['failed']}")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in expected}:
        fail(f"{where}: metrics {sorted(result['metrics'])}")
    printed = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for m in expected:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail(f"{where}: {m['name']} has unit {result['metrics'][m['name']]['unit']}")
        if printed.get(m["name"]) != m["unit"]:
            fail(f"{where}: no 'metric {m['name']} <value> {m['unit']}' line")
    print(f"selftest: ok {where}: {len(expected)} metrics with units")


def check_truncated_drain():
    code, out, result = run("--workload", "query_storm", "--drain-s", "0")
    if code == 0 or result is None or result["correct"] is not False:
        fail(f"truncated drain was not caught (exit {code}):\n{out}")
    if "conservation" not in out:
        fail(f"truncated drain failed for another reason:\n{out}")
    print("selftest: ok truncated drain trips the conservation check")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace)
    check_truncated_drain()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
