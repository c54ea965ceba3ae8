#!/usr/bin/env python3
"""Quick self-test of the benchmark's output contract.

Runs every workload of BENCHMARK.json once untraced and once traced, on a
tiny budget (seed 0, one second), and asserts that

* the last stdout line is the result object with exactly the keys
  correct / attempted / failed / metrics, and every output checked out;
* the untraced run emits exactly the end_to_end metrics and the traced run
  exactly the per_layer metrics, each with the unit BENCHMARK.json gives it;
* every metric name matches [A-Za-z0-9_.-]+, and no end-to-end value is 0.

Run it from the repository root:

    python3 benchmark/selftest.py
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(spec, workload, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise AssertionError(f"{workload} trace={trace}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            result = run(spec, workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            checks = [
                (set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys"),
                (result["correct"] is True and result["failed"] == 0, "outputs correct"),
                (result["attempted"] >= 1, "attempted >= 1"),
                (got == expected, f"metric names and units (missing "
                 f"{sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, "
                 f"unit mismatches {sorted(n for n in got if n in expected and got[n] != expected[n])})"),
                (all(NAME.fullmatch(n) for n in got), "metric names match [A-Za-z0-9_.-]+"),
            ]
            if trace == 0:
                zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
                checks.append((not zero, f"end-to-end values are never 0 ({zero})"))
            for ok, what in checks:
                print(f"{'ok  ' if ok else 'FAIL'} {label}: {what}")
                if not ok:
                    failures.append(f"{label}: {what}")
    if failures:
        sys.exit(f"{len(failures)} self-test check(s) failed")
    print("self-test passed")


if __name__ == "__main__":
    main()
