#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json, and the unlisted
query_while_loading, untraced and traced at 2% of the normal input size
through perfbench/run.py, and fails unless each run exits
0, passes every output check, and prints exactly the metric names and units
BENCHMARK.json lists (non-zero for the end-to-end ones).
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(workload, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", trace, "--scale", "0.02"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        return None, f"exit code {done.returncode}"
    return json.loads(done.stdout.strip().splitlines()[-1]), None


# Implemented but not listed in BENCHMARK.json (see README.md); still
# checked here so it keeps working.
UNLISTED_WORKLOADS = ["query_while_loading"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS:
        for trace, listed in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            result, error = run(workload, trace)
            if error:
                problems.append(f"{label}: {error}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: wrong result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{label}: output checks failed")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
            expected = {m["name"]: m["unit"] for m in listed}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                missing = sorted(set(expected) - set(printed))
                extra = sorted(set(printed) - set(expected))
                wrong = sorted(n for n in set(printed) & set(expected)
                               if printed[n] != expected[n])
                problems.append(f"{label}: missing {missing}, extra {extra}, "
                                f"wrong units {wrong}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {name} is not a number")
                elif trace == "0" and value == 0:
                    problems.append(f"{label}: {name} reads 0")
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
