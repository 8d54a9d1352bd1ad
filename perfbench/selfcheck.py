#!/usr/bin/env python3
"""Self-check of the verdict-path benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload the benchmark runs (those in BENCHMARK.json, plus
wire_unique, which is kept runnable but out of BENCHMARK.json because its
tail latency is not steady enough to compare on a shared machine) it makes
a tiny run (2 seconds) with --trace 0 and with --trace 1 and asserts that
the result line has exactly the declared metrics, with their units, that
the run is correct and that nothing failed.  Then it runs every workload
once more with one expected verdict deliberately wrong (--inject-mismatch)
and asserts that the benchmark catches it: correct is false, failed is at
least 1, and the exit code is not 0.  Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "2"
SEED = "7"


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
               "--trace", trace, *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def check(condition, message, failures):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads + sorted({"wire_unique"} - set(workloads)):
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            code, result = run(workload, trace)
            check(code == 0 and result is not None, f"{label}: exit 0 with a "
                  "result line", failures)
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys", failures)
            units = {k: v.get("unit") for k, v in result["metrics"].items()}
            missing = sorted(set(declared[trace]) - set(units))
            extra = sorted(set(units) - set(declared[trace]))
            check(not missing and not extra,
                  f"{label}: metric names (missing {missing}, extra {extra})",
                  failures)
            wrong_units = sorted(k for k in units
                                 if k in declared[trace]
                                 and units[k] != declared[trace][k])
            check(not wrong_units, f"{label}: units {wrong_units}", failures)
            check(all(isinstance(v.get("value"), (int, float))
                      for v in result["metrics"].values()),
                  f"{label}: numeric values", failures)
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{label}: correct, {result['attempted']} attempted, "
                  f"{result['failed']} failed", failures)

        code, result = run(workload, "0", ["--inject-mismatch"])
        caught = (code != 0 and result is not None and
                  result["correct"] is False and result["failed"] >= 1)
        check(caught, f"{workload} --inject-mismatch: wrong expected verdict "
              f"caught ({result['failed'] if result else 'no'} failed, exit "
              f"{code})", failures)

    print(f"{len(failures)} check(s) failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
