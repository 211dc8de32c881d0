#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at self-test size (run.py --tiny), untraced and traced,
and checks that each run verifies its outputs, prints every metric listed
in BENCHMARK.json as a "metric <name> <value> <unit>" line with that unit,
and ends with a well-formed result object (untraced end-to-end metrics
non-zero). Then checks that a directory holding only BENCHMARK.json and
the benchmark's own files makes run.py fail without printing a result.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(cond, msg):
    if not cond:
        print(f"selftest FAILED: {msg}")
        sys.exit(1)


def run(cwd, workload, trace, timeout=900):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    lists = {0: bench["end_to_end"], 1: bench["per_layer"]}
    # frame-pipeline is not a listed workload (see NOTES.md) but prints the
    # same metrics, and traced fig7-matrix runs embed it.
    names = [w["name"] for w in bench["workloads"]] + ["frame-pipeline"]
    for name in names:
        for trace in (0, 1):
            what = f"{name} trace={trace}"
            proc = run(ROOT, name, trace)
            check(proc.returncode == 0,
                  f"{what} exited {proc.returncode}\n{proc.stdout[-2000:]}"
                  f"{proc.stderr[-2000:]}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, f"{what}: outputs did not verify")
            printed = {}
            for line in lines:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            for m in lists[trace]:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{what}: metric {m['name']} missing or wrong unit")
                check(printed.get(m["name"]) == m["unit"],
                      f"{what}: metric {m['name']} not printed with its unit")
                if trace == 0:
                    check(got["value"] > 0, f"{what}: {m['name']} is 0")
            check(len(result["metrics"]) == len(lists[trace]),
                  f"{what}: unlisted metrics in the result")
            print(f"selftest ok: {what}")

    # Without the sources the benchmark must fail and print no result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jit-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "run.py without sources did not fail cleanly")
    shutil.rmtree(bare)
    print("selftest ok: fails without sources")


if __name__ == "__main__":
    main()
