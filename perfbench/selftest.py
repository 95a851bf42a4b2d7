#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs each workload of BENCHMARK.json once with a one-second window (the
smallest run: one operation, or one untraced and one traced operation) with
tracing off and on, and checks that:
  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  * the correctness gate passed (correct, no failed operation);
  * every end-to-end (trace 0) or per-layer (trace 1) metric of
    BENCHMARK.json is reported with its unit and a finite value, and is
    also printed by name and unit on its own line;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    run.py exits nonzero without printing a result.
Takes about two minutes on a 4-core host after the first build.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload, trace, spec):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correctness gate failed: " + "; ".join(
            l for l in lines if l.startswith("# FAILED"))[:500])
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    catalogue = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in catalogue}:
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in catalogue})}")
    printed = {tuple(l.split()[::2]) for l in lines[:-1] if len(l.split()) == 3}
    for m in catalogue:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
        if (m["name"], m["unit"]) not in printed:
            problems.append(f"{m['name']} not printed with its unit")
    for name in ("ops", "failed_ops"):
        if (name, "count") not in printed:
            problems.append(f"{name} not printed")
    return problems


def check_bare_directory():
    """run.py must fail, without a result, where the sources are absent."""
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "hpl4k", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout "
                f"{proc.stdout[-200:]!r}"]
    return []


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for problem in check_bare_directory():
        print(f"FAIL {problem}")
        failures += 1
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace, spec)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace {trace}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    print("selftest: " + ("passed" if not failures else f"{failures} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
