#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result records written by run.py (.bench_out/records/*.json)
or directories of them, e.g. the records of a parent commit and of a change,
each made with the same run length. Refuses (exit 2) when the records' host
facts differ: nproc, CPU model, compiler, kernel or build type. Otherwise
prints, per workload, each end-to-end metric's median and quartiles on both
sides and exits 1 when a median is worse than BASE's by more than the
metric's bound in BENCHMARK.json, or when a run failed its correctness gate.
Per-layer counts from traced runs are compared exactly, seed by seed.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(target):
    path = Path(target)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    if not records:
        sys.exit(f"compare: no records in {target}")
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, new = load(argv[1]), load(argv[2])
    facts = {json.dumps(r["facts"], sort_keys=True) for r in base + new}
    if len(facts) > 1:
        print("compare: refusing to compare runs whose host facts differ:",
              file=sys.stderr)
        for f in sorted(facts):
            print(f"  {f}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    print(f"host: {base[0]['facts']}")

    status = 0
    for side, records in (("base", base), ("new", new)):
        for r in records:
            if not r["result"]["correct"] or r["result"]["failed"]:
                print(f"{side} {r['workload']} seed {r['seed']}: correctness "
                      f"gate failed: {r['failures'][:3]}")
                status = 1

    workloads = sorted({r["workload"] for r in base + new})
    for workload in workloads:
        timed = [[r for r in side if r["workload"] == workload
                  and r["trace"] == 0] for side in (base, new)]
        if all(timed):
            lengths = {r["seconds"] for r in timed[0] + timed[1]}
            if len(lengths) > 1:
                print(f"compare: {workload} runs differ in length: "
                      f"{sorted(lengths)}", file=sys.stderr)
                return 2
            print(f"\n{workload} ({len(timed[0])} base runs, "
                  f"{len(timed[1])} new runs)")
            for name, metric in e2e.items():
                b = quartiles([r["result"]["metrics"][name]["value"]
                               for r in timed[0]])
                n = quartiles([r["result"]["metrics"][name]["value"]
                               for r in timed[1]])
                change = n[1] / b[1] - 1.0 if b[1] else 0.0
                worse = change if metric["better"] == "lower" else -change
                verdict = "ok"
                if worse > metric["bound"]:
                    verdict = f"WORSE beyond bound {metric['bound']:.0%}"
                    status = 1
                print(f"  {name:14s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                      f"  new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]  "
                      f"{change:+.1%} {metric['unit']}  {verdict}")
        traced = [{r["seed"]: r for r in side if r["workload"] == workload
                   and r["trace"] == 1} for side in (base, new)]
        for seed in sorted(set(traced[0]) & set(traced[1])):
            b = traced[0][seed]["result"]["metrics"]
            n = traced[1][seed]["result"]["metrics"]
            moved = [f"{k}: {b[k]['value']:.10g} -> {n[k]['value']:.10g}"
                     for k, m in layers.items()
                     if m["unit"] in ("count", "B") and k in b and k in n
                     and b[k]["value"] != n[k]["value"]]
            print(f"  traced seed {seed}: "
                  + ("per-layer counts identical" if not moved
                     else "counts moved: " + "; ".join(moved)))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
