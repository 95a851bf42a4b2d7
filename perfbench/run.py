#!/usr/bin/env python3
"""tibsim repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]

Builds tibsim and the benchmark runner from the checkout it sits in (Release,
under .bench_build/), runs one workload for about T seconds, checks the
simulated outputs, prints every metric by name and unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics; --trace 1 is a separate traced run that reports the
per-layer metrics. Every result is also saved with the host's facts under
.bench_out/records/ for compare.py. README.md explains the workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
GOLDENS = HERE / "goldens" / "seed42.json"

DEFAULT_SEED = 42
# The 24 experiments registered today other than ablation_armv8_bigcluster,
# listed by name so a later registration does not change the workload.
PAPER_EXPERIMENTS = (
    "ablation_armv8", "ablation_dvfs", "ablation_eee", "ablation_interconnect",
    "campaign", "ecc_reliability", "energy_to_solution", "fig01", "fig02",
    "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "hpl_green500",
    "hydro_async", "imb_suite", "latency_penalty", "scale_bigcluster",
    "tab01", "tab02", "tab04", "taskfarm",
)
HPL_N = 64000  # weak-scaled n for 2,048 Tegra 2 nodes at 2% of memory
HPL_NB = 512
HPL_PANEL_OFFSETS = (0, -1, 1, -2, 2)  # the default seed gets offset 0
SETUP_PROBES = 5  # extra start-up samples per campaign run
# Time a run may take beyond its window, for start-up probes, the sharded
# check world, the operation that overruns the window and the traced run's
# probes, with room for a host that has slowed down.
RUN_MARGIN_S = 90

WORKLOADS = ("paper_cold", "hpl4k")
# Every span the runner records; a workload that never opens one reports
# its self time as 0.
SPAN_NAMES = (
    "op", "runCampaign", "cacheKey", "ResultCache.load", "resultDocument",
    "toCsvFiles", "runJob", "rank_bodies", "probes", "probe.lifecycle",
    "probe.shallow", "probe.deep", "probe.pingpong", "probe.pingpong_4k",
    "probe.wire", "probe.trace_tax",
)


class BenchError(Exception):
    """A failure that leaves no result to report."""


def hpl_n(seed):
    """Weak-scaled n for this seed: 64,000 or a neighbour a few panels away."""
    offset = HPL_PANEL_OFFSETS[(seed - DEFAULT_SEED) % len(HPL_PANEL_OFFSETS)]
    return HPL_N + HPL_NB * offset


def host_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# --- build ---------------------------------------------------------------------

def build():
    """Configure (once) and build the runner; returns its path."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "include/tibsim"):
        if not (ROOT / needed).exists():
            raise BenchError(f"tibsim sources not found: {ROOT / needed} is missing")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append([cmake, "--build", str(BUILD_DIR), "--parallel",
                  str(host_cores())])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=env, timeout=800).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return BUILD_DIR / "tibsim_perfbench"


# --- child processes ----------------------------------------------------------

def child_env(shards=None):
    """This process's environment with every TIBSIM_* setting removed, so each
    world runs on engine defaults; the sharded check world alone gets a
    shard count."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TIBSIM_")}
    if shards is not None:
        env["TIBSIM_SIM_SHARDS"] = str(shards)
    return env


class Runner:
    """Runs tibsim_perfbench roles and returns their JSON documents."""

    def __init__(self, binary, work, deadline):
        self.binary = binary
        self.work = work
        self.deadline = deadline
        self.calls = 0

    def run(self, mode, *flags, shards=None):
        self.calls += 1
        out = self.work / f"{mode}-{self.calls}.json"
        cmd = [str(self.binary), mode, *map(str, flags), "--out", str(out)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left to start {mode}")
        spawned = time.monotonic()
        proc = subprocess.run(cmd, env=child_env(shards), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"{mode} exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        doc = lines.pop()
        doc["ops"] = [line["op"] for line in lines]
        doc["spawned"] = spawned
        return doc


# --- correctness gate -----------------------------------------------------------

def sha(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def parse_csv_table(text):
    """First table of a counters CSV: {column: value string}."""
    lines = text.split("\n\n")[0].strip().splitlines()
    return dict(zip(lines[0].split(","), lines[1].split(",")))


OUTCOME_TRAFFIC = ("messages", "payloadBytes", "wireBytes")


def paper_snapshot(artefacts):
    """Per experiment: simulated outcomes (the gate) and engine work counters
    (reported, never failures) from one operation's JSON and CSV files."""
    json_dir, csv_dir = artefacts / "json", artefacts / "csv"
    snapshot = {}
    for name in PAPER_EXPERIMENTS:
        path = json_dir / f"{name}.json"
        if not path.exists():
            snapshot[name] = {"outcomes": {"missing": True}, "counters": {}}
            continue
        doc = json.loads(path.read_text())
        engine = doc.get("engine", {})
        worlds = doc.get("worlds", {})
        outcomes = {
            "header": sha({k: doc.get(k) for k in
                           ("schema", "experiment", "paperRef", "title", "seed")}),
            "results": sha(doc.get("results")),
            "criticalPath": sha(doc.get("criticalPath")),
            "links": sha(doc.get("links")),
            "simSeconds": engine.get("simSeconds"),
        }
        outcomes.update({k: worlds.get(k) for k in OUTCOME_TRAFFIC})
        counters = {k: v for k, v in engine.items() if k != "simSeconds"}
        counters.update({k: v for k, v in worlds.items()
                         if k not in OUTCOME_TRAFFIC})
        csv = {}
        for file in sorted(csv_dir.glob(f"{name}__*.csv")):
            stem = file.name[len(name) + 2:-4]
            text = file.read_text()
            if stem == "engine":
                row = parse_csv_table(text)
                csv[stem] = row.pop("simSeconds", None)
                counters.update({f"engine.csv.{k}": v for k, v in row.items()})
            elif stem == "worlds":
                row = parse_csv_table(text)
                csv[stem] = {k: row.pop(k, None) for k in OUTCOME_TRAFFIC}
                counters.update({f"worlds.csv.{k}": v for k, v in row.items()})
                counters["worlds.csv.classes"] = sha(text.split("\n\n")[1:])
            else:
                csv[stem] = hashlib.sha256(file.read_bytes()).hexdigest()[:16]
        outcomes["csv"] = csv
        snapshot[name] = {"outcomes": outcomes, "counters": counters}
    return snapshot


def compare_snapshots(got, want):
    """(outcome mismatches, counter differences) as readable strings."""
    failures, drift = [], []
    for name in sorted(set(got) | set(want)):
        g, w = got.get(name), want.get(name)
        if g is None or w is None:
            failures.append(f"{name}: present on one side only")
            continue
        for key in sorted(set(g["outcomes"]) | set(w["outcomes"])):
            if g["outcomes"].get(key) != w["outcomes"].get(key):
                failures.append(f"{name}.{key}: {g['outcomes'].get(key)!r} "
                                f"!= {w['outcomes'].get(key)!r}")
        for key in sorted(set(g["counters"]) | set(w["counters"])):
            if g["counters"].get(key) != w["counters"].get(key):
                drift.append(f"{name}.{key}: {g['counters'].get(key)!r} "
                             f"(expected {w['counters'].get(key)!r})")
    return failures, drift


def world_snapshot(op):
    return {"hpl4k": {"outcomes": op["outcomes"], "counters": op["counters"]}}


def load_goldens():
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else None


class Gate:
    """Collects the checks of one run."""

    def __init__(self):
        self.failures = []
        self.drift = []

    def check(self, got, want, what):
        failures, drift = compare_snapshots(got, want)
        self.failures += [f"{what}: {f}" for f in failures]
        self.drift += [f"{what}: {d}" for d in drift]
        return not failures


def campaign_failures(ops, reference_ok):
    """Operations that threw, disagreed with their own re-reads, or wrote
    other bytes than the checked first operation."""
    return sum(bool(op["error"] or not op["consistent"] or not reference_ok
                    or op["digest"] != ops[0]["digest"]) for op in ops)


# --- statistics and spans -----------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return 100.0 * index / (len(ordered) - 1), ordered[index]


def span_self_times(spans):
    """{span name: [per-operation total self time]}: a span's duration minus
    the part its children cover, summed per operation."""
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span["parent"], []).append(i)
    per_op = {}
    for i, span in enumerate(spans):
        covered = sum(spans[c]["end"] - spans[c]["start"]
                      for c in children.get(i, []))
        own = span["end"] - span["start"] - covered
        key = (span["name"], span["op"])
        per_op[key] = per_op.get(key, 0.0) + own
    out = {}
    for (name, _), value in per_op.items():
        out.setdefault(name, []).append(value)
    return out


def span_sum(spans, op, names):
    return sum(s["end"] - s["start"] for s in spans
               if s["op"] == op and s["name"] in names)


# --- metric catalogue ---------------------------------------------------------

def load_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --- workloads ----------------------------------------------------------------

def run_setup_probes(runner):
    """Start-up samples: spawn of a fresh runner process up to the point its
    first runCampaign call would start (registry + binary fingerprint)."""
    samples = []
    for _ in range(SETUP_PROBES):
        doc = runner.run("setup")
        samples.append(doc["ready"] - doc["spawned"])
    return samples


def campaign_workload(runner, args, gate, goldens):
    startup = [] if args.trace else run_setup_probes(runner)
    doc = runner.run("campaign", "--experiments", ",".join(PAPER_EXPERIMENTS),
                     "--seed", args.seed % 2**64, "--seconds", args.seconds,
                     "--trace", int(args.trace),
                     "--min-ops", 2 if args.trace else 1,
                     "--work", runner.work / "ops")
    ops = doc["ops"]
    reference_dir = runner.work / "ops" / "op0"
    reference_ok = not ops[0]["error"]
    if reference_ok and args.seed == DEFAULT_SEED and not args.update_goldens:
        if goldens is None:
            gate.failures.append(f"no goldens at {GOLDENS}")
            reference_ok = False
        else:
            reference_ok = gate.check(paper_snapshot(reference_dir),
                                      goldens["paper"], "paper artefacts")
    if not reference_ok and not gate.failures:
        gate.failures.append("reference operation failed")
    failed = campaign_failures(ops, reference_ok)
    if failed:
        gate.failures.append(f"{failed} of {len(ops)} operations failed "
                             "(error, re-read mismatch, or bytes differ)")
    if args.trace:
        metrics = campaign_layers(doc, runner)
    else:
        startup.append(doc["ready"] - doc["spawned"])
        metrics = end_to_end([op["wall_s"] for op in ops], doc,
                             median(startup))
    return metrics, ops, failed, {"snapshot_dir": str(reference_dir),
                                  "doc": doc}


def world_workload(runner, args, gate, goldens):
    n = hpl_n(args.seed)
    doc = runner.run("world", "--n", n, "--seconds", args.seconds,
                     "--trace", int(args.trace),
                     "--min-ops", 2 if args.trace else 1)
    # After the timed worlds, in a process of its own: the same world on the
    # sharded engine, which must give the same outputs.
    sharded = runner.run("world", "--n", n, "--max-ops", 1, "--seconds", 0,
                         shards=host_cores())["ops"][0]
    ops = doc["ops"] + [sharded]
    first = ops[0]
    reference_ok = not first["error"]
    # The world depends on the seed only through n, so every seed that
    # picks the golden n is checked against the golden.
    if reference_ok and n == HPL_N and not args.update_goldens:
        if goldens is None:
            gate.failures.append(f"no goldens at {GOLDENS}")
            reference_ok = False
        else:
            reference_ok = gate.check(world_snapshot(first),
                                      {"hpl4k": goldens["hpl4k"]},
                                      "hpl4k result")
    failed = 0
    for op in ops:
        same = gate.check(world_snapshot(op), world_snapshot(first),
                          "sharded vs single queue" if op is sharded
                          else "world vs first world")
        failed += bool(op["error"] or not same or not reference_ok)
    if failed:
        gate.failures.append(f"{failed} of {len(ops)} worlds failed")
    untraced = [op for op in doc["ops"] if not op["traced"]]
    if args.trace:
        metrics = world_layers(doc, runner, sharded)
    else:
        metrics = end_to_end([op["wall_s"] for op in untraced], doc,
                             median([op["setup_s"] for op in untraced]))
    return metrics, ops, failed, {"n": n, "doc": doc}


def end_to_end(walls, doc, setup_s):
    return {
        "wall_s": median(walls),
        "peak_rss_mib": doc["vmhwm_kib"] / 1024.0,
        "setup_s": setup_s,
        "_walls": walls,
    }


# --- per-layer metrics ---------------------------------------------------------

def shard_layers(engine, cpu_per_wall):
    events = engine["events"]
    return {
        "sim.shard.windows": engine["shard_windows"],
        "sim.shard.parallel_windows": engine["shard_parallel_windows"],
        "sim.shard.barrier_calls": engine["shard_barrier_calls"],
        "sim.shard.barrier_skips": engine["shard_barrier_skips"],
        "sim.shard.merge_records": engine["shard_merge_records"],
        "sim.shard.merge_ratio":
            engine["shard_merge_records"] / events if events else 0.0,
        "sim.shard.barrier_s": engine["shard_barrier_s"],
        "sim.shard.cpu_per_wall": cpu_per_wall,
    }


def common_layers(doc, runner, engine, messages, pooled, reuses, transfers,
                  wire_bytes, obs_spans, worlds):
    ops = doc["ops"]
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    wall = median([op["wall_s"] for op in untraced])
    loop_s = median([op["engine"]["loop_s"] for op in untraced])
    m = {
        "sim.processes": engine["processes"],
        "sim.events": engine["events"],
        "sim.switches": engine["switches"],
        "sim.queue_hwm": engine["queue_hwm"],
        "mpi.worlds": worlds,
        "mpi.messages": messages,
        "mpi.switches_per_message":
            engine["switches"] / messages if messages else 0.0,
        "mpi.pool_reuse_ratio": reuses / pooled if pooled else 0.0,
        "net.transfers": transfers,
        "net.wire_bytes": wire_bytes,
        "obs.spans": obs_spans,
        "sim.loop_s": loop_s,
        "sim.events_per_s": engine["events"] / loop_s if loop_s > 0 else 0.0,
        "trace.overhead_s": median([op["wall_s"] for op in traced]) - wall,
    }
    probes = runner.run("probes")
    m.update(probes["probes"])
    offset = len(doc["spans"])
    spans = doc["spans"] + [
        dict(s, op="probes", parent=s["parent"] + offset if s["parent"] >= 0
             else -1) for s in probes["spans"]]
    m.update({f"trace.self.{name}_s": 0.0 for name in SPAN_NAMES})
    for name, values in span_self_times(spans).items():
        m[f"trace.self.{name}_s"] = median(values)
    m["_spans"] = spans
    return m


def campaign_layers(doc, runner):
    ops = doc["ops"]
    op0 = ops[0]
    m = common_layers(doc, runner, op0["engine"], op0["messages"],
                      op0["payload_pooled"], op0["pool_reuses"],
                      op0["transfers"], op0["wire_bytes"],
                      op0["spans_recorded"], op0["worlds"])
    untraced = [op for op in ops if not op["traced"]]
    traced = [i for i, op in enumerate(ops) if op["traced"]]
    spans = doc["spans"]
    # One queue: the shard counters read 0.
    m.update(shard_layers(op0["engine"], median(
        [op["cpu_s"] / op["wall_s"] for op in untraced])))
    lookups = op0["cache_hits"] + op0["cache_misses"]
    m.update({
        "cluster.run_s": 0.0,
        "cluster.teardown_s": 0.0,
        "core.experiments_s": median([op["experiments_s"] for op in untraced]),
        # runCampaign's own work: its span minus the experiment bodies.
        "core.driver_s": median([
            span_sum(spans, i, {"runCampaign"}) - ops[i]["experiments_s"]
            for i in traced]),
        # Probes after each traced operation, outside its span.
        "core.cache_load_s": median([
            span_sum(spans, i, {"cacheKey", "ResultCache.load"})
            for i in traced]),
        "core.emit_s": median([
            span_sum(spans, i, {"resultDocument", "toCsvFiles"})
            for i in traced]),
        "core.cache_hit_ratio": op0["cache_hits"] / lookups if lookups else 0.0,
        "core.artefact_bytes": op0["artefact_bytes"],
    })
    for name in PAPER_EXPERIMENTS:
        m[f"core.exp.{name}_s"] = median([op["experiment_s"][name]
                                          for op in untraced])
    return m


def world_layers(doc, runner, sharded):
    ops = doc["ops"]
    op0 = ops[0]
    outcomes, counters = op0["outcomes"], op0["counters"]
    m = common_layers(doc, runner, op0["engine"], outcomes["messages"],
                      counters["payloadPooledMessages"],
                      counters["payloadPoolReuses"],
                      outcomes["links"]["uplink"]["transfers"],
                      outcomes["wireBytes"], counters["traceSpansRecorded"], 1)
    untraced = [op for op in ops if not op["traced"]]
    # The shard engine runs only in the sharded check world.
    m.update(shard_layers(sharded["engine"],
                          sharded["cpu_s"] / sharded["wall_s"]))
    m.update({
        "cluster.run_s": median([op["run_s"] for op in untraced]),
        "cluster.teardown_s": median([op["teardown_s"] for op in untraced]),
        "core.experiments_s": 0.0,
        "core.driver_s": 0.0,
        "core.cache_load_s": 0.0,
        "core.emit_s": 0.0,
        "core.cache_hit_ratio": 0.0,
        "core.artefact_bytes": 0,
    })
    for name in PAPER_EXPERIMENTS:
        m[f"core.exp.{name}_s"] = 0.0
    return m


# --- reporting ----------------------------------------------------------------

def host_facts(doc):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": host_cores(),
        "cpu": model,
        "compiler": doc.get("compiler", "unknown"),
        "kernel": platform.release(),
        "build_type": doc.get("build_type", "unknown"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-goldens", action="store_true",
                        help="with the default seed: rewrite the goldens "
                             "from this run instead of checking them")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    e2e_units, layer_units = load_catalogue()
    work = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(binary, work,
                    time.monotonic() + args.seconds + RUN_MARGIN_S)
    gate = Gate()
    goldens = None if args.update_goldens else load_goldens()
    try:
        if args.workload == "paper_cold":
            metrics, ops, failed, info = campaign_workload(
                runner, args, gate, goldens)
        else:
            metrics, ops, failed, info = world_workload(
                runner, args, gate, goldens)
        if args.update_goldens:
            update_goldens(args, ops, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = metrics.pop("_walls", None)
    spans = metrics.pop("_spans", None)
    units = layer_units if args.trace else e2e_units
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    facts = host_facts(info["doc"])
    result = {
        "correct": not gate.failures,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    report(args, facts, result, walls, gate, spans)
    print(json.dumps(result))


def report(args, facts, result, walls, gate, spans):
    """Human-readable lines, the saved record and the trace file."""
    print(f"# tibsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# host: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"ops {result['attempted']} count")
    print(f"failed_ops {result['failed']} count")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if walls is not None:
        t = tail(walls)
        print(f"# wall_s: median {median(walls):.6g} s over {len(walls)} "
              "samples; " + (f"p{t[0]:.1f} {t[1]:.6g} s (ten samples beyond)"
                             if t else "no percentile has ten samples beyond"
                             " it"))
    for line in gate.failures:
        print(f"# FAILED {line}")
    for line in gate.drift:
        print(f"# counter changed (not a failure): {line}")
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_dir = OUT_DIR / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "facts": facts,
              "result": result, "wall_samples": walls,
              "failures": gate.failures, "counter_drift": gate.drift}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    (record_dir / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        trace_dir = OUT_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{name}.json").write_text(json.dumps(spans) + "\n")
        print(f"# spans written to {trace_dir / (name + '.json')}")


def update_goldens(args, ops, info):
    if args.seed != DEFAULT_SEED or args.trace:
        raise BenchError("--update-goldens needs the default seed and --trace 0")
    goldens = load_goldens() or {"schema": "tibsim-perfbench-goldens-v1",
                                 "seed": DEFAULT_SEED}
    if args.workload == "paper_cold":
        goldens["paper"] = paper_snapshot(Path(info["snapshot_dir"]))
    else:
        goldens["hpl4k"] = world_snapshot(ops[0])["hpl4k"]
        goldens["hpl4k"]["n"] = info["n"]
    GOLDENS.parent.mkdir(parents=True, exist_ok=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
