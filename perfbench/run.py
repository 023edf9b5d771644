#!/usr/bin/env python3
"""End-to-end benchmark of the MCT reproduction.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload run_apps --seed 7 --seconds 24 --trace 0

It builds `perfbench/` (a Cargo package of its own) in release mode, runs
the chosen workload for about `--seconds` seconds, checks every output,
and prints two lines: a `report` object with every metric, sample count,
digest and the machine block, then, as the last line, the result object
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones from one extra traced iteration. See perfbench/README.md.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("run_apps", "run_durable", "pipeline_cold", "pipeline_warm")
TARGET_YEARS = 8.0
# Units of the reported metrics that BENCHMARK.json does not list: the raw
# host time and host speed behind the scaled times, and metrics that a
# pipeline workload has no value for or that read 0 on a correct commit.
REPORT_UNITS = {"raw_wall_s": "s", "ref_us": "us",
                "run_ms_p50": "ms", "run_ms_p90": "ms", "sim_minsts_per_s": "Minsts/s",
                "ipc_gmean": "ipc", "floor_miss_frac": "ratio", "fail_frac": "ratio"}
# Spawns of a fresh pipeline process timed for the pipeline_cold set-up.
SPAWN_SAMPLES = 25
# Times are scaled to a host on which the reference kernel (src/calib.rs)
# takes this long; see perfbench/README.md.
REFERENCE_US = 1000.0
# How much faster than the kernel the program slows as the host slows:
# log run time over log kernel time, fitted across 24-second runs on the
# baseline host (1.1 to 1.6 by workload; 1.0 would under-correct all four).
SPEED_EXPONENT = 1.25
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed operation)."""


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def scaled(us, ref_us):
    """Host time `us`, taken while the reference kernel took `ref_us`,
    scaled to the reference host; in seconds."""
    return us / 1e6 * (REFERENCE_US / ref_us) ** SPEED_EXPONENT


def bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def sha(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def machine():
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "os": platform.system(), "arch": platform.machine()}


def build():
    """Build the benchmark binary; return its path."""
    for needed in ("Cargo.toml", "Cargo.lock", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} is missing: run from the root of a full source checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("cargo build failed")
    return os.path.join(target, "release", "mct-perfbench")


def child(cmd, env):
    """Run one benchmark process; return (exit code, JSON records)."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    records = []
    for line in proc.stdout.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            pass
    return proc.returncode, records


class Ledger:
    """Counts operations and failures; an operation is one controller
    run or one pipeline stage."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, what, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {problem}")


# ---------------------------------------------------------------- run_* --

def run_problem(rec, first):
    if not rec.get("ok"):
        return rec.get("error", "failed")
    values = [bits_to_float(rec[k]) for k in ("ipc", "lifetime", "energy")]
    if not all(math.isfinite(v) for v in values):
        return "non-finite metric"
    if not rec["in_space"]:
        return f"chosen config [{rec['chosen']}] is not in the space"
    key = (rec["app"], rec["mode"], rec["seed"])
    outcome = tuple(rec[k] for k in ("chosen", "ipc", "lifetime", "energy"))
    if key not in first:
        first[key] = outcome
    elif first[key] != outcome:
        return "differs from the first run of the same app and seed"
    return None


def quality(runs):
    """ipc_gmean, floor_miss_frac and output_digest of one iteration."""
    runs = sorted(runs, key=lambda r: (r["app"], r["mode"]))
    if not runs or not all(r.get("ok") for r in runs):
        return None
    ipcs = [bits_to_float(r["ipc"]) for r in runs]
    misses = sum(bits_to_float(r["lifetime"]) < TARGET_YEARS for r in runs)
    return {
        "ipc_gmean": math.exp(sum(math.log(v) for v in ipcs) / len(ipcs)) if min(ipcs) > 0 else 0.0,
        "floor_miss_frac": misses / len(runs),
        "output_digest": sha(f"{r['app']}/{r['mode']}/{r['chosen']}/{r['ipc']}/{r['lifetime']}/{r['energy']}"
                             for r in runs),
    }


def bench_apps(binary, args, env, scratch, durable):
    cmd = [binary, "apps", "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--state-root", os.path.join(scratch, "state")]
    if durable:
        cmd.append("--durable")
    if args.inject == "repeat-mismatch":
        cmd.append("--inject-mismatch")
    code, records = child(cmd, env)
    ledger, first = Ledger(), {}
    runs = [r for r in records if r["kind"] == "run"]
    for rec in runs:
        ledger.op(f"{rec['app']}/{rec['mode']} iter {rec['iter']}", run_problem(rec, first))
    if code != 0:
        ledger.op("apps process", f"exit code {code}")
    iters = [r for r in records if r["kind"] == "iter" and not r["traced"]]
    if not iters:
        raise BenchError("no iteration completed")
    untraced = [r for r in runs if not r["traced"]]
    by_iter = {}
    for r in untraced:
        by_iter.setdefault(r["iter"], []).append(r)
    q = quality(by_iter[iters[0]["iter"]])
    walls = [sum(scaled(r["us"], r["ref_us"]) for r in by_iter[i["iter"]]) for i in iters]
    insts = sum(r["insts"] for r in untraced)
    run_ms = [scaled(r["us"], r["ref_us"]) * 1e3 for r in untraced]
    rss = next((r["peak_kb"] for r in records if r["kind"] == "rss"), 0)
    e2e = {
        "setup_s": statistics.median(scaled(r["setup_us"], r["setup_ref_us"]) for r in iters),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss / 1024,
    }
    report = {
        "iterations": len(iters),
        "iteration_wall_s": walls,
        "raw_wall_s": statistics.median(r["wall_us"] / 1e6 for r in iters),
        "ref_us": statistics.median(r["ref_us"] for r in untraced),
        "runs_per_iteration": len(by_iter[iters[0]["iter"]]),
        "run_samples": len(run_ms),
        "run_ms_p50": statistics.median(run_ms),
        "run_ms_p90": nearest_rank(run_ms, 0.9),
        "sim_minsts_per_s": insts / 1e6 / sum(walls),
        **(q or {}),
    }
    layers = None
    if args.trace:
        traced_runs = [r for r in runs if r["traced"]]
        tq = quality(traced_runs)
        report["traced_equals_untraced"] = tq is not None and tq == q
        traced_iter = next((r for r in records if r["kind"] == "iter" and r["traced"]), None)
        layers = next((r["metrics"] for r in records if r["kind"] == "layers"), None)
        if traced_iter is None or layers is None:
            raise BenchError("the traced iteration did not complete")
        traced_wall = sum(scaled(r["us"], r["ref_us"]) for r in traced_runs)
        layers.update({
            "telemetry.overhead_frac": traced_wall / e2e["wall_s"] - 1,
            "core.ipc_gmean": report.get("ipc_gmean", 0.0),
            "core.floor_miss_frac": report.get("floor_miss_frac", 0.0),
            "core.run_ms_p50": report["run_ms_p50"],
            "core.run_ms_p90": report["run_ms_p90"],
            "sim.minsts_per_s": report["sim_minsts_per_s"],
        })
    return ledger, e2e, report, layers


# ------------------------------------------------------------ pipeline_* --

def probe(binary, env, data_dir):
    """Start a fresh process over `data_dir` that only starts up; return
    its probe record and its start-up time scaled to the reference host."""
    start = time.perf_counter()
    with subprocess.Popen([binary, "probe"], cwd=ROOT, env=dict(env, MCT_DATA_DIR=data_dir),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
        first = proc.stdout.readline()
        startup_us = (time.perf_counter() - start) * 1e6
        rest = proc.stdout.read()
        code = proc.wait()
    try:
        info, ref = json.loads(first), json.loads(rest.splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError(f"probe exited {code} after printing {first + rest!r}") from None
    return info, scaled(startup_us, ref["ref_us"])


def cache_bytes(data_dir):
    skip = {"out", "pipeline_trace.jsonl", "pipeline_metrics.prom"}
    return sum(os.path.getsize(os.path.join(data_dir, f))
               for f in os.listdir(data_dir) if f not in skip)


def pipeline_iteration(binary, env, data_dir, stages):
    """One `run_all` pass in a fresh process over `data_dir`."""
    os.makedirs(data_dir, exist_ok=True)
    code, records = child([binary, "pipeline"], dict(env, MCT_DATA_DIR=data_dir))
    stage_recs = {r["name"]: r for r in records if r["kind"] == "stage"}
    summary = next((r for r in records if r["kind"] == "pipeline"), None)
    if summary:
        summary["wall_s"] = (sum(scaled(r["us"], r["ref_us"]) for r in stage_recs.values())
                             + scaled(summary["finish_us"], summary["finish_ref_us"]))
        summary["raw_wall_s"] = (sum(r["us"] for r in stage_recs.values()) + summary["finish_us"]) / 1e6
    digests = {}
    for name in stages:
        path = os.path.join(data_dir, "out", f"{name}.txt")
        if name in stage_recs and os.path.exists(path):
            with open(path, "rb") as f:
                digests[name] = sha([f.read()])
    return {"code": code, "stages": stage_recs, "summary": summary, "digests": digests,
            "cache_bytes": cache_bytes(data_dir)}


def check_pipeline(ledger, it, label, stages, reference):
    for name in stages:
        rec = it["stages"].get(name)
        if rec is None:
            problem = f"no result (process exit code {it['code']})"
        elif not rec["ok"]:
            problem = rec["error"] or "failed"
        elif rec["stale"] or rec["corrupt"]:
            problem = f"cache discarded {rec['stale']} stale and {rec['corrupt']} corrupt entries"
        elif reference is not None and it["digests"].get(name) != reference["digests"].get(name):
            problem = "output differs from the reference pass"
        else:
            problem = None
        ledger.op(f"{label} {name}", problem)


def corrupt_cache(data_dir):
    """Test hook: overwrite one mid-file line of a grain store with
    same-length garbage."""
    name = sorted(f for f in os.listdir(data_dir) if f.startswith("grains_"))[0]
    path = os.path.join(data_dir, name)
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    lines[1] = b"{" + b"#" * (len(lines[1]) - 2) + b"}"
    with open(path, "wb") as f:
        f.write(b"\n".join(lines))


def bench_pipeline(binary, args, env, scratch, warm):
    info, _ = probe(binary, env, os.path.join(scratch, "probe"))
    stages = info["stages"]
    ledger = Ledger()
    if warm:
        data_dir = os.path.join(scratch, "warm")
        fill = pipeline_iteration(binary, env, data_dir, stages)
        check_pipeline(ledger, fill, "fill", stages, None)
        if not fill["summary"]:
            raise BenchError("the filling pass did not complete")
        setup_s = fill["summary"]["wall_s"]
        reference = fill
        if args.inject == "corrupt-cache":
            corrupt_cache(data_dir)
        dirs = itertools.repeat(data_dir)
    else:
        setup_s = statistics.median(probe(binary, env, os.path.join(scratch, f"spawn{i}"))[1]
                                     for i in range(SPAWN_SAMPLES))
        reference = None
        dirs = (os.path.join(scratch, f"cold{i}") for i in itertools.count())

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        it = pipeline_iteration(binary, env, next(dirs), stages)
        check_pipeline(ledger, it, f"pass {len(passes)}", stages, reference)
        reference = reference or it
        passes.append(it)
    done = [p for p in passes if p["summary"]]
    if not done:
        raise BenchError("no pipeline pass completed")
    walls_ms = [p["summary"]["wall_s"] * 1e3 for p in done]
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls_ms) / 1e3,
        "peak_rss_mb": statistics.median(p["summary"]["peak_kb"] for p in done) / 1024,
    }
    report = {
        "iterations": len(done),
        "pass_wall_ms": walls_ms,
        "raw_wall_s": statistics.median(p["summary"]["raw_wall_s"] for p in done),
        "ref_us": statistics.median(r["ref_us"] for p in done for r in p["stages"].values()),
        "run_ms_p50": statistics.median(walls_ms),
        "run_ms_p90": nearest_rank(walls_ms, 0.9),
        "experiment_seed": info["experiment_seed"],
        "stage_ms_median": {n: statistics.median(scaled(p["stages"][n]["us"], p["stages"][n]["ref_us"]) * 1e3
                                                 for p in done if n in p["stages"])
                            for n in stages},
        "output_digest": sha(reference["digests"].get(n, "") for n in stages),
        "hit_rate": hit_rate(done[0]["summary"]),
    }
    layers = None
    if args.trace:
        traced = pipeline_iteration(binary, env, next(dirs), stages)
        check_pipeline(ledger, traced, "traced pass", stages, reference)
        s = traced["summary"] or {}
        layers = {f"experiments.{n}_ms": traced["stages"][n]["us"] / 1e3 if n in traced["stages"] else 0.0
                  for n in stages}
        layers.update({
            "experiments.grains": s.get("grains_executed", 0) + s.get("cache_hits", 0),
            "experiments.grains_executed": s.get("grains_executed", 0),
            "experiments.grains_stolen": s.get("grains_stolen", 0),
            "experiments.cache_hits": s.get("cache_hits", 0),
            "experiments.hit_rate": hit_rate(s),
            "experiments.stale": s.get("stale", 0),
            "experiments.corrupt": s.get("corrupt", 0),
            "experiments.rig_warmups": s.get("rig_warmups", 0),
            "experiments.rig_reuses": s.get("rig_reuses", 0),
            "experiments.rig_warmup_ms": s.get("rig_warmup_us", 0) / 1e3,
            "experiments.rig_clone_ms": s.get("rig_clone_us", 0) / 1e3,
            "experiments.sched_busy_frac": s["busy_us"] / s["worker_wall_us"] if s.get("worker_wall_us") else 0.0,
            "experiments.cache_bytes": traced["cache_bytes"],
            # Stages build their controllers internally, so no recorder
            # can be attached: the traced pass adds stage timers only.
            "telemetry.records": 0,
            "telemetry.traced_wall_ms": s.get("raw_wall_s", 0) * 1e3,
            "telemetry.overhead_frac": s.get("wall_s", 0) / e2e["wall_s"] - 1,
        })
    return ledger, e2e, report, layers


def hit_rate(summary):
    total = summary.get("cache_hits", 0) + summary.get("grains_executed", 0)
    return summary.get("cache_hits", 0) / total if total else 0.0


# ------------------------------------------------------------------ main --

def reaches(workload, metric):
    """Whether `workload` exercises the layer that `metric` belongs to."""
    pipeline_layer = metric.startswith(("experiments.", "telemetry."))
    return workload.startswith("pipeline_") == pipeline_layer or metric.startswith("telemetry.")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("repeat-mismatch", "corrupt-cache"),
                        help="test hook: plant a failure the checks must catch")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        binary = build()
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    mach = machine()
    env = dict(os.environ, MCT_WORKERS=str(mach["nproc"]))
    scratch = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        if args.workload.startswith("run_"):
            result = bench_apps(binary, args, env, scratch, args.workload == "run_durable")
        else:
            result = bench_pipeline(binary, args, env, scratch, args.workload == "pipeline_warm")
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run is still using it
    ledger, e2e, report, layers = result
    e2e["ok_frac"] = (ledger.attempted - ledger.failed) / ledger.attempted

    if args.trace:
        wanted, source = spec["per_layer"], layers
        # Layers the workload never reaches read 0; any other gap is a bug.
        for m in wanted:
            if m["name"] not in source and not reaches(args.workload, m["name"]):
                source[m["name"]] = 0.0
    else:
        wanted, source = spec["end_to_end"], e2e
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        print(f"run.py: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]} for m in wanted}
    correct = (ledger.failed == 0 and report.get("traced_equals_untraced", True)
               and all(math.isfinite(m["value"]) for m in metrics.values()))
    report["fail_frac"] = ledger.failed / ledger.attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(REPORT_UNITS)
    everything = {**e2e, **{k: report.pop(k) for k in REPORT_UNITS if k in report}}
    report.update({
        "workload": args.workload,
        "seed": args.seed,
        "machine": mach,
        "mct_workers": env["MCT_WORKERS"],
        "failures": ledger.reasons,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in everything.items()},
    })
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
