#!/usr/bin/env python3
"""Benchmark for polygroth: seeded closed-loop workloads, one client thread.

    python3 bench/run.py --workload exhaustive-tables --seed 1 --seconds 30 --trace 0

Each run imports the package from ../src, builds one round of jobs from the
seed (see workloads.py), and sends the round's jobs one after the other,
each starting when the previous one has returned, repeating whole rounds
until --seconds have passed.  Every output is checked (check.py).  Timings
are scaled to a reference machine speed (see probe()).  The report lines
name each metric with its unit, raw timings alongside; the last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds: the traced rounds give the per-layer metrics (per round of the
job mix, written with every span to bench/out/), and the two kinds of round
together give the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import namedtuple
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_BATCHES = 9
SETUP_PER_BATCH = 3
# Time of probe() at the reference machine speed: its 10th percentile on the
# machine the benchmark was built on (CPython 3.11.7, 2 vCPUs).
REFERENCE_PROBE_S = 0.0008

sys.path.insert(0, str(SRC))

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


_Pair = namedtuple("_Pair", "a b")


def probe() -> float:
    """Time a fixed piece of the benchmark's own Python work (about 1 ms).

    The machine's speed for Python code drifts by up to 2x, in phases from
    tenths of a second to minutes.  Timings are scaled by REFERENCE_PROBE_S
    over the probe's time next to them, which removes that drift and keeps
    any change in the package's own speed (the probe does not use it).
    """
    start = perf_counter()
    seen = {}
    for i in range(1500):
        key = _Pair(i % 7, i % 11)
        seen[key] = seen.get(key, 0) + (i * i) % 13
    return perf_counter() - start


def import_package():
    """A fresh import of polygroth (and its CLI) from this checkout's src/."""
    for name in [m for m in sys.modules if m == "polygroth" or m.startswith("polygroth.")]:
        del sys.modules[name]
    pg = importlib.import_module("polygroth")
    importlib.import_module("polygroth.cli")
    return pg


def set_up(workload: str, seed: int):
    """Import and input generation, repeated in batches.  Returns the median
    over batches of the time per set-up, raw and at reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_BATCHES):
        before = probe()
        start = perf_counter()
        for _ in range(SETUP_PER_BATCH):
            pg = import_package()
            jobs = workloads.generate(pg, workload, seed)
        seconds = (perf_counter() - start) / SETUP_PER_BATCH
        raw.append(seconds)
        scaled.append(seconds * 2 * REFERENCE_PROBE_S / (before + probe()))
    return (statistics.median(raw), statistics.median(scaled)), pg, jobs


def exhaustive_tuples(job: dict, digest: dict) -> int:
    """Tuples the job decided by exhaustive associativity scans."""
    if job["kind"] == "doubles-assoc":
        return digest["checked"]
    if job["kind"] == "group":
        return digest["assoc"]["checked"]
    if job["kind"] == "complete" and job["mode"] == "exhaustive":
        return digest["assoc_checked"]
    return 0


def run_one(pg, job, golden, tracer=None, job_id=None):
    """Time one job to its verdict, then check the output.  The job's time at
    reference speed uses the probes just before and just after it."""
    before = probe()
    start = perf_counter()
    try:
        if tracer is None:
            out = workloads.run_job(pg, job)
        else:
            tracer.install()
            try:
                out = tracer.run_job(job_id, workloads.run_job, pg, job)
            finally:
                tracer.uninstall()
        problems = []
    except Exception as exc:  # an unexpected exception is a failed job
        problems = [f"raised {exc!r}"]
    seconds = perf_counter() - start
    scale = 2 * REFERENCE_PROBE_S / (before + probe())
    timing = {"raw_s": seconds, "seconds": seconds * scale}
    if problems:
        return {**timing, "problems": problems, "tuples": 0, "digest": None}
    saved = dict(tracer.counts) if tracer is not None else None
    try:
        digest, problems = check.check_job(pg, job, out)
        if golden is not None:
            problems += check.compare_golden(golden, job["slot"], digest)
        tuples = exhaustive_tuples(job, digest)
    except Exception as exc:
        digest, problems, tuples = None, [f"checker raised {exc!r}"], 0
    if tracer is not None:
        # the checker replays through the traced structures: keep that out of the counts
        tracer.counts.clear()
        tracer.counts.update(saved)
        if job["kind"] == "cli":
            tracer.counts["cli.output_bytes"] += len(out["stdout"].encode())
    return {**timing, "problems": problems, "tuples": tuples, "digest": digest}


def run_rounds(pg, jobs, seconds, golden, tracer=None):
    """Whole rounds until `seconds` have passed.  With a tracer, rounds
    alternate untraced and traced, and both kinds run at least once."""
    records = []
    start = perf_counter()
    r = 0
    min_rounds = 1 if tracer is None else 2
    while r < min_rounds or perf_counter() - start < seconds:
        traced = tracer is not None and r % 2 == 1
        for job in jobs:
            rec = run_one(pg, job, golden, tracer if traced else None, (r, job["slot"]))
            del rec["digest"]
            rec.update(round=r, slot=job["slot"], traced=traced)
            records.append(rec)
            for p in rec["problems"]:
                print(f"FAIL round {r} slot {job['slot']} ({job['kind']}): {p}", file=sys.stderr)
        r += 1
    return records


def tail(times):
    """Time at the highest percentile with at least ten jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def timings(records, setup_s, key="seconds"):
    """The timing metrics, from each job's time under `key`."""
    times = [r[key] for r in records]
    value, pct, n = tail(times)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": value,
    }
    scans = [r for r in records if r["tuples"]]
    if scans:
        metrics["exhaustive_tuples_per_s"] = (sum(r["tuples"] for r in scans)
                                              / sum(r[key] for r in scans))
    return metrics, f"p{pct:.1f} of {n} jobs"


def end_to_end(records, setup):
    """End-to-end metrics at reference speed, and the same timings raw."""
    metrics, tail_note = timings(records, setup[1])
    metrics["fail_frac"] = sum(bool(r["problems"]) for r in records) / len(records)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw, _ = timings(records, setup[0], "raw_s")
    return metrics, raw, tail_note


# README.md maps each per-layer metric to the end-to-end metric it should move
PER_LAYER_TIMES = [
    "core.assoc", "core.group", "tables.parse", "doubles.hetero_power",
    "completion.partition", "completion.resolve", "completion.witness",
    "completion.well_defined", "completion.quer", "completion.build",
    "completion.coincidence", "completion.axioms", "completion.json",
    "structures.build", "cli.main",
]
PER_LAYER_COUNTS = [
    "core.op_evals", "core.assoc.tuples", "core.assoc.refute_tuples",
    "core.group.instances", "tables.parse.bytes", "doubles.apply_quiver.calls",
    "completion.partition.decisions", "completion.partition.classes",
    "completion.resolve.calls", "completion.resolve.decisions",
    "completion.witness.searches", "completion.witness.hits", "cli.output_bytes",
]


def per_layer(records, tracer):
    """Self times and counts per traced round, and the tracing overhead."""
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    rounds = len({r["round"] for r in traced})
    counts = dict(tracer.counts)
    counts["completion.witness.searches"] = counts.get("completion.witness.calls", 0)
    metrics = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0) / rounds
               for layer in PER_LAYER_TIMES}
    metrics.update({name: counts.get(name, 0) / rounds for name in PER_LAYER_COUNTS})
    searches = counts["completion.witness.searches"]
    metrics["completion.witness.hit_ratio"] = (
        counts.get("completion.witness.hits", 0) / searches if searches else 0.0)
    traced_rate = len(traced) / sum(r["seconds"] for r in traced)
    untraced_rate = len(untraced) / sum(r["seconds"] for r in untraced)
    metrics["trace.jobs_per_s"] = traced_rate
    metrics["trace.untraced_jobs_per_s"] = untraced_rate
    metrics["trace.overhead_jobs_per_s"] = untraced_rate - traced_rate
    return metrics


def machine():
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"python": platform.python_version(), "numpy": numpy, "nproc": os.cpu_count()}


def load_golden(workload, seed):
    path = BENCH / "golden.json"
    if seed != check.DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload)


def write_golden(pg, workload, jobs):
    """Record the digests of one checked round for the default seed."""
    records = [run_one(pg, job, None) for job in jobs]
    if any(r["problems"] for r in records):
        sys.exit("not writing golden values: the round has failures")
    path = BENCH / "golden.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    data[workload] = [check.golden_form(r["digest"]) for r in records]
    lines = [f" {json.dumps(w)}: [\n" + ",\n".join(
        "  " + json.dumps(d, sort_keys=True) for d in digests) + "\n ]"
        for w, digests in sorted(data.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help=f"record golden digests (seed {check.DEFAULT_SEED} only)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polygroth" / "__init__.py").is_file():
        print(f"error: no polygroth package under {SRC}", file=sys.stderr)
        return 2
    setup, pg, jobs = set_up(args.workload, args.seed)
    if Path(pg.__file__).resolve().parent != SRC / "polygroth":
        print(f"error: imported polygroth from {pg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.write_golden:
        if args.seed != check.DEFAULT_SEED:
            print("error: golden values are recorded for the default seed", file=sys.stderr)
            return 2
        write_golden(pg, args.workload, jobs)
        return 0

    golden = load_golden(args.workload, args.seed)
    tracer = Tracer(pg) if args.trace else None
    records = run_rounds(pg, jobs, args.seconds, golden, tracer)
    e2e, raw, tail_note = end_to_end([r for r in records if not r["traced"]], setup)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    facts = machine()
    rounds = len({r["round"] for r in records})
    print(f"workload {args.workload} seed {args.seed}: {len(records)} jobs in {rounds} rounds "
          f"of {len(jobs)}, golden {'checked' if golden else 'not checked'}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(fail_frac="ratio", exhaustive_tuples_per_s="1/s")
    for name, value in e2e.items():
        line = f"{name} {value:.6g} {units[name]}"
        if name in raw:
            line += f" (raw {raw[name]:.6g})"
        if name == "job_tail_s":
            line += f" at {tail_note}"
        print(line)

    if tracer is None:
        wanted = spec["end_to_end"]
        values = e2e
    else:
        values = per_layer(records, tracer)
        for name, value in values.items():
            print(f"{name} {value:.6g}")
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"machine": facts, "end_to_end": e2e, "raw": raw,
                           "per_layer": values})
        print(f"trace written to {path.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    failed = sum(bool(r["problems"]) for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
