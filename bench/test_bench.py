"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import dataclasses
import importlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

pg = importlib.import_module("polygroth")
importlib.import_module("polygroth.cli")

# cheap jobs of each workload: everything but the proofs and completions
# that take tenths of a second
SMALL = {"exhaustive-tables": slice(10, None), "witness-completion": slice(8, None),
         "cli-recipes": slice(3, None)}


def _jobs(workload, seed=check.DEFAULT_SEED):
    return workloads.generate(pg, workload, seed)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_gives_identical_inputs_for_the_same_seed(workload):
    first = json.dumps(_jobs(workload, 5), sort_keys=True)
    assert json.dumps(_jobs(workload, 5), sort_keys=True) == first
    assert json.dumps(_jobs(workload, 6), sort_keys=True) != first


def test_group_table_matches_the_package():
    _flat, text = workloads.group_table(5, 3, "+", [2, 0, 4, 1, 3])
    s = pg.parse_table(text)
    z5 = pg.zmod_add(5, 3)
    relabel = [2, 0, 4, 1, 3]
    for t in [(0, 1, 2), (4, 4, 4), (3, 0, 2)]:
        assert s.op.fn(tuple(relabel[x] for x in t)) == relabel[z5.op.fn(t)]


def _run_checked(job):
    out = workloads.run_job(pg, job)
    digest, problems = check.check_job(pg, job, out)
    assert problems == []
    return out, digest


def _first(jobs, **fields):
    return next(j for j in jobs if all(j.get(k) == v for k, v in fields.items()))


def test_checker_flags_a_planted_wrong_verdict():
    jobs = _jobs("exhaustive-tables")
    proof = _first(jobs, kind="doubles-assoc", k=5)
    out, _ = _run_checked(proof)
    v = out["verdict"]
    short = dict(out, verdict=dataclasses.replace(v, checked=v.checked - 1))
    assert check.check_job(pg, proof, short)[1]
    zero = pg.Double(0, 0)
    refuted = dict(out, verdict=dataclasses.replace(
        v, status="failed", checked=1, counterexample=((zero,) * 3, 0, 1, zero, pg.Double(0, 1))))
    assert check.check_job(pg, proof, refuted)[1]

    group = _first(jobs, kind="group", k=9, perturbed=False)
    out, _ = _run_checked(group)
    flipped = dict(out, verdict=dataclasses.replace(out["verdict"], is_group=not out["verdict"].is_group))
    assert check.check_job(pg, group, flipped)[1]


def test_checker_flags_a_planted_wrong_counterexample():
    job = _first(_jobs("exhaustive-tables"), kind="doubles-assoc", expect="failed")
    out, digest = _run_checked(job)
    v = out["verdict"]
    polyad, i, j, ri, rj = v.counterexample
    moved = list(polyad)
    moved[-1] = pg.Double(*((x + 1) % job["k"] for x in moved[-1]))
    for cx in [(tuple(moved), i, j, ri, rj), (polyad, i, j, rj, ri), (polyad, i, j, ri, ri)]:
        planted = dict(out, verdict=dataclasses.replace(v, counterexample=cx))
        assert check.check_job(pg, job, planted)[1], cx
    golden = [check.golden_form(digest)]
    changed = dict(digest, polyad=[[1, 2]] * 5)
    assert check.compare_golden(golden, 0, digest) == []
    assert check.compare_golden(golden, 0, changed)


def test_checker_flags_a_wrong_cli_outcome():
    job = _first(_jobs("cli-recipes"), kind="cli", expect_exit=1)
    out, digest = _run_checked(job)
    assert digest["exit"] == 1 and digest["polyad"]
    assert check.check_job(pg, job, dict(out, exit=0))[1]
    classes = _first(_jobs("cli-recipes"), kind="cli")
    out, _ = _run_checked(dict(classes, argv=["classes", "--structure", "nat0", "--bound", "12"]))
    payload = json.loads(out["stdout"])
    payload["classes"] = payload["classes"][1:]
    wrong = dict(out, stdout=json.dumps(payload))
    assert check.check_job(pg, dict(classes, argv=["classes", "--structure", "nat0",
                                                   "--bound", "12"]), wrong)[1]


def _traced_counts(workload):
    tracer = Tracer(pg)
    for job in _jobs(workload)[SMALL[workload]]:
        rec = run.run_one(pg, job, None, tracer, (0, job["slot"]))
        assert rec["problems"] == []
    return tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_exactly_across_traced_runs(workload):
    original = pg.completion.partition_classes, pg.completion.Partition.resolve
    first, second = _traced_counts(workload), _traced_counts(workload)
    assert dict(first.counts) == dict(second.counts)
    assert first.counts["core.op_evals"] > 0
    assert (pg.completion.partition_classes, pg.completion.Partition.resolve) == original
    assert [s[0] for s in first.spans] == [s[0] for s in second.spans]
    assert all(t >= 0 for t in first.self_s.values())
    jobs = [s for s in first.spans if s[0] == "job"]
    assert len(jobs) == len(_jobs(workload)[SMALL[workload]])
    assert all(s[3] is None for s in jobs)
    assert all(s[3] is not None for s in first.spans if s[0] != "job")


def test_result_line_matches_the_benchmark_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(["--workload", "witness-completion", "--seconds", "0"]) == 0
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
