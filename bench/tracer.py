"""Spans and counters recorded around the package's public functions.

The tracer measures each layer from outside: `install()` replaces module and
class attributes of the imported package with timing wrappers, and
`uninstall()` puts the originals back.  Nothing under src/ changes.

Two kinds of boundary are timed.  A *span* boundary is recorded as
(name, start, end, parent, job) and is used for calls made a few times per
job.  A *folded* boundary (Partition.resolve and the witness searches, called
up to millions of times per round) is timed and counted but not recorded one
by one, so the trace stays small.  Every boundary adds its duration to its
parent's child time, so self time is duration minus children for both.
Counters are kept at the same boundaries.  Everything stays in memory until
`dump()`.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer) of timed boundaries; the layer name is the
# prefix of the per-layer metrics.
SPANS = [
    ("core", "check_total_associativity", "core.assoc"),
    ("core", "verify_polyadic_group", "core.group"),
    ("tables", "parse_table", "tables.parse"),
    ("doubles", "hetero_power", "doubles.hetero_power"),
    ("completion", "partition_classes", "completion.partition"),
    ("completion", "check_well_definedness", "completion.well_defined"),
    ("completion", "class_quer", "completion.quer"),
    ("completion", "build_completion", "completion.build"),
    ("completion", "check_relation_coincidence", "completion.coincidence"),
    ("completion", "check_equivalence_axioms", "completion.axioms"),
    ("completion", "completion_to_json", "completion.json"),
    ("structures", "integers_group", "structures.build"),
    ("structures", "integers_mod_group", "structures.build"),
    ("cli", "main", "cli.main"),
]
FOLDED = [
    ("completion", "gauge_witness", "completion.witness"),
    ("completion", "twist_witness", "completion.witness"),
]
MODULES = ("core", "tables", "doubles", "completion", "structures", "cli")


class Tracer:
    def __init__(self, pg):
        self.pg = pg
        self.spans: list = []          # [name, start, end, parent index, job]
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.job = None
        self._stack: list = []         # frames: [name, start, child time, span index]
        self._patches: list = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, name, record, after=None):
        stack, spans, self_s, counts = self._stack, self.spans, self.self_s, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            idx = None
            if record:
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                idx = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.job])
            frame = [name, 0.0, 0.0, idx]
            stack.append(frame)
            start = frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self_s[name] += end - start - frame[2]
                if stack:
                    stack[-1][2] += end - start
                if record:
                    spans[idx][1], spans[idx][2] = start, end
            counts[calls] += 1
            return after(args, result) if after else result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_ops(self, structure):
        """Count evaluations of a structure's base operation."""
        op = structure.op
        structure.op = self.pg.NAryOperation(op.arity, self._counted(op.fn, "core.op_evals"),
                                             name=op.name)
        return structure

    # -- counters read from results -----------------------------------------

    def _after_assoc(self, args, v):
        self.counts["core.assoc.tuples"] += v.checked
        if v.status == "failed":
            self.counts["core.assoc.refute_tuples"] += v.checked
        return v

    def _after_group(self, args, gv):
        self.counts["core.group.instances"] += gv.checked
        return gv

    def _after_parse(self, args, s):
        self.counts["tables.parse.bytes"] += len(args[0].encode())
        return self.count_ops(s)

    def _after_partition(self, args, part):
        self.counts["completion.partition.classes"] += part.class_count()
        return part

    def _after_witness(self, args, w):
        self.counts["completion.witness.hits"] += w is not None
        return w

    def _after_build(self, args, s):
        return self.count_ops(s)

    def _after_recipe(self, args, recipe):
        build = self._timed(recipe.build, "structures.build", True, self._after_build)
        return dataclasses.replace(recipe, build=build)

    def _decide(self, fn):
        """Count equivalence decisions against the boundary that asked for them."""
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            counts[(stack[-1][0] if stack else "top") + ".decisions"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, module, attr, make):
        """Replace a function in every package module that imported it."""
        original = getattr(getattr(self.pg, module), attr)
        wrapper = make(original)
        for owner in [self.pg] + [getattr(self.pg, m) for m in MODULES]:
            if getattr(owner, attr, None) is original:
                self._patch(owner, attr, wrapper)

    def install(self):
        hooks = {"core.assoc": self._after_assoc, "core.group": self._after_group,
                 "tables.parse": self._after_parse,
                 "completion.partition": self._after_partition,
                 "structures.build": self._after_build}
        for module, attr, name in SPANS:
            self._patch_everywhere(module, attr, lambda f, n=name: self._timed(
                f, n, True, hooks.get(n)))
        for module, attr, name in FOLDED:
            self._patch_everywhere(module, attr, lambda f, n=name: self._timed(
                f, n, False, self._after_witness))
        self._patch_everywhere("doubles", "apply_quiver",
                               lambda f: self._counted(f, "doubles.apply_quiver.calls"))
        self._patch_everywhere("completion", "decide_equivalent", self._decide)
        self._patch_everywhere("structures", "get_recipe", lambda f: (
            lambda *a, **k: self._after_recipe(a, f(*a, **k))))
        partition = self.pg.completion.Partition
        self._patch(partition, "resolve",
                    self._timed(partition.resolve, "completion.resolve", False))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def run_job(self, job_id, fn, *args):
        """Run one job under a root 'job' span."""
        self.job = job_id
        try:
            return self._timed(fn, "job", True)(*args)
        finally:
            self.job = None

    # -- output -------------------------------------------------------------

    def dump(self, path, metrics: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [{"name": n, "start": s - t0, "end": e - t0, "parent": p, "job": j}
                 for n, s, e, p, j in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"metrics": metrics, "self_s": dict(self.self_s),
                       "counts": dict(self.counts), "spans": spans}, fh)
