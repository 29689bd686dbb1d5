"""Seeded inputs for the three benchmark workloads, and the jobs that use them.

`generate(pg, workload, seed)` returns one round: the list of jobs a client
sends in order.  A job is plain data (JSON-serialisable), so the same seed
gives byte-identical inputs.  The round's shape (which kinds of job, on which
carrier sizes) is fixed per workload; the seed chooses label permutations,
operations, perturbed entries, scrambles, relations, sample counts, seeds and
bounds, the counts and bounds within a few per cent.  Keeping the shape fixed
keeps the cost of a round nearly independent of the seed, so runs with
different seeds measure the same work.

`run_job(pg, job)` performs one job against the package under test and
returns its raw output.  It never passes `threads=` and never sets
POLYGROTH_THREADS.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random

WORKLOADS = ("exhaustive-tables", "witness-completion", "cli-recipes")

# Cross-wire swaps (top i <-> bottom j) of the ternary quivers.  Swapping the
# two middle picks turns post-ternary into componentwise-3 (and back), which
# stays associative, so (1, 1) is left out: every remaining scramble fails.
_SCRAMBLES = [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]


def group_table(k: int, arity: int, op: str, perm: list, perturb=None):
    """Cayley table of Z_k under `op` ('+' or '*') iterated to `arity`.

    Value v is stored under label perm[v].  Returns (flat, text): the flat
    result list over label tuples in lexicographic order, and the same table
    in the `parse_table` text format.  `perturb=(code, shift)` adds `shift`
    (mod k) to one entry.
    """
    value = [0] * k
    for v, label in enumerate(perm):
        value[label] = v
    flat = []
    for t in itertools.product(range(k), repeat=arity):
        vals = [value[x] for x in t]
        r = sum(vals) % k if op == "+" else math.prod(vals) % k
        flat.append(perm[r])
    if perturb is not None:
        code, shift = perturb
        flat[code] = (flat[code] + shift) % k
    lines = [f"arity {arity}", f"size {k}", *map(str, flat),
             "labels " + " ".join(f"v{value[i]}" for i in range(k))]
    return flat, "\n".join(lines) + "\n"


def _base(rng, k, arity, op="+", perturb=False):
    perm = list(range(k))
    rng.shuffle(perm)
    change = (rng.randrange(k ** arity), rng.randrange(1, k)) if perturb else None
    flat, text = group_table(k, arity, op, perm, change)
    return {"k": k, "arity": arity, "op": op, "perm": perm, "flat": flat, "table": text}


# ---------------------------------------------------------------------------
# exhaustive-tables


def _exhaustive_tables(pg, rng):
    ops = ("+", "*")
    jobs = []

    def doubles(k, arity, quiver, op="+", expect="proved"):
        jobs.append({"kind": "doubles-assoc", **_base(rng, k, arity, op),
                     "quiver": quiver, "expect": expect})

    def group(k, arity, op="+", perturb=False):
        jobs.append({"kind": "group", **_base(rng, k, arity, op, perturb),
                     "perturbed": perturb})

    def scramble():
        name = rng.choice(("post-ternary", "componentwise-3"))
        i, j = rng.choice(_SCRAMBLES)
        q = pg.swap_picks(pg.builtin_quiver(name), ("top", i), ("bottom", j))
        doubles(6, 3, pg.format_quiver(q), expect="failed")

    def perturbed_doubles():
        jobs.append({"kind": "doubles-assoc", **_base(rng, 6, 3, perturb=True),
                     "quiver": rng.choice(("post-ternary", "componentwise-3")),
                     "expect": "failed"})

    # proofs, about 1M tuples each: they dominate throughput and set the tail
    doubles(4, 3, "post-ternary", rng.choice(ops))            # 16^5 = 1,048,576
    doubles(4, 3, "componentwise-3", rng.choice(ops))         # 1,048,576
    group(7, 4)                                               # 7^7 = 823,543
    # proofs, 15k to 530k tuples
    group(4, 5, rng.choice(ops))                              # 4^9 = 262,144
    doubles(9, 3, rng.choice(("ternary-to-binary-a", "ternary-to-binary-b")))  # 9^6
    doubles(2, 5, "post-5ary")                                # 4^9 = 262,144
    group(5, 4, rng.choice(ops))                              # 5^7 = 78,125
    doubles(3, 3, rng.choice(("post-ternary", "componentwise-3")), rng.choice(ops))
    doubles(3, 5, "five-to-three-intact")                     # 9^5 = 59,049
    group(9, 3, rng.choice(ops))                              # 9^5 = 59,049
    doubles(5, 3, rng.choice(("ternary-to-binary-a", "ternary-to-binary-b")))  # 5^6
    # refutations, which exit early.  Those on doubles of Z6 cost mostly the
    # 46,656-entry doubles table; they are the middle of the job-time
    # distribution, so they set the median.  Jobs much shorter than 0.1 s
    # there would make the median jump with the machine's short slow phases.
    for _ in range(5):
        scramble()
    for _ in range(4):
        perturbed_doubles()
    for k, arity in ((7, 4), (4, 5), (9, 3)):
        group(k, arity, perturb=True)
    return jobs


# ---------------------------------------------------------------------------
# witness-completion


def _witness_completion(pg, rng):
    jobs = []

    def complete(k, arity, quiver, relation, exhaustive=False):
        mode = "exhaustive" if exhaustive else \
            f"sampled:{rng.randrange(495, 506)}:{rng.randrange(1, 10_000)}"
        jobs.append({"kind": "complete", **_base(rng, k, arity), "quiver": quiver,
                     "relation": relation, "mode": mode,
                     "samples": rng.randrange(195, 206), "seed": rng.randrange(1, 10_000)})

    def coincidence(k):
        jobs.append({"kind": "coincidence", **_base(rng, k, 2)})

    def axioms(k, arity):
        jobs.append({"kind": "axioms", **_base(rng, k, arity),
                     "relation": rng.choice(("gauge", "twist")),
                     "samples": rng.randrange(295, 306), "seed": rng.randrange(1, 10_000)})

    # the slowest jobs, about 0.5 s each: they set the tail
    complete(9, 3, "post-ternary", "twist")
    complete(9, 3, "post-ternary", "gauge")
    coincidence(12)
    # resolve-bound jobs, 0.15 to 0.45 s: they set the median
    complete(7, 3, "post-ternary", "gauge")
    complete(7, 3, "componentwise-3", "twist")
    complete(7, 2, "componentwise-2", "twist", exhaustive=True)   # 49^3 tuples
    complete(3, 5, "post-5ary", "twist")
    complete(9, 2, "componentwise-2", "gauge")
    complete(6, 2, "componentwise-2", "gauge", exhaustive=True)   # 36^3 tuples
    coincidence(10)
    # small jobs
    axioms(9, 2)
    axioms(7, 3)
    axioms(5, 5)
    return jobs


# ---------------------------------------------------------------------------
# cli-recipes


def _cli_recipes(pg, rng):
    jobs = []

    def cli(argv, expect_exit=0):
        jobs.append({"kind": "cli", "argv": [str(a) for a in argv], "expect_exit": expect_exit})

    def seed():
        return rng.randrange(1, 10_000)

    def mode(lo, hi):
        return f"sampled:{rng.randrange(lo, hi + 1)}:{seed()}"

    def completion(command, recipe, quiver, bound):
        cli([command, "--structure", recipe, "--quiver", quiver, "--bound", bound,
             "--mode", mode(295, 305), "--seed", seed(),
             "--samples", rng.randrange(195, 206)])

    # partition-bound jobs, 0.6 to 0.8 s each: they set the tail
    cli(["classes", "--structure", "nat0", "--bound", rng.randint(148, 150)])
    completion("complete", "res-3-4", "post-ternary", rng.randint(199, 202))
    completion("quer", "res-7-10", "post-5ary", rng.randint(177, 180))
    # pipelines of 0.1 to 0.4 s: they set the median
    cli(["classes", "--structure", "odd3", "--bound", rng.randint(159, 161)])
    cli(["classes", "--structure", "res-3-4", "--bound", rng.randint(138, 140)])
    cli(["classes", "--structure", "neg3", "--bound", rng.randint(35, 36)])
    completion("complete", "neg3", "componentwise-3", rng.randint(36, 38))
    completion("complete", "res-3-4", "componentwise-3", rng.randint(138, 140))
    completion("complete", "nat0", "componentwise-2", rng.randint(80, 82))
    completion("quer", "odd3", "post-ternary", rng.randint(119, 121))
    cli(["universal-check", "--structure", "nat0", "--target",
         f"integers-mod-{rng.randint(5, 8)}", "--bound", rng.randint(78, 80),
         "--seed", seed(), "--samples", rng.randrange(95, 106)])
    cli(["universal-check", "--structure", "nat0", "--target", "integers",
         "--bound", rng.randint(78, 80), "--seed", seed(), "--samples", rng.randrange(95, 106)])
    cli(["assoc-check", "--structure", "odd3", "--quiver", "post-ternary",
         "--mode", mode(3400, 3600)])
    cli(["assoc-check", "--structure", "res-7-10", "--mode", mode(5400, 5600)])
    # small jobs: argument parsing, recipe builds and output dominate
    completion("quer", "matrix4", "componentwise-4", 25)
    cli(["assoc-check", "--structure", "nat0", "--mode", mode(1900, 2100)])
    cli(["assoc-check", "--structure", "matrix4", "--mode", mode(1900, 2100)])
    # sampled associativity through a wiring that fails
    cli(["assoc-check", "--structure", "nat0", "--quiver", "twisted-binary",
         "--mode", mode(1900, 2100)], expect_exit=1)
    return jobs


_GENERATORS = {
    "exhaustive-tables": _exhaustive_tables,
    "witness-completion": _witness_completion,
    "cli-recipes": _cli_recipes,
}


def generate(pg, workload: str, seed: int) -> list:
    """One round of `workload`'s jobs, made from `seed` alone."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = _GENERATORS[workload](pg, rng)
    for i, job in enumerate(jobs):
        job["slot"] = i
    return jobs


# ---------------------------------------------------------------------------
# running a job


def quiver_of(pg, text: str):
    return pg.parse_quiver(text, name="custom") if "<-" in text else pg.builtin_quiver(text)


def run_job(pg, job: dict):
    """Perform one job; returns the raw output the checker reads."""
    kind = job["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pg.cli.main(list(job["argv"]))
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    s = pg.parse_table(job["table"])
    if kind == "doubles-assoc":
        power = pg.hetero_power(s, quiver_of(pg, job["quiver"]))
        return {"power": power, "verdict": pg.check_total_associativity(
            power.structure, pg.CheckMode.exhaustive())}
    if kind == "group":
        return {"structure": s, "verdict": pg.verify_polyadic_group(s, pg.CheckMode.exhaustive())}
    if kind == "complete":
        return {"completion": pg.build_completion(
            s, pg.builtin_quiver(job["quiver"]), pg.WitnessSearch(relation=job["relation"]),
            assoc_mode=pg.CheckMode.parse(job["mode"]), samples=job["samples"],
            seed=job["seed"])}
    if kind == "coincidence":
        return {"verdict": pg.check_relation_coincidence(s)}
    if kind == "axioms":
        return {"verdict": pg.check_equivalence_axioms(
            s, pg.WitnessSearch(relation=job["relation"]), samples=job["samples"],
            seed=job["seed"])}
    raise ValueError(f"unknown job kind {kind!r}")
