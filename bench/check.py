"""Correctness checks for benchmark jobs.

`check_job(pg, job, output)` returns `(digest, problems)`.  The digest is the
mathematical content of the output: statuses, counts, counterexample
polyads, class representatives, quer tables and exit codes, never the
wording of report strings.  `problems` lists every way the output is wrong.

The checks use an oracle written here, independent of the package: the
generator's own Cayley tables, quiver wirings parsed from their text form, and
closed-form class invariants of the built-in recipes.  Every failed
associativity verdict is replayed through `placement_result` and through the
oracle.  Every exhaustive proof must report k^(2n-1) tuples.  For the default
seed, `compare_golden` also pins each digest to the values recorded in
golden.json.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import re
from fractions import Fraction
from itertools import product

DEFAULT_SEED = 1

# The oracle re-scans the tuples before a refutation's counterexample to
# confirm it is the lexicographically smallest; beyond this many tuples that
# scan would cost more than the job itself, and only the replay is done.
PREFIX_LIMIT = 2000


def outcome(status: str) -> str:
    """Verdict status reduced to its outcome, so renamed statuses still match."""
    for word in ("proved", "passed", "failed", "unknown", "vacuous"):
        if status.startswith(word):
            return "passed-sampled" if word == "passed" else word
    return status


def _status_and_count(v):
    """(outcome, checked) of a verdict object or of its text, which reads
    'status(count)' or, for a failure, 'failed(...)' without a count."""
    if isinstance(v, str):
        m = re.match(r"([\w-]+)\((\d+)\)$", v)
        return (outcome(m.group(1)), int(m.group(2))) if m else (outcome(v), None)
    return outcome(v.status), v.checked


def _passes(v) -> bool:
    """Whether a stage verdict (object or report text) is a pass."""
    if isinstance(v, str):
        return not v.startswith(("failed", "counterexample"))
    return bool(getattr(v, "ok", getattr(v, "status", "failed") != "failed"))


# ---------------------------------------------------------------------------
# oracle


def table_op(k: int, flat: list):
    def op(t):
        code = 0
        for x in t:
            code = code * k + x
        return flat[code]
    return op


_QUIVER_RE = re.compile(r"^(\d+)<-(\d+) intact=[01]; top=(\S+); bottom=(\S+)$")


def wiring(text: str):
    """(n, wires) of a serialized quiver; a wire is a list of (slot, comp)."""
    m = _QUIVER_RE.match(text.strip())
    if not m:
        raise ValueError(f"unparseable quiver {text!r}")
    wires = [[(int(s) - 1, c) for s, c in re.findall(r"\((\d+),([TB])\)", w)]
             for w in (m.group(3), m.group(4))]
    return int(m.group(1)), wires


def quiver_op(text: str, base_op):
    """The doubles operation a quiver wires from the base operation."""
    _n, wires = wiring(text)

    def value(wire, ds):
        args = tuple(ds[s][0 if c == "T" else 1] for s, c in wire)
        return args[0] if len(wire) == 1 else base_op(args)

    return lambda ds: (value(wires[0], ds), value(wires[1], ds))


def placement(op, n: int, polyad: tuple, i: int):
    return op(polyad[:i] + (op(polyad[i:i + n]),) + polyad[i + n:])


def _plain(x):
    """Doubles and tuples as nested lists, for digests."""
    return [_plain(y) for y in x] if isinstance(x, tuple) else x


def check_assoc(v, expect: str, elems: list, oracle, n: int, pg, op):
    """Digest and problems of an exhaustive associativity verdict."""
    problems = []
    status, checked = _status_and_count(v)
    total = len(elems) ** (2 * n - 1)
    digest = {"status": status, "checked": checked}
    if status != expect:
        problems.append(f"associativity {status}, expected {expect}")
    if status == "proved" and checked != total:
        problems.append(f"proof decided {checked} tuples, not {total}")
    if status != "failed":
        return digest, problems
    polyad, i, j, ri, rj = v.counterexample
    polyad = tuple(polyad)
    digest.update(polyad=_plain(polyad), placements=[i, j])
    if pg.placement_result(op, polyad, i) != ri or pg.placement_result(op, polyad, j) != rj:
        problems.append("counterexample does not replay through placement_result")
    if placement(oracle, n, polyad, i) != ri or placement(oracle, n, polyad, j) != rj:
        problems.append("counterexample results disagree with the oracle")
    if ri == rj:
        problems.append("counterexample placements agree")
    index = {e: x for x, e in enumerate(elems)}
    code = 0
    for e in polyad:
        code = code * len(elems) + index[tuple(e) if isinstance(e, tuple) else e]
    if code + 1 != checked:
        problems.append(f"counterexample is tuple {code + 1}, verdict says {checked}")
    elif checked <= PREFIX_LIMIT:
        for t in product(elems, repeat=2 * n - 1):
            if t == polyad:
                break
            first = placement(oracle, n, t, 0)
            if any(placement(oracle, n, t, p) != first for p in range(1, n)):
                problems.append(f"smaller counterexample {t} exists")
                break
    return digest, problems


# ---------------------------------------------------------------------------
# exhaustive-tables


def _doubles_elems(k):
    return [(a, b) for a in range(k) for b in range(k)]


def _check_doubles_assoc(pg, job, out):
    k, qtext = job["k"], job["quiver"]
    if "<-" not in qtext:
        qtext = pg.format_quiver(pg.builtin_quiver(qtext))
    n, _ = wiring(qtext)
    oracle = quiver_op(qtext, table_op(k, job["flat"]))
    return check_assoc(out["verdict"], job["expect"], _doubles_elems(k), oracle, n,
                       pg, out["power"].structure.op)


def _injective_at(op, k, n, slot, others) -> bool:
    return len({op(others[:slot] + (h,) + others[slot:]) for h in range(k)}) == k


def _check_group(pg, job, out):
    gv = out["verdict"]
    k, n = job["k"], job["arity"]
    oracle = table_op(k, job["flat"])
    is_group = job["op"] == "+" and not job["perturbed"]
    expect_assoc = "failed" if job["perturbed"] else "proved"
    assoc, problems = check_assoc(gv.associativity, expect_assoc, list(range(k)), oracle,
                                  n, pg, out["structure"].op)
    failures = [[i, list(others)] for i, others in gv.solvability_failures]
    digest = {"is_group": gv.is_group, "assoc": assoc, "instances": gv.checked,
              "solvability": failures}
    if gv.is_group != is_group:
        problems.append(f"is_group {gv.is_group}, expected {is_group}")
    if is_group and gv.checked != n * k ** (n - 1):
        problems.append(f"{gv.checked} solvability instances, expected {n * k ** (n - 1)}")
    if not is_group and not failures and expect_assoc == "proved":
        problems.append("not a group, but no solvability failure reported")
    for i, others in failures:
        if _injective_at(oracle, k, n, i, tuple(others)):
            problems.append(f"reported solvability failure {i}, {others} is a bijection")
    return digest, problems


# ---------------------------------------------------------------------------
# witness-completion


def _class_key(job):
    """Class of a label double: both shift relations on derived Z_k reduce to
    (m-1)(a-b) mod k."""
    k, m = job["k"], job["arity"]
    value = [0] * k
    for v, label in enumerate(job["perm"]):
        value[label] = v
    return lambda d: ((m - 1) * (value[d[0]] - value[d[1]])) % k


def _check_complete(pg, job, out):
    K = out["completion"]
    k, problems = job["k"], []
    key = _class_key(job)
    rep_of = {}
    for d in sorted(_doubles_elems(k)):
        rep_of.setdefault(key(d), d)
    reps = [tuple(r) for r in K.partition.reps]
    if reps != sorted(rep_of.values()):
        problems.append("class representatives differ from the oracle")
    for r, members in zip(reps, K.partition.classes):
        if {tuple(d) for d in members} != {d for d in _doubles_elems(k) if key(d) == key(r)}:
            problems.append(f"class of {r} has the wrong members")
            break
    quer = []
    if K.quer is not None:
        qtext = pg.format_quiver(K.quiver)
        n, _ = wiring(qtext)
        prod_ = quiver_op(qtext, table_op(k, job["flat"]))
        for c, q in K.quer.mapping.items():
            quer.append([list(c.rep), list(q.rep)])
            if key(prod_((tuple(c.rep),) * (n - 1) + (tuple(q.rep),))) != key(tuple(c.rep)):
                problems.append(f"quer of {c.rep} fails the quer equation")
    report = K.report
    status, checked = _status_and_count(report.associative)
    digest = {"reps": [list(r) for r in reps], "quer": quer, "assoc": status,
              "assoc_checked": checked, "well_defined": _passes(report.well_defined),
              "group": _passes(report.group), "ok": report.ok}
    if job["mode"] == "exhaustive":
        n = K.quiver.output_arity
        want = ("proved", (k * k) ** (2 * n - 1))
    else:
        want = ("passed-sampled", int(job["mode"].split(":")[1]))
    if (status, checked) != want:
        problems.append(f"associativity {status}({checked}), expected {want}")
    if not (report.ok and digest["well_defined"] and digest["group"]) or K.quer is None:
        problems.append(f"completion of a group is not reported as a group: {report}")
    return digest, problems


def _check_coincidence(pg, job, out):
    v = out["verdict"]
    size = job["k"] ** 2
    digest = {"identical": v.identical, "pairs": v.pairs_checked,
              "disagreements": len(v.disagreements)}
    problems = []
    if not v.identical or v.disagreements:
        problems.append("gauge and twist disagree on a group")
    if v.pairs_checked != size * (size + 1) // 2:
        problems.append(f"{v.pairs_checked} pairs, expected {size * (size + 1) // 2}")
    return digest, problems


def _check_axioms(pg, job, out):
    v = out["verdict"]
    digest = {"ok": v.ok, "reflexive": v.reflexive_checked, "symmetry": v.symmetry_checked,
              "transitivity": v.transitivity_checked, "cross": v.cross_checked,
              "skipped": v.skipped}
    problems = []
    if not v.ok or v.failures:
        problems.append(f"equivalence axioms fail on a group: {v.failures[:2]}")
    if (v.reflexive_checked, v.symmetry_checked) != (job["samples"], job["samples"]):
        problems.append("reflexivity/symmetry sample counts differ from the request")
    return digest, problems


# ---------------------------------------------------------------------------
# cli-recipes


def _recipe_math(name: str, bound: int):
    """(universe, base op, class invariant) of a built-in recipe, or None."""
    if name == "nat0":
        return list(range(bound + 1)), sum, lambda d: d[0] - d[1]
    if name == "odd3":
        return list(range(1, bound + 1, 2)), sum, lambda d: d[0] - d[1]
    if name == "neg3":
        return [-i for i in range(1, bound + 1)], _prod, lambda d: Fraction(d[0], d[1])
    m = re.fullmatch(r"res-(\d+)-(\d+)", name)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        return list(range(a, bound + 1, b)), _prod, lambda d: Fraction(d[0], d[1])
    if name == "matrix4":
        eps = cmath.exp(2j * cmath.pi / 3)
        return None, (lambda t: t[0] + eps * t[1] + eps * eps * t[2] + t[3]), lambda d: 0
    return None


def _prod(t):
    r = 1
    for x in t:
        r *= x
    return r


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        return complex(text.replace("i", "j"))


def _check_classes(name, bound, reps, problems):
    """Representatives must name each class of the recipe's universe once."""
    math_ = _recipe_math(name, bound)
    if math_ is None or math_[0] is None:
        if name == "matrix4" and len(reps) != 1:
            problems.append(f"matrix4 has one class, got {len(reps)}")
        return
    universe, _op, inv = math_
    want = {inv(d) for d in product(universe, repeat=2)}
    got = [inv(r) for r in reps]
    if len(got) != len(set(got)) or set(got) != want:
        problems.append(f"{len(reps)} representatives do not name the {len(want)} classes")


def _check_cli(pg, job, out):
    argv, code = job["argv"], out["exit"]
    command = argv[0]
    digest = {"exit": code}
    problems = []
    if code != job["expect_exit"]:
        return digest, [f"exit {code}, expected {job['expect_exit']}: {out['stderr'][:200]}"]
    payload = json.loads(out["stdout"])
    name = _arg(argv, "--structure")
    bound = int(_arg(argv, "--bound", 0))
    if command == "classes":
        digest["reps"] = payload["classes"]
        reps = [tuple(_parse_number(x) for x in r) for r in payload["classes"]]
        _check_classes(name, bound, reps, problems)
    elif command in ("complete", "quer"):
        reps = [tuple(_parse_number(x) for x in c["rep"]) for c in payload["classes"]]
        status, checked = _status_and_count(payload["report"]["associative"])
        digest.update(reps=[c["rep"] for c in payload["classes"]], quer=payload["quer"],
                      assoc=status, assoc_checked=checked,
                      well_defined=_passes(payload["report"]["well_defined"]),
                      group=_passes(payload["report"]["group"]))
        _check_classes(name, bound, reps, problems)
        want = int(_arg(argv, "--mode").split(":")[1])
        if (status, checked) != ("passed-sampled", want):
            problems.append(f"associativity {status}({checked}), expected passed-sampled({want})")
        if not (digest["well_defined"] and digest["group"]) or len(payload["quer"]) != len(reps):
            problems.append("completion not reported as a group with a total quer")
        math_ = _recipe_math(name, bound)
        if math_ is not None and math_[0] is not None:
            _univ, base, inv = math_
            n, _ = wiring(payload["quiver"])
            op = quiver_op(payload["quiver"], base)
            for c, q in payload["quer"]:
                c = tuple(map(_parse_number, c))
                q = tuple(map(_parse_number, q))
                if inv(op((c,) * (n - 1) + (q,))) != inv(c):
                    problems.append(f"quer of {c} fails the quer equation")
                    break
    elif command == "universal-check":
        digest.update(ok=payload["ok"], samples=payload["samples"])
        if not payload["ok"] or payload["samples"] != int(_arg(argv, "--samples")):
            problems.append(f"universal factorization not confirmed: {payload}")
    elif command == "assoc-check":
        verdict = payload["verdict"]
        status, checked = _status_and_count(verdict)
        digest.update(status=status, checked=checked)
        count = int(_arg(argv, "--mode").split(":")[1])
        if code == 0 and (status, checked) != ("passed-sampled", count):
            problems.append(f"sampled associativity {status}({checked}), expected pass")
        if code == 1:
            if status != "failed":
                problems.append(f"exit 1 with associativity {status}")
            digest["polyad"] = _replay_cli_failure(pg, name, _arg(argv, "--quiver"),
                                                   verdict, problems)
    return digest, problems


_DOUBLE_RE = re.compile(r"Double\(top=(-?\d+), bottom=(-?\d+)\)")


def _replay_cli_failure(pg, name, quiver, verdict, problems):
    """Rebuild the structure the CLI checked and replay its counterexample,
    read from the verdict text."""
    head = verdict.split("), placements")[0]
    polyad = tuple((int(a), int(b)) for a, b in _DOUBLE_RE.findall(head))
    i, j = map(int, re.search(r"placements (\d+)/(\d+)", verdict).groups())
    recipe = pg.get_recipe(name)
    power = pg.hetero_power(recipe.build(recipe.default_limit), pg.builtin_quiver(quiver))
    doubles = tuple(pg.Double(*d) for d in polyad)
    n = power.arity
    if len(doubles) != 2 * n - 1:
        problems.append(f"counterexample {polyad} has the wrong length")
        return _plain(polyad)
    if pg.placement_result(power.op, doubles, i) == pg.placement_result(power.op, doubles, j):
        problems.append("counterexample does not replay through placement_result")
    oracle = quiver_op(pg.format_quiver(power.quiver), _recipe_math(name, 0)[1])
    if placement(oracle, n, polyad, i) == placement(oracle, n, polyad, j):
        problems.append("the oracle finds no disagreement at the counterexample")
    return _plain(polyad)


# ---------------------------------------------------------------------------


_CHECKERS = {
    "doubles-assoc": _check_doubles_assoc,
    "group": _check_group,
    "complete": _check_complete,
    "coincidence": _check_coincidence,
    "axioms": _check_axioms,
    "cli": _check_cli,
}


def check_job(pg, job: dict, output: dict):
    """(digest, problems) of one job's output."""
    return _CHECKERS[job["kind"]](pg, job, output)


def golden_form(digest: dict) -> dict:
    """A digest as recorded in golden.json: long lists (class lists and quer
    tables of the large CLI jobs) are kept as their length and SHA-256."""
    form = {}
    for key, value in digest.items():
        text = json.dumps(value, separators=(",", ":"))
        if isinstance(value, list) and len(text) > 1000:
            value = {"items": len(value), "sha256": hashlib.sha256(text.encode()).hexdigest()}
        form[key] = json.loads(json.dumps(value))
    return form


def compare_golden(golden: list, slot: int, digest: dict) -> list:
    """Problems from comparing a digest with the recorded one."""
    got, want = golden_form(digest), golden[slot]
    return [] if got == want else [f"differs from golden: {got} != {want}"]
