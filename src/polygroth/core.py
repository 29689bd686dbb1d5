"""Polyadic (n-ary) operations on finite or rule-described carriers.

The checkers here are deliberately blunt instruments: exhaustive enumeration
where the carrier is finite and enumerated, seeded sampling or bounded witness
search otherwise.  Whenever a search is bounded, a negative outcome means
"not found within the bound", never a proof of absence.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import (
    ArityMismatch,
    ExhaustiveOnInfiniteCarrier,
    NonMember,
    NotAZero,
    QuerNotFound,
    QuerNotUnique,
    QuerPlacementFailed,
    UsageError,
)

DEFAULT_SEED = 97


# ---------------------------------------------------------------------------
# carriers


class Carrier:
    """A set of elements: finite and enumerated, or membership-rule based."""

    is_finite = False
    name = ""

    def __contains__(self, x) -> bool:
        raise NotImplementedError

    def canonical(self, x):
        return x

    def eq(self, x, y) -> bool:
        return x == y

    def elements(self, bound: int | None = None) -> list:
        """Deterministic element list; `bound` caps how many are returned."""
        raise NotImplementedError

    def render(self, x) -> str:
        return str(x)

    def sort_key(self, x):
        return x


class FiniteCarrier(Carrier):
    """Duplicate-free ordered element list; supports exhaustive checks."""

    is_finite = True

    def __init__(self, elements: Iterable, labels: Sequence[str] | None = None, name: str = ""):
        self._elements = list(elements)
        self._index: dict = {}
        for i, e in enumerate(self._elements):
            if e in self._index:
                raise ValueError(f"duplicate carrier element {e!r}")
            self._index[e] = i
        if labels is not None and len(labels) != len(self._elements):
            raise ValueError("labels must list exactly one name per element")
        self.labels = list(labels) if labels is not None else None
        self.name = name

    def __contains__(self, x):
        return x in self._index

    def __len__(self):
        return len(self._elements)

    def index(self, x) -> int:
        return self._index[x]

    def elements(self, bound=None):
        return list(self._elements) if bound is None else self._elements[:bound]

    def render(self, x):
        return self.labels[self._index[x]] if self.labels else str(x)

    def sort_key(self, x):
        return self._index[x]


class RuleCarrier(Carrier):
    """Membership rule plus a deterministic truncated enumeration.

    The enumeration feeds witness searches and partition domains; it is never
    treated as the whole carrier.
    """

    is_finite = False

    def __init__(self, member: Callable, universe: Iterable, canonical=None, eq=None,
                 render=None, sort_key=None, name: str = ""):
        self._member = member
        self._universe = list(universe)
        self._canonical = canonical
        self._eq = eq
        self._render = render
        self._sort_key = sort_key
        self.name = name

    def __contains__(self, x):
        return bool(self._member(x))

    def canonical(self, x):
        return self._canonical(x) if self._canonical else x

    def eq(self, x, y):
        return self._eq(x, y) if self._eq else x == y

    def elements(self, bound=None):
        return list(self._universe) if bound is None else self._universe[:bound]

    def render(self, x):
        return self._render(x) if self._render else str(x)

    def sort_key(self, x):
        return self._sort_key(x) if self._sort_key else x


# ---------------------------------------------------------------------------
# operations and structures


@dataclass(frozen=True)
class NAryOperation:
    """An arity together with a total evaluator on polyads (tuples)."""

    arity: int
    fn: Callable[[tuple], object]
    name: str = ""

    def __post_init__(self):
        if self.arity < 1:
            raise ArityMismatch(f"arity must be >= 1, got {self.arity}")

    def __call__(self, polyad):
        return self.fn(tuple(polyad))


def iterated_arity(arity: int, ell: int) -> int:
    """Arity of the ell-fold iterated product: ell*(arity-1)+1."""
    return ell * (arity - 1) + 1


def iterated_eval(op: NAryOperation, ell: int, polyad: Sequence):
    """Left-nested ell-fold composition: collapse the first `arity` slots,
    then fold in arity-1 further slots per iteration."""
    n = op.arity
    need = iterated_arity(n, ell)
    if len(polyad) != need:
        raise ArityMismatch(
            f"iterated {n}-ary product with ell={ell} takes {need} arguments, got {len(polyad)}"
        )
    acc = op.fn(tuple(polyad[:n]))
    pos = n
    for _ in range(ell - 1):
        acc = op.fn((acc,) + tuple(polyad[pos:pos + n - 1]))
        pos += n - 1
    return acc


def iterate(op: NAryOperation, ell: int) -> NAryOperation:
    """The ell-fold iterated product as a first-class operation."""
    if ell < 1:
        raise ArityMismatch(f"iteration count must be >= 1, got {ell}")
    if ell == 1:
        return op
    return NAryOperation(
        iterated_arity(op.arity, ell),
        lambda polyad, _op=op, _ell=ell: iterated_eval(_op, _ell, polyad),
        name=f"{op.name or 'op'}^o{ell}",
    )


@dataclass(eq=False)
class PolyadicStructure:
    """A carrier together with one n-ary operation.

    `facts` caches checker outputs ("index_table", "zeros", "identities", the
    shift-relation tables of completion keyed by (relation, bound), and
    completion's "closure_error" of a class table that did not compile);
    every entry is reproducible by re-running the corresponding checker.  A
    builder that already knows the Cayley table may store it as
    "index_table", or store under "derive_index_table" a function that
    returns it, so that `_index_table` need not evaluate the operation on
    every tuple.
    """

    carrier: Carrier
    op: NAryOperation
    name: str = ""
    facts: dict = field(default_factory=dict, repr=False)

    @property
    def arity(self) -> int:
        return self.op.arity


def derived_structure(carrier: Carrier, binary_op: NAryOperation, arity: int,
                      name: str = "") -> PolyadicStructure:
    """Structure whose operation iterates a binary one up to `arity`."""
    if binary_op.arity != 2:
        raise ArityMismatch("derived structures iterate a binary operation")
    return PolyadicStructure(carrier, iterate(binary_op, arity - 1), name=name)


# ---------------------------------------------------------------------------
# check modes and verdicts


@dataclass(frozen=True)
class CheckMode:
    kind: str
    count: int = 0
    seed: int = 0

    EXHAUSTIVE = "exhaustive"
    SAMPLED = "sampled"

    @classmethod
    def exhaustive(cls) -> "CheckMode":
        return cls(cls.EXHAUSTIVE)

    @classmethod
    def sampled(cls, count: int, seed: int) -> "CheckMode":
        return cls(cls.SAMPLED, count, seed)

    @classmethod
    def parse(cls, text: str) -> "CheckMode":
        if text == "exhaustive":
            return cls.exhaustive()
        parts = text.split(":")
        if len(parts) == 3 and parts[0] == "sampled":
            try:
                count, seed = int(parts[1]), int(parts[2])
            except ValueError:
                pass
            else:
                if count >= 1:
                    return cls.sampled(count, seed)
        raise UsageError(f"bad mode {text!r}: expected 'exhaustive' or 'sampled:COUNT:SEED' "
                         "with COUNT >= 1")

    def __str__(self):
        if self.kind == self.EXHAUSTIVE:
            return "exhaustive"
        return f"sampled:{self.count}:{self.seed}"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a law check.

    status is one of 'proved-exhaustive', 'passed-sampled', 'failed'.  A
    failed verdict always carries a replayable counterexample:
    (polyad, placement_i, placement_j, result_i, result_j).
    """

    status: str
    checked: int
    counterexample: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.status != "failed"

    def __str__(self):
        if self.status == "failed":
            polyad, i, j, ri, rj = self.counterexample
            return f"failed(polyad={polyad}, placements {i}/{j} give {ri!r} vs {rj!r})"
        return f"{self.status}({self.checked})"


def placement_result(op: NAryOperation, polyad: Sequence, i: int):
    """Collapse the inner window starting at slot i, then apply the outer op."""
    n = op.arity
    inner = op.fn(tuple(polyad[i:i + n]))
    return op.fn(tuple(polyad[:i]) + (inner,) + tuple(polyad[i + n:]))


# ---------------------------------------------------------------------------
# basic evaluation


def evaluate(s: PolyadicStructure, args: Sequence):
    """Apply the structure's operation after validating the polyad."""
    args = tuple(args)
    if len(args) != s.arity:
        raise ArityMismatch(f"{s.name or 'structure'} takes {s.arity} arguments, got {len(args)}")
    for a in args:
        if a not in s.carrier:
            raise NonMember(a, s.name or s.carrier.name)
    return s.op.fn(args)


def polyadic_power(s: PolyadicStructure, g, ell: int):
    """g to the ell-th polyadic power: the iterated product of ell*(n-1)+1 copies."""
    if g not in s.carrier:
        raise NonMember(g, s.name or s.carrier.name)
    return iterated_eval(s.op, ell, (g,) * iterated_arity(s.arity, ell))


def find_zeros(s: PolyadicStructure) -> list:
    """All absorbing elements, at every placement.

    On rule-based carriers this is a bounded scan: quantifiers range over the
    generated elements only.  The scan runs once and is cached on s.facts;
    each call returns a fresh list.
    """
    zeros = s.facts.get("zeros")
    if zeros is None:
        elems = s.carrier.elements()
        n, op, eq = s.arity, s.op, s.carrier.eq
        zeros = s.facts["zeros"] = tuple(
            z for z in elems
            if all(eq(op.fn(t[:i] + (z,) + t[i:]), z)
                   for t in itertools.product(elems, repeat=n - 1)
                   for i in range(n))
        )
    return list(zeros)


def is_nilpotent(s: PolyadicStructure, g, ell: int, z) -> bool:
    """Whether the ell-th polyadic power of g hits the zero z."""
    if not any(s.carrier.eq(z, z0) for z0 in find_zeros(s)):
        raise NotAZero(z)
    return s.carrier.eq(polyadic_power(s, g, ell), z)


def find_identities(s: PolyadicStructure) -> list:
    """Elements neutral at every argument position (bounded scan on rules).

    The scan runs once and is cached on s.facts; each call returns a fresh
    list.
    """
    ids = s.facts.get("identities")
    if ids is None:
        elems = s.carrier.elements()
        copies = s.arity - 1
        ids = s.facts["identities"] = tuple(e for e in elems if _is_neutral(s, (e,) * copies, elems))
    return list(ids)


def identity_placements(s: PolyadicStructure, e) -> tuple:
    """Per-slot verdicts: slot i holds iff op[e^i, g, e^(n-1-i)] = g for all scanned g."""
    elems = s.carrier.elements()
    n, op, eq = s.arity, s.op, s.carrier.eq
    return tuple(
        all(eq(op.fn((e,) * i + (g,) + (e,) * (n - 1 - i)), g) for g in elems)
        for i in range(n)
    )


def is_neutral_polyad(s: PolyadicStructure, polyad: Sequence) -> bool:
    """Whether the (n-1)-tuple acts as an identity at every insertion point."""
    polyad = tuple(polyad)
    if len(polyad) != s.arity - 1:
        raise ArityMismatch(f"neutral polyad must have length {s.arity - 1}")
    return _is_neutral(s, polyad, s.carrier.elements())


def _is_neutral(s: PolyadicStructure, polyad: tuple, elems) -> bool:
    fn, eq, slots = s.op.fn, s.carrier.eq, range(len(polyad) + 1)
    return all(eq(fn(polyad[:i] + (g,) + polyad[i:]), g) for g in elems for i in slots)


# ---------------------------------------------------------------------------
# total associativity


def _index_table(s: PolyadicStructure):
    """Flat Cayley table over element indices, as a tuple, cached on the structure."""
    cached = s.facts.get("index_table")
    if cached is not None:
        return cached
    derive = s.facts.get("derive_index_table")
    table = derive() if derive is not None else _compile_table(s)
    s.facts["index_table"] = table
    return table


def _compile_table(s: PolyadicStructure):
    """Evaluate the operation on every tuple; raises NonMember if not closed."""
    elems = s.carrier.elements()
    k = len(elems)
    n = s.arity
    index = {e: i for i, e in enumerate(elems)}
    table = [0] * (k ** n)
    flat = 0
    for t in itertools.product(elems, repeat=n):
        r = s.op.fn(t)
        if r not in index:
            raise NonMember(r, f"{s.name or 'structure'} (operation is not closed)")
        table[flat] = index[r]
        flat += 1
    return tuple(table), k


def _assoc_scan(table, k, n):
    """(tuple code, placement) of the first disagreement with placement 0, or None.

    A (2n-1)-tuple with code T splits as T = u*k^(n-1) + v: u codes the leading
    n-tuple and v the trailing (n-1)-tuple.  For each u in lexicographic order
    the results of one placement over every v form a block built by slicing:
    placement 0 is the table row of table[u]; placement i gathers rows of
    length k^(n-1-i), fixed by u[:i], through the inner results, which for the
    window u[i:] + v[:i] are the contiguous slice at code(u[i:])*k^i.  Only
    blocks that differ from placement 0 are walked, so the scan stops in the
    first failing block and reports the smallest counterexample.
    """
    if n == 1 or k <= 1:
        return None
    table = tuple(table)  # blocks are compared as tuples; no copy if it is one
    span = k ** (n - 1)
    pw = [k ** e for e in range(n)]
    # the last placement gathers single entries; one getter per window code
    last = [itemgetter(*table[c * span:(c + 1) * span]) for c in range(k)]
    prefixes = [-1] * n
    rows = [None] * n
    for u in range(k ** n):
        start = table[u] * span
        first = table[start:start + span]
        hits = []
        for i in range(1, n):
            pre, window = divmod(u, pw[n - i])
            width = pw[n - 1 - i]
            if pre != prefixes[i]:
                prefixes[i] = pre
                lo = pre * k * width
                rows[i] = table[lo:lo + k] if width == 1 else [
                    table[r:r + width] for r in range(lo, lo + k * width, width)]
            if width == 1:
                block = last[window](rows[i])
            else:
                inner = table[window * pw[i]:(window + 1) * pw[i]]
                block = tuple(itertools.chain.from_iterable(map(rows[i].__getitem__, inner)))
            if block != first:
                v = next(v for v, (a, b) in enumerate(zip(first, block)) if a != b)
                hits.append((v, i))
        if hits:
            v, i = min(hits)
            return u * span + v, i
    return None


def _decode_polyad(elems, k, L, T):
    pw = [k ** e for e in range(L)]
    return tuple(elems[(T // pw[L - 1 - j]) % k] for j in range(L))


def check_total_associativity(s: PolyadicStructure, mode: CheckMode) -> Verdict:
    """Invariance of the doubly applied product under all n inner placements.

    Exhaustive mode covers every (2n-1)-tuple of a finite carrier and reports
    the lexicographically smallest counterexample; sampled mode draws tuples
    deterministically from the seed.
    """
    n = s.arity
    if mode.kind == CheckMode.EXHAUSTIVE:
        if not s.carrier.is_finite:
            raise ExhaustiveOnInfiniteCarrier(
                "exhaustive associativity needs a finite enumerated carrier"
            )
        table, k = _index_table(s)
        L = 2 * n - 1
        total = k ** L
        hit = _assoc_scan(table, k, n)
        if hit is None:
            return Verdict("proved-exhaustive", total)
        T, i = hit
        polyad = _decode_polyad(s.carrier.elements(), k, L, T)
        r0 = placement_result(s.op, polyad, 0)
        ri = placement_result(s.op, polyad, i)
        return Verdict("failed", T + 1, (polyad, 0, i, r0, ri))

    elems = s.carrier.elements()
    if not elems:
        raise UsageError("cannot sample from an empty carrier enumeration")
    rng = random.Random(mode.seed)
    L = 2 * n - 1
    for c in range(mode.count):
        polyad = tuple(rng.choice(elems) for _ in range(L))
        bad = _placements_disagree(s, polyad)
        if bad is not None:
            i, j, ri, rj = bad
            return Verdict("failed", c + 1, (polyad, i, j, ri, rj))
    return Verdict("passed-sampled", mode.count)


def _placements_disagree(s: PolyadicStructure, polyad):
    op, n, eq = s.op, s.arity, s.carrier.eq
    base = placement_result(op, polyad, 0)
    for i in range(1, n):
        ri = placement_result(op, polyad, i)
        if not eq(ri, base):
            return (0, i, base, ri)
    return None


# ---------------------------------------------------------------------------
# commutativity


@dataclass(frozen=True)
class CommutativityReport:
    """Strongest passing level among full > semi > sigma, else none."""

    level: str
    sigma: tuple | None
    checked: int
    full_failure: tuple | None = None

    def __str__(self):
        if self.level == "sigma":
            return f"sigma{self.sigma}"
        return self.level


def commutativity_report(s: PolyadicStructure, mode: CheckMode,
                         sigma: Sequence[int] | None = None) -> CommutativityReport:
    """Classify invariance under argument permutations.

    full: all permutations (checked through adjacent transpositions);
    semi: first/last swap with every fixed middle polyad;
    sigma: a caller-supplied permutation, reported only when full and semi fail.
    """
    n, op, eq = s.arity, s.op, s.carrier.eq
    elems = s.carrier.elements()
    if n == 1:
        return CommutativityReport("full", None, 0)
    if mode.kind == CheckMode.EXHAUSTIVE:
        if not s.carrier.is_finite:
            raise ExhaustiveOnInfiniteCarrier(
                "exhaustive commutativity needs a finite enumerated carrier"
            )
        pool = list(itertools.product(elems, repeat=n))
    else:
        rng = random.Random(mode.seed)
        pool = [tuple(rng.choice(elems) for _ in range(n)) for _ in range(mode.count)]
    checked = len(pool)

    def violation(perm):
        for t in pool:
            pt = tuple(t[p] for p in perm)
            if not eq(op.fn(t), op.fn(pt)):
                return (t, tuple(perm))
        return None

    full_failure = None
    for j in range(n - 1):
        adj = tuple(range(j)) + (j + 1, j) + tuple(range(j + 2, n))
        full_failure = violation(adj)
        if full_failure:
            break
    if full_failure is None:
        return CommutativityReport("full", None, checked)

    first_last = (n - 1,) + tuple(range(1, n - 1)) + (0,)
    if violation(first_last) is None:
        return CommutativityReport("semi", None, checked, full_failure)

    if sigma is not None and violation(sigma) is None:
        return CommutativityReport("sigma", tuple(sigma), checked, full_failure)
    return CommutativityReport("none", None, checked, full_failure)


# ---------------------------------------------------------------------------
# querelements, Doernte relations, group verification


def querelement(s: PolyadicStructure, g):
    """The unique x with op[g^(n-1), x] = g, verified at every placement of x.

    Search is exhaustive on finite carriers and bounded on rule-based ones.
    """
    if g not in s.carrier:
        raise NonMember(g, s.name or s.carrier.name)
    q = _quer_search(s, g, s.carrier.elements())
    for i, ok in enumerate(itertools.islice(_quer_slots(s, g, q), s.arity - 1)):
        if not ok:
            raise QuerPlacementFailed(g, q, i)
    return q


def _quer_search(s: PolyadicStructure, g, elems):
    """The one x in elems with op[g^(n-1), x] = g; raises QuerNotFound/QuerNotUnique."""
    n, op, eq = s.arity, s.op, s.carrier.eq
    head = (g,) * (n - 1)
    sols = [x for x in elems if eq(op.fn(head + (x,)), g)]
    if not sols:
        raise QuerNotFound(g, len(elems))
    if len(sols) > 1:
        raise QuerNotUnique(g, sols)
    return sols[0]


def _quer_slots(s: PolyadicStructure, g, q):
    """Lazy verdicts of op[g^i, q, g^(n-1-i)] = g for slots i = 0..n-1 (the last defines q)."""
    n, op, eq = s.arity, s.op, s.carrier.eq
    return (eq(op.fn((g,) * i + (q,) + (g,) * (n - 1 - i)), g) for i in range(n))


def check_doernte(s: PolyadicStructure, g, h) -> bool:
    """Cancellation identities: op[g, n_h] = op[n_h, g] = g where
    n_h = (h^(n-2), quer(h)) with the quer at any slot."""
    return _cancels(s, g, h, querelement(s, h))


def _cancels(s: PolyadicStructure, g, h, hq) -> bool:
    """The cancellation identities of check_doernte, given the quer hq of h."""
    n, op, eq = s.arity, s.op, s.carrier.eq
    for i in range(n - 1):
        polyad = (h,) * i + (hq,) + (h,) * (n - 2 - i)
        if not eq(op.fn((g,) + polyad), g):
            return False
        if not eq(op.fn(polyad + (g,)), g):
            return False
    return True


@dataclass(frozen=True)
class GroupVerdict:
    is_group: bool
    associativity: Verdict
    solvability_failures: tuple
    checked: int
    note: str = ""

    def __str__(self):
        if self.is_group:
            return f"group ({self.note}, {self.checked} instances)"
        if not self.associativity.ok:
            return f"not a group (associativity: {self.associativity})"
        return f"not a group (solvability failures: {self.solvability_failures[:2]})"


def verify_polyadic_group(s: PolyadicStructure, mode: CheckMode) -> GroupVerdict:
    """Total associativity plus unique solvability at every argument slot.

    On finite carriers, exhaustive mode checks that fixing any n-1 arguments
    makes the remaining slot a bijection of the carrier.  Sampled mode (the
    only choice on rule-based carriers) counts solutions within the generated
    elements, so a boundary failure reads "unsolvable within bound".  Either
    mode stops at the third solvability failure.
    """
    assoc = check_total_associativity(s, mode)
    n = s.arity
    if mode.kind == CheckMode.EXHAUSTIVE:
        failures, checked = _solvability_scan(s, 3)
        note = "exhaustive unique solvability at every slot"
    else:
        failures, checked = [], 0
        rng = random.Random(mode.seed)
        elems = s.carrier.elements()
        eq = s.carrier.eq
        for _ in range(mode.count):
            i = rng.randrange(n)
            others = tuple(rng.choice(elems) for _ in range(n - 1))
            g = rng.choice(elems)
            sols = [h for h in elems if eq(s.op.fn(others[:i] + (h,) + others[i:]), g)]
            checked += 1
            if len(sols) != 1:
                failures.append((i, others, g, len(sols)))
                if len(failures) >= 3:
                    break
        note = f"sampled solvability within the first {len(elems)} generated elements"
    return GroupVerdict(assoc.ok and not failures, assoc, tuple(failures), checked, note)


def _solvability_scan(s: PolyadicStructure, max_failures: int):
    """(failures, checked) of the exhaustive unique-solvability scan on the index table.

    A failure (slot, others) says that fixing the other n-1 arguments to
    `others` does not make the slot a bijection; the scan stops after
    `max_failures` of them.
    """
    table, k = _index_table(s)
    elems = s.carrier.elements()
    n = s.arity
    failures: list = []
    checked = 0
    for i in range(n):
        for others in itertools.product(range(k), repeat=n - 1):
            checked += 1
            seen = [False] * k
            pre, post = others[:i], others[i:]
            for h in range(k):
                idx = 0
                for d in pre + (h,) + post:
                    idx = idx * k + d
                r = table[idx]
                if seen[r]:
                    failures.append((i, tuple(elems[d] for d in others)))
                    if len(failures) >= max_failures:
                        return failures, checked
                    break
                seen[r] = True
    return failures, checked


# ---------------------------------------------------------------------------
# bundled report


@dataclass(frozen=True)
class StructureReport:
    totally_associative: Verdict
    identities: tuple
    zeros: tuple
    commutativity: CommutativityReport


def structure_report(s: PolyadicStructure, mode: CheckMode,
                     sigma: Sequence[int] | None = None) -> StructureReport:
    return StructureReport(
        check_total_associativity(s, mode),
        tuple(find_identities(s)),
        tuple(find_zeros(s)),
        commutativity_report(s, mode, sigma),
    )
