"""Equivalence relations on doubles, class partitioning, and group completion.

Two binary relations on doubles drive everything: the gauge shift (a common
shift of both components, two witnesses) and the twisted shift (one witness
mixing the components crosswise).  On cancellative carriers they coincide and
their classes form the completion; the n-ary class product and queroperation
are checked, never assumed.

Truth values on rule-based carriers are three-valued: a bounded witness
search that fails raises BoundExhausted ("unknown") instead of answering
False.  Partitions demand definite answers and abort otherwise.
"""

from __future__ import annotations

import itertools
import operator
import random
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .core import (
    CheckMode,
    DEFAULT_SEED,
    FiniteCarrier,
    NAryOperation,
    PolyadicStructure,
    Verdict,
    _cancels,
    _index_table,
    _placements_disagree,
    _quer_search,
    _quer_slots,
    _solvability_scan,
    check_total_associativity,
    find_identities,
    iterated_eval,
    verify_polyadic_group,
)
from .doubles import (
    Double,
    QuiverSpec,
    all_doubles,
    apply_quiver,
    builtin_quiver,
    format_quiver,
    hetero_power,
)
from .errors import (
    BoundExhausted,
    ExhaustiveOnInfiniteCarrier,
    NonMember,
    NotAHomomorphism,
    PolyadicError,
    QuerFormulaFailsVerification,
    QuerNotFound,
    QuerNotUnique,
    UsageError,
)

GAUGE = "gauge"
TWIST = "twist"

QUER_COMPONENTWISE = "componentwise"
QUER_POST = "post"
QUER_SEARCH = "search"


# ---------------------------------------------------------------------------
# equivalence decisions


@dataclass(frozen=True)
class ExactRule:
    """Closed-form decision procedure for double equivalence.

    Reflexivity and symmetry are expected by construction; transitivity and
    agreement with witness search are checked by check_equivalence_axioms.
    """

    rule: Callable[[Double, Double], bool]


@dataclass(frozen=True)
class WitnessSearch:
    """Decide by enumerating witnesses of a shift relation up to a bound."""

    relation: str = TWIST
    bound: int | None = None     # None: the carrier's full enumeration

    def __post_init__(self):
        if self.relation not in (GAUGE, TWIST):
            raise UsageError(f"unknown shift relation {self.relation!r}: expected "
                             f"{GAUGE!r} or {TWIST!r}")


def gauge_witness(s: PolyadicStructure, d1: Double, d2: Double, bound: int | None = None):
    """First (x, y) with op[a1^(m-1),x] = op[a2^(m-1),y] componentwise, else None."""
    op, m, eq = s.op, s.arity, s.carrier.eq
    elems = s.carrier.elements(bound)
    a1 = (d1.top,) * (m - 1)
    b1 = (d1.bottom,) * (m - 1)
    a2 = (d2.top,) * (m - 1)
    b2 = (d2.bottom,) * (m - 1)
    rhs = [(y, op.fn(a2 + (y,)), op.fn(b2 + (y,))) for y in elems]
    for x in elems:
        ax = op.fn(a1 + (x,))
        bx = op.fn(b1 + (x,))
        for y, ay, by in rhs:
            if eq(ax, ay) and eq(bx, by):
                return (x, y)
    return None


def twist_witness(s: PolyadicStructure, d1: Double, d2: Double, bound: int | None = None):
    """First z with (op)^o2[a1^(m-1), b2^(m-1), z] = (op)^o2[a2^(m-1), b1^(m-1), z]."""
    op, m, eq = s.op, s.arity, s.carrier.eq
    h1 = (d1.top,) * (m - 1) + (d2.bottom,) * (m - 1)
    h2 = (d2.top,) * (m - 1) + (d1.bottom,) * (m - 1)
    for z in s.carrier.elements(bound):
        if eq(iterated_eval(op, 2, h1 + (z,)), iterated_eval(op, 2, h2 + (z,))):
            return z
    return None


def _finite_shift_test(s: PolyadicStructure, relation: str, elems: list):
    """Witness test of a shift relation from per-double tables, filled lazily.

    Gauge: d1 ~ d2 iff the sets {(op[a^(m-1),x], op[b^(m-1),x]) : x} of the
    two doubles meet.  Twist: d1 ~ d2 iff the rows of (a1, b2) and (a2, b1),
    z -> (op)^o2[a^(m-1), b^(m-1), z], agree somewhere.  Either test is true
    exactly when gauge_witness / twist_witness finds a witness in `elems`.
    """
    op, m = s.op, s.arity
    tables: dict = {}
    if relation == GAUGE:
        def entry(d):
            got = tables.get(d)
            if got is None:
                tops = [op.fn((d.top,) * (m - 1) + (x,)) for x in elems]
                bottoms = [op.fn((d.bottom,) * (m - 1) + (x,)) for x in elems]
                got = tables[d] = frozenset(zip(tops, bottoms))
            return got

        return lambda d1, d2: not entry(d1).isdisjoint(entry(d2))

    def row(a, b):
        got = tables.get((a, b))
        if got is None:
            h = (a,) * (m - 1) + (b,) * (m - 1)
            got = tables[a, b] = tuple(iterated_eval(op, 2, h + (z,)) for z in elems)
        return got

    return lambda d1, d2: any(map(operator.eq, row(d1.top, d2.bottom), row(d2.top, d1.bottom)))


def _shift_search(s: PolyadicStructure, relation: str, bound: int | None):
    """(table test or None, exhaustive, candidate count), cached on s.facts by
    (relation, bound).  Rule-based carriers get no table test."""
    key = (relation, bound)
    cached = s.facts.get(key)
    if cached is None:
        elems = s.carrier.elements(bound)
        finite = s.carrier.is_finite
        test = _finite_shift_test(s, relation, elems) if finite else None
        exhaustive = finite and len(elems) == len(s.carrier.elements())
        cached = s.facts[key] = (test, exhaustive, len(elems))
    return cached


def _shift_equivalent(s, d1, d2, dec, relation: str) -> bool:
    if isinstance(dec, ExactRule):
        return bool(dec.rule(d1, d2))
    test, exhaustive, size = _shift_search(s, relation, dec.bound)
    if test is not None:
        found = test(d1, d2)
    else:
        witness = gauge_witness if relation == GAUGE else twist_witness
        found = witness(s, d1, d2, dec.bound) is not None
    if found:
        return True
    if exhaustive:
        return False
    raise BoundExhausted(size)


def gauge_equivalent(s, d1, d2, dec) -> bool:
    return _shift_equivalent(s, d1, d2, dec, GAUGE)


def twist_equivalent(s, d1, d2, dec) -> bool:
    return _shift_equivalent(s, d1, d2, dec, TWIST)


def decide_equivalent(s, d1, d2, dec) -> bool:
    if isinstance(dec, ExactRule):
        return bool(dec.rule(d1, d2))
    return _shift_equivalent(s, d1, d2, dec, dec.relation)


def _twist_holds_at(s, d1, d2, z) -> bool:
    op, m, eq = s.op, s.arity, s.carrier.eq
    h1 = (d1.top,) * (m - 1) + (d2.bottom,) * (m - 1) + (z,)
    h2 = (d2.top,) * (m - 1) + (d1.bottom,) * (m - 1) + (z,)
    return eq(iterated_eval(op, 2, h1), iterated_eval(op, 2, h2))


def _gauge_holds_at(s, d1, d2, x, y) -> bool:
    op, m, eq = s.op, s.arity, s.carrier.eq
    return eq(op.fn((d1.top,) * (m - 1) + (x,)), op.fn((d2.top,) * (m - 1) + (y,))) and eq(
        op.fn((d1.bottom,) * (m - 1) + (x,)), op.fn((d2.bottom,) * (m - 1) + (y,))
    )


# ---------------------------------------------------------------------------
# coincidence of the two shift relations


@dataclass(frozen=True)
class CoincidenceVerdict:
    identical: bool
    pairs_checked: int
    disagreements: tuple

    def __str__(self):
        if self.identical:
            return f"identical partitions ({self.pairs_checked} pairs)"
        return f"partitions differ at {self.disagreements[:3]}"


def check_relation_coincidence(s: PolyadicStructure) -> CoincidenceVerdict:
    """Compare gauge and twist verdicts on every pair of doubles (finite only)."""
    if not s.carrier.is_finite:
        raise ExhaustiveOnInfiniteCarrier("relation coincidence is an exhaustive check")
    domain = all_doubles(s.carrier)
    dec = WitnessSearch()
    bad = []
    count = 0
    for i in range(len(domain)):
        for j in range(i, len(domain)):
            g = gauge_equivalent(s, domain[i], domain[j], dec)
            t = twist_equivalent(s, domain[i], domain[j], dec)
            count += 1
            if g != t:
                bad.append(((domain[i], domain[j]), g, t))
    return CoincidenceVerdict(not bad, count, tuple(bad))


# ---------------------------------------------------------------------------
# equivalence axioms


@dataclass(frozen=True)
class AxiomsVerdict:
    ok: bool
    reflexive_checked: int
    symmetry_checked: int
    transitivity_checked: int
    cross_checked: int
    skipped: int
    failures: tuple

    def __str__(self):
        if self.ok:
            return (
                f"equivalence axioms hold (refl {self.reflexive_checked}, "
                f"symm {self.symmetry_checked}, trans {self.transitivity_checked}, "
                f"cross {self.cross_checked}, unknown skipped {self.skipped})"
            )
        return f"axioms failed: {self.failures[:3]}"


def check_equivalence_axioms(s: PolyadicStructure, dec, samples: int = 200,
                             seed: int = DEFAULT_SEED) -> AxiomsVerdict:
    """Reflexivity and symmetry on samples; transitivity through the combined
    witness (padding with m-2 spectator elements, repeating the carrier's
    elements when it has fewer); and, for exact rules, a cross-check against
    the witness searches on definite answers."""
    rng = random.Random(seed)
    domain = all_doubles(s.carrier)
    m = s.arity
    pad = tuple(itertools.islice(itertools.cycle(s.carrier.elements()), m - 2))
    failures = []
    skipped = 0

    refl = symm = 0
    for _ in range(samples):
        d = rng.choice(domain)
        try:
            if decide_equivalent(s, d, d, dec) is not True:
                failures.append(("reflexivity", d))
            refl += 1
        except BoundExhausted:
            skipped += 1
        d1, d2 = rng.choice(domain), rng.choice(domain)
        try:
            if decide_equivalent(s, d1, d2, dec) != decide_equivalent(s, d2, d1, dec):
                failures.append(("symmetry", (d1, d2)))
            symm += 1
        except BoundExhausted:
            skipped += 1

    trans = 0
    try:
        part = partition_classes(s, domain, dec)
        rich = [c for c in part.classes if len(c) >= 3]
    except BoundExhausted:
        rich = []
    if rich:
        for _ in range(samples):
            cls = rng.choice(rich)
            d1, d2, d3 = (rng.choice(cls) for _ in range(3))
            if isinstance(dec, ExactRule):
                if dec.rule(d1, d2) and dec.rule(d2, d3) and not dec.rule(d1, d3):
                    failures.append(("transitivity-rule", (d1, d2, d3)))
            z1 = twist_witness(s, d1, d2)
            z2 = twist_witness(s, d2, d3)
            if z1 is None or z2 is None:
                skipped += 1
            else:
                z3 = iterated_eval(
                    s.op, 3,
                    (d2.top,) * (m - 1) + (d2.bottom,) * (m - 1) + (z1, z2) + pad,
                )
                if not _twist_holds_at(s, d1, d3, z3):
                    failures.append(("transitivity-twist-witness", (d1, d2, d3, z3)))
                trans += 1
            w1 = gauge_witness(s, d1, d2)
            w2 = gauge_witness(s, d2, d3)
            if w1 is None or w2 is None:
                skipped += 1
            else:
                (x1, _y1), (x2, _y2) = w1, w2
                head = (d2.top,) * (m - 1)
                x3 = iterated_eval(s.op, 2, head + (x1, x2) + pad)
                y3 = iterated_eval(s.op, 2, head + (_y1, _y2) + pad)
                if not _gauge_holds_at(s, d1, d3, x3, y3):
                    failures.append(("transitivity-gauge-witness", (d1, d2, d3)))

    cross = 0
    if isinstance(dec, ExactRule):
        search = WitnessSearch()
        for _ in range(samples):
            d1, d2 = rng.choice(domain), rng.choice(domain)
            want = dec.rule(d1, d2)
            for checker in (twist_equivalent, gauge_equivalent):
                try:
                    got = checker(s, d1, d2, search)
                except BoundExhausted:
                    skipped += 1
                    continue
                cross += 1
                if got != want:
                    failures.append(("cross-check", (checker.__name__, d1, d2, want, got)))

    return AxiomsVerdict(not failures, refl, symm, trans, cross, skipped, tuple(failures))


# ---------------------------------------------------------------------------
# classes and partitions


class ClassDouble:
    """An equivalence class named by its canonical representative double."""

    __slots__ = ("rep",)

    def __init__(self, rep):
        self.rep = rep if isinstance(rep, Double) else Double(*rep)

    def __eq__(self, other):
        return isinstance(other, ClassDouble) and self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        return f"[{self.rep.top};{self.rep.bottom}]"


@dataclass(eq=False)
class Partition:
    structure: PolyadicStructure
    decision: object
    canonical: Callable | None
    domain: list
    classes: list                # member lists, ordered by representative
    reps: list                   # canonical representative per class
    _position: dict | None = field(default=None, init=False, repr=False)

    def class_count(self) -> int:
        return len(self.reps)

    def class_doubles(self) -> list:
        return [ClassDouble(r) for r in self.reps]

    def members_of(self, rep) -> list:
        try:
            return self.classes[self.reps.index(rep)]
        except ValueError:
            raise PolyadicError(f"{rep!r} is not a class representative") from None

    def resolve(self, double) -> ClassDouble:
        """Class of an arbitrary double (also ones outside the domain).

        A domain double is looked up in a double -> class position map built
        on first use; any other double is decided against each representative.
        """
        if not isinstance(double, Double):
            double = Double(*double)
        if self.canonical is not None:
            return ClassDouble(self.canonical(double))
        if self._position is None:
            self._position = {d: i for i, members in enumerate(self.classes) for d in members}
        i = self._position.get(double)
        if i is not None:
            return ClassDouble(self.reps[i])
        for r in self.reps:
            if decide_equivalent(self.structure, double, r, self.decision):
                return ClassDouble(r)
        raise PolyadicError(f"double {double!r} matches no class of the partition")


def partition_classes(s: PolyadicStructure, domain: Sequence, dec,
                      canonical: Callable | None = None) -> Partition:
    """Disjoint-set partition of the domain under the decision.

    Each class is led by its first double in domain order.  With a canonical
    form, a double joins the class of the first double with the same
    canonical key, and the decision confirms each such join (N - C decisions
    in all); a join the decision rejects raises PolyadicError naming both
    doubles, since the canonical form then merges inequivalent doubles.  The
    form is trusted to give equivalent doubles one key.  Without a canonical
    form, each double is tested against the leaders found so far, in
    discovery order, and joins the first equivalent one.  Unknown verdicts
    abort (BoundExhausted).
    """
    domain = list(domain)
    root = list(range(len(domain)))
    leaders: list = []
    if canonical is not None:
        first: dict = {}
        for i, d in enumerate(domain):
            L = first.setdefault(canonical(d), i)
            if L == i:
                leaders.append(i)
            elif decide_equivalent(s, d, domain[L], dec):
                root[i] = L
            else:
                raise PolyadicError(
                    f"canonical form joins inequivalent doubles {domain[L]!r} and {d!r}"
                )
    else:
        for i, d in enumerate(domain):
            for L in leaders:
                if decide_equivalent(s, d, domain[L], dec):
                    root[i] = L
                    break
            else:
                leaders.append(i)
    members = {L: [] for L in leaders}
    for i, d in enumerate(domain):
        members[root[i]].append(d)

    def lexkey(d):
        return (s.carrier.sort_key(d.top), s.carrier.sort_key(d.bottom))

    classes, reps = [], []
    for L in leaders:
        mem = members[L]
        least = min(mem, key=lexkey)
        reps.append(canonical(least) if canonical else least)
        classes.append(mem)
    order = sorted(range(len(reps)), key=lambda idx: lexkey(reps[idx]))
    return Partition(
        s, dec, canonical, domain,
        [classes[idx] for idx in order], [reps[idx] for idx in order],
    )


# ---------------------------------------------------------------------------
# class product, well-definedness, quer


def class_product(partition: Partition, quiver: QuiverSpec, base: PolyadicStructure,
                  assoc_verdict: Verdict | None = None) -> NAryOperation:
    """Product of classes through the quiver applied to canonical representatives."""
    if assoc_verdict is None:
        warnings.warn("class product built without an associativity verdict for the quiver",
                      stacklevel=2)
    elif not assoc_verdict.ok:
        warnings.warn("class product built although the quiver failed associativity",
                      stacklevel=2)

    def fn(cds, _q=quiver, _op=base.op, _p=partition):
        raw = apply_quiver(_q, _op, [cd.rep for cd in cds])
        return _p.resolve(raw)

    return NAryOperation(quiver.output_arity, fn,
                         name=f"classes:{quiver.name or format_quiver(quiver)}")


@dataclass(frozen=True)
class WellDefinedness:
    ok: bool
    samples: int
    counterexample: tuple | None = None   # (members, slot, replacement, r1, r2)

    def __str__(self):
        if self.ok:
            return f"well-defined({self.samples})"
        members, slot, alt, r1, r2 = self.counterexample
        return (
            f"counterexample(slot {slot}: {members[slot]} -> {alt} "
            f"turns {r1} into inequivalent {r2})"
        )


def check_well_definedness(partition: Partition, quiver: QuiverSpec,
                           base: PolyadicStructure, samples: int = 200,
                           seed: int = DEFAULT_SEED) -> WellDefinedness:
    """Swap each argument for an equivalent class member and compare results."""
    rng = random.Random(seed)
    n = quiver.output_arity
    classes = partition.classes
    if not any(len(c) >= 2 for c in classes):
        return WellDefinedness(True, 0)
    done = 0
    for _ in range(samples):
        chosen = [rng.choice(classes) for _ in range(n)]
        members = [rng.choice(c) for c in chosen]
        r1 = apply_quiver(quiver, base.op, members)
        for slot in range(n):
            cls = chosen[slot]
            if len(cls) < 2:
                continue
            alt = rng.choice([d for d in cls if d != members[slot]])
            swapped = list(members)
            swapped[slot] = alt
            r2 = apply_quiver(quiver, base.op, swapped)
            done += 1
            if not decide_equivalent(partition.structure, r1, r2, partition.decision):
                return WellDefinedness(False, done, (tuple(members), slot, alt, r1, r2))
    return WellDefinedness(True, done)


@dataclass(frozen=True)
class QuerMap:
    """Queroperation on classes plus per-slot quer-equation verdicts."""

    mode: str
    mapping: dict
    slot_ok: dict

    def all_slots_ok(self) -> bool:
        return all(all(v) for v in self.slot_ok.values())


def class_structure(partition: Partition, product: NAryOperation) -> PolyadicStructure:
    """The listed classes as a finite structure under the class product.

    When C^(n+1) <= 200,000 for C listed classes, their Cayley table is
    compiled first and the returned structure's operation reads it, so the
    class-level checks make no further class products.  A compile that raises
    PolyadicError (a product leaves the listed classes, or a double resolves
    to no class) keeps the product-backed operation and is recorded as
    facts["closure_error"].
    """
    cs = PolyadicStructure(FiniteCarrier(partition.class_doubles()), product)
    n = product.arity
    if len(cs.carrier) ** (n + 1) > 200_000:
        return cs
    try:
        table, k = _index_table(cs)
    except PolyadicError as exc:
        cs.facts["closure_error"] = exc
        return cs
    elems = cs.carrier.elements()
    index = {c: i for i, c in enumerate(elems)}

    def lookup(cds):
        code = 0
        try:
            for c in cds:
                code = code * k + index[c]
        except KeyError:  # a class outside the listed set, such as a formula quer
            return product.fn(cds)
        return elems[table[code]]

    return replace(cs, op=NAryOperation(n, lookup, name=product.name))


def class_quer(partition: Partition, classes: PolyadicStructure, base: PolyadicStructure,
               mode: str = QUER_SEARCH) -> QuerMap:
    """Compute the quer of every listed class and verify the quer equation.

    `classes` is the class structure (see class_structure).  The defining
    slot (quer last) must hold, otherwise QuerFormulaFailsVerification; the
    other slots are recorded per class.
    """
    m = base.arity
    cds = classes.carrier.elements()
    mapping: dict = {}
    slot_ok: dict = {}
    for c in cds:
        a, b = c.rep
        if mode == QUER_COMPONENTWISE:
            q = partition.resolve(Double(
                base.op.fn((a,) + (b,) * (m - 1)),
                base.op.fn((a,) * (m - 1) + (b,)),
            ))
        elif mode == QUER_POST:
            if m != 3:
                raise UsageError("the Post-style quer formula applies to ternary products")
            q = partition.resolve(Double(base.op.fn((a, a, b)), base.op.fn((a, b, b))))
        elif mode == QUER_SEARCH:
            q = _quer_search(classes, c, cds)
        else:
            raise UsageError(f"unknown quer mode {mode!r}")
        verdicts = tuple(_quer_slots(classes, c, q))
        if not verdicts[-1]:
            raise QuerFormulaFailsVerification(c, f"candidate {q} at the defining slot")
        mapping[c] = q
        slot_ok[c] = verdicts
    return QuerMap(mode, mapping, slot_ok)


# ---------------------------------------------------------------------------
# the completion pipeline


@dataclass
class CompletionReport:
    associative: str
    well_defined: str
    group: str
    domain_size: int
    ok: bool


@dataclass(eq=False)
class CompletionGroup:
    base: PolyadicStructure
    quiver: QuiverSpec
    partition: Partition
    product: NAryOperation
    quer: QuerMap | None
    report: CompletionReport

    @property
    def m(self) -> int:
        return self.base.arity

    @property
    def n(self) -> int:
        return self.quiver.output_arity

    def classes(self) -> list:
        return self.partition.class_doubles()


def _auto_quer_mode(quiver: QuiverSpec, base_arity: int) -> str:
    """The quer formula of the built-in quiver wired like this one, else search."""
    if quiver == builtin_quiver(f"componentwise-{base_arity}"):
        return QUER_COMPONENTWISE
    if base_arity == 3 and quiver == builtin_quiver("post-ternary"):
        return QUER_POST
    return QUER_SEARCH


def _class_group_checks(cs: PolyadicStructure, quer: QuerMap, samples: int, seed: int):
    """Group evidence on the class structure cs (from class_structure), by the
    core checkers.

    Always: sampled class-level associativity, quer totality with its equation
    at every slot, and sampled cancellation identities.  When the listed class
    set is small and closed under the product (its index table compiled),
    unique solvability is added exhaustively on that table.
    """
    rng = random.Random(seed)
    cds = cs.carrier.elements()
    n = cs.arity
    for _ in range(samples):
        t = tuple(rng.choice(cds) for _ in range(2 * n - 1))
        if _placements_disagree(cs, t) is not None:
            return (f"failed(class associativity at {t})", False)
    for _ in range(samples):
        g, h = rng.choice(cds), rng.choice(cds)
        if not _cancels(cs, g, h, quer.mapping[h]):
            return (f"failed(cancellation identities at {g},{h})", False)
    slots = "all slots" if quer.all_slots_ok() else "defining slot only"
    if "index_table" in cs.facts:
        failures, _ = _solvability_scan(cs, max_failures=1)
        if failures:
            i, others = failures[0]
            return (f"failed(solvability at slot {i}, {others})", False)
        return (f"group(exhaustive solvability; quer at {slots})", True)
    error = cs.facts.get("closure_error")
    if error is not None and not isinstance(error, NonMember):
        raise error  # some product has no class, as the compile found
    return (f"group(diagrammatic on truncated class set; quer at {slots})", True)


def build_completion(s: PolyadicStructure, quiver: QuiverSpec, dec,
                     quer_mode: str = "auto", *, canonical: Callable | None = None,
                     assoc_mode: CheckMode | None = None,
                     samples: int = 200, seed: int = DEFAULT_SEED,
                     domain: Sequence | None = None) -> CompletionGroup:
    """Partition, class product, well-definedness, quer, group checks.

    A failed stage leaves later stages unrun (quer stays None) and the report
    marked not ok; callers decide what to do with an honest failure.
    """
    power = hetero_power(s, quiver)  # raises ArityMismatch for a wrong base arity
    if assoc_mode is None:
        if s.carrier.is_finite:
            size = len(s.carrier.elements()) ** 2
            total = size ** (2 * quiver.output_arity - 1)
            assoc_mode = CheckMode.exhaustive() if total <= 20_000_000 else CheckMode.sampled(2000, seed)
        else:
            assoc_mode = CheckMode.sampled(1000, seed)
    assoc = check_total_associativity(power.structure, assoc_mode)

    domain = list(domain) if domain is not None else all_doubles(s.carrier)
    part = partition_classes(s, domain, dec, canonical=canonical)
    product = class_product(part, quiver, s, assoc_verdict=assoc)
    wd = check_well_definedness(part, quiver, s, samples=samples, seed=seed)

    bound_note = f"{len(domain)}-double domain"
    quer = None
    ok = assoc.ok and wd.ok
    if not assoc.ok:
        group_str = f"failed(doubles associativity; {bound_note})"
    elif not wd.ok:
        group_str = f"failed(well-definedness; {bound_note})"
    else:
        if quer_mode == "auto":
            quer_mode = _auto_quer_mode(quiver, s.arity)
        classes = class_structure(part, product)
        try:
            quer = class_quer(part, classes, s, quer_mode)
        except (QuerNotFound, QuerNotUnique, QuerFormulaFailsVerification) as exc:
            ok = False
            group_str = f"failed(quer: {exc}; {bound_note})"
        if quer is not None:
            group_str, group_ok = _class_group_checks(classes, quer, samples, seed)
            group_str = f"{group_str[:-1]}; {bound_note})"
            ok = ok and group_ok

    report = CompletionReport(
        associative=str(assoc),
        well_defined=str(wd),
        group=group_str,
        domain_size=len(domain),
        ok=ok,
    )
    return CompletionGroup(s, quiver, part, product, quer, report)


def completion_to_json(K: CompletionGroup) -> dict:
    """Schema-stable dict: m, n, quiver, classes, quer, report."""
    carrier = K.base.carrier

    def pair(d):
        return [carrier.render(d.top), carrier.render(d.bottom)]

    classes = [
        {"rep": pair(rep), "size_hint": len(members) if carrier.is_finite else "infinite"}
        for rep, members in zip(K.partition.reps, K.partition.classes)
    ]
    quer = []
    if K.quer is not None:
        for rep in K.partition.reps:
            c = ClassDouble(rep)
            quer.append([pair(c.rep), pair(K.quer.mapping[c].rep)])
    return {
        "m": K.m,
        "n": K.n,
        "quiver": format_quiver(K.quiver),
        "classes": classes,
        "quer": quer,
        "report": {
            "associative": K.report.associative,
            "well_defined": K.report.well_defined,
            "group": K.report.group,
        },
    }


# ---------------------------------------------------------------------------
# binary specialization: embedding, inverses, universal property


def neutral_class(K: CompletionGroup) -> ClassDouble:
    """Class of a squared-diagonal double (binary completions)."""
    a = K.base.carrier.elements()[0]
    return K.partition.resolve(Double(a, a))


def class_inverse(K: CompletionGroup, c: ClassDouble) -> ClassDouble:
    """Binary completions: the inverse class swaps the two components."""
    if K.n != 2:
        raise UsageError("class_inverse is the binary-case inverse")
    a, b = c.rep
    return K.partition.resolve(Double(b, a))


def phi_sg(K: CompletionGroup, a) -> ClassDouble:
    """Embed a monoid element as the class of (a*a, a).

    When an identity e exists the identity form (a, e) is checked to land in
    the same class.
    """
    s = K.base
    if s.arity != 2:
        raise UsageError("phi_sg embeds elements of a binary monoid")
    d = Double(s.op.fn((a, a)), a)
    cls = K.partition.resolve(d)
    ids = find_identities(s)
    if ids and not decide_equivalent(s, d, Double(a, ids[0]), K.partition.decision):
        raise PolyadicError(f"identity form (a,e) disagrees with (a*a,a) at a={a!r}")
    return cls


@dataclass(frozen=True)
class UniversalVerdict:
    ok: bool
    samples: int
    detail: str = ""

    def __str__(self):
        return f"factorization holds ({self.samples} samples)" if self.ok else self.detail


def _require_binary_group(target: PolyadicStructure, seed: int) -> None:
    if target.arity != 2:
        raise UsageError("the factorization target must be binary")
    if target.carrier.is_finite:
        gv = verify_polyadic_group(target, CheckMode.exhaustive())
        if not gv.is_group:
            raise PolyadicError(f"target {target.name!r} is not a group: {gv}")
    else:
        if not find_identities(target):
            raise PolyadicError("target has no identity within its enumeration")
        assoc = check_total_associativity(target, CheckMode.sampled(500, seed))
        if not assoc.ok:
            raise PolyadicError(f"target failed sampled associativity: {assoc}")


def check_universal_factorization(K: CompletionGroup, target: PolyadicStructure,
                                  phi: Callable, samples: int = 100,
                                  seed: int = DEFAULT_SEED) -> UniversalVerdict:
    """Given a monoid map phi into a binary group, build the induced class map
    [a;b] -> phi(a) * phi(b)^-1 and verify it is a class-invariant
    homomorphism through which phi factors."""
    if K.n != 2 or K.base.arity != 2:
        raise UsageError("the universal property is implemented for the binary case only")
    _require_binary_group(target, seed)
    e = find_identities(target)[0]
    teq = target.carrier.eq
    top = target.op.fn
    inverses: dict = {}

    def inverse(x):
        if x not in inverses:
            sols = [y for y in target.carrier.elements()
                    if teq(top((x, y)), e) and teq(top((y, x)), e)]
            if len(sols) != 1:
                raise PolyadicError(f"no unique inverse for {x!r} within the target bound")
            inverses[x] = sols[0]
        return inverses[x]

    rng = random.Random(seed)
    base_elems = K.base.carrier.elements()
    for _ in range(samples):
        a, b = rng.choice(base_elems), rng.choice(base_elems)
        if not teq(phi(K.base.op.fn((a, b))), top((phi(a), phi(b)))):
            raise NotAHomomorphism((a, b))

    def phi_gg_raw(d):
        return top((phi(d.top), inverse(phi(d.bottom))))

    def phi_gg(c):
        return phi_gg_raw(c.rep)

    cds = K.partition.class_doubles()
    checked = 0
    for _ in range(samples):
        c1, c2 = rng.choice(cds), rng.choice(cds)
        mem = K.partition.members_of(c1.rep)
        if len(mem) > 1:
            alt = rng.choice(mem)
            if not teq(phi_gg(c1), phi_gg_raw(alt)):
                return UniversalVerdict(False, checked, f"induced map not class-invariant at {c1}")
        lhs = phi_gg(K.product.fn((c1, c2)))
        rhs = top((phi_gg(c1), phi_gg(c2)))
        if not teq(lhs, rhs):
            return UniversalVerdict(False, checked, f"induced map not a homomorphism at {c1},{c2}")
        a = rng.choice(base_elems)
        if not teq(phi_gg(phi_sg(K, a)), phi(a)):
            return UniversalVerdict(False, checked, f"factorization fails at {a!r}")
        checked += 1
    return UniversalVerdict(True, checked)
