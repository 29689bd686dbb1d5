"""Equivalence relations on doubles, class partitioning, and group completion.

Two binary relations on doubles drive everything: the gauge shift (a common
shift of both components, two witnesses) and the twisted shift (one witness
mixing the components crosswise).  On cancellative carriers they coincide and
their classes form the completion; the n-ary class product and queroperation
are checked, never assumed.

On a finite carrier both relations are read from rows of the base's index
table (see _ShiftRows), and a miss is a definite False.  Truth values on
rule-based carriers are three-valued: a bounded witness search that fails
raises BoundExhausted ("unknown") instead of answering False.  Partitions
demand definite answers and abort otherwise.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .core import (
    CheckMode,
    DEFAULT_SEED,
    FiniteCarrier,
    IndexDraws,
    NAryOperation,
    PolyadicStructure,
    Verdict,
    _cancels,
    _check_samples,
    _checked_quer,
    _digit_codes,
    _index_table,
    _sample_source,
    _sole_quer,
    check_total_associativity,
    find_identities,
    iterated_eval,
    verify_polyadic_group,
)
from .doubles import (
    TOP,
    Double,
    QuiverSpec,
    all_doubles,
    bound_product,
    format_quiver,
    hetero_power,
)
from .doubles import _wire_weights
from .errors import (
    ArityMismatch,
    BoundExhausted,
    ExhaustiveOnInfiniteCarrier,
    NoClassMatch,
    NonMember,
    PolyadicError,
    QuerNotFound,
    QuerNotUnique,
    QuerPlacementFailed,
    UsageError,
)

GAUGE = "gauge"
TWIST = "twist"


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
    """Decide a shift relation by searching the carrier's enumeration for a witness."""

    relation: str = TWIST

    def __post_init__(self):
        if self.relation not in (GAUGE, TWIST):
            raise UsageError(f"unknown shift relation {self.relation!r}: expected "
                             f"{GAUGE!r} or {TWIST!r}")


def _sides(relation: str, d1: Double, d2: Double):
    """The pairs a shift relation compares: d1, d2 or (a1, b2), (a2, b1)."""
    return (d1, d2) if relation == GAUGE else ((d1.top, d2.bottom), (d2.top, d1.bottom))


class _ShiftRows:
    """Both shift relations of a finite structure, read from its index table.

    Positions are read from the carrier's index (at), so an element outside
    the carrier raises NonMember.  rows[relation](a, b) codes the side
    (a, b) (see _sides) at each position: gauge codes its shift
    (op[a^(m-1), x], op[b^(m-1), x]) = (u, v) at x as u*k + v, twist codes
    its twisted shift v at z as z*k + v, so twist codes meet only at equal
    z.  first maps a side's codes to their first positions; sides are
    related when their masks (code bits) meet.  Each is made once per side.
    compose(polyad) is the left-nested product iterated_eval gives of
    carrier elements, folded through the table.

    With k elements and arity m, let r = sum(k^j, j < m-1) and
    r' = sum(k^j, j < m-2).  The gauge shifts op[a^(m-1), x] over x are the
    k entries at a*r*k, and the twisted shifts of (a, b) over z the k
    entries at (acc*k^(m-2) + b*r')*k, where acc = op[a^(m-1), b] is the
    entry at a*r*k + b.  Entries are element indices in carrier order.
    """

    def __init__(self, s: PolyadicStructure):
        table, k = _index_table(s)
        self.elems, m = s.carrier.elements(), s.arity
        self.at = at = s.carrier.index.__getitem__
        stride = k * sum(k ** j for j in range(m - 1))          # r*k
        lead, fill = k ** (m - 1), k * sum(k ** j for j in range(m - 2))
        bits, back = (1).__lshift__, range(k - 1, -1, -1)  # back: so a code keeps its first y

        def gauge(a, b):
            lo, hi = at(a) * stride, at(b) * stride
            return [u * k + v for u, v in zip(table[lo:lo + k], table[hi:hi + k])]

        def twist(a, b):
            j = at(b)
            lo = table[at(a) * stride + j] * lead + j * fill
            return list(map(operator.add, range(0, k * k, k), table[lo:lo + k]))

        def compose(polyad):
            codes = map(at, polyad)
            acc = next(codes)
            for j, c in enumerate(codes, 1):  # a product closes every m-1 further codes
                acc = acc * k + c
                if not j % (m - 1):
                    acc = table[acc]
            return self.elems[acc]

        self.compose = compose
        self.rows = {GAUGE: functools.cache(gauge), TWIST: functools.cache(twist)}
        self.first = {r: functools.cache(lambda a, b, row=row: dict(zip(row(a, b)[::-1], back)))
                      for r, row in self.rows.items()}
        self.masks = {r: functools.cache(lambda a, b, row=row: sum(map(bits, set(row(a, b)))))
                      for r, row in self.rows.items()}

    def related(self, relation: str, d1: Double, d2: Double) -> bool:
        mask = self.masks[relation]  # _sides, written out: decisions are the hot path
        if relation == GAUGE:
            return bool(mask(*d1) & mask(*d2))
        return bool(mask(d1.top, d2.bottom) & mask(d2.top, d1.bottom))

    def witness(self, relation: str, d1: Double, d2: Double):
        side1, side2 = _sides(relation, d1, d2)
        row, first = self.rows[relation](*side1), self.first[relation](*side2)
        code = next(filter(first.__contains__, row), None)
        if code is None:
            return None
        return self.elems[row.index(code)], self.elems[first[code]]

    def holds_at(self, relation: str, d1: Double, d2: Double, x, y) -> bool:
        side1, side2 = _sides(relation, d1, d2)
        row = self.rows[relation]
        return row(*side1)[self.at(x)] == row(*side2)[self.at(y)]


class _RuleShifts:
    """Both shift relations of a rule-carrier structure, searched over its
    enumeration with s.op as it is at call time; shifts are value tuples,
    compared with ==.  A miss is no definite False, so
    related raises BoundExhausted.  It searches through the module's
    gauge_witness and twist_witness, so a wrapper around those sees every
    search.
    """

    def __init__(self, s: PolyadicStructure):
        self.s = s

    def _shift(self, relation: str, a, b, x) -> tuple:
        """(op[a^(m-1), x], op[b^(m-1), x]), or (x, (op)^o2[a^(m-1), b^(m-1), x])
        so that, as in _ShiftRows, twist shifts meet only at equal x."""
        op, k = self.s.op, self.s.arity - 1
        if relation == GAUGE:
            return op.fn((a,) * k + (x,)), op.fn((b,) * k + (x,))
        return x, self.compose((a,) * k + (b,) * k + (x,))

    def compose(self, polyad):
        """The left-nested product of a polyad of ell*(m-1)+1 elements."""
        return iterated_eval(self.s.op, (len(polyad) - 1) // (self.s.arity - 1), polyad)

    def related(self, relation: str, d1: Double, d2: Double) -> bool:
        if (gauge_witness if relation == GAUGE else twist_witness)(self.s, d1, d2) is not None:
            return True
        raise BoundExhausted(len(self.s.carrier.elements()))

    def witness(self, relation: str, d1: Double, d2: Double):
        (a1, b1), (a2, b2) = _sides(relation, d1, d2)
        shift, elems = self._shift, self.s.carrier.elements()
        rhs = [(y, shift(relation, a2, b2, y)) for y in elems] if relation == GAUGE else None
        for x in elems:
            u = shift(relation, a1, b1, x)
            for y, v in rhs if rhs is not None else [(x, shift(relation, a2, b2, x))]:
                if u == v:
                    return x, y
        return None

    def holds_at(self, relation: str, d1: Double, d2: Double, x, y) -> bool:
        (a1, b1), (a2, b2) = _sides(relation, d1, d2)
        return self._shift(relation, a1, b1, x) == self._shift(relation, a2, b2, y)


def _shift_kernel(s: PolyadicStructure):
    """The shift relations' kernel of s, cached on s.facts: _ShiftRows when
    finite, else _RuleShifts.  Its witness is (x, y), y = x under twist."""
    kernel = s.facts.get("shift_rows")
    if kernel is None:
        if s.arity < 2:
            raise ArityMismatch(f"shift relations need arity >= 2, got {s.arity}")
        kernel = s.facts["shift_rows"] = (_ShiftRows if s.carrier.is_finite else _RuleShifts)(s)
    return kernel


def gauge_witness(s: PolyadicStructure, d1: Double, d2: Double):
    """First (x, y), by x in carrier order and then y, with
    op[a1^(m-1),x] = op[a2^(m-1),y] componentwise, else None."""
    return _shift_kernel(s).witness(GAUGE, d1, d2)


def twist_witness(s: PolyadicStructure, d1: Double, d2: Double):
    """First z with (op)^o2[a1^(m-1), b2^(m-1), z] = (op)^o2[a2^(m-1), b1^(m-1), z], else None."""
    w = _shift_kernel(s).witness(TWIST, d1, d2)
    return None if w is None else w[0]


def decide_equivalent(s, d1, d2, dec) -> bool:
    """Whether d1 ~ d2 under an ExactRule, or a WitnessSearch through the
    shift kernel: a miss is False when finite, else it raises BoundExhausted."""
    if isinstance(dec, ExactRule):
        return bool(dec.rule(d1, d2))
    return _shift_kernel(s).related(dec.relation, d1, d2)


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
    """Compare gauge and twist verdicts on every pair of doubles (finite only).

    Pairs (i, j), i <= j, run over the doubles in all_doubles order, where
    the double (a, b) has position a*k + b; each verdict is an AND of two
    shift masks (see _ShiftRows).
    """
    if not s.carrier.is_finite:
        raise ExhaustiveOnInfiniteCarrier("relation coincidence is an exhaustive check")
    masks = _shift_kernel(s).masks
    domain, k = all_doubles(s.carrier), len(s.carrier)
    gauge, twist = ([masks[r](*d) for d in domain] for r in (GAUGE, TWIST))
    bad = []
    for i, d1 in enumerate(domain):
        a1, b1 = divmod(i, k)
        for j in range(i, len(domain)):
            a2, b2 = divmod(j, k)
            g = bool(gauge[i] & gauge[j])
            t = bool(twist[a1 * k + b2] & twist[a2 * k + b1])
            if g != t:
                bad.append(((d1, domain[j]), g, t))
    return CoincidenceVerdict(not bad, len(domain) * (len(domain) + 1) // 2, tuple(bad))


# ---------------------------------------------------------------------------
# equivalence axioms


@dataclass(frozen=True)
class AxiomsVerdict:
    """status is 'passed-sampled', 'failed', 'unknown' when samples were
    drawn but no transitivity triple was decided, or 'vacuous' with no
    samples.  ok means neither failed nor unknown, as for Verdict."""

    status: str
    reflexive_checked: int
    symmetry_checked: int
    transitivity_checked: int
    cross_checked: int
    skipped: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.status not in ("failed", "unknown")

    def __str__(self):
        if self.status == "failed":
            return f"axioms failed: {self.failures[:3]}"
        return (
            f"equivalence axioms {self.status} (refl {self.reflexive_checked}, "
            f"symm {self.symmetry_checked}, trans {self.transitivity_checked}, "
            f"cross {self.cross_checked}, unknown skipped {self.skipped})"
        )


def check_equivalence_axioms(s: PolyadicStructure, dec, samples: int = 200,
                             seed: int = DEFAULT_SEED) -> AxiomsVerdict:
    """Reflexivity and symmetry on samples; transitivity through the combined
    witness (padding with m-2 spectator elements, repeating the carrier's
    elements when it has fewer); and, for exact rules, a cross-check against
    the witness searches on definite answers."""
    _check_samples(samples)
    kernel = _shift_kernel(s)  # raises ArityMismatch below arity 2, before the pad's m - 2
    m = s.arity
    pad = tuple(itertools.islice(itertools.cycle(_sample_source(s.carrier)), m - 2))
    draws = IndexDraws(random.Random(seed))
    domain = all_doubles(s.carrier)
    failures = []
    skipped = 0

    refl = symm = 0
    for _ in range(samples):
        d = draws.pick(domain)
        try:
            if decide_equivalent(s, d, d, dec) is not True:
                failures.append(("reflexivity", d))
            refl += 1
        except BoundExhausted:
            skipped += 1
        d1, d2 = draws.pick(domain), draws.pick(domain)
        try:
            if decide_equivalent(s, d1, d2, dec) != decide_equivalent(s, d2, d1, dec):
                failures.append(("symmetry", (d1, d2)))
            symm += 1
        except BoundExhausted:
            skipped += 1

    trans = 0
    try:
        part = partition_classes(s, domain, dec)
    except BoundExhausted:  # no classes to draw triples from: every triple is unknown
        rich = []
        skipped += samples
    else:
        rich = [c for c in part.classes if len(c) >= 3]
    if rich:
        for _ in range(samples):
            cls = draws.pick(rich)
            d1, d2, d3 = (draws.pick(cls) for _ in range(3))
            if isinstance(dec, ExactRule):
                if dec.rule(d1, d2) and dec.rule(d2, d3) and not dec.rule(d1, d3):
                    failures.append(("transitivity-rule", (d1, d2, d3)))
            decided = False  # a triple counts once, whichever relation decides it
            lead = (d2.top,) * (m - 1)
            for relation, search, head in ((TWIST, twist_witness, lead + (d2.bottom,) * (m - 1)),
                                           (GAUGE, gauge_witness, lead)):
                w1, w2 = search(s, d1, d2), search(s, d2, d3)
                if w1 is None or w2 is None:
                    skipped += 1
                    continue
                # composed per coordinate, (x1, x2) then (y1, y2); twist's z is both
                xs, ys = zip(w1, w2) if relation == GAUGE else ((w1, w2),) * 2
                x3 = kernel.compose(head + xs + pad)
                y3 = x3 if ys == xs else kernel.compose(head + ys + pad)
                if not kernel.holds_at(relation, d1, d3, x3, y3):
                    failures.append((f"transitivity-{relation}-witness",
                                     (d1, d2, d3) + ((x3,) if relation == TWIST else ())))
                decided = True
            trans += decided

    cross = 0
    if isinstance(dec, ExactRule):
        searches = (WitnessSearch(TWIST), WitnessSearch(GAUGE))
        for _ in range(samples):
            d1, d2 = draws.pick(domain), draws.pick(domain)
            want = dec.rule(d1, d2)
            for search in searches:
                try:
                    got = decide_equivalent(s, d1, d2, search)
                except BoundExhausted:
                    skipped += 1
                    continue
                cross += 1
                if got != want:
                    failures.append(("cross-check", (search.relation, d1, d2, want, got)))

    status = ("failed" if failures else "passed-sampled" if trans
              else "unknown" if samples else "vacuous")
    return AxiomsVerdict(status, refl, symm, trans, cross, skipped, tuple(failures))


# ---------------------------------------------------------------------------
# classes and partitions


class ClassDouble(NamedTuple):
    """An equivalence class named by its canonical representative double."""

    rep: Double

    def __repr__(self):
        top, bottom = self.rep
        return f"[{top};{bottom}]"


@dataclass(frozen=True, eq=False)
class Partition:
    structure: PolyadicStructure
    decision: object
    canonical: Callable | None
    domain: list
    classes: list                # member lists, ordered by representative
    reps: list                   # representative per class
    position: dict | None        # domain double -> class index; None with a canonical form

    @functools.cached_property
    def _coded(self) -> dict:
        """quiver -> the double codes of _code_product, filled on first use."""
        return {}

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
        """Class of an arbitrary double (also ones outside the domain)."""
        if not isinstance(double, Double):
            double = Double(*double)
        return ClassDouble(self.rep_of(double))

    def rep_of(self, double: Double) -> Double:
        """Representative of the class of a double, as resolve names it.

        A canonical form names it.  Otherwise a domain double is looked up in
        the position map; any other double is decided against each
        representative, and one that matches none raises NoClassMatch.
        """
        if self.canonical is not None:
            return self.canonical(double)
        i = self.position.get(double)
        if i is not None:
            return self.reps[i]
        for r in self.reps:
            if decide_equivalent(self.structure, double, r, self.decision):
                return r
        raise NoClassMatch(double)


def partition_classes(s: PolyadicStructure, domain: Sequence, dec,
                      canonical: Callable | None = None) -> Partition:
    """Partition of the domain under the decision, in one pass over it.

    A dict maps each class key to its members, in discovery order.  With a
    canonical form the key is the double's canonical key, computed once per
    double, and the decision confirms each join against the class's first
    double (N - C decisions in all); a join the decision rejects raises
    PolyadicError naming both doubles, since the canonical form then merges
    inequivalent doubles.  The form is trusted to give equivalent doubles one
    key, and the key names the class, so it must be a Double; other output
    raises UsageError.  Without a canonical form, a double joins the first
    class, in discovery order, whose first member the decision accepts, and
    a class is named by its least member.  Unknown verdicts abort
    (BoundExhausted).  A domain that repeats a double is a UsageError: a
    decision is reflexive, so a repeat joins the class of the double it
    repeats, and each class is checked for repeats.
    """
    domain = list(domain)
    found: dict = {}  # without a canonical form, a class's key is its first member
    for d in domain:
        if canonical is None:
            key = next((first for first in found if decide_equivalent(s, d, first, dec)), d)
        else:
            key = canonical(d)
            if key in found and not decide_equivalent(s, d, found[key][0], dec):
                raise PolyadicError(
                    f"canonical form joins inequivalent doubles {found[key][0]!r} and {d!r}"
                )
        found.setdefault(key, []).append(d)

    def lexkey(d):
        return (s.carrier.sort_key(d.top), s.carrier.sort_key(d.bottom))

    named = []
    for key, mem in found.items():
        if len(set(mem)) < len(mem):
            seen: set = set()
            repeat = next(d for d in mem if d in seen or seen.add(d))
            raise UsageError(f"the domain repeats the double {repeat!r}")
        if canonical is None:
            key = min(mem, key=lexkey)
        elif not isinstance(key, Double):
            raise UsageError(f"canonical form returned {key!r}, not a Double")
        named.append((key, mem))
    named.sort(key=lambda pair: lexkey(pair[0]))
    reps, classes = [rep for rep, _ in named], [mem for _, mem in named]
    position = None if canonical is not None else {
        d: i for i, mem in enumerate(classes) for d in mem}
    return Partition(s, dec, canonical, domain, classes, reps, position)


# ---------------------------------------------------------------------------
# class product, well-definedness, quer


def _quer_row(partition: Partition, quiver: QuiverSpec):
    """Row evaluator of the quer search: (g, elems) -> the x in elems whose
    class product op[g^(n-1), x] is g, in elems order.

    The head's n-1 representatives are flattened once per row, and each wire
    gathers its arguments from that prefix plus x's representative.  An
    intact wire reads its digit; a product wire's base value is memoised per
    row by its argument tuple, so candidates that feed a wire the same
    arguments share one base evaluation.  Every candidate's double is still
    resolved (NoClassMatch as from the class product) and compared with g.
    """
    (top, top_intact), (bottom, bottom_intact) = quiver.gathers
    copies, op = quiver.output_arity - 1, partition.structure.op

    def row(g, elems):
        prefix, want, rep_of = tuple(g.rep) * copies, g.rep, partition.rep_of
        value = functools.cache(op.fn)
        sols = []
        for x in elems:
            flat = prefix + x.rep
            t = top(flat) if top_intact else value(top(flat))
            b = bottom(flat) if bottom_intact else value(bottom(flat))
            if rep_of(Double(t, b)) == want:
                sols.append(x)
        return sols

    return row


def _code_product(partition: Partition, quiver: QuiverSpec):
    """_double_codes(partition, quiver), made once per quiver and kept on the
    partition, so class_structure and check_well_definedness share it."""
    coded = partition._coded
    if quiver not in coded:
        coded[quiver] = _double_codes(partition, quiver)
    return coded[quiver]


def _double_codes(partition: Partition, quiver: QuiverSpec):
    """(codes, wires): codes maps each double of the finite base to its code,
    its position in all_doubles(base), and wires holds per wire its values
    and per slot the term each code adds to its index (see _wire_weights).
    None, so doubles are multiplied, unless the partition holds every double
    of the base, in any order, and nothing else, and the base is closed."""
    s, position = partition.structure, partition.position
    if position is None or not s.carrier.is_finite:
        return None
    dom, k = all_doubles(s.carrier), len(s.carrier)
    if len(position) != len(dom) or not all(map(position.__contains__, dom)):
        return None
    try:
        wires = _wire_weights(quiver, s)
    except NonMember:  # the base is not closed
        return None
    return dict(zip(dom, itertools.count())), [
        (values, [_digit_codes(w[j:j + 2], k) for j in range(0, len(w), 2)]) for values, w in wires]


def check_well_definedness(partition: Partition, quiver: QuiverSpec, samples: int = 200,
                           seed: int = DEFAULT_SEED) -> Verdict:
    """Swap each argument for an equivalent class member and compare results.

    The replacement is drawn from the class's other members, skipping the
    drawn member's index; a class lists each double once (partition_classes
    refuses a domain with repeats), so these are the members unequal to it.
    Where the partition has double codes (see _code_product), the draws
    multiply codes and decode the results to decide them.  checked counts
    the swaps; with none the verdict is vacuous.  A failure's counterexample
    is (members, slot, replacement, r1, r2), as doubles.
    """
    _check_samples(samples)
    draws = IndexDraws(random.Random(seed))
    n = quiver.output_arity
    classes = partition.classes
    if not any(len(c) >= 2 for c in classes):
        return Verdict("vacuous", 0)
    coded = _code_product(partition, quiver)
    if coded is None:
        product, double = bound_product(quiver, partition.structure.op.fn), (lambda d: d)
    else:
        codes, ((top_values, top_terms), (bottom_values, bottom_terms)) = coded
        classes, double = [[*map(codes.__getitem__, c)] for c in classes], [*codes].__getitem__

        def product(cs):
            return (top_values[sum(map(operator.getitem, top_terms, cs))]
                    + bottom_values[sum(map(operator.getitem, bottom_terms, cs))])
    done = 0
    for _ in range(samples):
        chosen = [draws.pick(classes) for _ in range(n)]
        picks = [next(draws[len(c)]) for c in chosen]
        members = [c[j] for c, j in zip(chosen, picks)]
        r1 = product(members)
        for slot, (cls, j) in enumerate(zip(chosen, picks)):
            if len(cls) < 2:
                continue
            other = next(draws[len(cls) - 1])
            alt = cls[other + (other >= j)]
            swapped = list(members)
            swapped[slot] = alt
            r2 = product(swapped)
            done += 1
            if not decide_equivalent(partition.structure, double(r1), double(r2),
                                     partition.decision):
                members, alt, r1, r2 = [*map(double, members)], double(alt), double(r1), double(r2)
                return Verdict("failed", done, (tuple(members), slot, alt, r1, r2), (
                    f"slot {slot}: {members[slot]} -> {alt} turns {r1} into inequivalent {r2}",))
    return Verdict("passed-sampled" if done else "vacuous", done)


@dataclass(frozen=True)
class QuerMap:
    """Queroperation on classes: each class's quer, checked at every slot."""

    mapping: dict


def class_structure(partition: Partition, quiver: QuiverSpec) -> PolyadicStructure:
    """The listed classes as a finite structure under the class product.

    The product applies the quiver over the partition's base structure to
    the classes' representatives and resolves the result.  It is memoised by
    class tuple, so no class-level check multiplies one tuple twice.  Where
    the partition has double codes (see _code_product), the "index_row" fact
    gathers the Cayley table instead: row r adds class r's term to the sums
    of the representatives' terms of slots 2..n, in lexicographic order,
    reads each wire's values there and maps each product code to its class.
    """
    wired = bound_product(quiver, partition.structure.op.fn)

    @functools.cache
    def product(cds):
        return partition.resolve(wired([cd.rep for cd in cds]))

    cs = PolyadicStructure(
        FiniteCarrier(partition.class_doubles()),
        NAryOperation(quiver.output_arity, product,
                      name=f"classes:{quiver.name or format_quiver(quiver)}"),
    )
    coded = _code_product(partition, quiver)
    if coded is not None:
        codes, wires = coded
        to_class, reps = [partition.position[d] for d in codes], [codes[r] for r in partition.reps]
        rests = [[*map(sum, itertools.product(*[[t[c] for c in reps] for t in terms[1:]]))]
                 for _, terms in wires]

        def row(r):
            top, bottom = (map(values[terms[0][reps[r]]:].__getitem__, rest)
                           for (values, terms), rest in zip(wires, rests))
            return tuple(map(to_class.__getitem__, map(operator.add, top, bottom)))

        cs.facts["index_row"] = row
    return cs


def _quer_formula(quiver: QuiverSpec, base: PolyadicStructure):
    """The quer candidate of the class [a;b] as a function (a, b) -> double,
    read off the picks; None unless both wires are product wires that each
    pick one component of the last slot's double x.

    If the top wire reads alpha top components of slots 1..n-1, it picks
    a^(m-alpha) b^alpha of x and the bottom wire a^alpha b^(m-alpha), a's
    first: [a b^(m-1); a^(m-1) b] under componentwise-m.  Over a commutative
    base op[g^(n-1), x] then reads [a C; b C], C the 2(m-1) letters of
    g^(n-1), gauge-equivalent to [a;b]; class_quer checks this per class.
    """
    n, m, fn = quiver.output_arity, quiver.input_arity, base.op.fn
    top = [p.comp for p in quiver.top if p.slot == n]
    if quiver.intact_count or len(top) != 1:
        return None
    alpha = sum(p.comp == TOP and p.slot < n for p in quiver.top)
    i = m - alpha if top == [TOP] else alpha  # the a's of x's top component

    def formula(a, b):
        return Double(fn((a,) * i + (b,) * (m - i)), fn((a,) * (m - i) + (b,) * i))
    return formula


def class_quer(partition: Partition, classes: PolyadicStructure, quiver: QuiverSpec) -> QuerMap:
    """Compute the quer of every listed class and verify the quer equation.

    `classes` is the class structure (see class_structure).  A class's quer
    is the wiring's candidate (see _quer_formula) if it solves the defining
    slot op[g^(n-1), q] = g, else the unique listed class that does,
    searched one row per class (see _quer_row).  Either way it must solve
    the quer equation at every slot (see core._checked_quer), otherwise
    QuerPlacementFailed, which refutes it: any quer solves the defining slot.
    """
    formula = _quer_formula(quiver, partition.structure)
    cds, fn, head = classes.carrier.elements(), classes.op.fn, classes.arity - 1
    row = None
    mapping: dict = {}
    for c in cds:
        q = None if formula is None else partition.resolve(formula(*c.rep))
        if q is None or fn((c,) * head + (q,)) != c:
            row = row or _quer_row(partition, quiver)
            q = _sole_quer(c, row(c, cds), len(cds))
        mapping[c] = _checked_quer(classes, c, q)
    return QuerMap(mapping)


# ---------------------------------------------------------------------------
# the completion pipeline


@dataclass(frozen=True)
class CompletionReport:
    associative: Verdict
    well_defined: Verdict
    group: Verdict

    @property
    def ok(self) -> bool:
        """Every stage is ok: none failed or was left unknown."""
        return all(v.ok for v in (self.associative, self.well_defined, self.group))


@dataclass(eq=False)
class CompletionGroup:
    base: PolyadicStructure
    quiver: QuiverSpec
    partition: Partition
    product: NAryOperation       # the class structure's memoised product
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


def _class_group_checks(cs: PolyadicStructure, quer: QuerMap, samples: int, seed: int,
                        truncated: bool, domain: str) -> Verdict:
    """Group evidence on the class structure cs (from class_structure), with
    its quer map, by the core checkers.

    When the exhaustive associativity proof is small (C^(2n-1) <= 200,000 for
    C classes), the class Cayley table is gathered (see class_structure) or
    compiled through the memoised product, and verify_polyadic_group proves
    or refutes the n-ary group on it, counting its solvability instances; a
    group's quers satisfy the cancellation identities.  Otherwise, or when a
    product leaves the listed classes, class associativity and the
    cancellation identities are sampled, and with no samples the verdict is
    vacuous.  `truncated` says whether the class set may miss classes (the
    base is a rule carrier); a product outside the listed classes shows that
    it does.  `domain` is the last note of every verdict.
    """
    cds = cs.carrier.elements()
    n = cs.arity
    slots = "quer at all slots"  # class_quer checked every slot of every quer

    def failed(checked, counterexample, what):
        return Verdict("failed", checked, counterexample, (what, domain))

    if len(cds) ** (2 * n - 1) <= 200_000:
        try:
            _index_table(cs)
        except NonMember:
            truncated = True
        else:
            gv = verify_polyadic_group(cs, CheckMode.exhaustive())
            assoc = gv.associativity
            if not assoc.ok:
                cx = assoc.counterexample
                return failed(assoc.checked, cx, f"class associativity at {cx[0]}")
            if gv.solvability_failures:
                i, others = gv.solvability_failures[0]
                return failed(gv.checked, (i, others), f"solvability at slot {i}, {others}")
            return Verdict("proved-exhaustive", gv.checked, None,
                           ("solvability and associativity", slots, domain))
    if not samples:  # no class sample drawn: no evidence either way
        return Verdict("vacuous", 0, None, (slots, domain))
    assoc = check_total_associativity(cs, CheckMode.sampled(samples, seed))
    if not assoc.ok:
        cx = assoc.counterexample
        return failed(assoc.checked, cx, f"class associativity at {cx[0]}")
    draws = IndexDraws(random.Random(seed))
    for c in range(samples):
        g, h = draws.pick(cds), draws.pick(cds)
        if not _cancels(cs, g, h, quer.mapping[h]):
            return failed(c + 1, (g, h), f"cancellation identities at {g},{h}")
    label = "diagrammatic on truncated class set" if truncated else "diagrammatic"
    return Verdict("passed-sampled", samples, None, (label, slots, domain))


def build_completion(s: PolyadicStructure, quiver: QuiverSpec, dec, *,
                     canonical: Callable | None = None,
                     assoc_mode: CheckMode | None = None,
                     samples: int = 200, seed: int = DEFAULT_SEED) -> CompletionGroup:
    """Partition every double of the base, then class product,
    well-definedness, quer (see class_quer) and group checks.

    A failed stage leaves later stages unrun (quer stays None) and the report
    marked not ok; callers decide what to do with an honest failure.  The
    group verdict then fails with the earlier stage's counterexample.  A
    canonical form must return a Double (see partition_classes).  When a
    double met by the quer or group stage matches no class (a rule-carrier
    base without a canonical form, whose products leave its enumeration),
    the group verdict is unknown.  Every group verdict ends with the note
    "N-double domain".
    """
    _check_samples(samples)
    power = hetero_power(s, quiver)  # raises ArityMismatch for a wrong base arity
    if assoc_mode is None:
        if s.carrier.is_finite:
            # past the cutoff, a proof lifted from a base scan within it still counts
            k, cutoff = len(s.carrier), 20_000_000
            exhaustive = (k * k) ** (2 * quiver.output_arity - 1) <= cutoff or (
                k ** (2 * s.arity - 1) <= cutoff and power.structure.facts["lifted_associativity"]())
            assoc_mode = CheckMode.exhaustive() if exhaustive else CheckMode.sampled(2000, seed)
        else:
            assoc_mode = CheckMode.sampled(1000, seed)
    assoc = check_total_associativity(power.structure, assoc_mode)

    domain = power.structure.carrier.elements()  # all_doubles order
    part = partition_classes(s, domain, dec, canonical=canonical)
    classes = class_structure(part, quiver)
    wd = check_well_definedness(part, quiver, samples=samples, seed=seed)

    note = f"{len(domain)}-double domain"
    quer = None
    if not assoc.ok:
        group = Verdict("failed", 0, assoc.counterexample, ("doubles associativity", note))
    elif not wd.ok:
        group = Verdict("failed", 0, wd.counterexample, ("well-definedness", note))
    else:
        try:
            quer = class_quer(part, classes, quiver)
            group = _class_group_checks(classes, quer, samples, seed,
                                        not s.carrier.is_finite, note)
        except QuerPlacementFailed as exc:  # replays as one class product
            group = Verdict("failed", 0, (exc.element, exc.quer, exc.placement),
                            (f"quer: {exc}", note))
        except (QuerNotFound, QuerNotUnique) as exc:
            group = Verdict("failed", 0, None, (f"quer: {exc}", note))
        except NoClassMatch as exc:
            group = Verdict("unknown", 0, None,
                            (f"class product leaves the partition: {exc}", note))
    return CompletionGroup(s, quiver, part, classes.op, quer, CompletionReport(assoc, wd, group))


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
            "associative": str(K.report.associative),
            "well_defined": str(K.report.well_defined),
            "group": str(K.report.group),
        },
    }


# ---------------------------------------------------------------------------
# binary specialization: embedding, inverses, universal property


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
                                  seed: int = DEFAULT_SEED) -> Verdict:
    """Given a monoid map phi into a binary group, build the induced class map
    [a;b] -> phi(a) * phi(b)^-1 and verify it is a class-invariant
    homomorphism through which phi factors.  A sampled pair (a, b) with
    phi(a*b) != phi(a)*phi(b) fails the verdict first.  checked counts the
    sampled pairs that passed; with no samples the verdict is vacuous."""
    _check_samples(samples)
    if K.n != 2 or K.base.arity != 2:
        raise UsageError("the universal property is implemented for the binary case only")
    _require_binary_group(target, seed)
    e = find_identities(target)[0]
    top = target.op.fn
    inverses: dict = {}

    def inverse(x):
        if x not in inverses:
            sols = [y for y in target.carrier.elements()
                    if top((x, y)) == e and top((y, x)) == e]
            if len(sols) != 1:
                raise PolyadicError(f"no unique inverse for {x!r} within the target bound")
            inverses[x] = sols[0]
        return inverses[x]

    draws = IndexDraws(random.Random(seed))
    base_elems = K.base.carrier.elements()
    for checked in range(samples):
        a, b = draws.pick(base_elems), draws.pick(base_elems)
        if phi(K.base.op.fn((a, b))) != top((phi(a), phi(b))):
            return Verdict("failed", checked, (a, b), (f"phi not a homomorphism at {(a, b)}",))

    def phi_gg_raw(d):
        return top((phi(d.top), inverse(phi(d.bottom))))

    def phi_gg(c):
        return phi_gg_raw(c.rep)

    cds = K.partition.class_doubles()
    for checked in range(samples):
        c1, c2 = draws.pick(cds), draws.pick(cds)
        mem = K.partition.members_of(c1.rep)
        if len(mem) > 1:
            alt = draws.pick(mem)
            if phi_gg(c1) != phi_gg_raw(alt):
                return Verdict("failed", checked, (c1, alt),
                               (f"induced map not class-invariant at {c1}",))
        lhs = phi_gg(K.product.fn((c1, c2)))
        rhs = top((phi_gg(c1), phi_gg(c2)))
        if lhs != rhs:
            return Verdict("failed", checked, (c1, c2),
                           (f"induced map not a homomorphism at {c1},{c2}",))
        a = draws.pick(base_elems)
        if phi_gg(phi_sg(K, a)) != phi(a):
            return Verdict("failed", checked, (a,), (f"factorization fails at {a!r}",))
    return Verdict("passed-sampled", samples) if samples > 0 else Verdict("vacuous", 0)
