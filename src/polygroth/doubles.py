"""Doubled structures on S x S: componentwise and hetero ("entangled") powers.

A quiver is pure data describing how a product of n doubles is wired from the
base m-ary operation: each output component is either a pick list of m
(slot, component) inputs fed to the base operation, or a single input passed
through intact.  Arities obey n = m - ((m-1)/2) * intact_count, and the
fraction must be an integer, which quantizes the admissible (m, n) pairs.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from operator import add, itemgetter
from typing import NamedTuple, Sequence

from .core import (
    Carrier,
    FiniteCarrier,
    NAryOperation,
    PolyadicStructure,
    RuleCarrier,
    _index_table,
    find_identities,
    identity_placements,
)
from .errors import ArityMismatch, InvalidQuiver, NotQuantized, UnknownQuiver

TOP = "T"
BOTTOM = "B"


class Double(NamedTuple):
    top: object
    bottom: object


class Pick(NamedTuple):
    slot: int        # 1-based argument index among the n doubles
    comp: str        # TOP or BOTTOM


class Product(NamedTuple):
    picks: tuple


class Intact(NamedTuple):
    pick: Pick


def arity_after_intact(m: int, ell_id: int) -> int:
    """Output arity n = m - ((m-1)/2) * ell_id; rejects non-integer cases."""
    if m < 2:
        raise InvalidQuiver(f"input arity must be >= 2, got {m}")
    if ell_id == 0:
        return m
    if ell_id != 1:
        raise InvalidQuiver("intact count must be 0 or 1 for a square power")
    if (m - 1) % 2:
        raise NotQuantized(f"(m-1)/2 = {(m - 1) / 2} is not an integer for m={m}")
    return m - (m - 1) // 2


def _wire_picks(wire) -> tuple:
    return (wire.pick,) if isinstance(wire, Intact) else tuple(wire.picks)


def _digit(p: Pick) -> int:
    """Position of a pick among the flattened inputs (top_1, bottom_1, ..., bottom_n)."""
    return 2 * (p.slot - 1) + (p.comp == BOTTOM)


@dataclass(frozen=True)
class QuiverSpec:
    """Wiring of a doubles product; validation makes bad arities unbuildable.

    `gathers` holds, per wire (top, bottom), an itemgetter over the flattened
    inputs and whether the wire is intact: an intact wire gathers its one
    input, a product wire the tuple fed to the base operation.
    """

    input_arity: int
    output_arity: int
    top: Product | Intact
    bottom: Product | Intact
    name: str = field(default="", compare=False)
    gathers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, n = self.input_arity, self.output_arity
        intact = sum(isinstance(w, Intact) for w in (self.top, self.bottom))
        expected = arity_after_intact(m, intact)
        if n != expected:
            raise InvalidQuiver(
                f"output arity {n} violates n = m - (m-1)/2 * intact (expected {expected})"
            )
        consumed = []
        for w in (self.top, self.bottom):
            picks = _wire_picks(w)
            if isinstance(w, Product) and len(picks) != m:
                raise InvalidQuiver(f"a product wire must take exactly {m} picks")
            consumed.extend(picks)
        for p in consumed:
            if p.comp not in (TOP, BOTTOM) or not 1 <= p.slot <= n:
                raise InvalidQuiver(f"bad pick {p!r}")
        if len(consumed) != 2 * n or len(set(consumed)) != 2 * n:
            raise InvalidQuiver("each of the 2n inputs must be consumed exactly once")
        object.__setattr__(self, "gathers", tuple(
            (itemgetter(*map(_digit, _wire_picks(w))), isinstance(w, Intact))
            for w in (self.top, self.bottom)
        ))

    @property
    def intact_count(self) -> int:
        return sum(isinstance(w, Intact) for w in (self.top, self.bottom))


def apply_quiver(quiver: QuiverSpec, base_op: NAryOperation, doubles: Sequence[Double]) -> Double:
    if len(doubles) != quiver.output_arity:
        raise ArityMismatch(
            f"quiver takes {quiver.output_arity} doubles, got {len(doubles)}"
        )
    flat = tuple(itertools.chain.from_iterable(doubles))
    (top, top_intact), (bottom, bottom_intact) = quiver.gathers
    return Double(
        top(flat) if top_intact else base_op.fn(top(flat)),
        bottom(flat) if bottom_intact else base_op.fn(bottom(flat)),
    )


# ---------------------------------------------------------------------------
# built-in quivers


def _prod(*pairs):
    return Product(tuple(Pick(s, c) for s, c in pairs))


def _componentwise(m: int) -> QuiverSpec:
    return QuiverSpec(
        m, m,
        _prod(*[(i, TOP) for i in range(1, m + 1)]),
        _prod(*[(i, BOTTOM) for i in range(1, m + 1)]),
        name=f"componentwise-{m}",
    )


_BUILTINS = {
    "twisted-binary": QuiverSpec(
        2, 2,
        _prod((1, TOP), (2, BOTTOM)),
        _prod((2, TOP), (1, BOTTOM)),
        name="twisted-binary",
    ),
    "ternary-to-binary-a": QuiverSpec(
        3, 2,
        _prod((1, TOP), (1, BOTTOM), (2, TOP)),
        Intact(Pick(2, BOTTOM)),
        name="ternary-to-binary-a",
    ),
    "ternary-to-binary-b": QuiverSpec(
        3, 2,
        _prod((1, TOP), (2, BOTTOM), (2, TOP)),
        Intact(Pick(1, BOTTOM)),
        name="ternary-to-binary-b",
    ),
    "post-ternary": QuiverSpec(
        3, 3,
        _prod((1, TOP), (2, BOTTOM), (3, TOP)),
        _prod((1, BOTTOM), (2, TOP), (3, BOTTOM)),
        name="post-ternary",
    ),
    "post-5ary": QuiverSpec(
        5, 5,
        _prod((1, TOP), (2, BOTTOM), (3, TOP), (4, BOTTOM), (5, TOP)),
        _prod((1, BOTTOM), (2, TOP), (3, BOTTOM), (4, TOP), (5, BOTTOM)),
        name="post-5ary",
    ),
    "five-to-three-intact": QuiverSpec(
        5, 3,
        _prod((1, TOP), (2, BOTTOM), (3, TOP), (1, BOTTOM), (2, TOP)),
        Intact(Pick(3, BOTTOM)),
        name="five-to-three-intact",
    ),
}


def builtin_quiver(name: str) -> QuiverSpec:
    if name in _BUILTINS:
        return _BUILTINS[name]
    if name.startswith("componentwise-"):
        tail = name.split("-", 1)[1]
        if tail.isdigit() and int(tail) >= 2:
            return _componentwise(int(tail))
    raise UnknownQuiver(name)


def swap_picks(q: QuiverSpec, a, b) -> QuiverSpec:
    """Exchange two picks, addressed as ('top'|'bottom', index).

    The result still consumes every input exactly once, so it validates; it
    is the standard way to scramble a wiring for negative controls.
    """
    sides = {"top": list(_wire_picks(q.top)), "bottom": list(_wire_picks(q.bottom))}
    kinds = {"top": isinstance(q.top, Intact), "bottom": isinstance(q.bottom, Intact)}
    (sa, ia), (sb, ib) = a, b
    sides[sa][ia], sides[sb][ib] = sides[sb][ib], sides[sa][ia]

    def rebuild(side):
        picks = sides[side]
        return Intact(picks[0]) if kinds[side] else Product(tuple(picks))

    return QuiverSpec(
        q.input_arity, q.output_arity, rebuild("top"), rebuild("bottom"),
        name=(q.name + "-swapped") if q.name else "swapped",
    )


# ---------------------------------------------------------------------------
# serialization: n<-m intact=L; top=(s,c)...; bottom=...


_QUIVER_RE = re.compile(
    r"^(\d+)<-(\d+) intact=([01]); top=((?:\(\d+,[TB]\))+); bottom=((?:\(\d+,[TB]\))+)$"
)
_PICK_RE = re.compile(r"\((\d+),([TB])\)")


def format_quiver(q: QuiverSpec) -> str:
    def fmt(wire):
        return "".join(f"({p.slot},{p.comp})" for p in _wire_picks(wire))

    return (
        f"{q.output_arity}<-{q.input_arity} intact={q.intact_count}; "
        f"top={fmt(q.top)}; bottom={fmt(q.bottom)}"
    )


def parse_quiver(text: str, name: str = "") -> QuiverSpec:
    mm = _QUIVER_RE.match(text.strip())
    if not mm:
        raise InvalidQuiver(f"unparseable quiver {text!r}")
    n, m, ell = int(mm.group(1)), int(mm.group(2)), int(mm.group(3))

    def wire(spec):
        picks = [Pick(int(s), c) for s, c in _PICK_RE.findall(spec)]
        return Intact(picks[0]) if len(picks) == 1 else Product(tuple(picks))

    q = QuiverSpec(m, n, wire(mm.group(4)), wire(mm.group(5)), name=name)
    if q.intact_count != ell:
        raise InvalidQuiver(f"declared intact={ell} does not match the wiring")
    return q


# ---------------------------------------------------------------------------
# carriers of doubles and the powers themselves


class FiniteDoubleCarrier(FiniteCarrier):
    def __init__(self, base: Carrier):
        elems = base.elements()
        super().__init__(
            [Double(a, b) for a in elems for b in elems],
            name=f"({base.name or 'S'})^2",
        )
        self.base = base

    def render(self, d):
        return f"({self.base.render(d.top)};{self.base.render(d.bottom)})"

    def sort_key(self, d):
        return (self.base.sort_key(d.top), self.base.sort_key(d.bottom))


class RuleDoubleCarrier(RuleCarrier):
    def __init__(self, base: Carrier):
        elems = base.elements()
        super().__init__(
            member=lambda d: isinstance(d, tuple) and len(d) == 2
            and d[0] in base and d[1] in base,
            universe=[Double(a, b) for a in elems for b in elems],
            canonical=lambda d: Double(base.canonical(d[0]), base.canonical(d[1])),
            eq=lambda d1, d2: base.eq(d1[0], d2[0]) and base.eq(d1[1], d2[1]),
            render=lambda d: f"({base.render(d[0])};{base.render(d[1])})",
            sort_key=lambda d: (base.sort_key(d[0]), base.sort_key(d[1])),
            name=f"({base.name or 'S'})^2",
        )
        self.base = base


def double_carrier(base: Carrier) -> Carrier:
    return FiniteDoubleCarrier(base) if base.is_finite else RuleDoubleCarrier(base)


def all_doubles(carrier: Carrier, bound: int | None = None) -> list:
    """Every pair over the carrier's (possibly truncated) enumeration."""
    elems = carrier.elements(bound)
    return [Double(a, b) for a in elems for b in elems]


@dataclass(eq=False)
class DoubledStructure:
    """A structure on S x S wired from a base structure by a quiver."""

    base: PolyadicStructure
    quiver: QuiverSpec
    structure: PolyadicStructure

    @property
    def op(self):
        return self.structure.op

    @property
    def carrier(self):
        return self.structure.carrier

    @property
    def arity(self):
        return self.structure.arity


def hetero_power(s: PolyadicStructure, quiver: QuiverSpec) -> DoubledStructure:
    """Wire the square S x S by the quiver.

    Associativity of the result is *not* asserted here; run
    check_total_associativity on .structure before trusting it.  On a finite
    base the power's index table is derived from the base's on first use, so
    nothing is evaluated until an exhaustive checker asks for it.
    """
    if quiver.input_arity != s.arity:
        raise ArityMismatch(
            f"quiver expects a {quiver.input_arity}-ary base, structure is {s.arity}-ary"
        )
    carrier = double_carrier(s.carrier)
    op = NAryOperation(
        quiver.output_arity,
        lambda ds, _q=quiver, _op=s.op: apply_quiver(_q, _op, ds),
        name=quiver.name or format_quiver(quiver),
    )
    label = f"{s.name or 'S'} boxtimes {quiver.name or format_quiver(quiver)}"
    power = PolyadicStructure(carrier, op, name=label)
    if s.carrier.is_finite:
        power.facts["derive_index_table"] = lambda: _doubles_table(quiver, *_index_table(s))
    return DoubledStructure(s, quiver, power)


def _doubles_table(quiver: QuiverSpec, base_table: tuple, k: int):
    """Index table of the power, derived from the base's without evaluating it.

    Double (a, b) has index a*k + b, so a tuple of n doubles is coded by the
    2n base digits (top_1, bottom_1, ..., top_n, bottom_n).  Each wire's value
    is a digit (intact) or the base table entry coded by its picks' digits.
    """
    n = quiver.output_arity

    def wire_values(wire, scale):
        weights = [0] * (2 * n)
        picks = _wire_picks(wire)
        if isinstance(wire, Intact):
            weights[_digit(picks[0])] = scale
            return _digit_codes(weights, k)
        for j, p in enumerate(picks):
            weights[_digit(p)] = k ** (len(picks) - 1 - j)
        values = base_table if scale == 1 else [v * scale for v in base_table]
        return map(values.__getitem__, _digit_codes(weights, k))

    table = tuple(map(add, wire_values(quiver.top, k), wire_values(quiver.bottom, 1)))
    return table, k * k


def _digit_codes(weights: list, k: int) -> list:
    """sum(w_j * d_j) for every base-k digit tuple d, in lexicographic order."""
    codes = [0]
    for w in weights:
        spread = itertools.chain.from_iterable(zip(*[codes] * k))
        codes = list(map(add, spread, itertools.cycle(range(0, k * w, w))) if w else spread)
    return codes


def componentwise_power(s: PolyadicStructure) -> DoubledStructure:
    """Same-arity power multiplying tops and bottoms independently."""
    return hetero_power(s, builtin_quiver(f"componentwise-{s.arity}"))


# ---------------------------------------------------------------------------
# identity classification on powers


@dataclass(frozen=True)
class IdentityReport:
    kind: str                    # two-sided | left | right | partial | none
    identity: Double | None
    placements: tuple            # per-slot verdicts for E, empty when no candidate

    def __str__(self):
        return self.kind if self.identity is None else f"{self.kind} E={self.identity}"


def identity_report_for_power(d: DoubledStructure) -> IdentityReport:
    """Classify E = (e,e) by which placement equations hold on the power.

    'left' means only op[E,...,E,S] = S survives; 'right' only op[S,E,...,E].
    """
    base_ids = find_identities(d.base)
    if not base_ids:
        return IdentityReport("none", None, ())
    e = base_ids[0]
    E = Double(e, e)
    placements = identity_placements(d.structure, E)
    if all(placements):
        kind = "two-sided"
    elif placements[-1] and not placements[0]:
        kind = "left"
    elif placements[0] and not placements[-1]:
        kind = "right"
    elif placements[0] and placements[-1]:
        kind = "partial"
    else:
        kind = "none"
    return IdentityReport(kind, E, placements)
