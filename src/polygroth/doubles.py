"""Doubled structures on S x S: componentwise and hetero ("entangled") powers.

A quiver is pure data describing how a product of n doubles is wired from the
base m-ary operation: each output component is a wire, a tuple of
(slot, component) picks.  A wire of m picks feeds the base operation, and a
wire of one pick passes that input through intact.  The picks determine the
arities: m is the width of the product wires and n = m - ((m-1)/2) *
intact_count, where the fraction must be an integer, which quantizes the
admissible (m, n) pairs.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from operator import add, itemgetter
from typing import NamedTuple, Sequence

from .core import (
    Carrier,
    CheckMode,
    FiniteCarrier,
    NAryOperation,
    PolyadicStructure,
    RuleCarrier,
    _assoc_scan,
    _decomposes,
    _digit_codes,
    _index_rows,
    _index_table,
    commutativity_report,
    placement_result,
)
from .errors import ArityMismatch, InvalidQuiver, NonMember, NotQuantized, UnknownQuiver

TOP = "T"
BOTTOM = "B"


class Double(NamedTuple):
    top: object
    bottom: object


class Pick(NamedTuple):
    slot: int        # 1-based argument index among the n doubles
    comp: str        # TOP or BOTTOM


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


def _digit(p: Pick) -> int:
    """Position of a pick among the flattened inputs (top_1, bottom_1, ..., bottom_n)."""
    return 2 * (p.slot - 1) + (p.comp == BOTTOM)


@dataclass(frozen=True)
class QuiverSpec:
    """Wiring of a doubles product: the top and bottom wires, tuples of picks.

    The arities and intact count are derived from the picks, which may be
    given as plain (slot, component) pairs; equality and hashing read the
    wires only.  A wiring with two intact wires, product wires of different
    widths, a non-integer n (NotQuantized), a bad pick, or an input not
    consumed exactly once does not build.  Input of the wrong shape (a wire
    that is not a sequence of pairs, a slot that is not an integer or is a
    bool) raises InvalidQuiver too.

    `gathers` holds, per wire (top, bottom), an itemgetter over the flattened
    inputs and whether the wire is intact: an intact wire gathers its one
    input, a product wire the tuple fed to the base operation.
    """

    top: tuple
    bottom: tuple
    name: str = field(default="", compare=False)
    input_arity: int = field(init=False, compare=False)
    output_arity: int = field(init=False, compare=False)
    intact_count: int = field(init=False, compare=False)
    gathers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            wires = tuple(tuple(Pick(*p) for p in w) for w in (self.top, self.bottom))
        except TypeError:  # a wire or a pick that is not a sequence of the right length
            raise InvalidQuiver("each wire must be a sequence of (slot, component) picks") from None
        if not all(isinstance(p.slot, int) and not isinstance(p.slot, bool)
                   for w in wires for p in w):
            raise InvalidQuiver("pick slots must be integers")
        widths = {len(w) for w in wires if len(w) != 1}
        if len(widths) != 1:
            raise InvalidQuiver("a quiver needs one product width and at most one intact wire")
        (m,) = widths
        intact = sum(len(w) == 1 for w in wires)
        n = arity_after_intact(m, intact)
        consumed = wires[0] + wires[1]
        for p in consumed:
            if p.comp not in (TOP, BOTTOM) or not 1 <= p.slot <= n:
                raise InvalidQuiver(f"bad pick {p!r}")
        if len(consumed) != 2 * n or len(set(consumed)) != 2 * n:
            raise InvalidQuiver("each of the 2n inputs must be consumed exactly once")
        derived = {
            "top": wires[0], "bottom": wires[1],
            "input_arity": m, "output_arity": n, "intact_count": intact,
            "gathers": tuple((itemgetter(*map(_digit, w)), len(w) == 1) for w in wires),
        }
        for attr, value in derived.items():
            object.__setattr__(self, attr, value)


def apply_quiver(quiver: QuiverSpec, base_op: NAryOperation, doubles: Sequence[Double]) -> Double:
    if len(doubles) != quiver.output_arity:
        raise ArityMismatch(
            f"quiver takes {quiver.output_arity} doubles, got {len(doubles)}"
        )
    return bound_product(quiver, base_op.fn)(doubles)


def bound_product(quiver: QuiverSpec, base_fn):
    """The quiver's product of n doubles as one closure over its gathers and the
    base evaluator; unlike apply_quiver it does not check the count of doubles."""
    (top, top_intact), (bottom, bottom_intact) = quiver.gathers
    unpack = itertools.chain.from_iterable

    def product(doubles):
        flat = tuple(unpack(doubles))
        return Double(top(flat) if top_intact else base_fn(top(flat)),
                      bottom(flat) if bottom_intact else base_fn(bottom(flat)))

    return product


# ---------------------------------------------------------------------------
# built-in quivers


def _componentwise(m: int) -> QuiverSpec:
    return QuiverSpec(
        [(i, TOP) for i in range(1, m + 1)],
        [(i, BOTTOM) for i in range(1, m + 1)],
        name=f"componentwise-{m}",
    )


_BUILTINS = {
    "twisted-binary": QuiverSpec(
        ((1, TOP), (2, BOTTOM)),
        ((2, TOP), (1, BOTTOM)),
        name="twisted-binary",
    ),
    "ternary-to-binary-a": QuiverSpec(
        ((1, TOP), (1, BOTTOM), (2, TOP)),
        ((2, BOTTOM),),
        name="ternary-to-binary-a",
    ),
    "ternary-to-binary-b": QuiverSpec(
        ((1, TOP), (2, BOTTOM), (2, TOP)),
        ((1, BOTTOM),),
        name="ternary-to-binary-b",
    ),
    "post-ternary": QuiverSpec(
        ((1, TOP), (2, BOTTOM), (3, TOP)),
        ((1, BOTTOM), (2, TOP), (3, BOTTOM)),
        name="post-ternary",
    ),
    "post-5ary": QuiverSpec(
        ((1, TOP), (2, BOTTOM), (3, TOP), (4, BOTTOM), (5, TOP)),
        ((1, BOTTOM), (2, TOP), (3, BOTTOM), (4, TOP), (5, BOTTOM)),
        name="post-5ary",
    ),
    "five-to-three-intact": QuiverSpec(
        ((1, TOP), (2, BOTTOM), (3, TOP), (1, BOTTOM), (2, TOP)),
        ((3, BOTTOM),),
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
    sides = {"top": list(q.top), "bottom": list(q.bottom)}
    (sa, ia), (sb, ib) = a, b
    sides[sa][ia], sides[sb][ib] = sides[sb][ib], sides[sa][ia]
    return QuiverSpec(
        sides["top"], sides["bottom"],
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
        return "".join(f"({p.slot},{p.comp})" for p in wire)

    return (
        f"{q.output_arity}<-{q.input_arity} intact={q.intact_count}; "
        f"top={fmt(q.top)}; bottom={fmt(q.bottom)}"
    )


def parse_quiver(text: str, name: str = "") -> QuiverSpec:
    mm = _QUIVER_RE.match(text.strip())
    if not mm:
        raise InvalidQuiver(f"unparseable quiver {text!r}")
    n, m, ell = int(mm.group(1)), int(mm.group(2)), int(mm.group(3))
    wires = [[(int(s), c) for s, c in _PICK_RE.findall(spec)] for spec in mm.group(4, 5)]
    # the header is checked against the wiring before the quiver is built, so
    # a mismatch is InvalidQuiver, not an error of the arities the wiring
    # implies; only an even declared m with an intact wire is NotQuantized
    intact = sum(len(w) == 1 for w in wires)
    if (n != arity_after_intact(m, intact) or ell != intact
            or {len(w) for w in wires} - {1} != {m}):
        raise InvalidQuiver(f"header {n}<-{m} intact={ell} does not match the wiring")
    return QuiverSpec(*wires, name=name)


# ---------------------------------------------------------------------------
# carriers of doubles and the powers themselves


def all_doubles(carrier: Carrier) -> list:
    """Every pair over the carrier's enumeration."""
    elems = carrier.elements()
    return [Double(a, b) for a in elems for b in elems]


def double_carrier(base: Carrier) -> Carrier:
    """S x S: the pairs over the base's enumeration, with componentwise
    membership on a rule carrier."""
    if base.is_finite:
        return FiniteCarrier(all_doubles(base))
    return RuleCarrier(
        member=lambda d: isinstance(d, tuple) and len(d) == 2 and d[0] in base and d[1] in base,
        universe=all_doubles(base),
    )


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

    The power's operation evaluates the bound product (see bound_product):
    one closure over the quiver's gathers and the base evaluator, with the
    count of doubles checked by NAryOperation's call, not on every product.
    Associativity of the result is *not* asserted here; run
    check_total_associativity on .structure before trusting it.  On a finite
    base the power's index table rows are derived from the base's as they are
    read, and a check first tries to lift the base's associativity (see
    _lift_fact), so nothing is evaluated until a checker asks for it.
    """
    if quiver.input_arity != s.arity:
        raise ArityMismatch(
            f"quiver expects a {quiver.input_arity}-ary base, structure is {s.arity}-ary"
        )
    carrier = double_carrier(s.carrier)
    op = NAryOperation(quiver.output_arity, bound_product(quiver, s.op.fn),
                       name=quiver.name or format_quiver(quiver))
    label = f"{s.name or 'S'} boxtimes {quiver.name or format_quiver(quiver)}"
    power = PolyadicStructure(carrier, op, name=label)
    if s.carrier.is_finite:
        power.facts["index_row"] = _power_rows(quiver, s)
        power.facts["lifted_associativity"] = _lift_fact(quiver, s)
    return DoubledStructure(s, quiver, power)


@functools.lru_cache(maxsize=64)
def _placement_words(quiver: QuiverSpec) -> tuple:
    """(top word, bottom word) of each placement of 2n-1 symbolic doubles.

    The base operation concatenates its arguments, so each component becomes
    the word of base variables it multiplies, in order: variable 2j is the
    top of double j and 2j+1 its bottom.  The words depend on the wires
    alone, so they are kept per wiring, an equal re-parsed quiver included.
    """
    n = quiver.output_arity
    concat = itertools.chain.from_iterable
    op = NAryOperation(n, bound_product(quiver, lambda ws: tuple(concat(ws))))
    polyad = tuple(Double((2 * j,), (2 * j + 1,)) for j in range(2 * n - 1))
    return tuple(placement_result(op, polyad, i) for i in range(n))


def _lifts_associativity(quiver: QuiverSpec, s: PolyadicStructure) -> bool:
    """Whether the power's total associativity follows from the finite base's.

    In a totally associative m-ary structure every bracketing of a word gives
    the same value (Post, Doernte), and with full commutativity so does every
    reordering.  So the power is totally associative when all placements give
    the same words and the base is totally associative, or the same words up
    to order and the base is also fully commutative.  False means only that
    the lift does not apply.  The words are compared first, so a scrambled
    wiring never pays for a proof of the base, which is its Hosszu-Gluskin
    decomposition (see _decomposes) for a group and the scan otherwise.
    """
    words = set(_placement_words(quiver))
    if len(words) > 1 and len({tuple(tuple(sorted(c)) for c in w) for w in words}) > 1:
        return False
    try:
        return ((len(words) == 1
                 or commutativity_report(s, CheckMode.exhaustive()).level == "full")
                and (_decomposes(s) or _assoc_scan(*_index_rows(s), s.arity) is None))
    except NonMember:  # the base is not closed; a scan of the power raises it again
        return False


def _lift_fact(quiver: QuiverSpec, s: PolyadicStructure):
    """The power's "lifted_associativity" fact: lifted() decides
    _lifts_associativity once and keeps the answer.  lifted(draws), asked by
    a sampled check, declines with False, keeping nothing, while the lift
    costs more than the draws' 2n products each: about one pass over the
    k^m base table per slot (compile, then the scan's gathers)."""
    known = []

    def lifted(draws=None):
        if not known:
            if draws is not None:
                k, m = len(s.carrier), s.arity
                if k ** m * m > 2 * quiver.output_arity * draws:
                    return False
            known.append(_lifts_associativity(quiver, s))
        return known[0]

    return lifted


def _wire_weights(quiver: QuiverSpec, s: PolyadicStructure):
    """(values, weights) per wire (top, bottom) of the quiver over the finite base s.

    Double (a, b) has code a*k + b by element indices.  A wire reads values,
    the base's index table (range(k) if intact) times k on the top wire, at
    sum(weights[j] * d_j) over the 2n digits (top_1, bottom_1, ..., bottom_n)
    of n doubles, and the product's code is the sum of the two wires' values.
    """
    base_table, k = _index_table(s)
    out = []
    for wire, scale in ((quiver.top, k), (quiver.bottom, 1)):
        weights = [0] * (2 * quiver.output_arity)
        for j, p in enumerate(wire):
            weights[_digit(p)] = k ** (len(wire) - 1 - j)
        values = range(k) if len(wire) == 1 else base_table
        out.append((tuple([v * scale for v in values]) if scale > 1 else values, weights))
    return out


def _power_rows(quiver: QuiverSpec, s: PolyadicStructure):
    """Rows of the power's index table, derived from the base's without evaluating it.

    Row r multiplies the double of code r by every n-1 doubles (see
    _wire_weights): each wire gathers its values at the offset of r's digits
    plus the code of the other 2n-2 digits, computed once per power by
    _digit_codes.  A power of at most 256 elements whose rest codes came back
    as bytes has bytes rows: a wire's gather translates its rest codes by the
    256 values from r's offset, and since top*k + bottom < k^2 <= 256 the two
    gathers add as big ints without a carry.  Other rows are tuples.  Each
    row is derived once per power, so a scan followed by a table assembly
    derives none twice.
    """

    @functools.cache
    def wires():
        k = len(s.carrier)
        wired = [(values, _digit_codes(w[:2], k), _digit_codes(w[2:], k))
                 for values, w in _wire_weights(quiver, s)]
        if k * k <= 256 and all(type(rest) is bytes for _, _, rest in wired):
            # padded, so the 256 values from any offset translate the rest codes
            return [(bytes(values) + bytes(256), lead, 256, rest.translate)
                    for values, lead, rest in wired]
        return [(values, lead, len(values),
                 itemgetter(*rest) if len(rest) > 1 else (lambda t, c=rest[0]: (t[c],)))
                for values, lead, rest in wired]

    @functools.cache
    def row(r):
        top, bottom = (gather(values[lead[r]:lead[r] + span])
                       for values, lead, span, gather in wires())
        if type(top) is bytes:
            return (int.from_bytes(top, "big")
                    + int.from_bytes(bottom, "big")).to_bytes(len(top), "big")
        return tuple(map(add, top, bottom))

    return row
