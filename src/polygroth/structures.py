"""Built-in worked structures with carriers, canonical doubles, and exact
equivalence rules.

All integer structures live on rule-based carriers: membership is the real
(infinite) rule, while build(limit) truncates the enumeration by value so
operations stay closed.  The exact rules are cross-multiplication or
difference invariants justified by cancellativity in Z (square/fourth roots
are unique in N); the test suite cross-checks each rule against bounded
witness search.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable

from .completion import ExactRule
from .core import (
    FiniteCarrier,
    NAryOperation,
    PolyadicStructure,
    RuleCarrier,
    derived_structure,
)
from .doubles import Double
from .errors import NoClosedArity, UsageError


@dataclass(frozen=True)
class StructureRecipe:
    """Named builder for a worked structure.

    canonical_double must be idempotent and equivalence-preserving;
    exact_rule must agree with bounded witness search on definite answers.
    """

    name: str
    build: Callable[[int], PolyadicStructure]
    canonical_double: Callable[[Double], Double]
    exact_rule: Callable[[Double, Double], bool]
    default_limit: int = 20

    def exact_decision(self) -> ExactRule:
        return ExactRule(self.exact_rule)

    def make(self, limit: int | None = None) -> PolyadicStructure:
        return self.build(limit if limit is not None else self.default_limit)


# ---------------------------------------------------------------------------
# nonnegative integers under addition (binary monoid)


def _nat0_build(limit: int = 40) -> PolyadicStructure:
    if limit < 1:
        raise UsageError("limit must be >= 1")
    carrier = RuleCarrier(
        member=lambda x: isinstance(x, int) and x >= 0,
        universe=range(limit + 1),
        name=f"N0(<= {limit})",
    )
    return PolyadicStructure(carrier, NAryOperation(2, lambda t: t[0] + t[1], name="+"),
                             name="nat0")


def _nat0_canonical(d: Double) -> Double:
    diff = d.top - d.bottom
    return Double(diff, 0) if diff >= 0 else Double(0, -diff)


def _nat0_rule(d1: Double, d2: Double) -> bool:
    return d1.top + d2.bottom == d2.top + d1.bottom


NAT0 = StructureRecipe("nat0", _nat0_build, _nat0_canonical, _nat0_rule, default_limit=40)


# ---------------------------------------------------------------------------
# negative integers under the triple product (ternary semigroup)


def _neg_build(limit: int = 20) -> PolyadicStructure:
    if limit < 1:
        raise UsageError("limit must be >= 1")
    carrier = RuleCarrier(
        member=lambda x: isinstance(x, int) and x < 0,
        universe=[-i for i in range(1, limit + 1)],
        sort_key=lambda x: -x,
        name=f"N-(>= -{limit})",
    )
    op = NAryOperation(3, lambda t: t[0] * t[1] * t[2], name="*3")
    return PolyadicStructure(carrier, op, name="neg3")


def _neg_canonical(d: Double) -> Double:
    p, q = -d.top, -d.bottom
    g = math.gcd(p, q)
    return Double(-(p // g), -(q // g))


def _neg_rule(d1: Double, d2: Double) -> bool:
    return d1.top * d2.bottom == d2.top * d1.bottom


NEG3 = StructureRecipe("neg3", _neg_build, _neg_canonical, _neg_rule, default_limit=20)


# ---------------------------------------------------------------------------
# odd naturals under the triple sum (ternary semigroup)


def _odd_build(limit: int = 101) -> PolyadicStructure:
    if limit < 1:
        raise UsageError("limit must be >= 1")
    carrier = RuleCarrier(
        member=lambda x: isinstance(x, int) and x >= 1 and x % 2 == 1,
        universe=range(1, limit + 1, 2),
        name=f"Nodd(<= {limit})",
    )
    op = NAryOperation(3, lambda t: t[0] + t[1] + t[2], name="+3")
    return PolyadicStructure(carrier, op, name="odd3")


def _odd_canonical(d: Double) -> Double:
    diff = d.top - d.bottom
    if diff > 0:
        return Double(diff + 1, 1)
    if diff < 0:
        return Double(1, 1 - diff)
    return Double(1, 1)


def _odd_rule(d1: Double, d2: Double) -> bool:
    return d1.top - d1.bottom == d2.top - d2.bottom


ODD3 = StructureRecipe("odd3", _odd_build, _odd_canonical, _odd_rule, default_limit=101)


# ---------------------------------------------------------------------------
# positive members of the residue class {bk+a} under the m-fold product


def detect_residue_arity(a: int, b: int, bound: int = 16) -> int:
    """Smallest m in [2, bound] with a^m = a (mod b): the least product length
    closing the class {bk+a} under multiplication."""
    if bound < 2:
        raise UsageError("bound must be >= 2")
    if not 0 <= a < b:
        raise UsageError("need 0 <= a < b")
    for m in range(2, bound + 1):
        if pow(a, m, b) == a % b:
            return m
    raise NoClosedArity(bound)


def residue_recipe(a: int, b: int) -> StructureRecipe:
    if not 0 <= a < b:
        raise UsageError("need 0 <= a < b")
    m = detect_residue_arity(a, b)
    name = f"res-{a}-{b}"

    def member(x):
        # positive only: zero absorbs, so cross-multiplying would not be transitive
        return isinstance(x, int) and x > 0 and x % b == a

    def build(limit: int = 200) -> PolyadicStructure:
        start = a or b
        if limit < start:
            raise UsageError(f"limit must be >= {start}")
        carrier = RuleCarrier(member, range(start, limit + 1, b),
                              name=f"[[{a}]]_{b}(<= {limit})")
        return PolyadicStructure(carrier, NAryOperation(m, math.prod, name=f"*{m}"), name=name)

    @functools.cache
    def rescale(pr: int, qr: int):
        # smallest k >= 1 putting both components into the class: k*p0 mod b
        # depends only on k mod b and p0 mod b, so k <= b suffices and the
        # answer is memoised per residue pair; None when no k exists
        return next((k for k in range(1, b + 1) if k * pr % b == a and k * qr % b == a), None)

    def canonical(d: Double) -> Double:
        p, q = d.top, d.bottom
        g = math.gcd(p, q)
        p0, q0 = p // g, q // g
        # with no rescale (a component is not positive, or the two disagree
        # mod b) the pair is kept as given
        k = rescale(p0 % b, q0 % b) if p0 > 0 and q0 > 0 else None
        return Double(p, q) if k is None else Double(k * p0, k * q0)

    def rule(d1: Double, d2: Double) -> bool:
        return d1.top * d2.bottom == d2.top * d1.bottom

    return StructureRecipe(name, build, canonical, rule, default_limit=200)


# ---------------------------------------------------------------------------
# rank-one complex matrices under a cube-root-of-unity mix (4-ary), on the
# Eisenstein integers a + bw held as int pairs (a, b), with w^2 = -1 - w


def _eisenstein_block(limit: int) -> list:
    """The first `limit` pairs (a, b) by max(|a|, |b|), then by (a, b)."""
    r = math.isqrt(limit) // 2 + 1
    span = range(-r, r + 1)
    return sorted(((a, b) for a in span for b in span),
                  key=lambda z: (max(abs(z[0]), abs(z[1])), z))[:limit]


def _eisenstein_render(z: tuple) -> str:
    a, b = z
    return str(a) if b == 0 else f"{b}w" if a == 0 else f"{a}{b:+d}w"


def _eps_mix(t: tuple) -> tuple:
    """t0 + w*t1 + w^2*t2 + t3, as w(a+bw) = -b + (a-b)w and
    w^2(a+bw) = (b-a) - aw."""
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = t
    return a0 - b1 + b2 - a2 + a3, b0 + a1 - b1 - a2 + b3


def _matrix_build(limit: int = 25) -> PolyadicStructure:
    if limit < 1:
        raise UsageError("limit must be >= 1")
    carrier = RuleCarrier(
        member=lambda x: (isinstance(x, tuple) and len(x) == 2
                          and all(type(c) is int for c in x)),
        universe=_eisenstein_block(limit),
        render=_eisenstein_render,
        name="Z[w]",
    )
    return PolyadicStructure(carrier, NAryOperation(4, _eps_mix, name="eps-mix"), name="matrix4")


MATRIX4 = StructureRecipe(
    "matrix4", _matrix_build,
    # every pair of doubles is equivalent (the twisted shift collapses to
    # z = z), so one fixed representative names the single class
    canonical_double=lambda d: Double((0, 0), (0, 0)),
    exact_rule=lambda d1, d2: True,
    default_limit=25,
)


# ---------------------------------------------------------------------------
# registry and helpers


_RECIPES = {r.name: r for r in (NAT0, NEG3, ODD3, MATRIX4)}
_RES_RE = re.compile(r"res-(\d+)-(\d+)")


def get_recipe(name: str) -> StructureRecipe:
    if name in _RECIPES:
        return _RECIPES[name]
    mm = _RES_RE.fullmatch(name)
    if mm:
        return residue_recipe(int(mm.group(1)), int(mm.group(2)))
    raise UsageError(f"unknown structure {name!r} (see 'structures list')")


def recipe_names() -> list:
    return ["nat0", "neg3", "odd3", "res-a-b", "matrix4"]


def zmod_add(k: int, arity: int = 2) -> PolyadicStructure:
    """Z_k under addition, iterated up to the requested arity."""
    op2 = NAryOperation(2, lambda t: (t[0] + t[1]) % k, name=f"+mod{k}")
    return derived_structure(FiniteCarrier(range(k)), op2, arity, name=f"Z{k}+^{arity}")


def zmod_mul(k: int, arity: int = 2) -> PolyadicStructure:
    """Z_k under multiplication, iterated up to the requested arity."""
    op2 = NAryOperation(2, lambda t: (t[0] * t[1]) % k, name=f"*mod{k}")
    return derived_structure(FiniteCarrier(range(k)), op2, arity, name=f"Z{k}*^{arity}")


def integers_group(limit: int = 200) -> PolyadicStructure:
    """Z under addition, enumerated from -limit to limit."""
    carrier = RuleCarrier(
        member=lambda x: isinstance(x, int),
        universe=range(-limit, limit + 1),
        name=f"Z(|x| <= {limit})",
    )
    return PolyadicStructure(carrier, NAryOperation(2, lambda t: t[0] + t[1], name="+"),
                             name="integers")


def integers_mod_group(k: int) -> PolyadicStructure:
    if k < 1:
        raise UsageError("modulus must be >= 1")
    return derived_structure(FiniteCarrier(range(k)),
                             NAryOperation(2, lambda t: (t[0] + t[1]) % k, name=f"+mod{k}"),
                             2, name=f"integers-mod-{k}")
