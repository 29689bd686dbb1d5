"""Polyadic (n-ary) operations on finite or rule-described carriers.

The checkers here are deliberately blunt instruments: exhaustive enumeration
where the carrier is finite and enumerated, seeded sampling or bounded witness
search otherwise.  Whenever a search is bounded, a negative outcome means
"not found within the bound", never a proof of absence.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from operator import add, itemgetter
from typing import Callable, Iterable, Sequence

from .errors import (
    ArityMismatch,
    ExhaustiveOnInfiniteCarrier,
    NonMember,
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

    def elements(self) -> list:
        """Deterministic element list."""
        raise NotImplementedError

    def render(self, x) -> str:
        return str(x)

    def sort_key(self, x):
        return x


class _ElementIndex(dict):
    """element -> position in a carrier's enumeration; a missing element
    raises NonMember naming the carrier (`where`)."""

    def __missing__(self, x):
        raise NonMember(x, self.where)


class FiniteCarrier(Carrier):
    """Duplicate-free ordered element list; supports exhaustive checks.

    `index` is its one element -> position map: membership, render, sort_key
    and the finite kernels read it, and a non-member raises NonMember.
    """

    is_finite = True

    def __init__(self, elements: Iterable, labels: Sequence[str] | None = None, name: str = ""):
        self._elements = list(elements)
        self.index = _ElementIndex(zip(self._elements, itertools.count()))
        self.index.where = name or "the carrier"
        if len(self.index) < len(self._elements):
            repeat = next(e for i, e in enumerate(self._elements) if self.index[e] != i)
            raise ValueError(f"duplicate carrier element {repeat!r}")
        if labels is not None and not len(labels) == len(set(labels)) == len(self._elements):
            raise ValueError("labels must list exactly one distinct name per element")
        self.labels = list(labels) if labels is not None else None
        self.name = name

    def __contains__(self, x):
        return x in self.index

    def __len__(self):
        return len(self._elements)

    def elements(self):
        return list(self._elements)

    def render(self, x):
        i = self.index[x]
        return self.labels[i] if self.labels else str(x)

    def sort_key(self, x):
        return self.index[x]


class RuleCarrier(Carrier):
    """Membership rule plus a deterministic truncated enumeration.

    The enumeration feeds witness searches and partition domains; it is never
    treated as the whole carrier.  Elements compare by == and hash, as on
    every carrier.
    """

    is_finite = False

    def __init__(self, member: Callable, universe: Iterable,
                 render=None, sort_key=None, name: str = ""):
        self._member = member
        self._universe = list(universe)
        self._render = render
        self._sort_key = sort_key
        self.name = name

    def __contains__(self, x):
        return bool(self._member(x))

    def elements(self):
        return list(self._universe)

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
        polyad = tuple(polyad)
        if len(polyad) != self.arity:
            raise ArityMismatch(f"{self.arity}-ary operation given {len(polyad)} arguments")
        return self.fn(polyad)


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

    `facts` caches what checkers found, each entry reproducible by re-running
    its checker: "index_table", "identities", and completion's "shift_rows"
    (the kernel of both shift relations, on a finite or a rule carrier).  A
    builder that knows the Cayley table may store it as "index_table", or a
    function returning its row r (see _index_rows), a tuple or bytes, as
    "index_row", as derived_structure, hetero_power and class_structure do
    on finite bases.
    A builder that can prove total associativity without the table may store
    a function answering True when it can as "lifted_associativity":
    exhaustive checks call it with no argument, sampled checks with their
    draw count, which lets it decline (False) when a proof would cost more.
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
    """Structure whose operation iterates a binary one up to `arity`.

    On a finite carrier it stores its index table rows as "index_row": row r,
    the left-nested products op[r, x2, ..., xm] in order, is folded from the
    binary table, each further argument replacing every entry e by the
    binary row of e.  The binary table is compiled and cut into its k rows
    once, on first use, so the table costs k^2 binary calls, not (m-1)*k^m.
    """
    if binary_op.arity != 2:
        raise ArityMismatch("derived structures iterate a binary operation")
    s = PolyadicStructure(carrier, iterate(binary_op, arity - 1), name=name)
    if not carrier.is_finite:
        return s
    binary = PolyadicStructure(carrier, binary_op, name=name)

    @functools.cache
    def rows():
        table, k = _index_table(binary)
        return [table[e * k:(e + 1) * k] for e in range(k)].__getitem__

    def row(r):
        entries = (r,)
        for _ in range(arity - 1):
            entries = tuple(itertools.chain.from_iterable(map(rows(), entries)))
        return entries

    s.facts["index_row"] = row
    return s


# ---------------------------------------------------------------------------
# check modes and verdicts


def _check_samples(samples: int) -> None:
    """A sample count below zero is a UsageError; zero draws nothing and reads vacuous."""
    if samples < 0:
        raise UsageError(f"sample count must be >= 0, got {samples}")


def _sample_source(carrier: Carrier) -> list:
    """The enumeration a sampled check draws from; an empty one is a UsageError."""
    elems = carrier.elements()
    if not elems:
        raise UsageError("cannot sample from an empty carrier enumeration")
    return elems


@dataclass(frozen=True)
class CheckMode:
    kind: str
    count: int = 0
    seed: int = 0

    EXHAUSTIVE = "exhaustive"
    SAMPLED = "sampled"

    def __post_init__(self):
        if self.kind not in (self.EXHAUSTIVE, self.SAMPLED):
            raise UsageError(f"unknown check mode kind {self.kind!r}: expected "
                             f"{self.EXHAUSTIVE!r} or {self.SAMPLED!r}")
        _check_samples(self.count)

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
    """Outcome of a law check or of a completion stage.

    status is one of 'proved-exhaustive', 'passed-sampled', 'failed',
    'unknown' (a bounded search left the question open) or 'vacuous' (a
    sampled check that drew nothing, so it has no evidence either way).
    checked counts what the check decided; notes say what was checked and
    why a check failed.  ok means neither failed nor unknown, so a vacuous
    verdict is ok.  A failed associativity verdict carries a replayable
    counterexample: (polyad, placement_i, placement_j, result_i, result_j).
    str() reads status(checked; note; ...), without the count when failed
    or unknown.
    """

    status: str
    checked: int
    counterexample: tuple | None = None
    notes: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status not in ("failed", "unknown")

    def __str__(self):
        count = () if self.status in ("failed", "unknown") else (str(self.checked),)
        return f"{self.status}({'; '.join(count + self.notes)})"


def _refutation(checked: int, polyad: tuple, i: int, r0, ri) -> Verdict:
    """The failed associativity verdict of placements 0 and i at polyad."""
    return Verdict("failed", checked, (polyad, 0, i, r0, ri),
                   (f"polyad={polyad}, placements 0/{i} give {r0!r} vs {ri!r}",))


class IndexDraws(dict):
    """The indices random.Random.choice draws, one endless stream per sequence length.

    next(draws[k]) is the index rng.choice(seq) draws for len(seq) == k: the
    same getrandbits(k.bit_length()) calls, rejecting values >= k, so a seed
    replays the same indices and leaves rng in the same state, however the
    lengths interleave.  A stream pulls no value ahead.  Length 0 raises
    IndexError as rng.choice does (getrandbits(0) is 0, so the rejection
    would never end).
    """

    def __init__(self, rng: random.Random):
        super().__init__()
        self._bits = rng.getrandbits

    def __missing__(self, k: int):
        if k < 1:
            raise IndexError("Cannot choose from an empty sequence")
        stream = self[k] = filter(k.__gt__, map(self._bits, itertools.repeat(k.bit_length())))
        return stream

    def pick(self, seq: Sequence):
        """The element rng.choice(seq) draws."""
        return seq[next(self[len(seq)])]


def placement_result(op: NAryOperation, polyad: Sequence, i: int):
    """Collapse the inner window starting at slot i, then apply the outer op."""
    n = op.arity
    inner = op.fn(tuple(polyad[i:i + n]))
    return op.fn(tuple(polyad[:i]) + (inner,) + tuple(polyad[i + n:]))


# ---------------------------------------------------------------------------
# identities


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


def _is_neutral(s: PolyadicStructure, polyad: tuple, elems) -> bool:
    fn, slots = s.op.fn, range(len(polyad) + 1)
    return all(fn(polyad[:i] + (g,) + polyad[i:]) == g for g in elems for i in slots)


# ---------------------------------------------------------------------------
# total associativity


def _index_table(s: PolyadicStructure):
    """Flat Cayley table over element indices, as a tuple, cached on the structure."""
    cached = s.facts.get("index_table")
    if cached is not None:
        return cached
    row = s.facts.get("index_row")
    if row is None:
        table = _compile_table(s)
    else:
        k = len(s.carrier)
        table = tuple(itertools.chain.from_iterable(map(row, range(k)))), k
    s.facts["index_table"] = table
    return table


def _index_rows(s: PolyadicStructure):
    """(row, k): row(r) is the sequence of table entries whose first argument has index r.

    Rows come from an "index_row" fact unless the whole table is at hand; a
    row is a tuple or bytes, which _assoc_scan holds without a copy.
    """
    row = s.facts.get("index_row")
    if row is not None and "index_table" not in s.facts:
        return row, len(s.carrier)
    table, k = _index_table(s)
    span = k ** (s.arity - 1)
    return (lambda r: table[r * span:(r + 1) * span]), k


def _compile_table(s: PolyadicStructure):
    """Evaluate the operation on every tuple and read each result's position
    from the carrier's index; raises NonMember if not closed."""
    elems, n = s.carrier.elements(), s.arity
    try:
        table = tuple(map(s.carrier.index.__getitem__,
                          map(s.op.fn, itertools.product(elems, repeat=n))))
    except NonMember as exc:
        raise NonMember(exc.element, f"{s.name or 'structure'} (operation is not closed)") from None
    return table, len(elems)


_SCAN_BLOCK = 1 << 20  # most tuples one block of the associativity scan holds


class _Derived(dict):
    """key -> fn(key), derived on the first lookup and kept."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


def _assoc_scan(row, k, n):
    """(tuple code, placement) of the first disagreement with placement 0, or None.

    `row(r)` gives the table row of first argument r (see _index_rows).  Each
    row is derived once, on first use, so an early exit reads few rows.

    The (2n-1)-tuples are walked in lexicographic order in prefix blocks: the
    all-zero leading n-tuple, its k-1 siblings, then the k-1 siblings at each
    shorter prefix down to one digit, 1 + n(k-1) blocks in all; a block of
    more than _SCAN_BLOCK tuples is split into the blocks of its longer
    prefixes, which bounds the memory a block takes.  Placement 0 over the
    block of a q-digit prefix joins the rows of table[u] for its leading
    n-tuples u.  Placement i is a gather out[c*w + t] = S[inner[c]*w + t] with
    w = k^(n-1-i): S is the table slice fixed by the first i digits, and
    inner the inner product's results, a table slice while i < q and the
    whole table past it (then each value of the digits q..i-1 has its own
    S).  The smallest failing offset of the first failing block, with the
    smallest placement failing there, is the smallest counterexample.

    When k <= 256 rows are bytes: a gather with w < len(inner) is w column
    gathers inner.translate(S[t::w] + pad), each compared with the column of
    placement 0, and otherwise a b"".join of the k runs of S.  Past 256 rows
    are tuples, placement 0 is a list of rows, and a gather is a list of one
    piece per leading n-tuple: the itemgetter of an inner row (built once)
    called on S when w = 1, else joined runs.
    """
    if n == 1 or k <= 1:
        return None
    pw = [k ** e for e in range(n + 1)]
    span = pw[n - 1]
    rows = _Derived(lambda r: held(row(r)))
    whole = []  # the flat table of bytes rows, joined once a placement runs past a prefix

    def cut(lo, size):
        """table[lo:lo + size] of an aligned slice: part of one row, or the whole table."""
        if size > span:
            if not whole:
                whole.append(b"".join(map(rows.__getitem__, range(k))))
            return whole[0]
        r, lo = divmod(lo, span)
        return rows[r][lo:lo + size]

    def keys(at, w, column):
        """What a gather through S = table[at:at + k*w] maps by: the w columns
        of S as translation tables, or its k runs of length w."""
        S = cut(at, k * w)
        if column:
            return [S[t::w] + pad for t in range(w)]
        return [S[j:j + w] for j in range(0, k * w, w)]

    if k <= 256:
        held, pad, lead = bytes, bytes(256 - k), b"".join

        def check(first, off, lo, size, w, column, by):
            """Smallest offset at which the gather through table[lo:lo + size]
            differs from placement 0's results, which start at first[off]; or None."""
            inner = cut(lo, size)
            if not column or w == 1:
                out = inner.translate(by[0]) if column else b"".join(map(by.__getitem__, inner))
                ref = first[off:off + len(out)]
                return None if out == ref else off + _first_difference(out, ref)
            miss, end = None, off + size * w
            for t, key in enumerate(by):
                col, ref = inner.translate(key), first[off + t:end:w]
                if col != ref:
                    c = off + t + w * _first_difference(col, ref)
                    miss = c if miss is None else min(miss, c)
            return miss
    else:
        held, pad, lead = tuple, (), list
        getters = _Derived(lambda r: itemgetter(*rows[r]))

        def check(first, off, lo, size, w, column, by):
            """The same, built one leading n-tuple at a time from the rows: a
            column gather (w = 1) calls the getters of the inner rows, a wider
            one joins runs."""
            if column:
                r = lo // span
                inner_getters = map(getters.__getitem__, range(r, r + size // span))
                out = list(map(itemgetter.__call__, inner_getters, itertools.repeat(by[0])))
            else:
                q = span // w
                out = [tuple(itertools.chain.from_iterable(map(by.__getitem__, cut(c, q))))
                       for c in range(lo, lo + size, q)]
            ref = first[off // span:off // span + len(out)]
            if out == ref:
                return None
            j = _first_difference(out, ref)
            return off + j * span + _first_difference(out[j], ref[j])

    for p in range(n, 0, -1):
        q = p  # blocks of more than _SCAN_BLOCK tuples are split into blocks of prefix length q
        while q < n and k ** (2 * n - 1 - q) > _SCAN_BLOCK:
            q += 1
        count, split = pw[n - q], pw[q - p]
        steps = []
        for i in range(1, n):
            w = pw[n - 1 - i]
            size = pw[n - q + i] if i < q else pw[n]
            column = w < size if k <= 256 else w == 1
            # S = table[0:k*w] while the first i digits are the prefix's zeros
            steps.append((i, w, size, column, keys(0, w, column) if i < p else None))
        for pre in range(0 if p == n else split, k * split):
            u = pre * count  # the first leading n-tuple of the block whose prefix codes to pre
            first = lead(map(rows.__getitem__, cut(u, count)))
            hits = []
            for i, w, size, column, by in steps:
                if i < q:  # S fixed by the prefix's first i digits, inner by the rest
                    by = by or keys(pre // pw[q - i] * k * w, w, column)
                    v = check(first, 0, pre % pw[q - i] * size, size, w, column, by)
                else:  # the digits q..i-1 run free: one S for each of their values
                    subs = pw[i - q]
                    for j in range(subs):
                        by = keys((pre * subs + j) * k * w, w, column)
                        v = check(first, j * size * w, 0, size, w, column, by)
                        if v is not None:
                            break
                if v is not None:
                    hits.append((v, i))
            if hits:
                v, i = min(hits)
                return u * span + v, i
    return None


def _first_difference(a, b) -> int:
    """Index of the first entry at which two sequences of one length differ:
    double an agreeing prefix, halve the last step, then walk what is left."""
    lo, hi = 0, 16
    while a[lo:hi] == b[lo:hi]:
        lo, hi = hi, 2 * hi
    while hi - lo > 16:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return next(j for j in range(lo, hi) if a[j] != b[j])


_RAMP = bytes(range(256)) * 2  # _RAMP[s:s + 256] translates x to (x + s) % 256


def _digit_codes(weights: list, k: int) -> bytes | list:
    """sum(w_j * d_j) for every base-k digit tuple d, in lexicographic order:
    bytes when every code is below 256, (k-1) * sum(weights) < 256, built
    from the last digit back as k shifted copies per digit, else a list."""
    if (k - 1) * sum(weights) < 256:
        codes = b"\0"
        for w in reversed(weights):
            codes = b"".join([codes.translate(_RAMP[d * w:d * w + 256]) for d in range(k)])
        return codes
    codes = [0]
    for w in weights:
        spread = itertools.chain.from_iterable(zip(*[codes] * k))
        codes = list(map(add, spread, itertools.cycle(range(0, k * w, w))) if w else spread)
    return codes


def _decode_polyad(elems, k, L, T):
    pw = [k ** e for e in range(L)]
    return tuple(elems[(T // pw[L - 1 - j]) % k] for j in range(L))


def check_total_associativity(s: PolyadicStructure, mode: CheckMode) -> Verdict:
    """Invariance of the doubly applied product under all n inner placements.

    Exhaustive mode covers every (2n-1)-tuple of a finite carrier and reports
    the lexicographically smallest counterexample; sampled mode draws tuples
    deterministically from the seed.  Both ask a "lifted_associativity" fact
    first, the sampled mode with its count, and a lifted proof passes every
    draw unevaluated.
    """
    n = s.arity
    if mode.kind == CheckMode.EXHAUSTIVE:
        if not s.carrier.is_finite:
            raise ExhaustiveOnInfiniteCarrier(
                "exhaustive associativity needs a finite enumerated carrier"
            )
        L = 2 * n - 1
        lifted = s.facts.get("lifted_associativity")
        if lifted is not None and lifted():
            return Verdict("proved-exhaustive", len(s.carrier) ** L)
        row, k = _index_rows(s)
        hit = _assoc_scan(row, k, n)
        if hit is None:
            return Verdict("proved-exhaustive", k ** L)
        T, i = hit
        polyad = _decode_polyad(s.carrier.elements(), k, L, T)
        return _refutation(T + 1, polyad, i, placement_result(s.op, polyad, 0),
                           placement_result(s.op, polyad, i))

    elems = _sample_source(s.carrier)
    lifted = s.facts.get("lifted_associativity")
    # a lifted proof decides every draw, so then none is evaluated; otherwise
    # the placements of placement_result, evaluated inline on each drawn tuple
    count = 0 if lifted is not None and lifted(mode.count) else mode.count
    draws = IndexDraws(random.Random(mode.seed))[len(elems)]
    fn, L = s.op.fn, 2 * n - 1
    for c in range(count):
        polyad = tuple(map(elems.__getitem__, itertools.islice(draws, L)))
        r0 = fn((fn(polyad[:n]),) + polyad[n:])
        for i in range(1, n):
            ri = fn(polyad[:i] + (fn(polyad[i:i + n]),) + polyad[i + n:])
            if ri != r0:
                return _refutation(c + 1, polyad, i, r0, ri)
    return Verdict("passed-sampled" if mode.count else "vacuous", mode.count)


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
    Exhaustively, the table is gathered at each permutation's digit codes:
    one bytes.translate on at most 256 entries, a tuple map past that.
    """
    n, op = s.arity, s.op
    if sigma is not None and sorted(sigma) != list(range(n)):
        raise UsageError(f"sigma {tuple(sigma)} is not a permutation of the {n} slots")
    if n == 1:
        return CommutativityReport("full", None, 0)
    if mode.kind == CheckMode.EXHAUSTIVE:
        if not s.carrier.is_finite:
            raise ExhaustiveOnInfiniteCarrier(
                "exhaustive commutativity needs a finite enumerated carrier"
            )
        elems = s.carrier.elements()
        table, k = _index_table(s)
        checked = k ** n
        small = checked <= 256  # then the codes are bytes, gathered by one translate
        table = bytes(table) if small else tuple(table)  # no copy if it is a tuple
        padded = table + bytes(256 - checked) if small else None  # translate reads 256

        def violation(perm):
            # t permuted has digit t[perm[q]] at slot q, so its code weighs
            # digit p of t by the sum of k^(n-1-q) over the q with perm[q] = p
            weights = [0] * n
            for q, p in enumerate(perm):
                weights[p] += k ** (n - 1 - q)
            codes = _digit_codes(weights, k)
            permuted = codes.translate(padded) if small else tuple(map(table.__getitem__, codes))
            if permuted == table:
                return None
            code = _first_difference(table, permuted)
            return (_decode_polyad(elems, k, n, code), tuple(perm))
    else:
        elems = _sample_source(s.carrier)
        draws = IndexDraws(random.Random(mode.seed))
        pool = [tuple(map(elems.__getitem__, itertools.islice(draws[len(elems)], n)))
                for _ in range(mode.count)]
        checked = len(pool)

        def violation(perm):
            for t in pool:
                pt = tuple(t[p] for p in perm)
                if op.fn(t) != op.fn(pt):
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
    return _checked_quer(s, g, _quer_search(s, g, s.carrier.elements()))


def _quer_search(s: PolyadicStructure, g, elems):
    """The one x in elems with op[g^(n-1), x] = g; raises QuerNotFound/QuerNotUnique."""
    head = (g,) * (s.arity - 1)
    return _sole_quer(g, [x for x in elems if s.op.fn(head + (x,)) == g], len(elems))


def _sole_quer(g, sols, bound: int):
    """The one solution in sols of g's quer equation, searched among bound
    candidates; raises QuerNotFound/QuerNotUnique."""
    if not sols:
        raise QuerNotFound(g, bound)
    if len(sols) > 1:
        raise QuerNotUnique(g, sols)
    return sols[0]


def _checked_quer(s: PolyadicStructure, g, q):
    """q if op[g^i, q, g^(n-1-i)] = g at every slot i, as a group's quer must
    (Doernte); else QuerPlacementFailed at the first slot that fails."""
    n, fn = s.arity, s.op.fn
    for i in range(n):
        if fn((g,) * i + (q,) + (g,) * (n - 1 - i)) != g:
            raise QuerPlacementFailed(g, q, i)
    return q


def _cancels(s: PolyadicStructure, g, h, hq) -> bool:
    """Cancellation identities: op[g, n_h] = op[n_h, g] = g where
    n_h = (h^(n-2), hq), hq the quer of h, with the quer at any slot."""
    n, fn = s.arity, s.op.fn
    for i in range(n - 1):
        polyad = (h,) * i + (hq,) + (h,) * (n - 2 - i)
        if fn((g,) + polyad) != g or fn(polyad + (g,)) != g:
            return False
    return True


@dataclass(frozen=True)
class GroupVerdict:
    is_group: bool
    associativity: Verdict
    solvability_failures: tuple
    checked: int

    def __str__(self):
        if self.is_group:
            return f"group (exhaustive unique solvability at every slot, {self.checked} instances)"
        if not self.associativity.ok:
            return f"not a group (associativity: {self.associativity})"
        return f"not a group (solvability failures: {self.solvability_failures[:2]})"


def verify_polyadic_group(s: PolyadicStructure, mode: CheckMode) -> GroupVerdict:
    """Total associativity plus unique solvability at every argument slot.

    Both are proved or refuted exhaustively on a finite carrier: fixing any
    n-1 arguments must make the remaining slot a bijection of the carrier,
    and the scan stops at the third failure.  A sampled mode is a UsageError,
    since a bounded enumeration cannot refute solvability; a rule carrier
    raises ExhaustiveOnInfiniteCarrier.

    For n >= 3 on at most 256 elements the table's Hosszu-Gluskin
    decomposition is tried first (see _hosszu_gluskin): an operation
    f(x1, ..., xn) = x1 o phi(x2) o ... o phi^(n-1)(xn) o b over a binary
    group (G, o), with phi an automorphism, phi(b) = b and
    phi^(n-1)(x) o b = b o x, is an n-ary group (Hosszu 1963, Gluskin 1965;
    see Dudek and Glazek, Discrete Math. 308, 2008).  The candidates are
    read off the table at the first element a, in six steps on table rows:
    f(a^(n-1), x) = a has one solution abar; the retract x o y =
    f(x, a^(n-2), y) is k rows; it is a group; phi(x) = f(abar, x, a^(n-2))
    is an automorphism of it; b = f(abar^n) meets its two conditions; the
    table is the formula.  When all hold, the theorem decides every tuple
    and every solvability instance, so the verdict counts them all, as the
    scans would.  A table that does not decompose falls to the scans, which
    name its smallest counterexample and its solvability failures.
    """
    if mode.kind != CheckMode.EXHAUSTIVE:
        raise UsageError("group verification is exhaustive: a bounded enumeration "
                         "cannot refute solvability")
    if _decomposes(s):
        n, k = s.arity, len(s.carrier)
        a = s.carrier.render(s.carrier.elements()[0])
        assoc = Verdict("proved-exhaustive", k ** (2 * n - 1), None,
                        (f"Hosszu-Gluskin decomposition, retract at {a}",))
        return GroupVerdict(True, assoc, (), n * k ** (n - 1))
    assoc = check_total_associativity(s, mode)
    failures, checked = _solvability_scan(s)
    return GroupVerdict(assoc.ok and not failures, assoc, tuple(failures), checked)


def _decomposes(s: PolyadicStructure) -> bool:
    """Whether s is a finite n-ary group (n >= 3, at most 256 elements) by its
    Hosszu-Gluskin decomposition, so totally associative (see verify_polyadic_group)."""
    return (s.carrier.is_finite and s.arity >= 3 and len(s.carrier) <= 256
            and _hosszu_gluskin(*_index_table(s), s.arity))


def _hosszu_gluskin(table, k: int, n: int, a: int = 0) -> bool:
    """Whether the flat index table of an n-ary operation (n >= 3, k <= 256)
    decomposes over the retract at index a (see verify_polyadic_group).

    The retract's row R[x] is a k-slice of bytes and phi a strided slice; o
    is a group when its rows and columns are permutations and _assoc_scan
    finds it associative.  The formula's table is built one argument at a
    time, level j+1 joining the rows u o phi^j(x) of the values u of level
    j, then mapped by o b.  Every step is defined whatever an earlier one
    found, so the formula is compared first: a table that is not it fails
    before the group checks.  The first check that fails returns False.
    """
    T, pad, span = bytes(table), bytes(256 - k), k ** (n - 1)
    ones = [sum(k ** e for e in range(j)) for j in range(n + 1)]  # code of a^j is a*ones[j]
    lo = a * k * ones[n - 1]
    head = T[lo:lo + k]  # f(a^(n-1), x) for every x
    if head.count(a) != 1:
        return False
    abar = head.index(a)
    R = [T[c:c + k] for c in range(a * k * ones[n - 2], k * span, span)]
    Rp = [r + pad for r in R]
    flat = b"".join(R)
    phi = T[abar * span + a * ones[n - 2]:(abar + 1) * span:k ** (n - 2)]
    b = T[abar * ones[n]]
    powers = [bytes(range(k))]  # phi^j as bytes
    for _ in range(n - 1):
        powers.append(powers[-1].translate(phi + pad))
    times_b = flat[b::k] + pad  # x -> x o b
    level = powers[0]
    for j in range(1, n):
        rows = [powers[j].translate(Rp[u]) for u in range(k)]
        level = b"".join(map(rows.__getitem__, level))
    if level.translate(times_b) != T:
        return False
    if any(len(set(r)) < k for r in R) or any(len(set(flat[y::k])) < k for y in range(k)):
        return False
    if _assoc_scan(R.__getitem__, k, 2) is not None:
        return False
    if len(set(phi)) < k or any(R[x].translate(phi + pad) != phi.translate(Rp[phi[x]])
                                for x in range(k)):
        return False
    return phi[b] == b and powers[n - 1].translate(times_b) == R[b]


def _solvability_scan(s: PolyadicStructure):
    """(failures, checked) of the exhaustive unique-solvability scan on the index table.

    A failure (slot, others) says that fixing the other n-1 arguments to
    `others` does not make the slot a bijection; the scan stops after three
    of them.  The column of slot i is the strided slice of the table with
    stride w = k^(n-1-i), starting at the digit code of the other n-1 slots,
    in code order.  On at most 64 elements the columns are checked all at
    once (see _short_columns) on the table read as one integer of one-hot
    fields of k bits, value v setting bit v; past 64 each column is made a set.
    """
    table, k = _index_table(s)
    elems = s.carrier.elements()
    n = s.arity
    count = k ** (n - 1)
    failures: list = []
    if not k:  # no columns: every slot is vacuously solvable
        return failures, n * count
    if k <= 64:
        size = (k + 7) // 8  # bytes per field
        onehot, flat = bytearray(size * k ** n), bytes(table)
        for j in range(size):
            onehot[j::size] = flat.translate(bytes((1 << v >> 8 * j) & 255 for v in range(256)))
        fields = int.from_bytes(onehot, "little")
    for i in range(n):
        w = k ** (n - 1 - i)
        if k <= 64:
            short = _short_columns(fields, k, w, size, k ** i)
        else:
            starts = _digit_codes([k ** (n - 1 - j) for j in range(n) if j != i], k)
            columns = (table[c:c + k * w:w] for c in starts)
            short = itertools.compress(range(count), map(k.__gt__, map(len, map(set, columns))))
        for code in short:
            failures.append((i, _decode_polyad(elems, k, n - 1, code)))
            if len(failures) == 3:
                return failures, i * count + code + 1
    return failures, n * count


def _short_columns(fields: int, k: int, w: int, size: int, blocks: int):
    """Codes, in order, of the columns of stride w that are no permutation.

    `fields` holds the table as one-hot fields of `size` bytes.  OR-ing its
    shifts by c*w fields for every c < k (in doubling steps, then one step
    that overlaps them) leaves at the first entry of each column the union of
    the column's values, which has all k bits exactly when the column's k
    values are distinct; the first w fields of each of the `blocks` blocks of
    k*w are those entries.
    """
    width = 8 * size
    union, m = fields, 1
    while 2 * m <= k:
        union |= union >> m * w * width
        m *= 2
    union |= union >> (k - m) * w * width
    full = ((1 << k) - 1).to_bytes(size, "little")
    wanted = int.from_bytes((full * w + bytes(size * w * (k - 1))) * blocks, "little")
    short, base = wanted & ~union, 0
    while short:
        field = base + ((short & -short).bit_length() - 1) // width
        p, t = divmod(field, k * w)
        yield p * w + t
        short >>= (field + 1 - base) * width
        base = field + 1

