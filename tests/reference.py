"""Plain references and seeded builders shared by the tests.

A reference evaluates op.fn one tuple at a time and holds no Cayley index
table, bytes, bitmask or cache: it is what a fast path of the package is
checked against, and a new fast path adds its reference here.  A builder
draws from its rng in a fixed order, so a seed names the same cases.
"""

import functools
import itertools
import random

from polygroth import (
    Double,
    FiniteCarrier,
    NAryOperation,
    PolyadicStructure,
    Verdict,
    apply_quiver,
    arity_after_intact,
    build_completion,
    builtin_quiver,
    decide_equivalent,
    derived_structure,
    double_carrier,
    get_recipe,
    iterated_eval,
    parse_table,
    placement_result,
)
from polygroth.errors import PolyadicError, QuerNotFound, QuerNotUnique, QuerPlacementFailed

# ---------------------------------------------------------------------------
# seeded tables and structures


def table_text(k, m, flat, labels=None):
    """Table-file text of the m-ary table on k elements, entries in tuple order."""
    lines = [f"arity {m}", f"size {k}", *map(str, flat)]
    if labels:
        lines.append("labels " + " ".join(labels))
    return "\n".join(lines) + "\n"


def flat_table(k, m, flat, labels=None):
    return parse_table(table_text(k, m, flat, labels))


def cyclic_flat(k, m):
    return [sum(t) % k for t in itertools.product(range(k), repeat=m)]


def relabelled_flat(k, n, combine, perm):
    """Z_k under combine, iterated to n arguments, with x written perm[x]."""
    inverse = sorted(range(k), key=perm.__getitem__)
    return [perm[functools.reduce(combine, map(inverse.__getitem__, t)) % k]
            for t in itertools.product(range(k), repeat=n)]


def perturbed(k, flat, rng, code=None):
    """flat with entry `code` moved by 1..k-1; with no code given, the code is
    drawn first, then the shift."""
    flat = list(flat)
    if code is None:
        code = rng.randrange(len(flat))
    flat[code] = (flat[code] + rng.randrange(1, k)) % k
    return flat


def table_structure(k, m, flat, letters=None, name=""):
    """The m-ary structure with the flat table on range(k), or on the first k
    letters, read from the table on every call with no index table stored:
    on range(k) an entry outside the carrier is returned as it is."""
    def fn(t):
        code = 0
        for x in t:
            code = code * k + x
        return flat[code]

    if letters is None:
        return PolyadicStructure(FiniteCarrier(range(k)), NAryOperation(m, fn), name=name)
    letters = letters[:k]
    return PolyadicStructure(FiniteCarrier(letters), NAryOperation(
        m, lambda t: letters[fn(tuple(map(letters.index, t)))]), name=name)


def relabelled(s, rng):
    """s on a shuffled carrier of string labels, the operation mapped through them."""
    names = [f"e{i}" for i in range(len(s.carrier))]
    number = {name: i for i, name in enumerate(names)}
    order = rng.sample(names, len(names))
    fn = s.op.fn
    return PolyadicStructure(FiniteCarrier(order), NAryOperation(
        s.arity, lambda t: names[fn(tuple(number[x] for x in t))]))


def count_calls(s):
    """The polyads s.op.fn is called with from now on."""
    calls, fn = [], s.op.fn
    s.op = NAryOperation(s.arity, lambda t: calls.append(t) or fn(t), name=s.op.name)
    return calls


def counted_zmod_add(k, m):
    """zmod_add(k, m) derived from a binary operation that records its calls."""
    calls = []
    op2 = NAryOperation(2, lambda t: calls.append(t) or (t[0] + t[1]) % k)
    return derived_structure(FiniteCarrier(range(k)), op2, m), calls


def completion_for(name, quiver_name, limit=None, samples=200, seed=97):
    """The completion of a built-in recipe under its exact rule and canonical form."""
    recipe = get_recipe(name)
    s = recipe.build(limit if limit is not None else recipe.default_limit)
    return build_completion(
        s, builtin_quiver(quiver_name), recipe.exact_decision(),
        canonical=recipe.canonical_double,
        samples=samples, seed=seed,
    )


# ---------------------------------------------------------------------------
# associativity, commutativity, solvability


def assoc_reference(s, mode=None, limit=None):
    """Associativity verdict by placement_result, polyad by polyad, up to the
    first failure: every polyad in lexicographic order, or with a sampled
    mode `count` polyads drawn through rng.choice.  An exhaustive walk with a
    limit stops after `limit` polyads, and None means that none failed."""
    elems, n, checked = s.carrier.elements(), s.arity, 0
    if mode is None:
        polyads = itertools.islice(itertools.product(elems, repeat=2 * n - 1), limit)
    else:
        rng = random.Random(mode.seed)
        polyads = (tuple(rng.choice(elems) for _ in range(2 * n - 1)) for _ in range(mode.count))
    for checked, polyad in enumerate(polyads, 1):
        r0 = placement_result(s.op, polyad, 0)
        for i in range(1, n):
            ri = placement_result(s.op, polyad, i)
            if ri != r0:
                return Verdict("failed", checked, (polyad, 0, i, r0, ri),
                               (f"polyad={polyad}, placements 0/{i} give {r0!r} vs {ri!r}",))
    if mode is not None:
        return Verdict("passed-sampled" if checked else "vacuous", checked)
    return None if limit else Verdict("proved-exhaustive", checked)


def digit_codes_reference(weights, k):
    return [sum(w * d for w, d in zip(weights, ds))
            for ds in itertools.product(range(k), repeat=len(weights))]


def commutativity_reference(s, sigma=None, pool=None):
    """(level, sigma, checked, full_failure) by evaluating the operation on
    every tuple of the pool (by default every tuple, in lexicographic order)
    and on its permutation."""
    n, op = s.arity, s.op
    if pool is None:
        pool = list(itertools.product(s.carrier.elements(), repeat=n))

    def violation(perm):
        for t in pool:
            if op.fn(t) != op.fn(tuple(t[p] for p in perm)):
                return (t, tuple(perm))
        return None

    full_failure = None
    for j in range(n - 1):
        full_failure = violation(tuple(range(j)) + (j + 1, j) + tuple(range(j + 2, n)))
        if full_failure:
            break
    if full_failure is None:
        return ("full", None, len(pool), None)
    if violation((n - 1,) + tuple(range(1, n - 1)) + (0,)) is None:
        return ("semi", None, len(pool), full_failure)
    if sigma is not None and violation(sigma) is None:
        return ("sigma", tuple(sigma), len(pool), full_failure)
    return ("none", None, len(pool), full_failure)


def solvability_reference(s):
    """(failures, checked) of exhaustive unique solvability, one (slot, others)
    at a time: a failure is a slot whose n-1 fixed arguments do not make it a
    bijection, and the scan stops at the third."""
    elems = s.carrier.elements()
    n = s.arity
    failures, checked = [], 0
    for i in range(n):
        for others in itertools.product(elems, repeat=n - 1):
            checked += 1
            column = {s.op.fn(others[:i] + (h,) + others[i:]) for h in elems}
            if len(column) < len(elems):
                failures.append((i, others))
                if len(failures) == 3:
                    return tuple(failures), checked
    return tuple(failures), checked


# ---------------------------------------------------------------------------
# powers


BUILTIN_NAMES = [
    "componentwise-2", "componentwise-3", "componentwise-5", "twisted-binary",
    "ternary-to-binary-a", "ternary-to-binary-b", "post-ternary", "post-5ary",
    "five-to-three-intact",
]


def apply_quiver_by_picks(quiver, base_op, doubles):
    """Reference wiring: read every pick from its double, one by one."""
    def wire(w):
        values = tuple(doubles[p.slot - 1][0 if p.comp == "T" else 1] for p in w)
        return values[0] if len(w) == 1 else base_op.fn(values)

    return Double(wire(quiver.top), wire(quiver.bottom))


def every_wiring(m, intact):
    """Each n<-m wiring with `intact` intact wires, as plain (top, bottom) pick tuples:
    every input used once, the intact wire on either side, product picks in any order."""
    n = arity_after_intact(m, intact)
    inputs = [(slot, comp) for slot in range(1, n + 1) for comp in "TB"]
    if not intact:
        return [(order[:m], order[m:]) for order in itertools.permutations(inputs)]
    wirings = []
    for kept in inputs:
        for order in itertools.permutations([p for p in inputs if p != kept]):
            wirings += [(order, (kept,)), ((kept,), order)]
    return wirings


def plain_power(base, quiver):
    """The power of base under quiver, every product wired by apply_quiver."""
    return PolyadicStructure(double_carrier(base.carrier), NAryOperation(
        quiver.output_arity, lambda ds: apply_quiver(quiver, base.op, ds)))


def compiled_by_evaluation(s):
    elems = s.carrier.elements()
    index = {e: i for i, e in enumerate(elems)}
    return tuple(index[s.op.fn(t)] for t in itertools.product(elems, repeat=s.arity))


def reference_row_entries(quiver, base, r, positions):
    """Row r of the power's index table at the given positions, by
    apply_quiver over all_doubles."""
    power = plain_power(base, quiver)
    ds, n = power.carrier.elements(), power.arity
    kk = len(ds)
    return [power.carrier.index[power.op.fn([ds[r]] + [ds[c // kk ** (n - 2 - j) % kk]
                                                      for j in range(n - 1)])]
            for c in positions]


# ---------------------------------------------------------------------------
# shift relations, partitions, well-definedness


def plain_gauge(s, d, x):
    head = s.arity - 1
    return s.op.fn((d.top,) * head + (x,)), s.op.fn((d.bottom,) * head + (x,))


def plain_twist(s, a, b, z):
    m, fn = s.arity, s.op.fn
    return fn((fn((a,) * (m - 1) + (b,)),) + (b,) * (m - 2) + (z,))


class PlainShifts:
    """The shift relations evaluated through op.fn on every candidate, in
    carrier order: the reference for the shift kernel, patched over
    completion's _shift_kernel."""

    def __init__(self, s):
        self.s = s

    def holds_at(self, relation, d1, d2, x, y):
        s = self.s
        if relation == "gauge":
            return plain_gauge(s, d1, x) == plain_gauge(s, d2, y)
        # twisted shifts are compared at one position z
        return x == y and (plain_twist(s, d1.top, d2.bottom, x)
                           == plain_twist(s, d2.top, d1.bottom, y))

    def witness(self, relation, d1, d2):
        elems = self.s.carrier.elements()
        pairs = itertools.product(elems, elems) if relation == "gauge" else zip(elems, elems)
        return next((p for p in pairs if self.holds_at(relation, d1, d2, *p)), None)

    def related(self, relation, d1, d2):
        return self.witness(relation, d1, d2) is not None

    def compose(self, polyad):
        return iterated_eval(self.s.op, (len(polyad) - 1) // (self.s.arity - 1), polyad)


def leader_scan_partition(s, domain, dec, canonical):
    """Reference partition: each double against every earlier class leader.

    Returns (classes, reps) ordered as partition_classes orders them."""
    leaders, members = [], {}
    for d in domain:
        for L in leaders:
            if decide_equivalent(s, d, L, dec):
                members[L].append(d)
                break
        else:
            leaders.append(d)
            members[d] = [d]

    def lexkey(d):
        return (s.carrier.sort_key(d.top), s.carrier.sort_key(d.bottom))

    pairs = [(canonical(min(members[L], key=lexkey)), members[L]) for L in leaders]
    pairs.sort(key=lambda pair: lexkey(pair[0]))
    return [mem for _, mem in pairs], [rep for rep, _ in pairs]


def scan_resolve(part, d):
    """Partition.resolve as a scan over the representatives."""
    for r in part.reps:
        if decide_equivalent(part.structure, d, r, part.decision):
            return r
    raise PolyadicError(f"{d!r} matches no class")


def well_definedness_reference(partition, quiver, samples, seed):
    """check_well_definedness drawn through rng.choice, each replacement from a
    fresh list of the other members, products through apply_quiver."""
    rng = random.Random(seed)
    op, n, classes = partition.structure.op, quiver.output_arity, partition.classes
    if not any(len(c) >= 2 for c in classes):
        return Verdict("vacuous", 0)
    done = 0
    for _ in range(samples):
        chosen = [rng.choice(classes) for _ in range(n)]
        members = [rng.choice(c) for c in chosen]
        r1 = apply_quiver(quiver, op, members)
        for slot in range(n):
            if len(chosen[slot]) < 2:
                continue
            alt = rng.choice([d for d in chosen[slot] if d != members[slot]])
            r2 = apply_quiver(quiver, op, members[:slot] + [alt] + members[slot + 1:])
            done += 1
            if not decide_equivalent(partition.structure, r1, r2, partition.decision):
                note = f"slot {slot}: {members[slot]} -> {alt} turns {r1} into inequivalent {r2}"
                return Verdict("failed", done, (tuple(members), slot, alt, r1, r2), (note,))
    return Verdict("passed-sampled" if done else "vacuous", done)


def quer_search_reference(partition, quiver, unlisted=()):
    """Each listed class's quer by a plain search: the one candidate x whose
    class product op[g^(n-1), x] is g, then checked at every slot in order.
    The candidates are the listed classes, then the unlisted ones given (a
    truncated class set may miss a quer).  A class product wires the
    representatives pick by pick and resolves the result.  Raises as
    class_quer does."""
    cds, n = partition.class_doubles(), quiver.output_arity
    candidates = cds + list(unlisted)

    def product(classes):
        return partition.resolve(apply_quiver_by_picks(
            quiver, partition.structure.op, [c.rep for c in classes]))

    mapping = {}
    for g in cds:
        sols = [x for x in candidates if product((g,) * (n - 1) + (x,)) == g]
        if not sols:
            raise QuerNotFound(g, len(candidates))
        if len(sols) > 1:
            raise QuerNotUnique(g, sols)
        q = sols[0]
        for i in range(n):
            if product((g,) * i + (q,) + (g,) * (n - 1 - i)) != g:
                raise QuerPlacementFailed(g, q, i)
        mapping[g] = q
    return mapping
