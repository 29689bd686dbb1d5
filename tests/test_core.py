import collections
import dataclasses
import functools
import itertools
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygroth import (
    CheckMode,
    FiniteCarrier,
    GroupVerdict,
    NAryOperation,
    PolyadicStructure,
    Verdict,
    builtin_quiver,
    check_total_associativity,
    commutativity_report,
    find_identities,
    hetero_power,
    iterate,
    iterated_arity,
    iterated_eval,
    placement_result,
    querelement,
    swap_picks,
    verify_polyadic_group,
    zmod_add,
    zmod_mul,
)
from polygroth import core
from polygroth.core import IndexDraws, _cancels, _is_neutral
from polygroth.errors import (
    ArityMismatch,
    ExhaustiveOnInfiniteCarrier,
    NonMember,
    QuerNotFound,
    QuerNotUnique,
    QuerPlacementFailed,
    UsageError,
)
from polygroth.structures import MATRIX4, get_recipe
from polygroth.tables import format_table, parse_table


def corrupted_z3_ternary():
    # derived ternary table over Z3 with the (0,0,0) entry bumped 0 -> 1
    text = format_table(zmod_add(3, 3))
    lines = text.splitlines()
    assert lines[2] == "0"
    lines[2] = "1"
    return parse_table("\n".join(lines), name="corrupted")


# ---------------------------------------------------------------------------
# finite carriers


def test_a_finite_carrier_indexes_its_members_and_names_itself_for_others():
    # one element -> position map serves membership, render and sort_key; a
    # non-member raises NonMember, where render and sort_key once raised a
    # bare KeyError, or render of an unlabelled carrier printed it
    labelled = FiniteCarrier("abc", labels=["x", "y", "z"], name="letters")
    assert labelled.index == {"a": 0, "b": 1, "c": 2}
    assert ("b" in labelled, "d" in labelled) == (True, False)
    assert (labelled.render("b"), labelled.sort_key("c")) == ("y", 2)
    for carrier, where in [(labelled, "letters"), (FiniteCarrier(range(3)), "the carrier")]:
        for look_up in (carrier.render, carrier.sort_key, carrier.index.__getitem__):
            with pytest.raises(NonMember, match=f"'d' is not a carrier member of {where}"):
                look_up("d")
    with pytest.raises(ValueError, match="duplicate carrier element 'a'"):
        FiniteCarrier("aba")


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_ternary_mod5():
    z5 = zmod_add(5, 3)
    assert z5.op((1, 2, 3)) == (1 + 2 + 3) % 5 == 1


def test_evaluate_odd_ternary_addition():
    odd = get_recipe("odd3").build(21)
    assert odd.op((1, 3, 5)) == 9


def test_evaluate_matrix_idempotent():
    s = MATRIX4.build(25)
    a = (3, -7)  # 3 - 7w
    assert s.op((a, a, a, a)) == a


# ---------------------------------------------------------------------------
# iterated products


def test_iterate_arity_law_binary():
    assert iterate(zmod_add(5, 2).op, 2).arity == 3


def test_iterate_is_identity_for_ell_one():
    op = zmod_add(5, 3).op
    assert iterate(op, 1) is op


def test_iterate_ternary_twice_is_five_fold_sum_mod7():
    op3 = zmod_add(7, 3).op
    op5 = iterate(op3, 2)
    assert op5.arity == 5
    for args in itertools.product(range(7), repeat=5):
        assert op5(args) == sum(args) % 7  # independent five-term sum


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_iterate_arity_law_property(arity, ell):
    op = zmod_add(3, arity).op
    assert iterate(op, ell).arity == iterated_arity(arity, ell) == ell * (arity - 1) + 1


def test_polyadic_power():
    z5 = zmod_add(5, 3)
    assert iterated_eval(z5.op, 1, (2,) * 3) == 1  # 2+2+2 = 6 = 1 mod 5
    assert iterated_eval(z5.op, 2, (2,) * 5) == 0  # 5*2 = 10 = 0 mod 5
    odd = get_recipe("odd3").build(21)
    assert iterated_eval(odd.op, 1, (3,) * 3) == 9
    s = MATRIX4.build(25)
    a = (-2, 5)
    assert iterated_eval(s.op, 1, (a,) * 4) == a


# ---------------------------------------------------------------------------
# nilpotency


def test_is_nilpotent():
    z4 = zmod_mul(4, 3)
    assert all(z4.op(t) == 0 for t in itertools.product(range(4), repeat=3) if 0 in t)
    assert iterated_eval(z4.op, 1, (2,) * 3) == 0  # 2*2*2 = 8 = 0 mod 4
    assert iterated_eval(z4.op, 1, (0,) * 3) == 0
    assert iterated_eval(z4.op, 2, (1,) * 5) == 1


# ---------------------------------------------------------------------------
# associativity


def test_assoc_exhaustive_on_derived():
    v = check_total_associativity(zmod_add(3, 3), CheckMode.exhaustive())
    assert v.status == "proved-exhaustive"
    assert v.checked == 3 ** 5


def test_assoc_sampled_on_odd_naturals():
    odd = get_recipe("odd3").build(101)
    v = check_total_associativity(odd, CheckMode.sampled(1000, 42))
    assert v.status == "passed-sampled"
    assert v.checked == 1000


def test_assoc_exhaustive_needs_finite():
    with pytest.raises(ExhaustiveOnInfiniteCarrier):
        check_total_associativity(get_recipe("odd3").build(21), CheckMode.exhaustive())


def test_assoc_corrupted_table_fails_with_replayable_counterexample():
    bad = corrupted_z3_ternary()
    v = check_total_associativity(bad, CheckMode.exhaustive())
    assert v.status == "failed"
    polyad, i, j, ri, rj = v.counterexample
    # replay both placements from scratch
    assert placement_result(bad.op, polyad, i) == ri
    assert placement_result(bad.op, polyad, j) == rj
    assert ri != rj


def naive_verdict(s, limit=None):
    """Exhaustive verdict by placement_result on every tuple in lexicographic order.

    With a limit, only the first `limit` tuples are walked and None means
    that none of them failed.
    """
    n = s.arity
    polyads = itertools.product(s.carrier.elements(), repeat=2 * n - 1)
    for checked, polyad in enumerate(itertools.islice(polyads, limit), 1):
        r0 = placement_result(s.op, polyad, 0)
        for i in range(1, n):
            ri = placement_result(s.op, polyad, i)
            if ri != r0:
                return Verdict("failed", checked, (polyad, 0, i, r0, ri),
                               (f"polyad={polyad}, placements 0/{i} give {r0!r} vs {ri!r}",))
    return None if limit else Verdict("proved-exhaustive", checked)


def flat_table(k, m, flat):
    return parse_table("\n".join([f"arity {m}", f"size {k}"] + [str(v) for v in flat]))


def cyclic_flat(k, m):
    return [sum(t) % k for t in itertools.product(range(k), repeat=m)]


def perturbed_flat(flat, k, code, rng):
    flat = list(flat)
    flat[code] = (flat[code] + rng.randrange(1, k)) % k
    return flat


def test_assoc_fast_scan_agrees_with_naive_placements():
    # oracle: evaluate every placement directly, tuple by tuple in
    # lexicographic order, and compare with the block-sliced kernel.  Random
    # magmas mostly fail at tuple 0; group tables with one perturbed entry
    # fail deep inside a block.
    rng = random.Random(31)
    cases = []
    for k in range(1, 5):
        for m in range(1, 5):
            cyclic = cyclic_flat(k, m)
            cases.append((k, m, cyclic))
            cases.append((k, m, [rng.randrange(k) for _ in range(k ** m)]))
            for _ in range(3 if k > 1 else 0):
                cases.append((k, m, perturbed_flat(cyclic, k, rng.randrange(k ** m), rng)))
    for k, m, flat in cases:
        assert k ** (2 * m - 1) <= 20_000
        s = flat_table(k, m, flat)
        assert check_total_associativity(s, CheckMode.exhaustive()) == naive_verdict(s)


def test_assoc_scan_agrees_with_naive_placements_past_the_small_sweep():
    # k = 5..7 at arity 3 and 4: cyclic tables and one-entry perturbations.
    # A perturbed entry is read within the first k leading tuples, so the oracle
    # stops early on a refutation; a cyclic table is a group, so its proof
    # is known where the oracle would walk too many tuples.
    rng = random.Random(43)
    for k in (5, 6, 7):
        for m in (3, 4):
            cyclic = cyclic_flat(k, m)
            s = flat_table(k, m, cyclic)
            v = check_total_associativity(s, CheckMode.exhaustive())
            assert v == Verdict("proved-exhaustive", k ** (2 * m - 1))
            if m == 3:
                assert v == naive_verdict(s)
            for _ in range(3):
                code = rng.randrange(k ** m)
                s = flat_table(k, m, perturbed_flat(cyclic, k, code, rng))
                v = check_total_associativity(s, CheckMode.exhaustive())
                assert v.status == "failed"
                assert v == naive_verdict(s, limit=v.checked)


@pytest.mark.parametrize("k", [255, 256, 257])
def test_binary_scan_at_the_byte_boundary(k):
    # 256 entries fill a byte translation table with no padding, 257 keep
    # tuple rows: each proves cyclic Z_k and refutes a perturbation in its
    # first row at the oracle's first failure
    cyclic = cyclic_flat(k, 2)
    v = check_total_associativity(flat_table(k, 2, cyclic), CheckMode.exhaustive())
    assert v == Verdict("proved-exhaustive", k ** 3)
    rng = random.Random(k)
    s = flat_table(k, 2, perturbed_flat(cyclic, k, rng.randrange(k), rng))
    v = check_total_associativity(s, CheckMode.exhaustive())
    assert v.status == "failed"
    assert v == naive_verdict(s, limit=v.checked)


def test_scrambled_power_past_a_byte_agrees_with_naive_placements():
    # the 289 doubles of Z17 keep tuple rows, derived by the power's row getter
    q = swap_picks(builtin_quiver("twisted-binary"), ("top", 0), ("bottom", 0))
    power = hetero_power(flat_table(17, 2, cyclic_flat(17, 2)), q).structure
    v = check_total_associativity(power, CheckMode.exhaustive())
    assert v.status == "failed" and "index_table" not in power.facts
    assert v == naive_verdict(power, limit=v.checked)


def scan_block(T, k, n):
    """(prefix length p, last prefix digit) of the scan block that holds tuple
    code T: the first leading n-tuple is (n, 0), a sibling of it (n, d), and a
    block of every tuple starting with 0^(p-1) d is (p, d)."""
    u = T // k ** (n - 1)
    digits = [u // k ** (n - 1 - j) % k for j in range(n)]
    p = next((j + 1 for j, x in enumerate(digits) if x), n)
    return p, digits[p - 1]


def left_projection_changed_in_last_row(k, n):
    # the first argument, except one entry of row k-1: a tuple that starts
    # with any other element never reaches it, so the first failure is in
    # the last block of level 1
    flat = [t[0] for t in itertools.product(range(k), repeat=n)]
    flat[(k - 1) * k ** (n - 1) + 1] = 0
    return flat


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("n, k", [(2, 4), (3, 4), (4, 3), (5, 3)])
def test_a_first_failure_in_every_block_level_agrees_with_naive_placements(monkeypatch, n, k,
                                                                          split):
    # f = the first argument, or 1 where it is 0: one changed entry puts the
    # first failure in any block level, so keep the first change that lands
    # in each block and compare it with the oracle; split, every block of
    # more than k^n tuples is cut into the blocks of its longer prefixes
    if split:
        monkeypatch.setattr(core, "_SCAN_BLOCK", k ** n)
    base = [t[0] or 1 for t in itertools.product(range(k), repeat=n)]
    found = {}
    for code, y in itertools.product(range(k ** n), range(k)):
        if y != base[code]:
            s = flat_table(k, n, base[:code] + [y] + base[code + 1:])
            v = check_total_associativity(s, CheckMode.exhaustive())
            if v.status == "failed":
                found.setdefault(scan_block(v.checked - 1, k, n), (s, v))
    s = flat_table(k, n, left_projection_changed_in_last_row(k, n))
    v = check_total_associativity(s, CheckMode.exhaustive())
    assert scan_block(v.checked - 1, k, n) == (1, k - 1)
    found[1, k - 1] = s, v
    assert {p for p, _ in found} == set(range(1, n + 1))
    assert (n, 0) in found and any(p == n and d for p, d in found)
    for s, v in found.values():
        assert v == naive_verdict(s, limit=v.checked)


def test_a_level_one_block_past_a_byte_agrees_with_naive_placements():
    # left projection of Z257 changed in row 1: the first failure is in the
    # block of every tuple that starts with 1, gathered through tuple rows
    k = 257
    flat = [t[0] for t in itertools.product(range(k), repeat=2)]
    flat[k + 1] = 0
    s = flat_table(k, 2, flat)
    v = check_total_associativity(s, CheckMode.exhaustive())
    assert scan_block(v.checked - 1, k, 2) == (1, 1)
    assert v == naive_verdict(s, limit=v.checked)


def test_a_large_block_is_split_into_blocks_of_its_longer_prefixes():
    # ternary left projection with (1, 0, 1) changed to 0: the first failure
    # is (1, 0, 0, 0, 1) at placement 2, in the block of every tuple that
    # starts with 1.  On 64 elements that block's 64^4 tuples are more than
    # _SCAN_BLOCK, so the scan walks the 64^3-tuple blocks of (1, x) instead
    # and holds far less memory than one unsplit block would take.
    def changed_left_projection(k):
        flat = [t[0] for t in itertools.product(range(k), repeat=3)]
        flat[k * k + 1] = 0
        return flat_table(k, 3, flat)

    small = changed_left_projection(3)
    v = check_total_associativity(small, CheckMode.exhaustive())
    assert v == naive_verdict(small, limit=v.checked)
    assert (v.checked, v.counterexample[0], v.counterexample[2]) == (3 ** 4 + 2, (1, 0, 0, 0, 1), 2)
    large = changed_left_projection(64)
    assert 64 ** 4 > core._SCAN_BLOCK
    tracemalloc.start()
    v = check_total_associativity(large, CheckMode.exhaustive())
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (v.checked, v.counterexample[0], v.counterexample[2]) == (64 ** 4 + 2, (1, 0, 0, 0, 1), 2)
    assert peak < 64 ** 4 / 4


def counting_rows(row):
    reads = []
    return (lambda r: reads.append(r) or row(r)), reads


def test_a_refutation_in_the_first_leading_tuple_reads_one_row():
    # a Z6 ternary scramble fails at its first leading tuple of doubles, so
    # the scan reads the one row it needs, as many as the row-at-a-time
    # kernel it replaced, out of the 36 rows of the power
    q = swap_picks(builtin_quiver("post-ternary"), ("top", 1), ("bottom", 2))
    power = hetero_power(flat_table(6, 3, cyclic_flat(6, 3)), q).structure
    row, reads = counting_rows(core._index_rows(power)[0])
    T, i = core._assoc_scan(row, 36, 3)
    assert scan_block(T, 36, 3) == (3, 0)
    assert reads == [0]


@pytest.mark.parametrize("k, n", [(6, 3), (4, 5), (257, 2)])
def test_a_proof_derives_each_row_once(k, n):
    row, reads = counting_rows(core._index_rows(flat_table(k, n, cyclic_flat(k, n)))[0])
    assert core._assoc_scan(row, k, n) is None
    assert sorted(reads) == list(range(k))


# ---------------------------------------------------------------------------
# sampled draws


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 255, 256, 257, 1000])
def test_index_draws_replay_rng_choice(k):
    # single draws, draws interleaved with another length, and a run taken
    # at once all give rng.choice's indices and leave the generator in its state
    seq, other = list(range(k)), list(range(5))
    for seed in (0, 1, 97, 2 ** 40 + 3):
        rng, ref = random.Random(seed), random.Random(seed)
        draws = IndexDraws(rng)
        assert [next(draws[k]) for _ in range(100)] == [ref.choice(seq) for _ in range(100)]
        got = [draws.pick(seq if j % 3 else other) for j in range(90)]
        assert got == [ref.choice(seq if j % 3 else other) for j in range(90)]
        assert tuple(itertools.islice(draws[k], 9)) == tuple(ref.choice(seq) for _ in range(9))
        assert rng.random() == ref.random()


def test_index_draws_refuse_an_empty_sequence():
    draws = IndexDraws(random.Random(1))
    with pytest.raises(IndexError):
        draws.pick([])
    with pytest.raises(IndexError):
        draws[0]


def sampled_assoc_reference(s, mode):
    """Sampled associativity drawn through rng.choice, placements by placement_result."""
    rng = random.Random(mode.seed)
    elems, n = s.carrier.elements(), s.arity
    for c in range(mode.count):
        polyad = tuple(rng.choice(elems) for _ in range(2 * n - 1))
        r0 = placement_result(s.op, polyad, 0)
        for i in range(1, n):
            ri = placement_result(s.op, polyad, i)
            if ri != r0:
                return Verdict("failed", c + 1, (polyad, 0, i, r0, ri),
                               (f"polyad={polyad}, placements 0/{i} give {r0!r} vs {ri!r}",))
    return Verdict("passed-sampled" if mode.count else "vacuous", mode.count)


def test_sampled_assoc_matches_a_rng_choice_reference():
    # seeded random, cyclic and perturbed tables, their scrambled powers and
    # rule carriers: the whole verdict (status, count, counterexample) agrees
    rng = random.Random(59)
    cases = [get_recipe("odd3").build(41), get_recipe("res-7-10").build(97), MATRIX4.build(25)]
    for k in range(1, 6):
        for m in range(1, 5):
            cyclic = cyclic_flat(k, m)
            cases += [flat_table(k, m, cyclic), flat_table(k, m, [rng.randrange(k) for _ in cyclic])]
            if k > 1:
                cases.append(flat_table(k, m, perturbed_flat(cyclic, k, rng.randrange(k ** m), rng)))
        cases.append(hetero_power(flat_table(k, 3, cyclic_flat(k, 3)), swap_picks(
            builtin_quiver("post-ternary"), ("top", 0), ("bottom", 1))).structure)
    statuses = set()
    for s in cases:
        for count in (0, 1, 7, 60):
            mode = CheckMode.sampled(count, rng.randrange(10 ** 6))
            v = check_total_associativity(s, mode)
            assert v == sampled_assoc_reference(s, mode), (s.name, mode)
            statuses.add(v.status)
    assert statuses == {"failed", "passed-sampled", "vacuous"}


# ---------------------------------------------------------------------------
# identities, neutral polyads


def test_find_identities():
    assert find_identities(zmod_add(5, 3)) == [0]
    assert find_identities(get_recipe("odd3").build(41)) == []


def test_find_identities_scans_once_per_bound():
    base = get_recipe("nat0").build(30)
    calls = []

    def fn(t):
        calls.append(t)
        return base.op.fn(t)

    s = PolyadicStructure(base.carrier, NAryOperation(2, fn))
    first = find_identities(s)
    assert first == [0] and calls
    first.append("mutated")
    calls.clear()
    assert find_identities(s) == [0]
    assert calls == []


def test_matrix_identities_are_one_sided_only():
    s = MATRIX4.build(25)
    assert find_identities(s) == []  # no slot-independent identity
    elems = s.carrier.elements()
    for e in elems[:5]:
        slots = tuple(all(s.op((e,) * i + (g,) + (e,) * (3 - i)) == g for g in elems)
                      for i in range(4))
        assert slots == (True, False, False, True)


def test_neutral_polyads():
    z5 = zmod_add(5, 3)
    elems = z5.carrier.elements()
    assert _is_neutral(z5, (2, 3), elems)
    assert _is_neutral(z5, (0, 0), elems)  # e^(n-1) for the identity e
    assert not _is_neutral(z5, (1, 1), elems)


# ---------------------------------------------------------------------------
# commutativity


def test_commutativity_full_on_derived():
    assert commutativity_report(zmod_add(5, 3), CheckMode.exhaustive()).level == "full"


def test_commutativity_none_on_left_projection():
    proj = parse_table("arity 2\nsize 2\n0\n0\n1\n1\n")  # op(x, y) = x
    assert commutativity_report(proj, CheckMode.exhaustive()).level == "none"


def test_commutativity_sigma_level():
    from polygroth import builtin_quiver, hetero_power

    d = hetero_power(zmod_add(3, 3), builtin_quiver("ternary-to-binary-a"))
    rep = commutativity_report(d.structure, CheckMode.exhaustive())
    assert rep.level == "none"
    rep2 = commutativity_report(d.structure, CheckMode.exhaustive(), sigma=(0, 1))
    assert rep2.level == "sigma" and rep2.sigma == (0, 1)


def digit_codes_reference(weights, k):
    return [sum(w * d for w, d in zip(weights, ds))
            for ds in itertools.product(range(k), repeat=len(weights))]


def test_digit_codes_match_a_plain_reference_across_the_byte_bound():
    # seeded weights with zeros, and weights whose largest code,
    # (k-1) * sum(weights), is exactly 255 or 256: the codes are bytes
    # exactly when every code is below 256, and a list otherwise
    rng = random.Random(37)
    cases = [(k, [rng.choice((0, 0, 1, 2, 3, 7, 16, 40, 300)) for _ in range(length)])
             for k in (0, 1, 2, 3, 15, 16, 17) for length in range(4) for _ in range(4)]
    for k, top in ((2, 255), (2, 256), (4, 255), (3, 256), (16, 255), (17, 256)):
        cut = sorted(rng.sample(range(top // (k - 1) + 1), 2))
        cases.append((k, [cut[0], 0, cut[1] - cut[0], top // (k - 1) - cut[1]]))
    kinds = collections.Counter()
    for k, weights in cases:
        codes, want = core._digit_codes(weights, k), digit_codes_reference(weights, k)
        assert list(codes) == want, (k, weights)
        assert (type(codes) is bytes) == all(c < 256 for c in want), (k, weights)
        kinds[type(codes), max(want, default=None)] += 1
    assert kinds[bytes, 255] and kinds[list, 256]
    assert kinds[bytes, None] and kinds[bytes, 0]


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


def test_exhaustive_commutativity_matches_op_evaluating_reference():
    # random tables, Z_k sums, weighted sums (semi when the outer weights
    # match, sigma when a swapped pair of weights does) and projections;
    # half the cases run on a lettered carrier through a compiled table
    rng = random.Random(53)
    seen = set()
    for k in range(2, 5):
        for n in range(2, 5):
            tuples = list(itertools.product(range(k), repeat=n))
            weights = [[1] * n, [1] + [2] * (n - 2) + [1], [2, 2] + [1] * (n - 2)]
            flats = [[sum(w * x for w, x in zip(ws, t)) % k for t in tuples] for ws in weights]
            flats += [[t[i] for t in tuples] for i in (0, n - 1)]
            flats += [[rng.randrange(k) for _ in tuples] for _ in range(2)]
            for j, flat in enumerate(flats):
                if j % 2:
                    s = lettered_table(k, n, flat)
                else:
                    s = parse_table("\n".join([f"arity {n}", f"size {k}", *map(str, flat)]))
                for sigma in (None, tuple(rng.sample(range(n), n)), (1, 0) + tuple(range(2, n))):
                    rep = commutativity_report(s, CheckMode.exhaustive(), sigma=sigma)
                    want = commutativity_reference(s, sigma)
                    assert (rep.level, rep.sigma, rep.checked, rep.full_failure) == want, \
                        (k, n, flat, sigma)
                    seen.add(rep.level)
    # Z3 5-ary, Z2 8-ary and Z17 binary sums: tables of 243 and 256 entries
    # are gathered by one translate, 289 by a tuple map; each beside a copy
    # with one entry perturbed
    for k, n in ((3, 5), (2, 8), (17, 2)):
        flat = [sum(t) % k for t in itertools.product(range(k), repeat=n)]
        bad = list(flat)
        bad[rng.randrange(k ** n)] += 1
        bad = [v % k for v in bad]
        for table in (flat, bad):
            s = parse_table("\n".join([f"arity {n}", f"size {k}", *map(str, table)]))
            for sigma in (None, tuple(rng.sample(range(n), n)), (1, 0) + tuple(range(2, n))):
                rep = commutativity_report(s, CheckMode.exhaustive(), sigma=sigma)
                want = commutativity_reference(s, sigma)
                assert (rep.level, rep.sigma, rep.checked, rep.full_failure) == want, \
                    (k, n, table, sigma)
                seen.add(rep.level)
    assert seen == {"full", "semi", "sigma", "none"}


def test_sampled_commutativity_matches_the_reference_on_its_pool():
    # the sampled report scans the seeded pool of `count` tuples
    rng = random.Random(71)
    seen = set()
    cases = [(MATRIX4.build(25), (0, 2, 1, 3))]
    for k, n in [(2, 2), (3, 3), (4, 3), (3, 4)]:
        tuples = list(itertools.product(range(k), repeat=n))
        for ws in ([1] * n, [1] + [2] * (n - 2) + [1], [2, 2] + [1] * (n - 2), None):
            flat = [rng.randrange(k) if ws is None else sum(w * x for w, x in zip(ws, t)) % k
                    for t in tuples]
            s = parse_table("\n".join([f"arity {n}", f"size {k}", *map(str, flat)]))
            cases.append((s, (1, 0) + tuple(range(2, n))))
    for s, sigma in cases:
        for count, seed in ((1, 0), (30, 5), (200, 9)):
            rep = commutativity_report(s, CheckMode.sampled(count, seed), sigma=sigma)
            draw, elems = random.Random(seed), s.carrier.elements()
            pool = [tuple(draw.choice(elems) for _ in range(s.arity)) for _ in range(count)]
            want = commutativity_reference(s, sigma, pool)
            assert (rep.level, rep.sigma, rep.checked, rep.full_failure) == want, (s, count)
            seen.add(rep.level)
    assert commutativity_report(cases[0][0], CheckMode.sampled(200, 9)).level == "semi"
    assert seen == {"full", "semi", "sigma", "none"}


def test_commutativity_rejects_a_sigma_that_is_not_a_permutation():
    for sigma in ((0, 0, 1), (0, 1), (0, 1, 3)):
        with pytest.raises(UsageError):
            commutativity_report(zmod_add(3, 3), CheckMode.exhaustive(), sigma=sigma)


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
       st.permutations(range(3)))
@settings(max_examples=50, deadline=None)
def test_derived_commutative_invariant_under_any_permutation(polyad, perm):
    z5 = zmod_add(5, 3)
    permuted = tuple(polyad[p] for p in perm)
    assert z5.op(tuple(polyad)) == z5.op(permuted)


# ---------------------------------------------------------------------------
# querelements, cancellation identities, groups


def test_querelement_mod5():
    z5 = zmod_add(5, 3)
    # oracle: the unique x with 2+2+x = 2 mod 5
    oracle = [x for x in range(5) if (2 + 2 + x) % 5 == 2]
    assert oracle == [3]
    assert querelement(z5, 2) == 3


def test_querelement_of_idempotent_is_itself():
    z4 = zmod_mul(4, 3)
    assert querelement(z4, 1) == 1  # 1 is idempotent
    z5 = zmod_add(5, 3)
    assert querelement(z5, 0) == 0


def test_querelement_not_found_on_odds():
    odd = get_recipe("odd3").build(41)
    with pytest.raises(QuerNotFound):
        querelement(odd, 3)  # 3+3+x = 3 needs x = -3


def test_querelement_not_unique_at_absorber():
    with pytest.raises(QuerNotUnique) as exc:
        querelement(zmod_mul(4, 3), 0)  # 0*0*x = 0 for every x
    assert exc.value.solutions == [0, 1, 2, 3]  # all reported, carrier order


def test_querelement_checks_every_placement():
    # op[0, 0, x] = 0 only for x = 1, which holds at placement 0,
    # op[1, 0, 0] = 0, but not at placement 1: op[0, 1, 0] = 1
    s = parse_table("arity 3\nsize 2\n1\n0\n1\n0\n0\n1\n1\n0\n")
    with pytest.raises(QuerPlacementFailed) as exc:
        querelement(s, 0)
    assert (exc.value.element, exc.value.quer, exc.value.placement) == (0, 1, 1)


def test_doernte_holds_on_group():
    z5 = zmod_add(5, 3)
    assert all(_cancels(z5, g, h, querelement(z5, h)) for g in range(5) for h in range(5))


def test_doernte_binary_group_reduces_to_inverse_cancellation():
    z6 = zmod_add(6, 2)
    assert all(_cancels(z6, g, h, querelement(z6, h)) for g in range(6) for h in range(6))


def test_doernte_fails_somewhere_on_corrupted_table():
    bad = corrupted_z3_ternary()
    ok = 0
    for g in range(3):
        for h in range(3):
            try:
                if _cancels(bad, g, h, querelement(bad, h)):
                    ok += 1
            except (QuerNotFound, QuerNotUnique):
                pass
    assert ok < 9


def test_verify_group():
    assert verify_polyadic_group(zmod_add(5, 3), CheckMode.exhaustive()).is_group
    assert not verify_polyadic_group(zmod_mul(4, 3), CheckMode.exhaustive()).is_group
    # a bounded enumeration cannot refute solvability: on a finite carrier or
    # on the odd naturals, a sampled group check is a usage error, and a rule
    # carrier has no exhaustive one
    odd = get_recipe("odd3").build(41)
    for s in (zmod_add(5, 3), odd):
        with pytest.raises(UsageError, match="exhaustive"):
            verify_polyadic_group(s, CheckMode.sampled(200, 7))
    with pytest.raises(ExhaustiveOnInfiniteCarrier):
        verify_polyadic_group(odd, CheckMode.exhaustive())


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


def lettered_table(k, n, flat):
    """The table over the letters a, b, ... with no index table stored."""
    letters = "abcde"[:k]

    def fn(t):
        code = 0
        for x in t:
            code = code * k + letters.index(x)
        return letters[flat[code]]

    return PolyadicStructure(FiniteCarrier(letters), NAryOperation(n, fn))


def test_exhaustive_solvability_matches_per_column_reference():
    # cyclic tables are bijective in every slot; a perturbed entry breaks
    # one column of each slot (n failures, capped at three); random tables
    # mostly stop at three failures.
    # Half the cases run on a lettered carrier through a compiled table.
    rng = random.Random(47)
    seen = set()
    for k in range(2, 6):
        for n in range(2, 5):
            cyclic = [sum(t) % k for t in itertools.product(range(k), repeat=n)]
            perturbed = list(cyclic)
            code = rng.randrange(k ** n)
            perturbed[code] = (perturbed[code] + rng.randrange(1, k)) % k
            randoms = [[rng.randrange(k) for _ in range(k ** n)] for _ in range(2)]
            for j, flat in enumerate([cyclic, perturbed] + randoms):
                if j % 2:
                    s = lettered_table(k, n, flat)
                else:
                    s = parse_table("\n".join([f"arity {n}", f"size {k}", *map(str, flat)]))
                want_failures, want_checked = solvability_reference(s)
                v = verify_polyadic_group(s, CheckMode.exhaustive())
                assert v.solvability_failures == want_failures, (k, n, flat)
                assert v.checked == want_checked, (k, n, flat)
                seen.add(len(want_failures))
    assert seen == {0, 2, 3}


def test_the_solvability_scan_matches_the_reference_across_field_widths():
    # up to 64 elements the columns are one-hot fields of one to eight bytes,
    # past 64 they are sets; each size runs Z_k, two one-entry perturbations
    # of it (failures in every slot) and a random table
    rng = random.Random(59)
    seen = set()
    for k, n in [(1, 3), (3, 1), (8, 3), (9, 3), (16, 2), (17, 3), (33, 2), (64, 2), (65, 2)]:
        cyclic = cyclic_flat(k, n)
        flats = [cyclic, [rng.randrange(k) for _ in range(k ** n)]]
        if k > 1:
            once = perturbed_flat(cyclic, k, rng.randrange(k ** n), rng)
            flats += [once, perturbed_flat(once, k, rng.randrange(k ** n), rng)]
        for flat in flats:
            s = flat_table(k, n, flat)
            failures, checked = core._solvability_scan(s)
            assert (tuple(failures), checked) == solvability_reference(s), (k, n, flat)
            seen.add(len(failures))
    assert seen == {0, 1, 2, 3}


def test_group_members_have_unique_quers_and_doernte():
    z5 = zmod_add(5, 3)
    assert verify_polyadic_group(z5, CheckMode.exhaustive()).is_group
    for g in range(5):
        q = querelement(z5, g)
        assert z5.op((g, g, q)) == g
        for h in range(5):
            assert _cancels(z5, g, h, querelement(z5, h))


def scans_group_verdict(s):
    """The group verdict of the associativity and solvability scans alone."""
    assoc = check_total_associativity(s, CheckMode.exhaustive())
    failures, checked = core._solvability_scan(s)
    return GroupVerdict(assoc.ok and not failures, assoc, tuple(failures), checked)


def relabelled_flat(k, n, combine, perm):
    """Z_k under combine, iterated to n arguments, with x written perm[x]."""
    inverse = sorted(range(k), key=perm.__getitem__)
    return [perm[functools.reduce(combine, map(inverse.__getitem__, t)) % k]
            for t in itertools.product(range(k), repeat=n)]


def s3_group(n, c):
    """x1 c x2 c ... c xn over the permutations of three points: an n-ary
    group with a non-abelian retract."""
    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    def fn(t):
        return functools.reduce(lambda acc, x: mul(mul(acc, c), x), t)

    return PolyadicStructure(FiniteCarrier(itertools.permutations(range(3))), NAryOperation(n, fn))


def group_check_cases():
    """(k, n, structure) on seeded tables: two relabellings of Z_k under + and
    under x, a one-entry perturbation of each, and a random table, for k 1-8 and n 3-5
    within 2.1M tuples of the scan; then the S3-derived ternary and 4-ary
    groups for every c."""
    rng = random.Random(2028)
    for k in range(1, 9):
        for n in range(3, 6):
            if k ** (2 * n - 1) > 2_100_000:
                continue
            flats = []
            for combine in (operator.add, operator.add, operator.mul, operator.mul):
                flat = relabelled_flat(k, n, combine, rng.sample(range(k), k))
                flats.append(flat)
                if k > 1:
                    flats.append(perturbed_flat(flat, k, rng.randrange(k ** n), rng))
            flats.append([rng.randrange(k) for _ in range(k ** n)])
            for flat in flats:
                yield k, n, flat_table(k, n, flat)
    for n in (3, 4):
        for c in itertools.permutations(range(3)):
            yield 6, n, s3_group(n, c)


def test_the_decomposition_agrees_with_the_scans_on_seeded_tables():
    # a group is proved by its Hosszu-Gluskin decomposition, with the scans'
    # counts; every other table gets the scans' verdict, whole
    seen = collections.Counter()
    for k, n, s in group_check_cases():
        got = verify_polyadic_group(s, CheckMode.exhaustive())
        want = scans_group_verdict(PolyadicStructure(s.carrier, s.op))
        if want.is_group:
            assert got.associativity.notes == ("Hosszu-Gluskin decomposition, retract at "
                                               f"{s.carrier.render(s.carrier.elements()[0])}",)
            got = dataclasses.replace(
                got, associativity=dataclasses.replace(got.associativity, notes=()))
        assert got == want, (k, n, format_table(s))
        seen[want.is_group, want.associativity.ok] += 1
    assert seen == {(True, True): 63, (False, True): 36, (False, False): 90}


def test_the_decomposition_proves_a_group_at_every_retract():
    # all retracts of an n-ary group are isomorphic, so the element the
    # retract is taken at does not matter; a non-group never decomposes
    for k, n, s in group_check_cases():
        table, _ = core._index_table(s)
        is_group = scans_group_verdict(PolyadicStructure(s.carrier, s.op)).is_group
        assert [core._hosszu_gluskin(table, k, n, a) for a in range(k)] == [is_group] * k, (
            k, n, format_table(s))


def test_a_decomposed_group_scans_only_its_retract(monkeypatch):
    calls = []
    assoc_scan, solvability_scan = core._assoc_scan, core._solvability_scan

    def recording_assoc_scan(row, k, n):
        calls.append(("associativity", k, n))
        return assoc_scan(row, k, n)

    def recording_solvability_scan(s):
        calls.append(("solvability",))
        return solvability_scan(s)

    monkeypatch.setattr(core, "_assoc_scan", recording_assoc_scan)
    monkeypatch.setattr(core, "_solvability_scan", recording_solvability_scan)
    z7 = cyclic_flat(7, 4)
    gv = verify_polyadic_group(flat_table(7, 4, z7), CheckMode.exhaustive())
    assert gv.is_group and gv.checked == 4 * 7 ** 3
    assert gv.associativity.status == "proved-exhaustive" and gv.associativity.checked == 7 ** 7
    assert calls == [("associativity", 7, 2)]
    calls.clear()
    bad = flat_table(7, 4, perturbed_flat(z7, 7, 1234, random.Random(3)))
    gv = verify_polyadic_group(bad, CheckMode.exhaustive())
    assert not gv.is_group and gv.solvability_failures
    assert calls[-2:] == [("associativity", 7, 4), ("solvability",)]


@pytest.mark.parametrize("kind", ["bogus", "exhaustive "])
def test_check_mode_rejects_an_unknown_kind(kind):
    # an unknown kind once ran the sampled path and read passed-sampled(10)
    with pytest.raises(UsageError, match="unknown check mode kind"):
        check_total_associativity(zmod_add(5, 3), CheckMode(kind, 10, 1))


def test_operation_rejects_bad_arity():
    with pytest.raises(ArityMismatch):
        NAryOperation(0, lambda t: t)


def test_operation_rejects_a_polyad_of_the_wrong_length():
    # a table op would index an entry for (1, 1), so the call must check
    op = parse_table(format_table(zmod_add(3, 3))).op
    assert op((1, 1, 1)) == 0
    for polyad in ((1, 1), (1, 1, 1, 1), ()):
        with pytest.raises(ArityMismatch):
            op(polyad)
