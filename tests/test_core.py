import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygroth import (
    CheckMode,
    NAryOperation,
    PolyadicStructure,
    check_doernte,
    check_total_associativity,
    commutativity_report,
    evaluate,
    find_identities,
    find_zeros,
    identity_placements,
    is_neutral_polyad,
    is_nilpotent,
    iterate,
    iterated_arity,
    placement_result,
    polyadic_power,
    querelement,
    structure_report,
    verify_polyadic_group,
    zmod_add,
    zmod_mul,
)
from polygroth.errors import (
    ArityMismatch,
    ExhaustiveOnInfiniteCarrier,
    NonMember,
    NotAZero,
    QuerNotFound,
    QuerNotUnique,
)
from polygroth.structures import MATRIX4, MATRIX_TOLERANCE, get_recipe
from polygroth.tables import format_table, parse_table


def corrupted_z3_ternary():
    # derived ternary table over Z3 with the (0,0,0) entry bumped 0 -> 1
    text = format_table(zmod_add(3, 3))
    lines = text.splitlines()
    assert lines[2] == "0"
    lines[2] = "1"
    return parse_table("\n".join(lines), name="corrupted")


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_ternary_mod5():
    z5 = zmod_add(5, 3)
    assert evaluate(z5, (1, 2, 3)) == (1 + 2 + 3) % 5 == 1


def test_evaluate_odd_ternary_addition():
    odd = get_recipe("odd3").build(21)
    assert evaluate(odd, (1, 3, 5)) == 9


def test_evaluate_matrix_idempotent():
    s = MATRIX4.build(25)
    a = 0.5 + 0.25j
    assert abs(evaluate(s, (a, a, a, a)) - a) <= MATRIX_TOLERANCE


def test_evaluate_validates():
    z5 = zmod_add(5, 3)
    with pytest.raises(ArityMismatch):
        evaluate(z5, (1, 2))
    with pytest.raises(NonMember):
        evaluate(z5, (1, 2, 7))


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
    assert polyadic_power(z5, 2, 1) == 1  # 2+2+2 = 6 = 1 mod 5
    odd = get_recipe("odd3").build(21)
    assert polyadic_power(odd, 3, 1) == 9
    s = MATRIX4.build(25)
    a = -0.5 + 1.0j
    assert abs(polyadic_power(s, a, 1) - a) <= MATRIX_TOLERANCE


# ---------------------------------------------------------------------------
# zeros and nilpotency


def test_find_zeros():
    assert find_zeros(zmod_mul(4, 3)) == [0]
    assert find_zeros(zmod_add(5, 3)) == []
    assert find_zeros(get_recipe("neg3").build(10)) == []


def test_find_zeros_scans_once():
    base = zmod_mul(4, 3)
    calls = []

    def fn(t):
        calls.append(t)
        return base.op.fn(t)

    s = PolyadicStructure(base.carrier, NAryOperation(3, fn))
    first = find_zeros(s)
    assert first == [0] and calls
    first.append("mutated")
    calls.clear()
    assert find_zeros(s) == [0]
    assert is_nilpotent(s, 2, 1, 0)
    assert calls == [(2, 2, 2)]  # only the power itself


def test_is_nilpotent():
    z4 = zmod_mul(4, 3)
    assert is_nilpotent(z4, 2, 1, 0)  # 2*2*2 = 8 = 0 mod 4
    assert is_nilpotent(z4, 0, 1, 0)
    with pytest.raises(NotAZero):
        is_nilpotent(zmod_add(5, 3), 2, 1, 0)


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


def test_assoc_fast_scan_agrees_with_naive_placements():
    # oracle: evaluate every placement directly, tuple by tuple in
    # lexicographic order, and compare with the block-sliced kernel.  Random
    # magmas mostly fail at tuple 0; group tables with one perturbed entry
    # fail deep inside a block.
    rng = random.Random(31)
    cases = []
    for k in range(1, 5):
        for m in range(1, 5):
            cyclic = [sum(t) % k for t in itertools.product(range(k), repeat=m)]
            cases.append((k, m, cyclic))
            cases.append((k, m, [rng.randrange(k) for _ in range(k ** m)]))
            for _ in range(3 if k > 1 else 0):
                flat = list(cyclic)
                code = rng.randrange(k ** m)
                flat[code] = (flat[code] + rng.randrange(1, k)) % k
                cases.append((k, m, flat))
    for k, m, flat in cases:
        assert k ** (2 * m - 1) <= 20_000
        text = "\n".join([f"arity {m}", f"size {k}"] + [str(v) for v in flat])
        s = parse_table(text)
        naive_bad = None
        for T, polyad in enumerate(itertools.product(range(k), repeat=2 * m - 1)):
            results = [placement_result(s.op, polyad, i) for i in range(m)]
            bad = [i for i in range(1, m) if results[i] != results[0]]
            if bad:
                naive_bad = (T, polyad, bad[0])
                break
        v = check_total_associativity(s, CheckMode.exhaustive())
        if naive_bad is None:
            assert v.status == "proved-exhaustive"
            assert v.checked == k ** (2 * m - 1)
            continue
        T, polyad, i = naive_bad
        assert v.status == "failed"
        assert v.checked == T + 1
        assert v.counterexample[0] == polyad  # lexicographically smallest
        assert v.counterexample[1:3] == (0, i)  # first placement to disagree
        _, _, _, r0, ri = v.counterexample
        assert placement_result(s.op, polyad, 0) == r0
        assert placement_result(s.op, polyad, i) == ri != r0


# ---------------------------------------------------------------------------
# identities, zeros, neutral polyads


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
    for e in s.carrier.elements()[:5]:
        assert identity_placements(s, e) == (True, False, False, True)


def test_neutral_polyads():
    z5 = zmod_add(5, 3)
    assert is_neutral_polyad(z5, (2, 3))
    assert is_neutral_polyad(z5, (0, 0))  # e^(n-1) for the identity e
    assert not is_neutral_polyad(z5, (1, 1))
    with pytest.raises(ArityMismatch):
        is_neutral_polyad(z5, (1, 2, 3))


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


def test_doernte_holds_on_group():
    z5 = zmod_add(5, 3)
    assert all(check_doernte(z5, g, h) for g in range(5) for h in range(5))


def test_doernte_binary_group_reduces_to_inverse_cancellation():
    z6 = zmod_add(6, 2)
    assert all(check_doernte(z6, g, h) for g in range(6) for h in range(6))


def test_doernte_fails_somewhere_on_corrupted_table():
    bad = corrupted_z3_ternary()
    ok = 0
    for g in range(3):
        for h in range(3):
            try:
                if check_doernte(bad, g, h):
                    ok += 1
            except (QuerNotFound, QuerNotUnique):
                pass
    assert ok < 9


def test_verify_group():
    assert verify_polyadic_group(zmod_add(5, 3), CheckMode.exhaustive()).is_group
    odd = get_recipe("odd3").build(41)
    v = verify_polyadic_group(odd, CheckMode.sampled(200, 7))
    assert not v.is_group and v.solvability_failures
    assert not verify_polyadic_group(zmod_mul(4, 3), CheckMode.exhaustive()).is_group


def test_group_members_have_unique_quers_and_doernte():
    z5 = zmod_add(5, 3)
    assert verify_polyadic_group(z5, CheckMode.exhaustive()).is_group
    for g in range(5):
        q = querelement(z5, g)
        assert z5.op((g, g, q)) == g
        for h in range(5):
            assert check_doernte(z5, g, h)


def test_structure_report_bundle():
    rep = structure_report(zmod_add(5, 3), CheckMode.exhaustive())
    assert rep.totally_associative.ok
    assert rep.identities == (0,)
    assert rep.zeros == ()
    assert rep.commutativity.level == "full"


def test_operation_rejects_bad_arity():
    with pytest.raises(ArityMismatch):
        NAryOperation(0, lambda t: t)
