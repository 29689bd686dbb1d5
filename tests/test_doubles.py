import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygroth import (
    CheckMode,
    Double,
    FiniteCarrier,
    Intact,
    NAryOperation,
    Pick,
    Product,
    QuiverSpec,
    all_doubles,
    apply_quiver,
    arity_after_intact,
    builtin_quiver,
    check_total_associativity,
    commutativity_report,
    componentwise_power,
    double_carrier,
    format_quiver,
    hetero_power,
    identity_report_for_power,
    parse_quiver,
    PolyadicStructure,
    placement_result,
    swap_picks,
    zmod_add,
)
from polygroth.core import _index_table
from polygroth.errors import ArityMismatch, InvalidQuiver, NonMember, NotQuantized, UnknownQuiver
from polygroth.structures import get_recipe
from polygroth.tables import format_table, parse_table

BUILTIN_NAMES = [
    "componentwise-2", "componentwise-3", "componentwise-5", "twisted-binary",
    "ternary-to-binary-a", "ternary-to-binary-b", "post-ternary", "post-5ary",
    "five-to-three-intact",
]


# ---------------------------------------------------------------------------
# arity quantization


def test_arity_after_intact_table():
    assert arity_after_intact(3, 1) == 2
    assert arity_after_intact(5, 1) == 3
    assert arity_after_intact(7, 1) == 4
    for m in (2, 3, 4, 5, 7):
        assert arity_after_intact(m, 0) == m


def test_arity_after_intact_rejects_non_integer():
    with pytest.raises(NotQuantized):
        arity_after_intact(4, 1)


# ---------------------------------------------------------------------------
# quiver wiring as data


def test_post_ternary_wiring():
    q = builtin_quiver("post-ternary")
    assert q.top.picks == (Pick(1, "T"), Pick(2, "B"), Pick(3, "T"))
    assert q.bottom.picks == (Pick(1, "B"), Pick(2, "T"), Pick(3, "B"))


def test_ternary_to_binary_wirings():
    qa = builtin_quiver("ternary-to-binary-a")
    assert qa.top.picks == (Pick(1, "T"), Pick(1, "B"), Pick(2, "T"))
    assert qa.bottom == Intact(Pick(2, "B"))
    qb = builtin_quiver("ternary-to-binary-b")
    assert qb.top.picks == (Pick(1, "T"), Pick(2, "B"), Pick(2, "T"))
    assert qb.bottom == Intact(Pick(1, "B"))


def test_five_to_three_wiring():
    q = builtin_quiver("five-to-three-intact")
    assert q.top.picks == (Pick(1, "T"), Pick(2, "B"), Pick(3, "T"), Pick(1, "B"), Pick(2, "T"))
    assert q.bottom == Intact(Pick(3, "B"))
    assert (q.input_arity, q.output_arity) == (5, 3)


def test_unknown_quiver():
    with pytest.raises(UnknownQuiver):
        builtin_quiver("no-such-quiver")


def test_quiver_validation_rejects_bad_arity():
    with pytest.raises(InvalidQuiver):
        QuiverSpec(3, 3,
                   Product((Pick(1, "T"), Pick(1, "B"), Pick(2, "T"))),
                   Intact(Pick(2, "B")))  # intact=1 forces n=2


def test_quiver_validation_rejects_double_consumption():
    with pytest.raises(InvalidQuiver):
        QuiverSpec(3, 3,
                   Product((Pick(1, "T"), Pick(1, "T"), Pick(3, "T"))),
                   Product((Pick(1, "B"), Pick(2, "B"), Pick(3, "B"))))


def test_quiver_validation_rejects_short_product():
    with pytest.raises(InvalidQuiver):
        QuiverSpec(3, 2, Product((Pick(1, "T"), Pick(1, "B"))), Intact(Pick(2, "B")))


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_quiver_serialization_round_trip(name):
    q = builtin_quiver(name)
    text = format_quiver(q)
    assert parse_quiver(text) == q
    assert format_quiver(parse_quiver(text)) == text


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_quiver_equality_ignores_the_name(name):
    q = builtin_quiver(name)
    renamed = parse_quiver(format_quiver(q), name="renamed")
    assert renamed.name != q.name
    assert renamed == q and hash(renamed) == hash(q)
    assert swap_picks(q, ("top", 0), ("bottom", 0)) != q


def test_serialized_examples():
    assert format_quiver(builtin_quiver("post-ternary")) == \
        "3<-3 intact=0; top=(1,T)(2,B)(3,T); bottom=(1,B)(2,T)(3,B)"
    assert format_quiver(builtin_quiver("five-to-three-intact")) == \
        "3<-5 intact=1; top=(1,T)(2,B)(3,T)(1,B)(2,T); bottom=(3,B)"


def test_parse_quiver_rejects_garbage():
    with pytest.raises(InvalidQuiver):
        parse_quiver("not a quiver")
    with pytest.raises(InvalidQuiver):
        parse_quiver("3<-3 intact=1; top=(1,T)(2,B)(3,T); bottom=(1,B)(2,T)(3,B)")


# ---------------------------------------------------------------------------
# evaluation of powers


def test_post_ternary_matches_hand_formula():
    z3 = zmod_add(3, 3)
    d = hetero_power(z3, builtin_quiver("post-ternary"))
    for args in itertools.product(all_doubles(z3.carrier)[:4], repeat=3):
        (a1, b1), (a2, b2), (a3, b3) = args
        expect = Double((a1 + b2 + a3) % 3, (b1 + a2 + b3) % 3)
        assert d.op(args) == expect


def test_five_to_three_matches_hand_formula():
    z2 = zmod_add(2, 5)
    d = hetero_power(z2, builtin_quiver("five-to-three-intact"))
    for args in itertools.product(all_doubles(z2.carrier), repeat=3):
        (a1, b1), (a2, b2), (a3, b3) = args
        expect = Double((a1 + b2 + a3 + b1 + a2) % 2, b3)
        assert d.op(args) == expect


def test_twisted_binary_matches_hand_formula():
    nat = get_recipe("nat0").build(10)
    d = hetero_power(nat, builtin_quiver("twisted-binary"))
    assert d.op((Double(2, 3), Double(5, 7))) == Double(2 + 7, 5 + 3)


def test_componentwise_power():
    z3 = zmod_add(3, 3)
    d = componentwise_power(z3)
    assert d.arity == 3
    assert d.op((Double(1, 2), Double(2, 2), Double(0, 1))) == Double(0, 2)


def test_hetero_power_arity_mismatch():
    with pytest.raises(ArityMismatch):
        hetero_power(zmod_add(3, 3), builtin_quiver("componentwise-2"))


def test_apply_quiver_arity_mismatch():
    q = builtin_quiver("post-ternary")
    with pytest.raises(ArityMismatch):
        apply_quiver(q, zmod_add(3, 3).op, [Double(0, 0)])


# ---------------------------------------------------------------------------
# associativity of the built-ins (full proof set lives in the acceptance suite)


def test_post_ternary_associative_on_z3():
    d = hetero_power(zmod_add(3, 3), builtin_quiver("post-ternary"))
    assert check_total_associativity(d.structure, CheckMode.exhaustive()).ok


def test_ternary_to_binary_associative_on_z3():
    for name in ("ternary-to-binary-a", "ternary-to-binary-b"):
        d = hetero_power(zmod_add(3, 3), builtin_quiver(name))
        assert check_total_associativity(d.structure, CheckMode.exhaustive()).ok


def test_builtin_quivers_associative_on_z4_bases():
    d = hetero_power(zmod_add(4, 2), builtin_quiver("componentwise-2"))
    assert check_total_associativity(d.structure, CheckMode.exhaustive()).ok
    z4_3 = zmod_add(4, 3)
    for name in ("componentwise-3", "post-ternary"):
        d = hetero_power(z4_3, builtin_quiver(name))
        assert check_total_associativity(d.structure, CheckMode.exhaustive()).ok


def test_twisted_binary_wiring_is_not_associative():
    # ((S1*S2)*S3).top = a1*b2*b3 while (S1*(S2*S3)).top = a1*a3*b2, so the
    # crosswise wiring fails already on Z4 addition; the quiver is kept as
    # data (it defines the shift relation) but proves nothing
    d = hetero_power(zmod_add(4, 2), builtin_quiver("twisted-binary"))
    t = (Double(0, 0), Double(0, 0), Double(0, 1))
    assert placement_result(d.op, t, 0) == Double(1, 0)
    assert placement_result(d.op, t, 1) == Double(0, 1)
    v = check_total_associativity(d.structure, CheckMode.exhaustive())
    assert v.status == "failed"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_builtin_scramble_has_a_counterexample(name):
    q = builtin_quiver(name)
    base = zmod_add(3, q.input_arity) if q.input_arity <= 3 else zmod_add(2, q.input_arity)
    scrambled = swap_picks(q, ("top", 0), ("bottom", 0))
    d = hetero_power(base, scrambled)
    v = check_total_associativity(d.structure, CheckMode.exhaustive())
    assert v.status == "failed"
    polyad, i, j, ri, rj = v.counterexample
    assert placement_result(d.op, polyad, i) == ri != rj == placement_result(d.op, polyad, j)


def test_swapped_post_ternary_breaks_associativity():
    z3 = zmod_add(3, 3)
    scrambled = swap_picks(builtin_quiver("post-ternary"), ("top", 0), ("bottom", 0))
    d = hetero_power(z3, scrambled)
    v = check_total_associativity(d.structure, CheckMode.exhaustive())
    assert v.status == "failed"
    polyad, i, j, ri, rj = v.counterexample
    assert placement_result(d.op, polyad, i) == ri
    assert placement_result(d.op, polyad, j) == rj
    assert ri != rj


# ---------------------------------------------------------------------------
# index tables of powers, derived from the base table


def relabelled_table(k, m):
    """Text of t -> sum((j+1)*t_j) mod k, element v stored as label k-1-v.

    The operation is not commutative, so a wire that read its picks in the
    wrong order would show.
    """
    flat = [k - 1 - (sum((j + 1) * (k - 1 - x) for j, x in enumerate(t)) % k)
            for t in itertools.product(range(k), repeat=m)]
    labels = " ".join(f"v{k - 1 - i}" for i in range(k))
    return "\n".join([f"arity {m}", f"size {k}", *map(str, flat), f"labels {labels}"]) + "\n"


def compiled_by_evaluation(s):
    elems = s.carrier.elements()
    index = {e: i for i, e in enumerate(elems)}
    return tuple(index[s.op.fn(t)] for t in itertools.product(elems, repeat=s.arity))


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["post-ternary-swapped"])
def test_power_index_table_matches_evaluation(name):
    if name == "post-ternary-swapped":
        q = swap_picks(builtin_quiver("post-ternary"), ("top", 0), ("bottom", 2))
    else:
        q = builtin_quiver(name)
    m = q.input_arity
    k = 3 if m <= 3 else 2
    text = relabelled_table(k, m)
    relabelled = parse_table(text)
    assert format_table(relabelled) == text
    for base in (zmod_add(k, m), relabelled):
        power = hetero_power(base, q).structure
        assert _index_table(power) == (compiled_by_evaluation(power), k * k)


def counting(s, calls):
    def fn(t):
        calls.append(t)
        return s.op.fn(t)
    return PolyadicStructure(s.carrier, NAryOperation(s.arity, fn), facts=dict(s.facts))


def test_power_evaluates_no_base_operation_until_an_exhaustive_check():
    for base, compiles in ((zmod_add(3, 3), 27), (parse_table(format_table(zmod_add(3, 3))), 0)):
        calls = []
        d = hetero_power(counting(base, calls), builtin_quiver("post-ternary"))
        assert calls == []
        assert check_total_associativity(d.structure, CheckMode.exhaustive()).ok
        # the base table is compiled once (a parsed table arrives compiled);
        # the power's table is derived from it without evaluating anything
        assert len(calls) == compiles


def test_power_of_unclosed_base_raises_on_exhaustive_check():
    carrier = FiniteCarrier(range(3))
    unclosed = PolyadicStructure(carrier, NAryOperation(3, sum))  # 2+2+2 = 6 is not in Z3
    d = hetero_power(unclosed, builtin_quiver("post-ternary"))
    with pytest.raises(NonMember):
        check_total_associativity(d.structure, CheckMode.exhaustive())


# ---------------------------------------------------------------------------
# commutativity of powers


def test_componentwise_power_stays_fully_commutative():
    d = componentwise_power(zmod_add(3, 3))
    assert commutativity_report(d.structure, CheckMode.exhaustive()).level == "full"


def test_post_ternary_power_loses_full_commutativity():
    # first/last swap survives by symmetry of the wiring, all permutations do not
    d = hetero_power(zmod_add(3, 3), builtin_quiver("post-ternary"))
    rep = commutativity_report(d.structure, CheckMode.exhaustive())
    assert rep.level == "semi"
    polyad, perm = rep.full_failure
    assert d.op(polyad) != d.op(tuple(polyad[p] for p in perm))


def test_post_5ary_power_is_semi_not_full():
    # swapping two adjacent doubles mixes top and bottom picks: full fails
    d = hetero_power(zmod_add(2, 5), builtin_quiver("post-5ary"))
    rep = commutativity_report(d.structure, CheckMode.exhaustive())
    assert rep.level == "semi"
    t = (Double(1, 0), Double(0, 0), Double(0, 0), Double(0, 0), Double(0, 0))
    swapped = (t[1], t[0]) + t[2:]
    assert d.op(t) != d.op(swapped)


def test_five_to_three_power_sigma_commutativity():
    # the intact slot pins argument 3; swapping the first two arguments only
    # permutes picks inside the top product
    d = hetero_power(zmod_add(2, 5), builtin_quiver("five-to-three-intact"))
    assert commutativity_report(d.structure, CheckMode.exhaustive()).level == "none"
    rep = commutativity_report(d.structure, CheckMode.exhaustive(), sigma=(1, 0, 2))
    assert rep.level == "sigma" and rep.sigma == (1, 0, 2)


# ---------------------------------------------------------------------------
# identities on powers


def test_identity_reports():
    z3 = zmod_add(3, 3)
    assert identity_report_for_power(componentwise_power(z3)).kind == "two-sided"
    assert identity_report_for_power(
        hetero_power(z3, builtin_quiver("ternary-to-binary-a"))).kind == "left"
    assert identity_report_for_power(
        hetero_power(z3, builtin_quiver("ternary-to-binary-b"))).kind == "right"
    z2 = zmod_add(2, 5)
    assert identity_report_for_power(
        hetero_power(z2, builtin_quiver("five-to-three-intact"))).kind == "left"


def test_post_ternary_identity_holds_at_outer_slots_only():
    # E=(e,e) survives op[S,E,E] and op[E,E,S]; the middle placement swaps
    # the components of S, so it is not a full ternary identity
    z3 = zmod_add(3, 3)
    d = hetero_power(z3, builtin_quiver("post-ternary"))
    rep = identity_report_for_power(d)
    assert rep.placements == (True, False, True)
    assert rep.kind == "partial"
    E, S = Double(0, 0), Double(1, 2)
    assert d.op((E, S, E)) == Double(2, 1)


def test_no_identity_candidate_on_odds_power():
    odd = get_recipe("odd3").build(21)
    d = componentwise_power(odd)
    assert identity_report_for_power(d).kind == "none"


def test_enumerate_all_ternary_to_binary_wirings():
    # all 48 one-intact binary wirings of a ternary base: every input pick
    # used once, intact on either side, product picks in any order; report
    # how many are associative on the Z3-derived base
    z3 = zmod_add(3, 3)
    inputs = [Pick(s, c) for s in (1, 2) for c in ("T", "B")]
    associative = []
    for intact_side in ("top", "bottom"):
        for intact_pick in inputs:
            rest = [p for p in inputs if p != intact_pick]
            for order in itertools.permutations(rest):
                if intact_side == "top":
                    q = QuiverSpec(3, 2, Intact(intact_pick), Product(tuple(order)))
                else:
                    q = QuiverSpec(3, 2, Product(tuple(order)), Intact(intact_pick))
                d = hetero_power(z3, q)
                if check_total_associativity(d.structure, CheckMode.exhaustive()).ok:
                    associative.append(format_quiver(q))
    # the two known wirings are among them; on a commutative base the pick
    # order inside a product is immaterial (6 orders each) and top/bottom
    # mirroring doubles the count, so the census is 2 * 6 * 2 = 24
    assert format_quiver(builtin_quiver("ternary-to-binary-a")) in associative
    assert format_quiver(builtin_quiver("ternary-to-binary-b")) in associative
    assert len(associative) == 24


@given(st.permutations([Pick(s, c) for s in (1, 2, 3) for c in ("T", "B")]))
@settings(max_examples=40, deadline=None)
def test_random_intactless_ternary_quivers_round_trip(picks):
    q = QuiverSpec(3, 3, Product(tuple(picks[:3])), Product(tuple(picks[3:])))
    assert parse_quiver(format_quiver(q)) == q


def test_double_carrier_shapes():
    z3 = zmod_add(3, 3)
    c = double_carrier(z3.carrier)
    assert c.is_finite and len(c) == 9
    assert Double(1, 2) in c
    odd = get_recipe("odd3").build(9)
    cr = double_carrier(odd.carrier)
    assert not cr.is_finite
    assert Double(100001, 3) in cr
    assert Double(2, 3) not in cr
    assert len(cr.elements()) == 25
