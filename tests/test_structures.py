import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygroth import (
    CheckMode,
    Double,
    WitnessSearch,
    all_doubles,
    check_total_associativity,
    decide_equivalent,
    detect_residue_arity,
    get_recipe,
    integers_group,
    integers_mod_group,
    recipe_names,
    verify_polyadic_group,
)
from polygroth.errors import BoundExhausted, NoClosedArity, UsageError

RECIPES = ["nat0", "neg3", "odd3", "res-7-10", "matrix4"]


def build(name, limit=None):
    r = get_recipe(name)
    return r, r.build(limit if limit is not None else r.default_limit)


# ---------------------------------------------------------------------------
# recipes build and are associative (sampled, seeded)


@pytest.mark.parametrize("name", RECIPES)
def test_recipe_sampled_associativity(name):
    _, s = build(name)
    v = check_total_associativity(s, CheckMode.sampled(1000, 11))
    assert v.ok and v.checked == 1000


def test_recipe_registry():
    assert recipe_names() == ["nat0", "neg3", "odd3", "res-a-b", "matrix4"]
    with pytest.raises(UsageError):
        get_recipe("nope")


def test_named_constructors():
    def made(name, limit):
        return replace(get_recipe(name), default_limit=limit).make()

    assert made("nat0", 12).carrier.elements()[-1] == 12
    assert made("neg3", 5).carrier.elements() == [-1, -2, -3, -4, -5]
    assert made("odd3", 9).carrier.elements() == [1, 3, 5, 7, 9]
    res = made("res-7-10", 57)
    assert res.arity == 5 and res.carrier.elements() == [7, 17, 27, 37, 47, 57]
    assert get_recipe("matrix4").make().arity == 4


@pytest.mark.parametrize("name", RECIPES)
def test_rule_carrier_enumeration_yields_members_in_fixed_order(name):
    _, s = build(name)
    first = s.carrier.elements()
    assert first == s.carrier.elements()
    assert all(x in s.carrier for x in first)


def test_expected_arities():
    for name, arity in [("nat0", 2), ("neg3", 3), ("odd3", 3), ("res-7-10", 5), ("matrix4", 4)]:
        _, s = build(name)
        assert s.arity == arity


# ---------------------------------------------------------------------------
# exact rules agree with the bounded twisted-shift search on definite answers


@pytest.mark.parametrize("name", RECIPES)
def test_exact_rule_vs_twist_search(name):
    recipe, s = build(name, 20 if name != "matrix4" else None)
    domain = all_doubles(s.carrier)
    rng = random.Random(5)
    search = WitnessSearch("twist")
    groups = []
    for d in domain:
        for mem in groups:
            if recipe.exact_rule(mem[0], d):
                mem.append(d)
                break
        else:
            groups.append([d])
    rich = [mem for mem in groups if len(mem) >= 2]
    definite = 0
    for k in range(200):
        if rich and k % 2 == 0:
            mem = rng.choice(rich)
            d1, d2 = rng.choice(mem), rng.choice(mem)
        else:
            d1, d2 = rng.choice(domain), rng.choice(domain)
        want = recipe.exact_rule(d1, d2)
        try:
            got = decide_equivalent(s, d1, d2, search)
        except BoundExhausted:
            assert not want  # a rule-equivalent pair always has a cheap witness here
            continue
        definite += 1
        assert got == want
    assert definite >= 100


# ---------------------------------------------------------------------------
# canonical doubles


@pytest.mark.parametrize("name", RECIPES)
def test_canonicalizer_idempotent_and_equivalence_preserving(name):
    recipe, s = build(name)
    rng = random.Random(9)
    domain = all_doubles(s.carrier)
    for _ in range(200):
        d = rng.choice(domain)
        c = recipe.canonical_double(d)
        assert recipe.canonical_double(c) == c
        assert recipe.exact_rule(c, d)


def test_canonical_spot_values():
    assert get_recipe("nat0").canonical_double(Double(7, 7)) == Double(0, 0)
    assert get_recipe("nat0").canonical_double(Double(3, 1)) == Double(2, 0)
    assert get_recipe("neg3").canonical_double(Double(-8, -6)) == Double(-4, -3)
    assert get_recipe("odd3").canonical_double(Double(5, 3)) == Double(3, 1)
    r = get_recipe("res-7-10")
    assert r.canonical_double(Double(77, 187)) == Double(7, 17)
    assert r.canonical_double(Double(77, 77)) == Double(7, 7)
    assert get_recipe("matrix4").canonical_double(Double((1, 1), (0, -1))) == Double((0, 0), (0, 0))


def residue_canonical_by_square_search(a, b, d):
    """The res-a-b canonical form with the rescale searched over k = 1..b^2."""
    def member(x):
        return x > 0 and x % b == a

    p, q = d
    g = math.gcd(p, q)
    p0, q0 = p // g, q // g
    if member(p0) and member(q0):
        return Double(p0, q0)
    for k in range(1, b * b + 1):
        if member(k * p0) and member(k * q0):
            return Double(k * p0, k * q0)
    return Double(p, q)


@pytest.mark.parametrize("a,b", [(7, 10), (0, 4), (0, 6), (3, 4), (1, 9), (5, 12)])
def test_residue_form_and_product_match_plain_references(a, b):
    # the rescale search stops at k = b; members of the class and other
    # positive doubles alike get the form of the search up to b^2, and a
    # double with a negative component is kept as given
    recipe = get_recipe(f"res-{a}-{b}")
    values = [*range(-12, 0), *range(1, 60)]
    for p in values:
        for q in values:
            d = Double(p, q)
            assert recipe.canonical_double(d) == residue_canonical_by_square_search(a, b, d), d
    s = recipe.make()
    rng = random.Random(a * 100 + b)
    elems = s.carrier.elements()
    for _ in range(200):
        t = tuple(rng.choice(elems) for _ in range(s.arity))
        product = 1
        for x in t:
            product *= x
        assert s.op.fn(t) == product


def residue_canonical_by_loop(a, b, d):
    """The res-a-b canonical form with the rescale searched afresh over k = 1..b."""
    p, q = d
    g = math.gcd(p, q)
    p0, q0 = p // g, q // g
    if p0 > 0 and q0 > 0:
        for k in range(1, b + 1):
            if k * p0 % b == a and k * q0 % b == a:
                return Double(k * p0, k * q0)
    return Double(p, q)


@pytest.mark.parametrize("a,b", [(7, 10), (0, 10), (0, 7), (3, 8), (1, 2), (11, 12)])
def test_residue_form_memoised_per_residue_pair_matches_the_loop(a, b):
    # one recipe answers every double, so residue pairs repeat through its
    # memo; doubles with a component <= 0 and pairs with no rescale are kept
    recipe = get_recipe(f"res-{a}-{b}")
    rng = random.Random(a * 1000 + b)
    seen = set()
    for _ in range(3000):
        bound = rng.choice([30, 10 ** 6])
        p, q = rng.randint(-bound // 10, bound), rng.randint(-bound // 10, bound)
        if p == q == 0:
            continue
        d = Double(p, q)
        want = residue_canonical_by_loop(a, b, d)
        assert recipe.canonical_double(d) == want, d
        seen.add("nonpositive" if min(p, q) <= 0 else "kept" if want == d else "rescaled")
    assert seen == {"nonpositive", "kept", "rescaled"}


# ---------------------------------------------------------------------------
# worked equivalences from the example families


def test_neg_equivalence_chain():
    rule = get_recipe("neg3").exact_rule
    assert rule(Double(-1, -2), Double(-2, -4))
    assert rule(Double(-2, -4), Double(-3, -6))
    assert rule(Double(-4, -3), Double(-8, -6))
    assert not rule(Double(-1, -2), Double(-2, -1))


@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_neg_scaling_stays_in_class(p, q, k):
    rule = get_recipe("neg3").exact_rule
    assert rule(Double(-p, -q), Double(-k * p, -k * q))


def test_odd_equivalence_chain():
    rule = get_recipe("odd3").exact_rule
    assert rule(Double(3, 1), Double(5, 3))
    assert rule(Double(5, 3), Double(7, 5))
    assert rule(Double(1, 5), Double(3, 7))
    assert not rule(Double(3, 1), Double(1, 3))


@given(st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_odd_shift_by_two(k1, k2):
    a, b = 2 * k1 + 1, 2 * k2 + 1
    assert get_recipe("odd3").exact_rule(Double(a, b), Double(a + 2, b + 2))


def test_res_equivalence_examples():
    rule = get_recipe("res-7-10").exact_rule
    assert rule(Double(7, 17), Double(77, 187))
    assert rule(Double(7, 77), Double(17, 187))
    assert rule(Double(17, 47), Double(187, 517))
    assert not rule(Double(7, 17), Double(17, 7))


def test_nat0_decision_examples():
    rule = get_recipe("nat0").exact_rule
    assert rule(Double(3, 1), Double(5, 3))
    assert rule(Double(0, 0), Double(4, 4))
    assert not rule(Double(3, 1), Double(3, 2))


# ---------------------------------------------------------------------------
# residue arity detection


def test_detect_residue_arity_7_mod_10():
    # 7^2=49->9, 7^3->3, 7^4->1, 7^5->7 (mod 10)
    assert pow(7, 2, 10) == 9 and pow(7, 3, 10) == 3 and pow(7, 4, 10) == 1
    assert pow(7, 5, 10) == 7
    assert detect_residue_arity(7, 10) == 5


def test_detect_residue_arity_misc():
    assert detect_residue_arity(0, 10) == 2
    assert detect_residue_arity(1, 7) == 2
    assert detect_residue_arity(3, 10) == 5


def test_detect_residue_arity_unclosed():
    with pytest.raises(NoClosedArity):
        detect_residue_arity(2, 4)


def test_residue_closure_and_witnesses():
    r, s = build("res-7-10", 200)
    elems = s.carrier.elements()
    rng = random.Random(3)
    for _ in range(1000):
        t = tuple(rng.choice(elems) for _ in range(5))
        assert s.op(t) in s.carrier
    # each smaller length fails on the constant tuple already
    for m in (2, 3, 4):
        assert (7 ** m) % 10 != 7


# ---------------------------------------------------------------------------
# the matrix structure


def test_matrix_operation_identities():
    _, s = build("matrix4")
    rng = random.Random(13)
    op = s.op
    for _ in range(100):
        a = (rng.randint(-50, 50), rng.randint(-50, 50))
        b = (rng.randint(-50, 50), rng.randint(-50, 50))
        assert op((a, a, a, a)) == a
        assert op((a, a, a, b)) == b


def test_matrix_epsilon_is_cube_root_of_unity():
    # op[0, z, 0, 0] = w*z and op[0, 0, z, 0] = w^2*z on pairs (a, b) = a + bw
    _, s = build("matrix4")
    zero, one = (0, 0), (1, 0)
    w = s.op((zero, one, zero, zero))
    w2 = s.op((zero, zero, one, zero))
    assert w == (0, 1) and w2 == (-1, -1)  # w^2 = -1 - w
    assert s.op((zero, w2, zero, zero)) == one  # w^3 = w * w^2 = 1
    assert s.op((one, one, one, zero)) == zero  # 1 + w + w^2 = 0


def test_matrix_rule_is_constant_true():
    r, s = build("matrix4")
    assert r.exact_rule(Double((1, 2), (3, 0)), Double((0, -5), (-4, 1)))


# ---------------------------------------------------------------------------
# helper target groups


def test_integer_targets_are_groups():
    z6 = integers_mod_group(6)
    assert verify_polyadic_group(z6, CheckMode.exhaustive()).is_group
    z = integers_group(30)
    assert 0 in z.carrier and -17 in z.carrier
    assert z.op((5, -7)) == -2


def test_gcd_reduction_matches_math_gcd():
    c = get_recipe("neg3").canonical_double
    for p, q in [(8, 6), (12, 9), (30, 12)]:
        g = math.gcd(p, q)
        assert c(Double(-p, -q)) == Double(-p // g, -q // g)
