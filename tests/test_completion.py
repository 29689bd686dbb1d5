import dataclasses
import itertools
import json
import random

import pytest

from polygroth import (
    CheckMode,
    ClassDouble,
    Double,
    ExactRule,
    WitnessSearch,
    all_doubles,
    build_completion,
    builtin_quiver,
    check_equivalence_axioms,
    check_relation_coincidence,
    check_total_associativity,
    check_universal_factorization,
    check_well_definedness,
    class_inverse,
    class_product,
    class_quer,
    completion_to_json,
    decide_equivalent,
    gauge_equivalent,
    gauge_witness,
    get_recipe,
    integers_group,
    integers_mod_group,
    neutral_class,
    parse_table,
    partition_classes,
    phi_sg,
    twist_equivalent,
    twist_witness,
    zmod_add,
    zmod_mul,
)
from polygroth import cli, completion
from polygroth.completion import GAUGE, QUER_COMPONENTWISE, QUER_POST, QUER_SEARCH, TWIST
from polygroth.errors import (
    BoundExhausted,
    NotAHomomorphism,
    PolyadicError,
    QuerFormulaFailsVerification,
    QuerNotFound,
)


def completion_for(name, quiver_name, limit=None, quer_mode="auto", samples=200, seed=97):
    recipe = get_recipe(name)
    s = recipe.build(limit if limit is not None else recipe.default_limit)
    return build_completion(
        s, builtin_quiver(quiver_name), recipe.exact_decision(),
        quer_mode=quer_mode, canonical=recipe.canonical_double, tag=name,
        samples=samples, seed=seed,
    )


def cls(name, a, b):
    return ClassDouble(Double(a, b), name)


# ---------------------------------------------------------------------------
# gauge / twist equivalence


def test_gauge_witness_on_negatives():
    s = get_recipe("neg3").build(20)
    w = gauge_witness(s, Double(-1, -2), Double(-2, -4))
    assert w is not None
    x, y = w
    assert (-1) * (-1) * x == (-2) * (-2) * y
    assert (-2) * (-2) * x == (-4) * (-4) * y


def test_twist_search_definite_true_on_odds():
    s = get_recipe("odd3").build(41)
    dec = WitnessSearch()
    assert twist_equivalent(s, Double(3, 1), Double(5, 3), dec)
    assert twist_witness(s, Double(3, 1), Double(5, 3)) == 1  # any z works; first is returned


def test_twist_search_unknown_on_infinite_carrier():
    s = get_recipe("odd3").build(41)
    with pytest.raises(BoundExhausted):
        twist_equivalent(s, Double(3, 1), Double(3, 5), WitnessSearch())


def test_search_definite_false_on_finite_carrier():
    s = zmod_add(3, 2)
    dec = WitnessSearch()
    # z = 1+z mod 3 has no solution: exhaustion of a finite carrier is a proof
    assert not twist_equivalent(s, Double(0, 0), Double(1, 0), dec)
    assert not gauge_equivalent(s, Double(0, 0), Double(1, 0), dec)
    assert twist_equivalent(s, Double(0, 0), Double(1, 1), dec)


def test_exact_rule_dispatch():
    s = get_recipe("nat0").build(10)
    dec = get_recipe("nat0").exact_decision()
    assert gauge_equivalent(s, Double(3, 1), Double(5, 3), dec)
    assert twist_equivalent(s, Double(3, 1), Double(5, 3), dec)
    assert not decide_equivalent(s, Double(3, 1), Double(1, 3), dec)


def test_matrix_every_pair_equivalent_by_search():
    s = get_recipe("matrix4").build(25)
    dec = WitnessSearch()
    d1, d2 = Double(1 + 0j, -0.5j), Double(-1 + 0j, 0.5 + 0.5j)
    assert twist_equivalent(s, d1, d2, dec)


def random_table(rng, k, m):
    """A seeded parse_table structure that is neither associative nor cancellative."""
    while True:
        flat = [rng.randrange(k) for _ in range(k ** m)]
        s = parse_table("\n".join([f"arity {m}", f"size {k}", *map(str, flat)]) + "\n")
        cancellative = all(
            len({s.op.fn(rest[:i] + (x,) + rest[i:]) for x in range(k)}) == k
            for i in range(m) for rest in itertools.product(range(k), repeat=m - 1)
        )
        if not cancellative and not check_total_associativity(s, CheckMode.exhaustive()).ok:
            return s


def search_reference(s, d1, d2, relation, bound):
    """The plain witness search's answer: True, False, or BoundExhausted."""
    witness = gauge_witness if relation == GAUGE else twist_witness
    if witness(s, d1, d2, bound) is not None:
        return True
    if bound is None or bound >= len(s.carrier.elements()):
        return False
    return BoundExhausted


def decided(fn, *args):
    try:
        return fn(*args)
    except BoundExhausted:
        return BoundExhausted


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_table_decisions_agree_with_witness_search(k, m):
    s = random_table(random.Random(f"shift/{k}/{m}"), k, m)
    doubles = all_doubles(s.carrier)
    outcomes = set()
    for bound in (None, k - 1):
        for relation, checker in ((GAUGE, gauge_equivalent), (TWIST, twist_equivalent)):
            dec = WitnessSearch(relation, bound)
            for d1, d2 in itertools.product(doubles, repeat=2):
                want = search_reference(s, d1, d2, relation, bound)
                assert decided(checker, s, d1, d2, dec) is want, (relation, bound, d1, d2)
                assert decided(decide_equivalent, s, d1, d2, dec) is want
                outcomes.add(want)
    if k >= 4:
        assert outcomes == {True, False, BoundExhausted}


def test_finite_decisions_run_no_witness_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("witness search on a finite carrier")

    monkeypatch.setattr(completion, "gauge_witness", refuse)
    monkeypatch.setattr(completion, "twist_witness", refuse)
    s = zmod_add(6, 3)
    for relation in (GAUGE, TWIST):
        part = partition_classes(s, all_doubles(s.carrier), WitnessSearch(relation))
        assert part.class_count() == 3          # classes of 2(a-b) mod 6
    assert set(s.facts) >= {(GAUGE, None), (TWIST, None)}


# ---------------------------------------------------------------------------
# relation coincidence (finite, exhaustive)


@pytest.mark.parametrize("structure", [zmod_add(5, 3), zmod_add(3, 2), zmod_mul(4, 3)])
def test_gauge_twist_coincide(structure):
    verdict = check_relation_coincidence(structure)
    assert verdict.identical, verdict.disagreements[:2]


# ---------------------------------------------------------------------------
# equivalence axioms


@pytest.mark.parametrize("name", ["nat0", "neg3", "odd3", "res-7-10", "matrix4"])
def test_equivalence_axioms_for_worked_structures(name):
    recipe = get_recipe(name)
    s = recipe.build(recipe.default_limit if name != "odd3" else 41)
    verdict = check_equivalence_axioms(s, recipe.exact_decision(), samples=100, seed=5)
    assert verdict.ok, verdict.failures[:3]
    assert verdict.transitivity_checked >= 100


def test_broken_rule_caught_by_cross_check():
    # tops-equal is reflexive, symmetric, transitive, but not the shift relation
    s = get_recipe("odd3").build(41)
    broken = ExactRule(lambda d1, d2: d1.top == d2.top, name="broken")
    verdict = check_equivalence_axioms(s, broken, samples=150, seed=5)
    assert not verdict.ok
    assert any(kind == "cross-check" for kind, _ in verdict.failures)


# ---------------------------------------------------------------------------
# partitions


def test_nat0_partition_counts_differences():
    recipe = get_recipe("nat0")
    s = recipe.build(10)
    part = partition_classes(s, all_doubles(s.carrier), recipe.exact_decision(),
                             canonical=recipe.canonical_double, tag="nat0")
    # oracle: classes biject with the differences n - m over 0..10
    diffs = {n - m for n in range(11) for m in range(11)}
    assert part.class_count() == len(diffs) == 21
    for rep in part.reps:
        assert rep == recipe.canonical_double(rep)
    assert sum(len(c) for c in part.classes) == len(part.domain)


def test_matrix_partition_is_single_class():
    recipe = get_recipe("matrix4")
    s = recipe.build(25)
    domain = all_doubles(s.carrier)[:50]
    part = partition_classes(s, domain, recipe.exact_decision(),
                             canonical=recipe.canonical_double, tag="matrix4")
    assert part.class_count() == 1


def test_neg_partition_groups_scalings():
    recipe = get_recipe("neg3")
    s = recipe.build(20)
    part = partition_classes(s, all_doubles(s.carrier), recipe.exact_decision(),
                             canonical=recipe.canonical_double, tag="neg3")
    c = part.resolve(Double(-3, -2))
    assert part.resolve(Double(-6, -4)) == c
    assert part.resolve(Double(-9, -6)) == c
    members = part.members_of(c.rep)
    assert Double(-3, -2) in members and Double(-6, -4) in members


def test_partition_aborts_on_unknown():
    s = get_recipe("odd3").build(21)
    with pytest.raises(BoundExhausted):
        partition_classes(s, all_doubles(s.carrier), WitnessSearch())


def test_partition_without_canonicalizer_uses_least_member():
    s = zmod_add(3, 2)
    part = partition_classes(s, all_doubles(s.carrier), WitnessSearch())
    # Z3 is a group: doubles collapse to 3 classes labeled by their least members
    assert part.class_count() == 3
    assert part.reps[0] == Double(0, 0)
    assert part.resolve(Double(2, 1)).rep in part.reps


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


@pytest.mark.parametrize("name, bounds", [
    ("nat0", (10, 30)),
    ("neg3", (10, 20)),
    ("odd3", (11, 21)),
    ("res-3-4", (30, 60)),
    ("res-7-10", (80, 200)),
    ("matrix4", (9, 25)),
])
def test_keyed_partition_matches_leader_scan(name, bounds):
    recipe = get_recipe(name)
    for bound in bounds:
        s = recipe.build(bound)
        domain = all_doubles(s.carrier)
        calls = []
        counted = ExactRule(lambda d1, d2: calls.append((d1, d2)) or recipe.exact_rule(d1, d2))
        part = partition_classes(s, domain, counted, canonical=recipe.canonical_double, tag=name)
        classes, reps = leader_scan_partition(s, domain, recipe.exact_decision(),
                                              recipe.canonical_double)
        assert part.classes == classes
        assert part.reps == reps
        for rep, members in zip(reps, classes):
            for d in members:
                assert part.resolve(d).rep == rep
        assert len(calls) == len(domain) - part.class_count()


def test_canonical_form_joining_inequivalent_doubles_is_reported():
    recipe = get_recipe("nat0")
    s = recipe.build(5)
    with pytest.raises(PolyadicError, match=r"joins inequivalent doubles Double\(top=0, bottom=0\)"
                                            r" and Double\(top=0, bottom=1\)"):
        partition_classes(s, all_doubles(s.carrier), recipe.exact_decision(),
                          canonical=lambda d: Double(0, 0))


def test_cli_classes_exits_1_on_a_joining_canonical_form(monkeypatch, capsys):
    broken = dataclasses.replace(get_recipe("nat0"), canonical_double=lambda d: Double(0, 0))
    monkeypatch.setattr(cli, "get_recipe", lambda name: broken)
    assert cli.main(["classes", "--structure", "nat0", "--bound", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "canonical form joins inequivalent doubles" in captured.err


def scan_resolve(part, d):
    """Partition.resolve as a scan over the representatives."""
    for r in part.reps:
        if decide_equivalent(part.structure, d, r, part.decision):
            return r
    raise PolyadicError(f"{d!r} matches no class")


def relabelled_z5():
    """Z5 under addition, elements stored under a scrambled labelling."""
    perm = [3, 0, 4, 1, 2]
    flat = [perm[(perm.index(a) + perm.index(b)) % 5] for a in range(5) for b in range(5)]
    return parse_table("\n".join(["arity 2", "size 5", *map(str, flat)]) + "\n")


@pytest.mark.parametrize("relation", [GAUGE, TWIST])
@pytest.mark.parametrize("structure", [zmod_add(6, 3), relabelled_z5()])
def test_resolve_by_index_matches_scan(structure, relation):
    part = partition_classes(structure, all_doubles(structure.carrier), WitnessSearch(relation))
    assert 1 < part.class_count() < len(part.domain)
    for d in part.domain:
        rep = part.resolve(d).rep
        assert rep == scan_resolve(part, d)
        assert d in part.members_of(rep)


def test_resolve_outside_a_subdomain_falls_back_to_scan():
    s = zmod_add(6, 2)
    part = partition_classes(s, all_doubles(s.carrier, bound=3), WitnessSearch())
    assert part.class_count() == 5          # differences -2..2 of 0..2
    outside = Double(5, 0)                  # difference 5 = -1 mod 6
    assert outside not in part.domain
    assert part.resolve(outside).rep == scan_resolve(part, outside) == Double(0, 1)
    with pytest.raises(PolyadicError, match="matches no class"):
        part.resolve(Double(3, 0))          # difference 3: no listed class


# ---------------------------------------------------------------------------
# class products


def test_neg_componentwise_class_product():
    K = completion_for("neg3", "componentwise-3")
    prod = K.product
    out = prod((cls("neg3", -2, -3), cls("neg3", -1, -5), cls("neg3", -3, -1)))
    # raw componentwise product (-6,-15) reduced by gcd 3
    assert out == cls("neg3", -2, -5)


def test_odd_componentwise_class_product():
    K = completion_for("odd3", "componentwise-3", limit=41)
    out = K.product((cls("odd3", 3, 1), cls("odd3", 5, 1), cls("odd3", 7, 1)))
    # differences add: 2+4+6 = 12 -> canonical (13, 1)
    assert out == cls("odd3", 13, 1)


def test_nat0_binary_class_product():
    K = completion_for("nat0", "componentwise-2", limit=20)
    out = K.product((cls("nat0", 5, 0), cls("nat0", 0, 3)))
    assert out == cls("nat0", 2, 0)


def test_class_product_warns_without_verdict():
    recipe = get_recipe("nat0")
    s = recipe.build(10)
    part = partition_classes(s, all_doubles(s.carrier), recipe.exact_decision(),
                             canonical=recipe.canonical_double, tag="nat0")
    with pytest.warns(UserWarning):
        class_product(part, builtin_quiver("componentwise-2"), s)


# ---------------------------------------------------------------------------
# well-definedness


def test_componentwise_products_are_well_defined():
    for name, quiver in [("neg3", "componentwise-3"), ("odd3", "componentwise-3")]:
        K = completion_for(name, quiver, limit=31 if name == "odd3" else None)
        assert K.report.ok
        wd = check_well_definedness(K.partition, K.quiver, K.base, samples=150, seed=3)
        assert wd.ok and wd.samples > 0


def test_post_ternary_products_are_well_defined():
    for name in ("neg3", "odd3"):
        K = completion_for(name, "post-ternary", limit=31 if name == "odd3" else None)
        assert K.report.ok


def test_residue_intact_product_not_well_defined_documented_counterexample():
    # hand oracle: with S1=(7,17) ~ S1'=(77,187) and S2=S3=(7,17) the wired
    # tops are 7^3*17^2 and 7^3*17^2*11^2 while both bottoms stay 17, and
    # cross-multiplication separates them
    top1 = 7 * 17 * 7 * 17 * 7
    top2 = 77 * 17 * 7 * 187 * 7
    assert top1 == 7 ** 3 * 17 ** 2
    assert top2 == 7 ** 3 * 17 ** 2 * 11 ** 2
    assert top1 * 17 != top2 * 17
    rule = get_recipe("res-7-10").exact_rule
    assert not rule(Double(top1, 17), Double(top2, 17))

    K = completion_for("res-7-10", "five-to-three-intact")
    assert not K.report.ok
    assert K.quer is None
    assert K.report.well_defined.startswith("counterexample")
    wd = check_well_definedness(K.partition, K.quiver, K.base, samples=200, seed=97)
    members, slot, alt, r1, r2 = wd.counterexample
    assert not rule(r1, r2)


# ---------------------------------------------------------------------------
# queroperations


def test_neg_componentwise_quer_swaps_components():
    K = completion_for("neg3", "componentwise-3")
    for p, q in [(2, 3), (1, 2), (5, 4), (1, 1)]:
        assert K.quer.mapping[cls("neg3", -p, -q)] == cls("neg3", -q, -p)
    assert K.quer.all_slots_ok()


def test_neg_post_quer_fixes_classes():
    K = completion_for("neg3", "post-ternary")
    assert K.quer.mode == QUER_POST
    for c in K.classes():
        assert K.quer.mapping[c] == c


def test_odd_quer_modes():
    Kc = completion_for("odd3", "componentwise-3", limit=41)
    assert Kc.quer.mapping[cls("odd3", 11, 1)] == cls("odd3", 1, 11)
    assert Kc.quer.mapping[cls("odd3", 1, 7)] == cls("odd3", 7, 1)
    assert Kc.quer.mapping[cls("odd3", 1, 1)] == cls("odd3", 1, 1)
    Kp = completion_for("odd3", "post-ternary", limit=41)
    for c in Kp.classes():
        assert Kp.quer.mapping[c] == c


def test_quer_search_mode_matches_formula():
    K = completion_for("nat0", "componentwise-2", limit=12)
    found = class_quer(K.partition, K.product, K.base, QUER_SEARCH)
    formula = class_quer(K.partition, K.product, K.base, QUER_COMPONENTWISE)
    # binary quer equation op[c, q] = c forces q to be the neutral class
    neutral = neutral_class(K)
    for c in K.classes():
        assert found.mapping[c] == formula.mapping[c] == neutral


def test_symmetric_exponent_quer_candidate_fails_on_residue_intact_product():
    # candidate (a^3 b^2, a^2 b^3) substituted at the defining slot of the
    # intact-wired ternary class product gives (a^2 b^2 * a^3 b^2, a^2 b^3),
    # which cross-multiplies against (a, b) to a^5 b^5 vs a^3 b^3: unequal
    a, b = 7, 17
    quer_top, quer_bottom = a ** 3 * b ** 2, a ** 2 * b ** 3
    wired_top = a * b * quer_top * b * a
    wired_bottom = quer_bottom
    rule = get_recipe("res-7-10").exact_rule
    assert not rule(Double(wired_top, wired_bottom), Double(a, b))


def test_quer_formula_failure_is_reported():
    # searching a quer against the residue intact product finds nothing:
    # the product is not even representative-independent
    from polygroth import check_total_associativity, hetero_power

    recipe = get_recipe("res-7-10")
    s = recipe.build(200)
    q = builtin_quiver("five-to-three-intact")
    part = partition_classes(s, all_doubles(s.carrier), recipe.exact_decision(),
                             canonical=recipe.canonical_double, tag="res")
    verdict = check_total_associativity(hetero_power(s, q).structure, CheckMode.sampled(200, 1))
    prod = class_product(part, q, s, assoc_verdict=verdict)
    with pytest.raises((QuerFormulaFailsVerification, QuerNotFound)):
        class_quer(part, prod, s, QUER_SEARCH)


# ---------------------------------------------------------------------------
# full pipeline


def test_nat0_completion_recovers_integers_locally():
    K = completion_for("nat0", "componentwise-2", limit=10)
    assert K.report.ok
    assert K.partition.class_count() == 21
    diff = {c: c.rep.top - c.rep.bottom for c in K.classes()}
    assert sorted(diff.values()) == list(range(-10, 11))
    for c1, c2 in itertools.product(K.classes(), repeat=2):
        if abs(diff[c1] + diff[c2]) <= 10:
            out = K.product((c1, c2))
            assert out.rep.top - out.rep.bottom == diff[c1] + diff[c2]


def test_matrix_completion_is_trivial_group():
    K = completion_for("matrix4", "componentwise-4")
    assert K.report.ok
    assert K.partition.class_count() == 1
    assert "exhaustive solvability" in K.report.group
    only = K.classes()[0]
    assert K.quer.mapping[only] == only


def test_completion_with_nonassociative_quiver_reports_failure():
    # the crosswise binary wiring is not associative, so the pipeline stops
    # with an honest report and never builds a quer
    recipe = get_recipe("nat0")
    s = recipe.build(10)
    with pytest.warns(UserWarning, match="failed associativity"):
        K = build_completion(s, builtin_quiver("twisted-binary"), recipe.exact_decision(),
                             canonical=recipe.canonical_double, tag="nat0")
    assert not K.report.ok
    assert K.quer is None
    assert K.report.group.startswith("failed(doubles associativity")
    assert "failed" in K.report.associative


def test_completion_arity_mismatch():
    from polygroth.errors import ArityMismatch

    recipe = get_recipe("neg3")
    with pytest.raises(ArityMismatch):
        build_completion(recipe.build(10), builtin_quiver("componentwise-2"),
                         recipe.exact_decision())


def test_completion_json_schema_and_determinism():
    K1 = completion_for("neg3", "componentwise-3", limit=8)
    K2 = completion_for("neg3", "componentwise-3", limit=8)
    j1, j2 = completion_to_json(K1), completion_to_json(K2)
    assert json.dumps(j1) == json.dumps(j2)
    assert list(j1.keys()) == ["m", "n", "quiver", "classes", "quer", "report"]
    assert list(j1["report"].keys()) == ["associative", "well_defined", "group"]
    assert all(list(c.keys()) == ["rep", "size_hint"] for c in j1["classes"])
    assert all(c["size_hint"] == "infinite" for c in j1["classes"])
    assert ["-2", "-3"] in [entry[0] for entry in j1["quer"]]


def test_tiny_nat0_completion_golden():
    # hand-checked: doubles over {0,1,2} split into 5 difference classes and
    # the binary quer equation sends every class to the neutral one
    K = completion_for("nat0", "componentwise-2", limit=2, samples=200, seed=97)
    j = completion_to_json(K)
    assert j["m"] == 2 and j["n"] == 2
    assert j["quiver"] == "2<-2 intact=0; top=(1,T)(2,T); bottom=(1,B)(2,B)"
    assert [c["rep"] for c in j["classes"]] == [
        ["0", "0"], ["0", "1"], ["0", "2"], ["1", "0"], ["2", "0"]]
    assert all(c["size_hint"] == "infinite" for c in j["classes"])
    assert [q for _, q in j["quer"]] == [["0", "0"]] * 5
    assert j["report"]["group"].startswith("group(diagrammatic")


def test_distinct_class_quiver_warns():
    recipe = get_recipe("neg3")
    s = recipe.build(8)
    with pytest.warns(UserWarning, match="distinct quivers"):
        build_completion(s, builtin_quiver("componentwise-3"), recipe.exact_decision(),
                         quer_mode="componentwise", canonical=recipe.canonical_double,
                         class_quiver=builtin_quiver("post-ternary"))


def test_finite_table_completion_has_exact_size_hints():
    s = zmod_add(3, 2)
    K = build_completion(s, builtin_quiver("componentwise-2"), WitnessSearch(), tag="z3")
    j = completion_to_json(K)
    assert [c["size_hint"] for c in j["classes"]] == [3, 3, 3]
    assert K.report.ok and "exhaustive solvability" in K.report.group


def test_default_mode_proves_ternary_z5_doubles_exhaustively():
    # 25^5 = 9,765,625 tuples: under the exhaustive cutoff, so proved rather
    # than sampled.  The twist-class invariant 2(a-b) mod 5 keeps the
    # partition cheap.
    s = zmod_add(5, 3)
    twist = ExactRule(lambda d1, d2: 2 * (d1.top - d1.bottom - d2.top + d2.bottom) % 5 == 0)
    K = build_completion(s, builtin_quiver("post-ternary"), twist)
    assert K.report.associative == "proved-exhaustive(9765625)"


# ---------------------------------------------------------------------------
# binary embedding, inverse, universal property


def test_phi_sg_values():
    K = completion_for("nat0", "componentwise-2", limit=20)
    assert phi_sg(K, 5) == cls("nat0", 5, 0)
    assert phi_sg(K, 0) == neutral_class(K) == cls("nat0", 0, 0)
    rng = random.Random(2)
    for _ in range(30):
        a, b = rng.randrange(10), rng.randrange(10)
        assert K.product((phi_sg(K, a), phi_sg(K, b))) == phi_sg(K, a + b)


def test_class_inverse():
    K = completion_for("nat0", "componentwise-2", limit=20)
    c = cls("nat0", 7, 0)
    assert class_inverse(K, c) == cls("nat0", 0, 7)
    assert K.product((c, class_inverse(K, c))) == neutral_class(K)


def test_universal_factorization_into_integers():
    K = completion_for("nat0", "componentwise-2", limit=40)
    verdict = check_universal_factorization(K, integers_group(400), lambda x: x,
                                            samples=100, seed=11)
    assert verdict.ok and verdict.samples == 100


def test_universal_factorization_into_z6():
    K = completion_for("nat0", "componentwise-2", limit=40)
    verdict = check_universal_factorization(K, integers_mod_group(6), lambda x: x % 6,
                                            samples=100, seed=11)
    assert verdict.ok


def test_universal_rejects_non_homomorphism():
    K = completion_for("nat0", "componentwise-2", limit=20)
    with pytest.raises(NotAHomomorphism):
        check_universal_factorization(K, integers_group(4000), lambda x: x * x,
                                      samples=100, seed=11)
