import collections
import dataclasses
import itertools
import json
import math
import random
import warnings

import pytest

from polygroth import (
    CheckMode,
    ClassDouble,
    Double,
    ExactRule,
    FiniteCarrier,
    PolyadicStructure,
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
    class_structure,
    completion_to_json,
    decide_equivalent,
    format_table,
    gauge_equivalent,
    gauge_witness,
    get_recipe,
    hetero_power,
    integers_group,
    integers_mod_group,
    neutral_class,
    parse_table,
    partition_classes,
    phi_sg,
    swap_picks,
    twist_equivalent,
    twist_witness,
    zmod_add,
    zmod_mul,
)
from polygroth import cli, completion
from polygroth.completion import (
    GAUGE,
    QUER_COMPONENTWISE,
    QUER_POST,
    QUER_SEARCH,
    TWIST,
    CompletionReport,
)
from polygroth.core import (
    _cancels,
    _index_table,
    _placements_disagree,
    _quer_search,
    _quer_slots,
    _solvability_scan,
)
from polygroth.errors import (
    BoundExhausted,
    NonMember,
    NotAHomomorphism,
    PolyadicError,
    QuerFormulaFailsVerification,
    QuerNotFound,
    QuerNotUnique,
    UsageError,
)


def completion_for(name, quiver_name, limit=None, quer_mode="auto", samples=200, seed=97):
    recipe = get_recipe(name)
    s = recipe.build(limit if limit is not None else recipe.default_limit)
    return build_completion(
        s, builtin_quiver(quiver_name), recipe.exact_decision(),
        quer_mode=quer_mode, canonical=recipe.canonical_double,
        samples=samples, seed=seed,
    )


def cls(a, b):
    return ClassDouble(Double(a, b))


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


@pytest.mark.parametrize("k, arity", [(2, 5), (3, 6)])
@pytest.mark.parametrize("relation", [GAUGE, TWIST])
def test_equivalence_axioms_on_carriers_smaller_than_the_pad(k, arity, relation):
    # the transitivity witness pads with arity - 2 spectators, more than k
    verdict = check_equivalence_axioms(zmod_add(k, arity), WitnessSearch(relation),
                                       samples=50, seed=3)
    assert verdict.ok, verdict.failures[:3]
    assert verdict.transitivity_checked == 50


def test_broken_rule_caught_by_cross_check():
    # tops-equal is reflexive, symmetric, transitive, but not the shift relation
    s = get_recipe("odd3").build(41)
    broken = ExactRule(lambda d1, d2: d1.top == d2.top)
    verdict = check_equivalence_axioms(s, broken, samples=150, seed=5)
    assert not verdict.ok
    assert any(kind == "cross-check" for kind, _ in verdict.failures)


# ---------------------------------------------------------------------------
# partitions


def test_nat0_partition_counts_differences():
    recipe = get_recipe("nat0")
    s = recipe.build(10)
    part = partition_classes(s, all_doubles(s.carrier), recipe.exact_decision(),
                             canonical=recipe.canonical_double)
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
                             canonical=recipe.canonical_double)
    assert part.class_count() == 1


def test_neg_partition_groups_scalings():
    recipe = get_recipe("neg3")
    s = recipe.build(20)
    part = partition_classes(s, all_doubles(s.carrier), recipe.exact_decision(),
                             canonical=recipe.canonical_double)
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
        part = partition_classes(s, domain, counted, canonical=recipe.canonical_double)
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
    out = prod((cls(-2, -3), cls(-1, -5), cls(-3, -1)))
    # raw componentwise product (-6,-15) reduced by gcd 3
    assert out == cls(-2, -5)


def test_odd_componentwise_class_product():
    K = completion_for("odd3", "componentwise-3", limit=41)
    out = K.product((cls(3, 1), cls(5, 1), cls(7, 1)))
    # differences add: 2+4+6 = 12 -> canonical (13, 1)
    assert out == cls(13, 1)


def test_nat0_binary_class_product():
    K = completion_for("nat0", "componentwise-2", limit=20)
    out = K.product((cls(5, 0), cls(0, 3)))
    assert out == cls(2, 0)


def test_class_product_warns_without_verdict():
    recipe = get_recipe("nat0")
    s = recipe.build(10)
    part = partition_classes(s, all_doubles(s.carrier), recipe.exact_decision(),
                             canonical=recipe.canonical_double)
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
        assert K.quer.mapping[cls(-p, -q)] == cls(-q, -p)
    assert K.quer.all_slots_ok()


def test_neg_post_quer_fixes_classes():
    K = completion_for("neg3", "post-ternary")
    assert K.quer.mode == QUER_POST
    for c in K.classes():
        assert K.quer.mapping[c] == c


def test_auto_quer_mode_follows_the_wiring_not_the_name():
    scrambled = swap_picks(builtin_quiver("componentwise-3"), ("top", 1), ("bottom", 1))
    post = builtin_quiver("post-ternary")
    assert scrambled == post and scrambled.name != post.name
    K = build_completion(zmod_add(3, 3), scrambled, WitnessSearch())
    want = build_completion(zmod_add(3, 3), post, WitnessSearch())
    assert K.quer.mode == want.quer.mode == QUER_POST
    assert K.report == want.report and K.report.ok
    assert K.quer.mapping == want.quer.mapping
    # a scramble that is wired like no built-in searches; built-ins keep their mode
    other = swap_picks(builtin_quiver("componentwise-3"), ("top", 0), ("bottom", 0))
    assert completion._auto_quer_mode(other, 3) == QUER_SEARCH
    assert completion._auto_quer_mode(builtin_quiver("componentwise-5"), 5) == QUER_COMPONENTWISE
    assert completion._auto_quer_mode(builtin_quiver("post-5ary"), 5) == QUER_SEARCH


def test_odd_quer_modes():
    Kc = completion_for("odd3", "componentwise-3", limit=41)
    assert Kc.quer.mapping[cls(11, 1)] == cls(1, 11)
    assert Kc.quer.mapping[cls(1, 7)] == cls(7, 1)
    assert Kc.quer.mapping[cls(1, 1)] == cls(1, 1)
    Kp = completion_for("odd3", "post-ternary", limit=41)
    for c in Kp.classes():
        assert Kp.quer.mapping[c] == c


def test_quer_search_mode_matches_formula():
    K = completion_for("nat0", "componentwise-2", limit=12)
    classes = class_structure(K.partition, K.product)
    found = class_quer(K.partition, classes, K.base, QUER_SEARCH)
    formula = class_quer(K.partition, classes, K.base, QUER_COMPONENTWISE)
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
                             canonical=recipe.canonical_double)
    verdict = check_total_associativity(hetero_power(s, q).structure, CheckMode.sampled(200, 1))
    prod = class_product(part, q, s, assoc_verdict=verdict)
    with pytest.raises((QuerFormulaFailsVerification, QuerNotFound)):
        class_quer(part, class_structure(part, prod), s, QUER_SEARCH)


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
                             canonical=recipe.canonical_double)
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


def binary_2_table(cells):
    return parse_table("\n".join(["arity 2", "size 2", *map(str, cells)]) + "\n")


GROUP_STAGE_PINS = [
    # left projection: no cancellation, so the identities fail
    ([0, 0, 1, 1], WitnessSearch(GAUGE), 307, 50,
     "failed(cancellation identities at [1;1],[0;0]; 4-double domain)"),
    ([1, 0, 1, 1], ExactRule(lambda a, b: a.bottom == b.bottom), 2848, 50,
     "failed(class associativity at ([0;0], [0;0], [0;0]); 4-double domain)"),
    ([0, 0, 1, 1], WitnessSearch(TWIST), 0, 1,
     "failed(solvability at slot 1, ([0;0],); 4-double domain)"),
]


@pytest.mark.parametrize("cells,dec,seed,samples,want", GROUP_STAGE_PINS)
def test_group_stage_failure_strings_are_pinned(cells, dec, seed, samples, want):
    K = build_completion(binary_2_table(cells), builtin_quiver("componentwise-2"), dec,
                         assoc_mode=CheckMode.sampled(3, seed), samples=samples, seed=seed)
    assert K.report.group == want
    assert not K.report.ok


def test_group_stage_pass_string_and_quer_are_pinned():
    K = build_completion(zmod_add(5, 3), builtin_quiver("post-ternary"), WitnessSearch(GAUGE),
                         assoc_mode=CheckMode.sampled(3, 5))
    assert K.report.ok
    assert K.report.group == (
        "group(exhaustive solvability; quer at all slots; 25-double domain)")
    searched = class_quer(K.partition, class_structure(K.partition, K.product), K.base,
                          QUER_SEARCH)
    assert searched.mapping == K.quer.mapping
    assert searched.slot_ok == K.quer.slot_ok


def test_class_group_checks_make_one_product_per_class_tuple(monkeypatch):
    # the class table is compiled once, before the quer, and every class-level
    # check reads it: a whole exhaustive completion evaluates the class
    # product once per tuple, C^n = 7^3, however many samples it draws
    calls = []

    def counted_product(*args, **kwargs):
        product = class_product(*args, **kwargs)

        def fn(t):
            calls.append(t)
            return product.fn(t)

        return dataclasses.replace(product, fn=fn)

    monkeypatch.setattr(completion, "class_product", counted_product)
    K = build_completion(zmod_add(7, 3), builtin_quiver("post-ternary"), WitnessSearch(GAUGE),
                         assoc_mode=CheckMode.sampled(10, 1), samples=200)
    assert K.partition.class_count() == 7
    assert K.report.group == "group(exhaustive solvability; quer at all slots; 49-double domain)"
    assert len(calls) == 7 ** 3
    assert len(set(calls)) == 7 ** 3


def product_backed_group_stage(part, product, base, quer_mode, samples, seed):
    """Reference class stage that evaluates the class product on every call,
    compiling the class table only for solvability: (group string, ok, quer)."""
    cs = PolyadicStructure(FiniteCarrier(part.class_doubles()), product)
    cds = cs.carrier.elements()
    m, n = base.arity, product.arity
    mapping, slot_ok = {}, {}
    try:
        for c in cds:
            a, b = c.rep
            if quer_mode == QUER_COMPONENTWISE:
                q = part.resolve(Double(base.op.fn((a,) + (b,) * (m - 1)),
                                        base.op.fn((a,) * (m - 1) + (b,))))
            elif quer_mode == QUER_POST:
                if m != 3:
                    raise UsageError("the Post-style quer formula applies to ternary products")
                q = part.resolve(Double(base.op.fn((a, a, b)), base.op.fn((a, b, b))))
            else:
                q = _quer_search(cs, c, cds)
            verdicts = tuple(_quer_slots(cs, c, q))
            if not verdicts[-1]:
                raise QuerFormulaFailsVerification(c, f"candidate {q} at the defining slot")
            mapping[c], slot_ok[c] = q, verdicts
    except (QuerNotFound, QuerNotUnique, QuerFormulaFailsVerification) as exc:
        return f"failed(quer: {exc})", False, None
    quer = (mapping, slot_ok)
    rng = random.Random(seed)
    for _ in range(samples):
        t = tuple(rng.choice(cds) for _ in range(2 * n - 1))
        if _placements_disagree(cs, t) is not None:
            return f"failed(class associativity at {t})", False, quer
    for _ in range(samples):
        g, h = rng.choice(cds), rng.choice(cds)
        if not _cancels(cs, g, h, mapping[h]):
            return f"failed(cancellation identities at {g},{h})", False, quer
    slots = "all slots" if all(all(v) for v in slot_ok.values()) else "defining slot only"
    if len(cds) ** (n + 1) <= 200_000:
        try:
            _index_table(cs)
        except NonMember:
            pass
        else:
            failures, _ = _solvability_scan(cs, max_failures=1)
            if failures:
                i, others = failures[0]
                return f"failed(solvability at slot {i}, {others})", False, quer
            return f"group(exhaustive solvability; quer at {slots})", True, quer
    return f"group(diagrammatic on truncated class set; quer at {slots})", True, quer


def reference_completion(s, quiver, dec, quer_mode, canonical, assoc_mode, samples, seed,
                         domain):
    """(CompletionReport, (quer mapping, quer slots) or None) of build_completion,
    with the product-backed class stage."""
    assoc = check_total_associativity(hetero_power(s, quiver).structure, assoc_mode)
    part = partition_classes(s, domain, dec, canonical=canonical)
    product = class_product(part, quiver, s, assoc_verdict=assoc)
    wd = check_well_definedness(part, quiver, s, samples=samples, seed=seed)
    note = f"{len(domain)}-double domain"
    quer = None
    if not assoc.ok:
        group, ok = f"failed(doubles associativity; {note})", False
    elif not wd.ok:
        group, ok = f"failed(well-definedness; {note})", False
    else:
        if quer_mode == "auto":
            quer_mode = completion._auto_quer_mode(quiver, s.arity)
        group, ok, quer = product_backed_group_stage(part, product, s, quer_mode, samples, seed)
        group = f"{group[:-1]}; {note})"
    report = CompletionReport(str(assoc), str(wd), group, len(domain), ok)
    return report, quer


def random_stage_case(rng):
    k, m = rng.choice([2, 3, 4]), rng.choice([2, 3])
    kind = rng.choice(["random", "random", "add", "mul"])
    cells = [rng.randrange(k) if kind == "random"
             else (sum(t) if kind == "add" else math.prod(t)) % k
             for t in itertools.product(range(k), repeat=m)]
    s = parse_table("\n".join([f"arity {m}", f"size {k}", *map(str, cells)]) + "\n")
    names = (["componentwise-2", "twisted-binary"] if m == 2 else
             ["componentwise-3", "post-ternary", "ternary-to-binary-a", "ternary-to-binary-b"])
    quiver = builtin_quiver(rng.choice(names))
    if rng.random() < 0.15:
        quiver = swap_picks(quiver, ("top", 0), ("bottom", 0))
    dec = rng.choice([
        WitnessSearch(GAUGE), WitnessSearch(TWIST),
        ExactRule(lambda a, b: a.bottom == b.bottom),
        ExactRule(lambda a, b: a.top == b.top),
        ExactRule(lambda a, b, k=k: (a.top - a.bottom - b.top + b.bottom) % k == 0),
    ])
    elems = s.carrier.elements()
    domain = all_doubles(s.carrier)
    canonical = None
    truncation = rng.choice(["none", "none", "prefix", "prefix", "subset"])
    if truncation == "prefix":
        domain = [Double(a, b) for a in elems[:k - 1] for b in elems]
        canonical = rng.choice([None, lambda d: d])
    elif truncation == "subset":  # products may match no class at all
        domain = rng.sample(domain, rng.randrange(2, len(domain)))
    quer_mode = rng.choice(["auto", QUER_COMPONENTWISE, QUER_POST, QUER_SEARCH])
    # a random table is rarely associative, so most cases skip the doubles'
    # associativity (zero samples) to reach the class stage
    assoc_mode = CheckMode.exhaustive() if rng.random() < 0.2 else CheckMode.sampled(0, 0)
    return dict(s=s, quiver=quiver, dec=dec, quer_mode=quer_mode, canonical=canonical,
                assoc_mode=assoc_mode, samples=rng.choice([0, 0, 1, 3, 10, 40]),
                seed=rng.randrange(1000), domain=domain)


def outcome(run):
    try:
        return run()
    except PolyadicError as exc:
        return type(exc), str(exc)


def test_table_backed_class_stage_matches_product_backed_reference():
    rng = random.Random(20261018)
    # the quer and zero samples never meet the product that matches no class,
    # so only the group stage's closure check can raise
    unresolvable = dict(
        s=parse_table(format_table(zmod_add(3, 3))), quiver=builtin_quiver("post-ternary"),
        dec=WitnessSearch(TWIST), quer_mode=QUER_SEARCH, canonical=None,
        assoc_mode=CheckMode.sampled(0, 0), samples=0, seed=0,
        domain=[Double(1, 0), Double(2, 2), Double(2, 1)])
    seen = collections.Counter()
    for case in [unresolvable] + [random_stage_case(rng) for _ in range(600)]:

        def table_backed():
            K = build_completion(case["s"], case["quiver"], case["dec"], case["quer_mode"],
                                 canonical=case["canonical"], assoc_mode=case["assoc_mode"],
                                 samples=case["samples"], seed=case["seed"],
                                 domain=case["domain"])
            quer = None if K.quer is None else (K.quer.mapping, K.quer.slot_ok)
            return K.report, quer

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = outcome(table_backed)
            want = outcome(lambda: reference_completion(**case))
        assert got == want, case
        if isinstance(want[0], CompletionReport):
            seen[want[0].group] += 1
            if want[1] is not None:
                seen[case["quer_mode"]] += 1
        else:
            seen[want[0].__name__] += 1
    branches = ["group(exhaustive solvability", "group(diagrammatic on truncated class set",
                "failed(class associativity", "failed(cancellation identities",
                "failed(solvability", "failed(quer: no querelement for",
                "failed(quer: querelement of", "failed(quer: quer candidate",
                "failed(well-definedness", "failed(doubles associativity"]
    for branch in branches:
        assert sum(n for got, n in seen.items() if got.startswith(branch)) >= 3, (branch, seen)
    for key in ["auto", QUER_COMPONENTWISE, QUER_POST, QUER_SEARCH, "PolyadicError", "UsageError"]:
        assert seen[key] >= 3, (key, seen)


def test_class_table_multiplies_unlisted_classes_by_the_product():
    # the listed classes [0;0] and [2;0] of Z4 are closed, so their table
    # compiles; a class outside them, such as a formula quer may name, is
    # still multiplied by the class product
    s = zmod_add(4, 2)
    part = partition_classes(s, [Double(a, b) for a in (0, 2) for b in (0, 2)],
                             ExactRule(lambda x, y: (x.top - x.bottom - y.top + y.bottom) % 4 == 0),
                             canonical=lambda d: Double((d.top - d.bottom) % 4, 0))
    product = class_product(part, builtin_quiver("componentwise-2"), s,
                            assoc_verdict=check_total_associativity(s, CheckMode.exhaustive()))
    cs = class_structure(part, product)
    assert cs.facts["index_table"] == ((0, 1, 1, 0), 2)
    listed, outside = cs.carrier.elements(), ClassDouble(Double(1, 0))
    for t in itertools.product(listed + [outside], repeat=2):
        assert cs.op.fn(t) == product.fn(t)
    assert cs.op.fn((outside, listed[1])) == ClassDouble(Double(3, 0))


def test_witness_search_rejects_unknown_relations():
    for relation in ("Gauge", "twisted", ""):
        with pytest.raises(UsageError, match="relation"):
            WitnessSearch(relation)
    # gauge and twist split this table differently, so a misspelt relation
    # could not silently pass for either
    s = parse_table("\n".join(["arity 2", "size 3", *"020112002"]) + "\n")
    domain = all_doubles(s.carrier)
    gauge = partition_classes(s, domain, WitnessSearch(GAUGE))
    twist = partition_classes(s, domain, WitnessSearch(TWIST))
    assert (gauge.class_count(), twist.class_count()) == (3, 2)


def test_finite_table_completion_has_exact_size_hints():
    s = zmod_add(3, 2)
    K = build_completion(s, builtin_quiver("componentwise-2"), WitnessSearch())
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
    assert phi_sg(K, 5) == cls(5, 0)
    assert phi_sg(K, 0) == neutral_class(K) == cls(0, 0)
    rng = random.Random(2)
    for _ in range(30):
        a, b = rng.randrange(10), rng.randrange(10)
        assert K.product((phi_sg(K, a), phi_sg(K, b))) == phi_sg(K, a + b)


def test_class_inverse():
    K = completion_for("nat0", "componentwise-2", limit=20)
    c = cls(7, 0)
    assert class_inverse(K, c) == cls(0, 7)
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
