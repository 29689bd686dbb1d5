import collections
import dataclasses
import itertools
import json
import math
import operator
import random
import re

import pytest

from polygroth import (
    CheckMode,
    ClassDouble,
    Double,
    ExactRule,
    FiniteCarrier,
    NAryOperation,
    PolyadicStructure,
    QuiverSpec,
    RuleCarrier,
    Verdict,
    WitnessSearch,
    all_doubles,
    apply_quiver,
    build_completion,
    builtin_quiver,
    check_equivalence_axioms,
    check_relation_coincidence,
    check_total_associativity,
    check_universal_factorization,
    check_well_definedness,
    class_inverse,
    class_quer,
    class_structure,
    commutativity_report,
    completion_to_json,
    decide_equivalent,
    derived_structure,
    format_table,
    gauge_witness,
    get_recipe,
    hetero_power,
    integers_group,
    integers_mod_group,
    parse_table,
    partition_classes,
    phi_sg,
    swap_picks,
    twist_witness,
    zmod_add,
    zmod_mul,
)
from polygroth import cli, completion, core
from polygroth.completion import (
    GAUGE,
    TWIST,
    CoincidenceVerdict,
    CompletionReport,
)
from polygroth.core import (
    _cancels,
    _index_table,
    _quer_search,
    _sole_quer,
    verify_polyadic_group,
)
from polygroth.errors import (
    ArityMismatch,
    BoundExhausted,
    NoClassMatch,
    NonMember,
    PolyadicError,
    QuerNotFound,
    QuerNotUnique,
    QuerPlacementFailed,
    UsageError,
)
from reference import (
    BUILTIN_NAMES, PlainShifts, completion_for, count_calls, counted_zmod_add, every_wiring,
    flat_table, leader_scan_partition, quer_search_reference, relabelled, relabelled_flat,
    scan_resolve, well_definedness_reference,
)


def cls(a, b):
    return ClassDouble(Double(a, b))


def quer_slot_failure(classes, g, q):
    """The first slot i at which op[g^i, q, g^(n-1-i)] = g fails, else None."""
    n = classes.arity
    return next((i for i in range(n)
                 if classes.op.fn((g,) * i + (q,) + (g,) * (n - 1 - i)) != g), None)


def quer_kind(quiver, base):
    """'formula' when the wiring has a closed-form quer candidate, else 'search'."""
    return "search" if completion._quer_formula(quiver, base) is None else "formula"


def counting_quer_rows(monkeypatch):
    """The classes whose quer class_quer searches a row for, logged as it runs."""
    searched, quer_row = [], completion._quer_row

    def counting(part, quiver):
        row = quer_row(part, quiver)
        return lambda g, elems: searched.append(g) or row(g, elems)

    monkeypatch.setattr(completion, "_quer_row", counting)
    return searched


def quer_outcomes(part, quiver):
    """class_quer's quer map or failure, and the plain search's (see
    quer_search_reference) with the classes that map names outside the
    listed ones as further candidates."""
    got = outcome(lambda: class_quer(part, class_structure(part, quiver), quiver).mapping)
    listed = set(part.class_doubles())
    unlisted = [q for q in got.values() if q not in listed] if isinstance(got, dict) else []
    return got, outcome(lambda: quer_search_reference(part, quiver, dict.fromkeys(unlisted)))


def unmemoised_product(part, quiver, base):
    """The class product, evaluated afresh on every call."""
    return NAryOperation(quiver.output_arity, lambda cds: part.resolve(
        apply_quiver(quiver, base.op, [cd.rep for cd in cds])))


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
    assert decide_equivalent(s, Double(3, 1), Double(5, 3), WitnessSearch(TWIST))
    assert twist_witness(s, Double(3, 1), Double(5, 3)) == 1  # any z works; first is returned


def test_twist_search_unknown_on_infinite_carrier():
    s = get_recipe("odd3").build(41)
    with pytest.raises(BoundExhausted):
        decide_equivalent(s, Double(3, 1), Double(3, 5), WitnessSearch(TWIST))


def test_search_definite_false_on_finite_carrier():
    s = zmod_add(3, 2)
    twist, gauge = WitnessSearch(TWIST), WitnessSearch(GAUGE)
    # z = 1+z mod 3 has no solution: exhaustion of a finite carrier is a proof
    assert not decide_equivalent(s, Double(0, 0), Double(1, 0), twist)
    assert not decide_equivalent(s, Double(0, 0), Double(1, 0), gauge)
    assert decide_equivalent(s, Double(0, 0), Double(1, 1), twist)


def test_exact_rule_dispatch():
    s = get_recipe("nat0").build(10)
    dec = get_recipe("nat0").exact_decision()
    assert decide_equivalent(s, Double(3, 1), Double(5, 3), dec)
    assert not decide_equivalent(s, Double(3, 1), Double(1, 3), dec)
    # the rule decides even where a witness search would answer otherwise
    assert not decide_equivalent(s, Double(3, 1), Double(3, 1), ExactRule(lambda a, b: False))


def test_matrix_every_pair_equivalent_by_search():
    s = get_recipe("matrix4").build(25)
    d1, d2 = Double((1, 0), (0, -1)), Double((-1, 0), (2, 1))
    assert decide_equivalent(s, d1, d2, WitnessSearch(TWIST))


def random_table(rng, k, m):
    """A seeded parse_table structure that is neither associative nor cancellative."""
    while True:
        flat = [rng.randrange(k) for _ in range(k ** m)]
        s = flat_table(k, m, flat)
        cancellative = all(
            len({s.op.fn(rest[:i] + (x,) + rest[i:]) for x in range(k)}) == k
            for i in range(m) for rest in itertools.product(range(k), repeat=m - 1)
        )
        if not cancellative and not check_total_associativity(s, CheckMode.exhaustive()).ok:
            return s


def assert_shift_rows_match_plain(s, monkeypatch):
    """Witnesses, decisions, equivalence axioms and coincidence on s agree
    with the plain reference; returns the reference's decisions."""
    doubles = all_doubles(s.carrier)
    pairs = list(itertools.product(doubles, repeat=2))

    def results():
        return {
            "gauge": [completion.gauge_witness(s, *p) for p in pairs],
            "twist": [completion.twist_witness(s, *p) for p in pairs],
            "decisions": {r: [completion.decide_equivalent(s, *p, WitnessSearch(r)) for p in pairs]
                          for r in (GAUGE, TWIST)},
            "axioms": [str(check_equivalence_axioms(s, WitnessSearch(r), samples=40, seed=7))
                       for r in (GAUGE, TWIST)],
        }

    got = results()
    with monkeypatch.context() as patch:
        patch.setattr(completion, "_shift_kernel", PlainShifts)
        want = results()
    assert got == want
    gauge, twist = want["decisions"][GAUGE], want["decisions"][TWIST]
    n = len(doubles)
    bad = tuple(((doubles[i], doubles[j]), gauge[i * n + j], twist[i * n + j])
                for i in range(n) for j in range(i, n) if gauge[i * n + j] != twist[i * n + j])
    assert check_relation_coincidence(s) == CoincidenceVerdict(not bad, n * (n + 1) // 2, bad)
    return want["decisions"]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_table_decisions_agree_with_witness_search(k, m, monkeypatch):
    # on a finite carrier the relations read the index table; the plain
    # search over the whole carrier is the reference, a miss a definite False
    rng = random.Random(f"shift/{k}/{m}")
    s = random_table(rng, k, m)
    for structure in (s, relabelled(s, rng)):
        decisions = assert_shift_rows_match_plain(structure, monkeypatch)
        if k >= 4:
            assert {*decisions[GAUGE], *decisions[TWIST]} == {True, False}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_rule_carrier_search_agrees_with_the_table(m):
    # the same table on a rule carrier takes the witness-search kernel: it
    # finds the table kernel's witnesses, holds where it holds, and reads a
    # miss as unknown, not False
    rng = random.Random(f"rule/{m}")
    s = random_table(rng, 4, m)
    elems = s.carrier.elements()
    r = PolyadicStructure(RuleCarrier(lambda x: x in elems, elems), s.op)
    for d1, d2 in itertools.product(all_doubles(s.carrier), repeat=2):
        assert gauge_witness(r, d1, d2) == gauge_witness(s, d1, d2)
        assert twist_witness(r, d1, d2) == twist_witness(s, d1, d2)
        x, y = rng.choice(elems), rng.choice(elems)
        for relation in (GAUGE, TWIST):
            assert (completion._shift_kernel(r).holds_at(relation, d1, d2, x, y)
                    == completion._shift_kernel(s).holds_at(relation, d1, d2, x, y))
            if decide_equivalent(s, d1, d2, WitnessSearch(relation)):
                assert decide_equivalent(r, d1, d2, WitnessSearch(relation))
            else:
                with pytest.raises(BoundExhausted):
                    decide_equivalent(r, d1, d2, WitnessSearch(relation))


def test_coincidence_reports_where_the_relations_differ(monkeypatch):
    s = flat_table(3, 2, "020112002")
    assert_shift_rows_match_plain(s, monkeypatch)
    verdict = check_relation_coincidence(s)
    assert not verdict.identical and verdict.pairs_checked == 45
    assert str(verdict).startswith("partitions differ at (((Double(top=0, bottom=0)")


def test_finite_decisions_run_no_witness_search(monkeypatch):
    # the shift relations read the index table: partitions, coincidence and
    # witnesses evaluate no operation on a parse_table base, and a derived
    # base pays its k^2 binary calls once, for its binary table (a ternary
    # product would add binary calls)
    def refuse(*args):
        raise AssertionError("operation or witness search evaluated")

    monkeypatch.setattr(completion, "iterated_eval", refuse)
    parsed = parse_table(format_table(zmod_add(6, 3)))
    derived, binary = counted_zmod_add(6, 3)
    for s, calls, compiled in ((parsed, count_calls(parsed), 0), (derived, binary, 6 ** 2)):
        with monkeypatch.context() as patch:
            patch.setattr(completion, "gauge_witness", refuse)
            patch.setattr(completion, "twist_witness", refuse)
            for relation in (GAUGE, TWIST):
                part = partition_classes(s, all_doubles(s.carrier), WitnessSearch(relation))
                assert part.class_count() == 3          # classes of 2(a-b) mod 6
            assert check_relation_coincidence(s).identical
        assert gauge_witness(s, Double(1, 0), Double(3, 2)) == (0, 2)
        assert twist_witness(s, Double(1, 0), Double(3, 2)) == 0
        # the axioms compose their transitivity witnesses through the table too
        for relation in (GAUGE, TWIST):
            assert check_equivalence_axioms(s, WitnessSearch(relation), samples=30, seed=3).ok
        assert len(calls) == compiled


def test_finite_well_definedness_and_class_table_evaluate_no_operation():
    # on a finite base whose doubles the partition covers, well-definedness
    # multiplies double codes and the class table is gathered from the base's
    # index table: neither calls the base operation
    s = parse_table(format_table(zmod_add(7, 3)))
    calls, quiver = count_calls(s), builtin_quiver("post-ternary")
    for relation in (GAUGE, TWIST):
        part = partition_classes(s, all_doubles(s.carrier), WitnessSearch(relation))
        assert check_well_definedness(part, quiver, samples=200, seed=5).status == "passed-sampled"
        cs = class_structure(part, quiver)
        assert "index_row" in cs.facts and len(_index_table(cs)[0]) == 7 ** 3
        assert verify_polyadic_group(cs, CheckMode.exhaustive()).is_group
    assert calls == []


def test_derived_twist_partition_compiles_only_the_binary_table():
    # a derived base folds its index rows from the k x k binary table, so a
    # 5-ary partition costs 13^2 binary calls, not 4 * 13^5
    s, calls = counted_zmod_add(13, 5)
    assert partition_classes(s, all_doubles(s.carrier), WitnessSearch(TWIST)).class_count() == 13
    assert len(calls) <= 13 ** 2


def test_shift_relations_need_a_binary_or_wider_base():
    # a unary operation has no op[a^(m-1), b] slot for the twisted shift
    s = PolyadicStructure(FiniteCarrier(range(3)), NAryOperation(1, lambda t: t[0]))
    with pytest.raises(ArityMismatch, match="arity >= 2"):
        decide_equivalent(s, Double(0, 1), Double(1, 2), WitnessSearch(GAUGE))


def test_an_unclosed_finite_base_raises_non_member():
    # the shift rows compile the base's table, so an operation that leaves
    # the carrier raises NonMember, as every exhaustive check does; it once
    # partitioned by values outside the carrier and read unknown
    s = PolyadicStructure(FiniteCarrier(range(3)), NAryOperation(2, lambda t: t[0] + t[1]))
    with pytest.raises(NonMember, match="operation is not closed"):
        build_completion(s, builtin_quiver("componentwise-2"), WitnessSearch(TWIST),
                         assoc_mode=CheckMode.sampled(10, 1))
    with pytest.raises(NonMember, match="operation is not closed"):
        check_relation_coincidence(s)


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


@pytest.mark.parametrize("dec", [WitnessSearch(TWIST), ExactRule(operator.eq)],
                         ids=["witness-search", "exact-rule"])
def test_equivalence_axioms_need_a_shift_relation(dec):
    # a unary operation has no shift relations, and no m - 2 spectators to pad with
    s = PolyadicStructure(FiniteCarrier(range(3)), NAryOperation(1, lambda t: t[0]))
    with pytest.raises(ArityMismatch, match="shift relations need arity >= 2, got 1"):
        check_equivalence_axioms(s, dec, samples=5, seed=1)


@pytest.mark.parametrize("carrier", [FiniteCarrier([]), RuleCarrier(lambda x: False, [])],
                         ids=["finite", "rule"])
@pytest.mark.parametrize("check", [
    lambda s: check_equivalence_axioms(s, WitnessSearch(GAUGE), samples=5, seed=1),
    lambda s: commutativity_report(s, CheckMode.sampled(5, 1)),
    lambda s: check_total_associativity(s, CheckMode.sampled(5, 1)),
], ids=["axioms", "commutativity", "associativity"])
def test_sampling_an_empty_enumeration_is_a_usage_error(carrier, check):
    s = PolyadicStructure(carrier, NAryOperation(3, lambda t: t[0]))
    with pytest.raises(UsageError, match="cannot sample from an empty carrier enumeration"):
        check(s)


def test_transitivity_of_an_unknown_partition_counts_as_skipped():
    # on a rule carrier the twist partition meets an unknown decision and
    # aborts, so none of the 50 transitivity triples is drawn: all are
    # skipped, on top of the 45 unknown reflexivity and symmetry samples,
    # and with transitivity never decided the axioms read unknown, not
    # passed-sampled, and are not ok
    verdict = check_equivalence_axioms(get_recipe("odd3").build(21), WitnessSearch(TWIST),
                                       samples=50, seed=1)
    unknown_pairs = 2 * 50 - verdict.reflexive_checked - verdict.symmetry_checked
    assert verdict.transitivity_checked == 0
    assert (unknown_pairs, verdict.skipped) == (45, 95)
    assert (verdict.status, verdict.ok, verdict.failures) == ("unknown", False, ())
    assert str(verdict).startswith("equivalence axioms unknown (")


def test_broken_rule_caught_by_cross_check():
    # tops-equal is reflexive, symmetric, transitive, but not the shift relation
    s = get_recipe("odd3").build(41)
    broken = ExactRule(lambda d1, d2: d1.top == d2.top)
    verdict = check_equivalence_axioms(s, broken, samples=150, seed=5)
    assert not verdict.ok
    relations = {detail[0] for kind, detail in verdict.failures if kind == "cross-check"}
    assert relations == {TWIST, GAUGE}


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


def test_partition_refuses_a_domain_that_repeats_a_double():
    # with copies in the domain, classes would hold a double twice and the
    # well-definedness check could swap a double for its own copy
    D = Double
    domain = [D(0, 0), D(0, 0), D(1, 2), D(1, 2), D(1, 2), D(2, 2)]
    for canonical in (None, lambda d: d):
        with pytest.raises(UsageError, match=r"repeats the double Double\(top=0, bottom=0\)"):
            partition_classes(zmod_add(3, 2), domain, ExactRule(operator.eq), canonical)


def test_partition_without_canonicalizer_uses_least_member():
    s = zmod_add(3, 2)
    part = partition_classes(s, all_doubles(s.carrier), WitnessSearch())
    # Z3 is a group: doubles collapse to 3 classes labeled by their least members
    assert part.class_count() == 3
    assert part.reps[0] == Double(0, 0)
    assert part.resolve(Double(2, 1)).rep in part.reps


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
        calls, keyed = [], []
        counted = ExactRule(lambda d1, d2: calls.append((d1, d2)) or recipe.exact_rule(d1, d2))
        part = partition_classes(s, domain, counted,
                                 canonical=lambda d: keyed.append(d) or recipe.canonical_double(d))
        assert len(keyed) == len(domain)  # one canonical key per double
        classes, reps = leader_scan_partition(s, domain, recipe.exact_decision(),
                                              recipe.canonical_double)
        assert part.classes == classes
        assert part.reps == reps
        for rep, members in zip(reps, classes):
            for d in members:
                assert part.resolve(d).rep == rep
        assert len(calls) == len(domain) - part.class_count()


def nontransitive_table():
    """The binary table 0 0 2 / 0 1 2 / 1 0 1.  Under twist [0;0] ~ [0;1] ~
    [2;2] but [0;0] and [2;2] are unrelated, so its classes depend on the
    search order."""
    return flat_table(3, 2, "002012101")


@pytest.mark.parametrize("relation", [GAUGE, TWIST])
def test_search_partition_matches_leader_scan(relation):
    # without a canonical form a double joins the first class, in discovery
    # order, whose first member it is related to; on relations that need not
    # be transitive the classes must be the reference's exactly
    rng = random.Random(f"partition/{relation}")
    tables = [random_table(rng, k, m) for k, m in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]
              for _ in range(3)]
    dec = WitnessSearch(relation)
    for s in [nontransitive_table(), *tables]:
        domain = all_doubles(s.carrier)
        part = partition_classes(s, domain, dec)
        classes, reps = leader_scan_partition(s, domain, dec, lambda d: d)
        assert (part.classes, part.reps) == (classes, reps)
        for rep, members in zip(reps, classes):
            for d in members:
                assert part.resolve(d).rep == rep
    # the 3x3 table: twist leaves [2;2] alone, gauge {[1;2], [2;1]}
    s = nontransitive_table()
    alone = {TWIST: [Double(2, 2)], GAUGE: [Double(1, 2), Double(2, 1)]}[relation]
    classes = partition_classes(s, all_doubles(s.carrier), dec).classes
    assert [len(c) for c in classes] == [9 - len(alone), len(alone)] and classes[1] == alone


def test_partition_is_frozen_and_complete_when_returned():
    s = zmod_add(3, 2)
    part = partition_classes(s, all_doubles(s.carrier), WitnessSearch())
    assert all(f.init for f in dataclasses.fields(part))
    with pytest.raises(dataclasses.FrozenInstanceError):
        part.reps = []


def test_canonical_form_joining_inequivalent_doubles_is_reported():
    recipe = get_recipe("nat0")
    s = recipe.build(5)
    with pytest.raises(PolyadicError, match=r"joins inequivalent doubles Double\(top=0, bottom=0\)"
                                            r" and Double\(top=0, bottom=1\)"):
        partition_classes(s, all_doubles(s.carrier), recipe.exact_decision(),
                          canonical=lambda d: Double(0, 0))


def test_canonical_form_must_return_doubles():
    # plain pairs would build a completion that its JSON cannot render
    recipe = get_recipe("nat0")
    with pytest.raises(UsageError, match=r"canonical form returned \(0, 0\), not a Double"):
        build_completion(recipe.build(6), builtin_quiver("componentwise-2"),
                         recipe.exact_decision(),
                         canonical=lambda d: tuple(recipe.canonical_double(d)))


def test_cli_classes_exits_1_on_a_joining_canonical_form(monkeypatch, capsys):
    broken = dataclasses.replace(get_recipe("nat0"), canonical_double=lambda d: Double(0, 0))
    monkeypatch.setattr(cli, "get_recipe", lambda name: broken)
    assert cli.main(["classes", "--structure", "nat0", "--bound", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "canonical form joins inequivalent doubles" in captured.err


@pytest.mark.parametrize("relation", [GAUGE, TWIST])
@pytest.mark.parametrize("structure", [  # Z5 under addition, scrambled by a relabelling
    zmod_add(6, 3), flat_table(5, 2, relabelled_flat(5, 2, operator.add, [3, 0, 4, 1, 2]))])
def test_resolve_by_index_matches_scan(structure, relation):
    part = partition_classes(structure, all_doubles(structure.carrier), WitnessSearch(relation))
    assert 1 < part.class_count() < len(part.domain)
    for d in part.domain:
        rep = part.resolve(d).rep
        assert rep == scan_resolve(part, d)
        assert d in part.members_of(rep)


def test_resolve_outside_a_subdomain_falls_back_to_scan():
    s = zmod_add(6, 2)
    part = partition_classes(s, [Double(a, b) for a in range(3) for b in range(3)],
                             WitnessSearch())
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


# ---------------------------------------------------------------------------
# well-definedness


def test_componentwise_products_are_well_defined():
    for name, quiver in [("neg3", "componentwise-3"), ("odd3", "componentwise-3")]:
        K = completion_for(name, quiver, limit=31 if name == "odd3" else None)
        assert K.report.ok
        wd = check_well_definedness(K.partition, K.quiver, samples=150, seed=3)
        assert wd.status == "passed-sampled" and wd.checked > 0


def test_post_ternary_products_are_well_defined():
    for name in ("neg3", "odd3"):
        K = completion_for(name, "post-ternary", limit=31 if name == "odd3" else None)
        assert K.report.ok


def test_zero_samples_read_vacuous():
    # a sampled check that draws nothing has no evidence either way: it reads
    # vacuous(0), also for a wiring that fails, and is not a failure
    power = hetero_power(get_recipe("nat0").build(6), builtin_quiver("twisted-binary")).structure
    v = check_total_associativity(power, CheckMode.sampled(0, 1))
    assert (v.status, str(v), v.ok) == ("vacuous", "vacuous(0)", True)
    assert not check_total_associativity(power, CheckMode.sampled(50, 1)).ok
    K = completion_for("nat0", "componentwise-2", limit=6, samples=0)
    assert str(K.report.well_defined) == "vacuous(0)" and K.report.ok
    # its class product leaves the listed classes, so the group stage samples
    # and, drawing no class, reads vacuous too
    assert str(K.report.group) == "vacuous(0; quer at all slots; 49-double domain)"


@pytest.mark.parametrize("call", [
    lambda: check_total_associativity(zmod_add(5, 3), CheckMode.sampled(-5, 1)),
    lambda: build_completion(get_recipe("neg3").build(20), builtin_quiver("componentwise-3"),
                             get_recipe("neg3").exact_decision(),
                             canonical=get_recipe("neg3").canonical_double, samples=-5),
    lambda: check_equivalence_axioms(zmod_add(5, 2), WitnessSearch(TWIST), samples=-3),
    lambda: check_well_definedness(completion_for("nat0", "componentwise-2", limit=6).partition,
                                   builtin_quiver("componentwise-2"), samples=-1),
    lambda: check_universal_factorization(completion_for("nat0", "componentwise-2", limit=6),
                                          integers_group(200), lambda x: x, samples=-1),
], ids=["check-mode", "build-completion", "axioms", "well-definedness", "universal"])
def test_negative_sample_counts_are_usage_errors(call):
    # a negative count once drew nothing and read passed-sampled(-5) or unknown
    with pytest.raises(UsageError, match="sample count must be >= 0, got -"):
        call()


def test_axioms_hold_only_with_decided_transitivity():
    verdict = check_equivalence_axioms(zmod_add(3, 3), WitnessSearch(TWIST), samples=20, seed=3)
    assert verdict.status == "passed-sampled" and verdict.transitivity_checked == 20
    assert str(verdict).startswith("equivalence axioms passed-sampled (")
    verdict = check_equivalence_axioms(zmod_add(3, 3), WitnessSearch(TWIST), samples=0)
    assert (verdict.status, verdict.ok) == ("vacuous", True)


def test_transitivity_counts_triples_the_gauge_witness_decides(monkeypatch):
    # with no twist witness only the gauge composition decides each triple,
    # and a decided triple counts whichever composition decided it
    monkeypatch.setattr(completion, "twist_witness", lambda *args: None)
    verdict = check_equivalence_axioms(zmod_add(5, 3), WitnessSearch(GAUGE), samples=20, seed=1)
    assert (verdict.status, verdict.transitivity_checked) == ("passed-sampled", 20)


def test_transitivity_composes_each_distinct_witness_pair_once(monkeypatch):
    # twist's one witness z is both coordinates of its check, so it costs one
    # composition; gauge composes (x1, x2) and (y1, y2), once when they agree
    s = zmod_add(5, 3)
    kernel, gauge = completion._shift_kernel(s), completion.gauge_witness
    composed, witnesses = [], []
    monkeypatch.setattr(kernel, "compose",
                        lambda polyad, compose=kernel.compose: composed.append(polyad) or compose(polyad))
    monkeypatch.setattr(completion, "gauge_witness",
                        lambda *args: witnesses.append(gauge(*args)) or witnesses[-1])
    verdict = check_equivalence_axioms(s, WitnessSearch(GAUGE), samples=100, seed=3)
    assert (verdict.status, verdict.transitivity_checked, verdict.skipped) == ("passed-sampled", 100, 0)
    distinct = [len({*zip(w1, w2)}) for w1, w2 in zip(witnesses[::2], witnesses[1::2])]
    assert len(distinct) == 100 and 1 in distinct and 2 in distinct
    assert len(composed) == 100 + sum(distinct)


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
    assert str(K.report.well_defined).startswith("failed(slot ")
    wd = check_well_definedness(K.partition, K.quiver, samples=200, seed=97)
    assert wd == K.report.well_defined
    members, slot, alt, r1, r2 = wd.counterexample
    assert not rule(r1, r2)


# ---------------------------------------------------------------------------
# queroperations


def test_neg_componentwise_quer_swaps_components():
    K = completion_for("neg3", "componentwise-3")
    for p, q in [(2, 3), (1, 2), (5, 4), (1, 1)]:
        assert K.quer.mapping[cls(-p, -q)] == cls(-q, -p)
    assert str(K.report.group).startswith("passed-sampled(200; diagrammatic on truncated "
                                          "class set; quer at all slots;")


def test_neg_post_quer_fixes_classes():
    K = completion_for("neg3", "post-ternary")
    assert quer_kind(K.quiver, K.base) == "formula"
    for c in K.classes():
        assert K.quer.mapping[c] == c


def test_quer_formula_follows_the_wiring_not_the_name():
    scrambled = swap_picks(builtin_quiver("componentwise-3"), ("top", 1), ("bottom", 1))
    post = builtin_quiver("post-ternary")
    assert scrambled == post and scrambled.name != post.name
    K = build_completion(zmod_add(3, 3), scrambled, WitnessSearch())
    want = build_completion(zmod_add(3, 3), post, WitnessSearch())
    assert quer_kind(scrambled, K.base) == quer_kind(post, K.base) == "formula"
    assert K.report == want.report and K.report.ok
    assert K.quer.mapping == want.quer.mapping
    # a wiring that feeds both components of the last double to one wire,
    # or has an intact wire, has no formula and searches
    both = swap_picks(builtin_quiver("componentwise-3"), ("top", 2), ("bottom", 0))
    assert quer_kind(both, zmod_add(3, 3)) == "search"
    assert quer_kind(builtin_quiver("ternary-to-binary-a"), zmod_add(3, 3)) == "search"
    assert quer_kind(builtin_quiver("five-to-three-intact"), zmod_add(3, 5)) == "search"


@pytest.mark.parametrize("name, words", [
    ("componentwise-2", ("ab", "ab")), ("componentwise-3", ("abb", "aab")),
    ("componentwise-4", ("abbb", "aaab")), ("componentwise-5", ("abbbb", "aaaab")),
    ("twisted-binary", ("ab", "ab")), ("post-ternary", ("aab", "abb")),
    ("post-5ary", ("aaabb", "aabbb")),
])
def test_quer_formula_words_are_read_off_the_picks(name, words):
    # over a base that concatenates its arguments, the candidate of [a;b]
    # spells the words of its two components
    quiver = builtin_quiver(name)
    free = PolyadicStructure(FiniteCarrier(["a", "b"]), NAryOperation(quiver.input_arity, "".join))
    assert completion._quer_formula(quiver, free)("a", "b") == Double(*words)


def test_odd_quer_modes():
    Kc = completion_for("odd3", "componentwise-3", limit=41)
    assert Kc.quer.mapping[cls(11, 1)] == cls(1, 11)
    assert Kc.quer.mapping[cls(1, 7)] == cls(7, 1)
    assert Kc.quer.mapping[cls(1, 1)] == cls(1, 1)
    Kp = completion_for("odd3", "post-ternary", limit=41)
    for c in Kp.classes():
        assert Kp.quer.mapping[c] == c


def test_quer_search_mode_matches_formula():
    # each wiring with a closed-form quer that the completions here meet:
    # the search over the class structure finds the formula's quer map
    for name, quiver, limit in [
        ("nat0", "componentwise-2", 12), ("neg3", "componentwise-3", 12),
        ("odd3", "componentwise-3", 21), ("matrix4", "componentwise-4", None),
        ("neg3", "post-ternary", 12), ("odd3", "post-ternary", 21),
    ]:
        K = completion_for(name, quiver, limit=limit)
        assert K.report.ok and quer_kind(K.quiver, K.base) != "search", name
        assert quer_search_reference(K.partition, K.quiver) == K.quer.mapping, name
    # binary quer equation op[c, q] = c forces q to be the neutral class
    K = completion_for("nat0", "componentwise-2", limit=12)
    neutral = K.partition.resolve(Double(0, 0))
    for c in K.classes():
        assert K.quer.mapping[c] == neutral


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
    recipe = get_recipe("res-7-10")
    s = recipe.build(200)
    q = builtin_quiver("five-to-three-intact")
    part = partition_classes(s, all_doubles(s.carrier), recipe.exact_decision(),
                             canonical=recipe.canonical_double)
    with pytest.raises((QuerPlacementFailed, QuerNotFound)):
        class_quer(part, class_structure(part, q), q)


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
    assert str(K.report.group).startswith("proved-exhaustive(")
    only = K.classes()[0]
    assert K.quer.mapping[only] == only


def test_completion_with_nonassociative_quiver_reports_failure():
    # the crosswise binary wiring is not associative, so the pipeline stops
    # with an honest report and never builds a quer
    recipe = get_recipe("nat0")
    s = recipe.build(10)
    K = build_completion(s, builtin_quiver("twisted-binary"), recipe.exact_decision(),
                         canonical=recipe.canonical_double)
    assert not K.report.ok
    assert K.quer is None
    assert str(K.report.group).startswith("failed(doubles associativity")
    assert K.report.group.counterexample == K.report.associative.counterexample
    assert str(K.report.associative).startswith("failed(polyad=")


def test_completion_arity_mismatch():

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
    assert j["report"]["group"].startswith("passed-sampled(200; diagrammatic")


LEFT_PROJECTION_8 = [a for a in range(8) for _ in range(8)]

GROUP_STAGE_PINS = [
    # max on 59 elements, one class per bottom: past the exhaustive cutoff,
    # each class is its own quer at every slot, but max has no cancellation
    ([max(a, b) for a in range(59) for b in range(59)],
     ExactRule(lambda a, b: a.bottom == b.bottom), 307, 50,
     "failed(cancellation identities at [0;19],[0;48]; 3481-double domain)"),
    # one class per top of this 3x3 table: the quers solve every slot, but
    # the class product is not associative
    ([0, 0, 0, 1, 1, 0, 2, 2, 2], ExactRule(lambda a, b: a.top == b.top), 2848, 50,
     "failed(class associativity at ([1;0], [0;0], [2;0]); 9-double domain)"),
    # left projection on 2 elements: the exhaustive proof refutes solvability
    ([0, 0, 1, 1], WitnessSearch(TWIST), 0, 1,
     "failed(solvability at slot 1, ([0;0],); 4-double domain)"),
    # left projection on 8 elements, each double its own class: the formula
    # quer of [0;1] fails its first slot, before any class sample is drawn
    (LEFT_PROJECTION_8, ExactRule(operator.eq), 307, 50,
     "failed(quer: querelement candidate [0;0] for [0;1] fails at placement 0; "
     "64-double domain)"),
    ([1, 0, 1, 1], ExactRule(lambda a, b: a.bottom == b.bottom), 2848, 50,
     "failed(quer: querelement candidate [0;1] for [0;0] fails at placement 0; "
     "4-double domain)"),
]


@pytest.mark.parametrize("cells,dec,seed,samples,want", GROUP_STAGE_PINS)
def test_group_stage_failure_strings_are_pinned(cells, dec, seed, samples, want):
    K = build_completion(flat_table(math.isqrt(len(cells)), 2, cells), builtin_quiver("componentwise-2"), dec,
                         assoc_mode=CheckMode.sampled(3, seed), samples=samples, seed=seed)
    assert str(K.report.group) == want
    assert not K.report.ok


@pytest.mark.parametrize("samples, seed", [(0, 97), (1, 67), (50, 307)])
def test_a_quer_failing_any_slot_fails_the_completion(samples, seed):
    # the left projection is no group however many class samples are drawn:
    # its quer of [0;1] fails slot 0, so no sample can pass or leave it vacuous
    K = build_completion(flat_table(8, 2, LEFT_PROJECTION_8), builtin_quiver("componentwise-2"),
                         ExactRule(operator.eq), samples=samples, seed=seed)
    assert str(K.report.group) == ("failed(quer: querelement candidate [0;0] for [0;1] "
                                   "fails at placement 0; 64-double domain)")
    assert not K.report.ok and K.quer is None


@pytest.mark.parametrize("arity, k, cells, slot", [
    # left projection on 8 elements: the formula's candidate [0;0] for [0;1]
    # solves the defining slot and fails slot 0
    (2, 8, LEFT_PROJECTION_8, 0),
    # right projection on 4 elements: the candidate [1;1] for [0;1] misses
    # the defining slot 2, so it refutes nothing and the search decides
    (3, 4, [t[2] for t in itertools.product(range(4), repeat=3)], 2),
])
def test_quer_failure_replays_as_one_class_product(arity, k, cells, slot):
    s = flat_table(k, arity, cells)
    quiver = builtin_quiver(f"componentwise-{arity}")
    K = build_completion(s, quiver, ExactRule(operator.eq), samples=3, seed=1)
    g = cls(0, 1)
    q = K.partition.resolve(completion._quer_formula(quiver, s)(0, 1))
    fails = [j for j in range(arity)
             if K.product.fn((g,) * j + (q,) + (g,) * (arity - 1 - j)) != g]
    assert fails[0] == slot
    if slot < arity - 1:
        assert K.report.group.counterexample == (g, q, slot)
        assert str(K.report.group).startswith(
            f"failed(quer: querelement candidate {q} for {g} fails at placement {slot};")
    else:
        # [0;1] is its own quer at every slot; the class stage refutes the group
        assert K.quer.mapping[g] == g
        assert str(K.report.group) == (
            "failed(cancellation identities at [1;0],[0;2]; 16-double domain)")


def test_group_stage_pass_string_and_quer_are_pinned():
    K = build_completion(zmod_add(5, 3), builtin_quiver("post-ternary"), WitnessSearch(GAUGE),
                         assoc_mode=CheckMode.sampled(3, 5))
    assert K.report.ok
    assert str(K.report.group) == (
        "proved-exhaustive(75; solvability and associativity; quer at all slots; 25-double domain)")
    assert quer_search_reference(K.partition, K.quiver) == K.quer.mapping


def test_class_group_checks_make_one_product_per_class_tuple():
    # the class structure memoises the class product, so no class-level check
    # multiplies a class tuple twice.  On a finite base the class table is
    # gathered by double code, so a whole exhaustive completion multiplies
    # only the quer stage's slot checks, at most n * C tuples, however many
    # samples it draws; past the table cutoff the sampled checks share the
    # memo too
    K = build_completion(zmod_add(7, 3), builtin_quiver("post-ternary"), WitnessSearch(GAUGE),
                         assoc_mode=CheckMode.sampled(10, 1), samples=200)
    assert K.partition.class_count() == 7
    assert str(K.report.group) == (
        "proved-exhaustive(147; solvability and associativity; quer at all slots; "
        "49-double domain)")
    assert K.product.fn.cache_info().misses <= 3 * 7
    K = completion_for("nat0", "componentwise-2", limit=80)
    assert K.partition.class_count() ** 3 > 200_000
    assert str(K.report.group).startswith(
        "passed-sampled(200; diagrammatic on truncated class set")
    assert K.product.fn.cache_info().misses > 1000


def builtins_of_arity(m):
    """Every built-in quiver on an m-ary base, each followed by a scramble."""
    names = {2: ["componentwise-2", "twisted-binary"],
             3: ["componentwise-3", "post-ternary", "ternary-to-binary-a", "ternary-to-binary-b"],
             5: ["componentwise-5", "post-5ary", "five-to-three-intact"]}[m]
    for name in names:
        yield builtin_quiver(name)
        yield swap_picks(builtin_quiver(name), ("top", 0), ("bottom", 0))


def test_gathered_class_table_matches_the_compiled_one():
    # on a finite base the class table is gathered by double code; compiled
    # through the memoised class product instead, it must be the same table
    rng = random.Random(20261020)
    bases = [random_table(rng, k, m) for k in range(2, 7) for m in (2, 3)]
    bases.append(parse_table(format_table(zmod_add(3, 5))))
    for s in bases:
        k, m = len(s.carrier), s.arity
        rule = ExactRule(lambda a, b, k=k: (a.top - a.bottom - b.top + b.bottom) % k == 0)
        for dec in (WitnessSearch(GAUGE), WitnessSearch(TWIST), rule):
            part = partition_classes(s, all_doubles(s.carrier), dec)
            for quiver in builtins_of_arity(m):
                cs = class_structure(part, quiver)
                assert "index_row" in cs.facts
                assert _index_table(cs) == core._compile_table(cs), (s, dec, quiver)


def test_partitions_without_double_codes_keep_the_product_of_doubles():
    # a canonical form, a sub-domain, a domain missing one double, or k^2
    # doubles one of which is foreign (a partition built by hand, since
    # partition_classes cannot sort a foreign double of a finite carrier):
    # the class table is compiled through the product of doubles, and
    # well-definedness multiplies doubles, as the reference does.  A
    # shuffled full domain is coded, as the ordered one is, and gives the
    # same class table and well-definedness verdicts
    s, quiver = zmod_add(5, 3), builtin_quiver("post-ternary")
    rule, doubles = twist_rule(5, 3), all_doubles(s.carrier)
    whole = partition_classes(s, doubles, rule)
    shuffled = partition_classes(s, random.Random(5).sample(doubles, len(doubles)), rule)
    assert shuffled.domain != doubles
    for part in (whole, shuffled):
        assert completion._code_product(part, quiver) is not None
        assert "index_row" in class_structure(part, quiver).facts
    assert (_index_table(class_structure(shuffled, quiver))
            == _index_table(class_structure(whole, quiver)))
    for seed in range(5):
        assert (check_well_definedness(shuffled, quiver, samples=30, seed=seed)
                == check_well_definedness(whole, quiver, samples=30, seed=seed))
    swap = {Double(4, 4): Double(9, 9)}  # (4, 4) is no representative
    foreign = dataclasses.replace(
        whole, domain=[swap.get(d, d) for d in doubles],
        classes=[[swap.get(d, d) for d in c] for c in whole.classes],
        position={swap.get(d, d): i for d, i in whole.position.items()})

    def canonical(d):
        return Double((d.top - d.bottom) % 5, 0)

    parts = [partition_classes(s, doubles, rule, canonical=canonical),
             partition_classes(s, doubles[:20], rule),
             partition_classes(s, doubles[:12] + doubles[13:], rule), foreign]
    for part in parts:
        assert completion._code_product(part, quiver) is None
        cs = class_structure(part, quiver)
        assert "index_row" not in cs.facts
        reference = PolyadicStructure(cs.carrier, unmemoised_product(part, quiver, s))
        assert (outcome(lambda: _index_table(cs))
                == outcome(lambda: core._compile_table(reference)))
        for seed in range(5):
            assert (check_well_definedness(part, quiver, samples=30, seed=seed)
                    == well_definedness_reference(part, quiver, 30, seed))


def test_a_finite_completion_codes_its_doubles_once(monkeypatch):
    # class_structure and check_well_definedness share one _code_product
    # result, so the wire weights are made once per completion
    calls = []
    weights = completion._wire_weights
    monkeypatch.setattr(completion, "_wire_weights",
                        lambda *args: calls.append(args) or weights(*args))
    for quiver in ("post-ternary", "componentwise-3"):
        calls.clear()
        K = build_completion(zmod_add(5, 3), builtin_quiver(quiver), twist_rule(5, 3))
        assert K.report.ok and len(calls) == 1


def test_a_foreign_double_in_a_finite_domain_raises_non_member():
    # the classes are sorted by element positions, and a double outside the
    # carrier has none: NonMember, a PolyadicError as build_completion and
    # the CLI expect, where it once died with a bare KeyError
    s = zmod_add(5, 3)
    domain = [Double(7, 0)] + all_doubles(s.carrier)[1:]
    with pytest.raises(NonMember, match="7 is not a carrier member"):
        partition_classes(s, domain, twist_rule(5, 3))


def twist_rule(k, m):
    """Twist equivalence on the doubles of Z_k m-ary addition: (m-1)(a-b) mod k."""
    return ExactRule(lambda d1, d2: (m - 1) * (d1.top - d1.bottom - d2.top + d2.bottom) % k == 0)


@pytest.mark.parametrize("k, m, quiver, exhaustive", [
    (58, 2, "componentwise-2", True), (59, 2, "componentwise-2", False),
    (11, 3, "post-ternary", True), (13, 3, "post-ternary", False),
    (3, 5, "post-5ary", True), (7, 5, "post-5ary", False),
])
def test_class_stage_cutoff_bounds_the_associativity_proof(k, m, quiver, exhaustive):
    # k classes: the class stage is exhaustive while k^(2n-1) <= 200,000;
    # past that, a whole finite class set is sampled, and says so without
    # calling itself truncated
    K = build_completion(zmod_add(k, m), builtin_quiver(quiver), twist_rule(k, m),
                         assoc_mode=CheckMode.sampled(3, 1))
    n = K.n
    assert K.partition.class_count() == k and (k ** (2 * n - 1) <= 200_000) == exhaustive
    # an exhaustive proof counts its n * k^(n-1) solvability instances
    head = (f"proved-exhaustive({n * k ** (n - 1)}; solvability and associativity"
            if exhaustive else "passed-sampled(200; diagrammatic")
    assert str(K.report.group) == f"{head}; quer at all slots; {k * k}-double domain)"
    assert K.report.ok


def test_truncated_label_needs_a_truncated_class_set():
    # past the cutoff, a finite base lists all its classes; a rule-carrier
    # base lists only those its enumeration meets
    K = build_completion(zmod_add(13, 3), builtin_quiver("post-ternary"), twist_rule(13, 3),
                         assoc_mode=CheckMode.sampled(3, 1))
    assert K.partition.class_count() == 13
    assert str(K.report.group).startswith("passed-sampled(200; diagrammatic; quer at all slots;")
    K = completion_for("nat0", "componentwise-2", limit=30)
    assert K.partition.class_count() ** 3 > 200_000
    assert str(K.report.group).startswith(
        "passed-sampled(200; diagrammatic on truncated class set; quer at all slots;")


def product_backed_group_stage(part, product, quiver, base, samples, seed, note):
    """Reference class stage that evaluates the class product on every call,
    and compiles the class table for the group proof under the cutoff:
    (group verdict, quer map or None).  A class's quer is the formula's
    candidate, or searched when there is none or it misses the defining
    slot, and must solve every slot.  A double that matches no class makes
    the verdict unknown."""
    cs = PolyadicStructure(FiniteCarrier(part.class_doubles()), product)
    cds, n = cs.carrier.elements(), cs.arity
    formula = completion._quer_formula(quiver, base)
    mapping = {}
    try:
        for c in cds:
            q = None if formula is None else part.resolve(formula(*c.rep))
            if q is None or cs.op.fn((c,) * (n - 1) + (q,)) != c:
                q = _quer_search(cs, c, cds)
            slot = quer_slot_failure(cs, c, q)
            if slot is not None:
                note_q = f"quer: querelement candidate {q!r} for {c!r} fails at placement {slot}"
                return Verdict("failed", 0, (c, q, slot), (note_q, note)), None
            mapping[c] = q
    except (QuerNotFound, QuerNotUnique) as exc:
        return Verdict("failed", 0, None, (f"quer: {exc}", note)), None
    except NoClassMatch as exc:
        return Verdict("unknown", 0, None, (f"class product leaves the partition: {exc}", note)), None
    try:
        group = product_backed_group_checks(cs, mapping, samples, seed,
                                            not base.carrier.is_finite, note)
    except NoClassMatch as exc:
        group = Verdict("unknown", 0, None, (f"class product leaves the partition: {exc}", note))
    return group, mapping


def product_backed_group_checks(cs, mapping, samples, seed, truncated, note):
    cds = cs.carrier.elements()
    n = cs.arity
    if len(cds) ** (2 * n - 1) <= 200_000:
        try:
            _index_table(cs)
        except NonMember:
            truncated = True
        else:
            gv = verify_polyadic_group(cs, CheckMode.exhaustive())
            if not gv.associativity.ok:
                cx = gv.associativity.counterexample
                return Verdict("failed", gv.associativity.checked, cx,
                               (f"class associativity at {cx[0]}", note))
            if gv.solvability_failures:
                i, others = gv.solvability_failures[0]
                return Verdict("failed", gv.checked, (i, others),
                               (f"solvability at slot {i}, {others}", note))
            assert gv.checked == n * len(cds) ** (n - 1)
            return Verdict("proved-exhaustive", gv.checked, None,
                           ("solvability and associativity", "quer at all slots", note))
    assoc = check_total_associativity(cs, CheckMode.sampled(samples, seed))
    if assoc.status == "vacuous":
        return Verdict("vacuous", 0, None, ("quer at all slots", note))
    if not assoc.ok:
        cx = assoc.counterexample
        return Verdict("failed", assoc.checked, cx, (f"class associativity at {cx[0]}", note))
    rng = random.Random(seed)
    for c in range(samples):
        g, h = rng.choice(cds), rng.choice(cds)
        if not _cancels(cs, g, h, mapping[h]):
            return Verdict("failed", c + 1, (g, h), (f"cancellation identities at {g},{h}", note))
    label = "diagrammatic on truncated class set" if truncated else "diagrammatic"
    return Verdict("passed-sampled", samples, None, (label, "quer at all slots", note))


def reference_completion(s, quiver, dec, canonical, assoc_mode, samples, seed):
    """(CompletionReport, quer mapping or None) of build_completion, with the
    product-backed class stage."""
    assoc = check_total_associativity(hetero_power(s, quiver).structure, assoc_mode)
    domain = all_doubles(s.carrier)
    part = partition_classes(s, domain, dec, canonical=canonical)
    product = unmemoised_product(part, quiver, s)
    wd = check_well_definedness(part, quiver, samples=samples, seed=seed)
    note = f"{len(domain)}-double domain"
    quer = None
    if not assoc.ok:
        group = Verdict("failed", 0, assoc.counterexample, ("doubles associativity", note))
    elif not wd.ok:
        group = Verdict("failed", 0, wd.counterexample, ("well-definedness", note))
    else:
        group, quer = product_backed_group_stage(part, product, quiver, s, samples, seed, note)
    return CompletionReport(assoc, wd, group), quer


def stage_quiver(rng, m):
    """A built-in quiver on an m-ary base, sometimes scrambled."""
    names = (["componentwise-2", "twisted-binary"] if m == 2 else
             ["componentwise-3", "post-ternary", "ternary-to-binary-a", "ternary-to-binary-b"])
    quiver = builtin_quiver(rng.choice(names))
    if rng.random() < 0.15:
        quiver = swap_picks(quiver, ("top", 0), ("bottom", 0))
    return quiver


def random_stage_case(rng):
    k, m = rng.choice([2, 3, 4]), rng.choice([2, 3])
    kind = rng.choice(["random", "random", "add", "mul"])
    cells = [rng.randrange(k) if kind == "random"
             else (sum(t) if kind == "add" else math.prod(t)) % k
             for t in itertools.product(range(k), repeat=m)]
    s = flat_table(k, m, cells)
    dec = rng.choice([
        WitnessSearch(GAUGE), WitnessSearch(TWIST),
        ExactRule(lambda a, b: a.bottom == b.bottom),
        ExactRule(lambda a, b: a.top == b.top),
        ExactRule(lambda a, b, k=k: (a.top - a.bottom - b.top + b.bottom) % k == 0),
    ])
    # a random table is rarely associative, so most cases skip the doubles'
    # associativity (zero samples) to reach the class stage
    assoc_mode = CheckMode.exhaustive() if rng.random() < 0.2 else CheckMode.sampled(0, 0)
    return dict(s=s, quiver=stage_quiver(rng, m), dec=dec,
                canonical=rng.choice([None, None, lambda d: d]), assoc_mode=assoc_mode,
                samples=rng.choice([0, 0, 1, 3, 10, 40]), seed=rng.randrange(1000))


def naturals(k, m, fn=sum):
    """The naturals under an m-ary operation, enumerated below k: a rule
    carrier whose products may leave the enumeration."""
    return PolyadicStructure(RuleCarrier(lambda x: isinstance(x, int) and x >= 0, range(k)),
                             NAryOperation(m, fn))


def rule_stage_case(rng):
    """A case on a rule carrier, whose class set is truncated.  Without a
    canonical form, a product that leaves the enumeration may match no
    class at all."""
    k, m = rng.choice([2, 3, 4]), rng.choice([2, 3])
    s = naturals(k, m, rng.choice([sum, sum, max, operator.itemgetter(0)]))
    dec, canonical = rng.choice([
        (ExactRule(lambda a, b: a.top - a.bottom == b.top - b.bottom),
         lambda d: Double(max(d.top - d.bottom, 0), max(d.bottom - d.top, 0))),
        (ExactRule(lambda a, b: a.bottom == b.bottom), lambda d: Double(0, d.bottom)),
        (ExactRule(operator.eq), lambda d: d),
    ])
    return dict(s=s, quiver=stage_quiver(rng, m), dec=dec,
                canonical=rng.choice([None, canonical]), assoc_mode=CheckMode.sampled(0, 0),
                samples=rng.choice([0, 1, 3, 10, 40]), seed=rng.randrange(1000))


def past_cutoff_case(rng):
    """A ternary case past the exhaustive class cutoff (C^5 > 200,000 for C
    classes): the 13 twist classes of Z13 addition, the 12 bottom classes
    of max on 12 elements, or every double of Z4 addition or of a projection
    as its own class, 16 of them.  Z4 addition and the projections fail
    their formula quers there; under componentwise-3 each max class is its
    own quer at every slot, and max, which has no cancellation, fails the
    sampled cancellation identities."""
    kind = rng.choice(["twist", "twist", "add", "left", "right", "max", "max"])
    if kind == "twist":
        s, dec = zmod_add(13, 3), twist_rule(13, 3)
    elif kind == "max":
        cells = [max(t) for t in itertools.product(range(12), repeat=3)]
        s = flat_table(12, 3, cells)
        dec = ExactRule(lambda a, b: a.bottom == b.bottom)
    else:
        cells = [sum(t) % 4 if kind == "add" else t[0 if kind == "left" else 2]
                 for t in itertools.product(range(4), repeat=3)]
        s = flat_table(4, 3, cells)
        dec = ExactRule(operator.eq)
    return dict(s=s, quiver=builtin_quiver(rng.choice(["componentwise-3", "post-ternary"])),
                dec=dec, canonical=None, assoc_mode=CheckMode.sampled(0, 0),
                samples=rng.choice([1, 3, 10]), seed=rng.randrange(1000))


def outcome(run):
    try:
        return run()
    except PolyadicError as exc:
        return type(exc), str(exc)


def test_well_definedness_matches_a_rng_choice_reference():
    # seeded random and Z_k tables and rule carriers under gauge, twist and
    # exact decisions, some wirings scrambled: the whole verdict agrees
    rng = random.Random(67)
    seen = collections.Counter()
    for j in range(160):
        case = random_stage_case(rng) if j % 4 else rule_stage_case(rng)
        s, quiver = case["s"], case["quiver"]
        part = partition_classes(s, all_doubles(s.carrier), case["dec"], case["canonical"])
        samples, seed = rng.choice([0, 1, 5, 40]), rng.randrange(1000)
        got = check_well_definedness(part, quiver, samples=samples, seed=seed)
        assert got == well_definedness_reference(part, quiver, samples, seed)
        seen[got.status] += 1
    assert seen["passed-sampled"] and seen["failed"] and seen["vacuous"]


def test_table_backed_class_stage_matches_product_backed_reference(monkeypatch):
    # every _assoc_scan of the class stage is recorded as (k, n): none may
    # scan more than the cutoff's 200,000 tuples
    scans, stage_scans = [], []
    scan, group_checks = core._assoc_scan, completion._class_group_checks

    def recording_scan(row, k, n):
        scans.append((k, n))
        return scan(row, k, n)

    def recording_group_checks(*args):
        start = len(scans)
        try:
            return group_checks(*args)
        finally:
            stage_scans.extend(scans[start:])

    monkeypatch.setattr(core, "_assoc_scan", recording_scan)
    monkeypatch.setattr(completion, "_class_group_checks", recording_group_checks)
    rng = random.Random(20261018)
    seen = collections.Counter()
    cases = ([random_stage_case(rng) for _ in range(500)]
             + [rule_stage_case(rng) for _ in range(150)]
             + [past_cutoff_case(rng) for _ in range(40)])
    for case in cases:

        def memoised():
            K = build_completion(case["s"], case["quiver"], case["dec"],
                                 canonical=case["canonical"], assoc_mode=case["assoc_mode"],
                                 samples=case["samples"], seed=case["seed"])
            quer = None if K.quer is None else K.quer.mapping
            return K.report, quer

        got = outcome(memoised)
        want = outcome(lambda: reference_completion(**case))
        assert got == want, case
        if isinstance(want[0], CompletionReport):
            group = want[0].group  # keyed without its count
            seen[f"{group.status}({'; '.join(group.notes)}"] += 1
            if want[1] is not None:
                seen[quer_kind(case["quiver"], case["s"])] += 1
        else:
            seen[want[0].__name__] += 1
    branches = ["proved-exhaustive(solvability and associativity", "passed-sampled(diagrammatic;",
                "passed-sampled(diagrammatic on truncated class set", "vacuous(quer at",
                "failed(class associativity", "failed(cancellation identities",
                "failed(solvability", "failed(quer: no querelement for",
                "failed(quer: querelement of", "failed(quer: querelement candidate",
                "failed(well-definedness", "failed(doubles associativity",
                "unknown(class product leaves the partition"]
    for branch in branches:
        assert sum(n for got, n in seen.items() if got.startswith(branch)) >= 3, (branch, seen)
    for key in ["formula", "search"]:
        assert seen[key] >= 3, (key, seen)
    assert max(k ** (2 * n - 1) for k, n in stage_scans) <= 200_000, sorted(set(stage_scans))


def test_class_table_multiplies_unlisted_classes_by_the_product():
    # the listed classes [0;0] and [2;0] of Z4 are closed; a class outside
    # them, such as a formula quer may name, is still multiplied by the
    # class product
    s = zmod_add(4, 2)
    part = partition_classes(s, [Double(a, b) for a in (0, 2) for b in (0, 2)],
                             ExactRule(lambda x, y: (x.top - x.bottom - y.top + y.bottom) % 4 == 0),
                             canonical=lambda d: Double((d.top - d.bottom) % 4, 0))
    quiver = builtin_quiver("componentwise-2")
    product, cs = unmemoised_product(part, quiver, s), class_structure(part, quiver)
    listed, outside = cs.carrier.elements(), ClassDouble(Double(1, 0))
    for t in itertools.product(listed + [outside], repeat=2):
        assert cs.op.fn(t) == product.fn(t)
    assert cs.op.fn((outside, listed[1])) == ClassDouble(Double(3, 0))


def test_quer_row_search_matches_the_per_candidate_search():
    # class_quer searches each class's row with _quer_row; it must give the
    # per-candidate search's quer map over the unmemoised class product, or
    # raise its error with its message.  Under an equality rule every double of Z8
    # (binary) or Z5 (ternary) is its own class; truncated domains keep at
    # least the fewest classes past the cutoff, and without a canonical form
    # their products may match no class.
    rng = random.Random(20261019)
    seen = collections.Counter()
    for _ in range(150):
        k, m, names = rng.choice([(8, 2, ["componentwise-2", "twisted-binary"]),
                                  (5, 3, ["componentwise-3", "post-ternary"]),
                                  (8, 3, ["ternary-to-binary-a", "ternary-to-binary-b"])])
        kind = rng.choice(["random", "add", "add", "mul"])
        cells = [rng.randrange(k) if kind == "random"
                 else (sum(t) if kind == "add" else math.prod(t)) % k
                 for t in itertools.product(range(k), repeat=m)]
        s = flat_table(k, m, cells)
        quiver = builtin_quiver(rng.choice(names))
        if rng.random() < 0.4:
            bottom = 1 if quiver.intact_count else m
            quiver = swap_picks(quiver, ("top", rng.randrange(m)), ("bottom", rng.randrange(bottom)))
        n = quiver.output_arity
        least = next(c for c in itertools.count(1) if c ** (n + 1) > 200_000)
        domain = all_doubles(s.carrier)
        if rng.random() < 0.5:
            domain = rng.sample(domain, rng.randrange(least, len(domain)))
        part = partition_classes(s, domain, ExactRule(operator.eq),
                                 canonical=rng.choice([None, lambda d: d]))
        cds = part.class_doubles()
        reference = PolyadicStructure(FiniteCarrier(cds), unmemoised_product(part, quiver, s))
        row = completion._quer_row(part, quiver)

        want = outcome(lambda: {c: _quer_search(reference, c, cds) for c in cds})
        assert outcome(lambda: {c: _sole_quer(c, row(c, cds), len(cds)) for c in cds}) == want
        seen["found" if isinstance(want, dict) else want[0].__name__] += 1
    for key in ["found", "QuerNotFound", "QuerNotUnique", "NoClassMatch"]:
        assert seen[key] >= 3, (key, seen)


def test_post_5ary_quer_search_memoises_base_values_per_row():
    # post-5ary feeds the candidate x one pick per wire, so a search row
    # evaluates the base once per distinct top and once per distinct bottom
    # of the representatives, not twice per candidate (2C^2 for all rows)
    recipe = get_recipe("res-7-10")
    s = recipe.build(80)
    calls = count_calls(s)
    q = builtin_quiver("post-5ary")
    part = partition_classes(s, all_doubles(s.carrier), recipe.exact_decision(),
                             canonical=recipe.canonical_double)
    cds = part.class_doubles()
    quer = class_quer(part, class_structure(part, q), q).mapping
    c = part.class_count()
    components = len({x for rep in part.reps for x in rep})
    assert (c, components) == (57, 8)
    calls.clear()
    row = completion._quer_row(part, q)
    assert [row(g, cds) for g in cds] == [[quer[g]] for g in cds]
    assert len(calls) <= c * 2 * components
    assert len(calls) < 2 * c * c


def test_residue_post_5ary_quer_searches_no_row(monkeypatch):
    # every class's formula candidate solves the defining slot, so the 307
    # classes of the residue job take no search row, and each quer still
    # solves every slot
    searched = counting_quer_rows(monkeypatch)
    K = completion_for("res-7-10", "post-5ary", limit=178)
    assert K.partition.class_count() == 307 and K.quer is not None
    assert searched == []


RECIPE_BOUNDS = {"nat0": 10, "neg3": 8, "odd3": 21, "res-7-10": 60, "matrix4": None}


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["componentwise-4"])
def test_formula_quer_matches_a_plain_search_on_every_recipe(name):
    # each recipe of the wiring's base arity, under its exact rule and
    # canonical form: class_quer gives the plain search's quer map, or its
    # failure with its message.  A rule carrier lists a truncated class set:
    # under componentwise-5 most residue classes have their quer outside it
    quiver, seen = builtin_quiver(name), 0
    for recipe_name, limit in RECIPE_BOUNDS.items():
        recipe = get_recipe(recipe_name)
        s = recipe.build(recipe.default_limit if limit is None else limit)
        if s.arity != quiver.input_arity:
            continue
        part = partition_classes(s, all_doubles(s.carrier), recipe.exact_decision(),
                                 canonical=recipe.canonical_double)
        got, want = quer_outcomes(part, quiver)
        assert got == want, recipe_name
        seen += 1
    assert seen


def test_formula_quer_matches_a_plain_search_on_z_k_under_every_wiring(monkeypatch):
    # seeded Z_k addition, 2 <= k <= 9, under every binary and ternary
    # wiring with no intact wire and under seeded 5-ary ones, by gauge and by
    # twist: the formula's candidate always solves the defining slot, so a
    # wiring with a formula searches no row, and class_quer agrees with the
    # plain search, found or failed
    searched = counting_quer_rows(monkeypatch)
    rng = random.Random(20261022)
    inputs = [(slot, comp) for slot in range(1, 6) for comp in "TB"]
    fives = [(order[:5], order[5:]) for order in (rng.sample(inputs, 10) for _ in range(40))]
    seen = collections.Counter()
    for wires in every_wiring(2, 0) + every_wiring(3, 0) + fives:
        quiver, k = QuiverSpec(*wires), rng.randrange(2, 10)
        s = zmod_add(k, quiver.input_arity)
        kind = quer_kind(quiver, s)
        for relation in (GAUGE, TWIST):
            part = partition_classes(s, all_doubles(s.carrier), WitnessSearch(relation))
            del searched[:]
            got, want = quer_outcomes(part, quiver)
            assert got == want, (wires, k, relation)
            assert kind == "search" or searched == [], (wires, k, relation)
            result = "found" if isinstance(want, dict) else want[0].__name__
            seen[kind, quiver.input_arity, result] += 1
    # a binary sum whose one wire takes both components of the last double
    # fails a slot whatever the quer; every other kind is both found and failed
    kinds = itertools.product(["formula", "search"], [2, 3, 5], ["found", "QuerPlacementFailed"])
    assert set(seen) == set(kinds) - {("search", 2, "found")}, seen


def test_formula_quer_on_a_non_commutative_base_verifies_or_falls_back(monkeypatch):
    # S3 composition, binary and derived ternary: one class's candidate
    # solves the defining slot and is checked at every slot, another's
    # misses it and that class is searched; either way class_quer agrees
    # with the plain search
    searched = counting_quer_rows(monkeypatch)
    perms = list(itertools.permutations(range(3)))
    compose = NAryOperation(2, lambda t: tuple(t[0][i] for i in t[1]))
    seen = collections.Counter()
    for m, names in [(2, ["componentwise-2", "twisted-binary"]),
                     (3, ["componentwise-3", "post-ternary"])]:
        s = derived_structure(FiniteCarrier(perms), compose, m)
        for name, dec in itertools.product(names, [ExactRule(operator.eq), WitnessSearch(GAUGE),
                                                   WitnessSearch(TWIST)]):
            quiver = builtin_quiver(name)
            part = partition_classes(s, all_doubles(s.carrier), dec)
            del searched[:]
            got, want = quer_outcomes(part, quiver)
            assert got == want, (name, dec)
            if isinstance(got, dict):
                seen["searched"] += len(searched)
                seen["verified"] += len(got) - len(searched)
            else:
                seen[got[0].__name__] += 1
    assert seen["searched"] and seen["verified"] and seen["QuerPlacementFailed"], seen


def test_class_product_leaving_the_partition_reports_unknown():
    # without a canonical form a rule carrier's classes may not be closed:
    # when a double met by the group stage or the quer search matches no
    # class, the completion reports an unknown group instead of raising
    s = naturals(3, 2)
    diff = ExactRule(lambda a, b: a.top - a.bottom == b.top - b.bottom)
    K = build_completion(s, builtin_quiver("componentwise-2"), diff,
                         assoc_mode=CheckMode.sampled(0, 0), samples=0, seed=0)
    assert str(K.report.group) == ("unknown(class product leaves the partition: double "
                                   "Double(top=0, bottom=3) matches no class of the partition; "
                                   "9-double domain)")
    assert not K.report.ok and K.quer is not None
    # a wiring with no closed-form quer: the search meets the double first
    K = build_completion(naturals(3, 3), builtin_quiver("ternary-to-binary-a"), diff,
                         assoc_mode=CheckMode.sampled(0, 0), samples=0, seed=0)
    assert str(K.report.group) == ("unknown(class product leaves the partition: double "
                                   "Double(top=3, bottom=0) matches no class of the partition; "
                                   "9-double domain)")
    assert not K.report.ok and K.quer is None
    # swapped componentwise-2 has a formula: its candidate [0;2] for [0;1]
    # solves the defining slot 1, stays within the partition and fails slot 0
    swapped = swap_picks(builtin_quiver("componentwise-2"), ("top", 0), ("bottom", 0))
    K = build_completion(s, swapped, diff, assoc_mode=CheckMode.sampled(0, 0), samples=0, seed=0)
    assert str(K.report.group) == ("failed(quer: querelement candidate [0;2] for [0;1] fails at "
                                   "placement 0; 9-double domain)")
    assert not K.report.ok and K.quer is None
    with pytest.raises(NoClassMatch, match="matches no class"):
        K.partition.resolve((3, 0))


def test_witness_search_rejects_unknown_relations():
    for relation in ("Gauge", "twisted", ""):
        with pytest.raises(UsageError, match="relation"):
            WitnessSearch(relation)
    # gauge and twist split this table differently, so a misspelt relation
    # could not silently pass for either
    s = flat_table(3, 2, "020112002")
    domain = all_doubles(s.carrier)
    gauge = partition_classes(s, domain, WitnessSearch(GAUGE))
    twist = partition_classes(s, domain, WitnessSearch(TWIST))
    assert (gauge.class_count(), twist.class_count()) == (3, 2)


def test_finite_table_completion_has_exact_size_hints():
    s = zmod_add(3, 2)
    K = build_completion(s, builtin_quiver("componentwise-2"), WitnessSearch())
    j = completion_to_json(K)
    assert [c["size_hint"] for c in j["classes"]] == [3, 3, 3]
    assert K.report.ok and str(K.report.group).startswith(
        "proved-exhaustive(6; solvability and associativity;")


def test_default_mode_proves_ternary_z5_doubles_exhaustively():
    # 25^5 = 9,765,625 tuples: under the exhaustive cutoff, so proved rather
    # than sampled.  The twist-class invariant 2(a-b) mod 5 keeps the
    # partition cheap.
    s = zmod_add(5, 3)
    twist = ExactRule(lambda d1, d2: 2 * (d1.top - d1.bottom - d2.top + d2.bottom) % 5 == 0)
    K = build_completion(s, builtin_quiver("post-ternary"), twist)
    assert str(K.report.associative) == "proved-exhaustive(9765625)"


def test_default_mode_lifts_ternary_z7_doubles_past_the_cutoff():
    # 49^5 = 282,475,249 tuples are over the cutoff, but post-ternary gives
    # every placement the same words, so the 7^5-tuple proof of the base
    # proves the doubles; one perturbed entry leaves the sampled verdict
    twist = ExactRule(lambda d1, d2: 2 * (d1.top - d1.bottom - d2.top + d2.bottom) % 7 == 0)
    q = builtin_quiver("post-ternary")
    K = build_completion(zmod_add(7, 3), q, twist)
    assert str(K.report.associative) == "proved-exhaustive(282475249)"
    assert K.report.ok

    lines = format_table(zmod_add(7, 3)).splitlines()
    lines[2 + 100] = str((int(lines[2 + 100]) + 1) % 7)
    broken = parse_table("\n".join(lines))
    K = build_completion(broken, q, twist, seed=5)
    sampled = check_total_associativity(hetero_power(broken, q).structure, CheckMode.sampled(2000, 5))
    assert K.report.associative == sampled


# ---------------------------------------------------------------------------
# binary embedding, inverse, universal property


def test_phi_sg_values():
    K = completion_for("nat0", "componentwise-2", limit=20)
    assert phi_sg(K, 5) == cls(5, 0)
    assert phi_sg(K, 0) == K.partition.resolve(Double(3, 3)) == cls(0, 0)
    rng = random.Random(2)
    for _ in range(30):
        a, b = rng.randrange(10), rng.randrange(10)
        assert K.product((phi_sg(K, a), phi_sg(K, b))) == phi_sg(K, a + b)


def test_class_inverse():
    K = completion_for("nat0", "componentwise-2", limit=20)
    c = cls(7, 0)
    assert class_inverse(K, c) == cls(0, 7)
    assert K.product((c, class_inverse(K, c))) == K.partition.resolve(Double(3, 3))


def test_universal_factorization_into_integers():
    K = completion_for("nat0", "componentwise-2", limit=40)
    verdict = check_universal_factorization(K, integers_group(400), lambda x: x,
                                            samples=100, seed=11)
    assert (verdict.status, verdict.checked) == ("passed-sampled", 100)


def test_universal_factorization_into_z6():
    K = completion_for("nat0", "componentwise-2", limit=40)
    verdict = check_universal_factorization(K, integers_mod_group(6), lambda x: x % 6,
                                            samples=100, seed=11)
    assert verdict.ok


def test_universal_factorization_without_samples_is_vacuous():
    K = completion_for("nat0", "componentwise-2", limit=10)
    verdict = check_universal_factorization(K, integers_mod_group(5), lambda x: x % 5, samples=0)
    assert (verdict.status, str(verdict), verdict.ok) == ("vacuous", "vacuous(0)", True)


def test_universal_rejects_a_finite_target_that_is_not_a_group():
    K = completion_for("nat0", "componentwise-2", limit=5)
    with pytest.raises(PolyadicError, match=r"is not a group: not a group \(solvability failures"):
        check_universal_factorization(K, zmod_mul(4, 2), lambda x: x % 4, samples=10, seed=11)


def difference(c):
    """The induced map into the integers under phi = id: [a;b] -> a - b."""
    return c.rep.top - c.rep.bottom


def test_universal_factorization_failures_replay():
    nat0 = get_recipe("nat0")
    # one class for every double: the induced map differs on two members
    K = build_completion(nat0.build(12), builtin_quiver("componentwise-2"),
                         ExactRule(lambda a, b: True))
    verdict = check_universal_factorization(K, integers_group(200), lambda x: x,
                                            samples=100, seed=97)
    assert str(verdict) == "failed(induced map not class-invariant at [0;0])"
    c, alt = verdict.counterexample
    assert alt in K.partition.members_of(c.rep)
    assert difference(c) != alt.top - alt.bottom
    # the crosswise product is no homomorphism onto the differences
    K = build_completion(nat0.build(12), builtin_quiver("twisted-binary"),
                         nat0.exact_decision(), canonical=nat0.canonical_double)
    verdict = check_universal_factorization(K, integers_group(200), lambda x: x,
                                            samples=100, seed=97)
    assert str(verdict) == "failed(induced map not a homomorphism at [0;3],[0;4])"
    c1, c2 = verdict.counterexample
    assert difference(K.product((c1, c2))) != difference(c1) + difference(c2)
    # on {0, 1} in one class, every drawn member is invariant and the one
    # class multiplies to itself, but it embeds 1 as the identity of Z5
    K = build_completion(nat0.build(1), builtin_quiver("componentwise-2"),
                         ExactRule(lambda a, b: True))
    verdict = check_universal_factorization(K, integers_mod_group(5), lambda x: x % 5,
                                            samples=5, seed=1)
    assert (str(verdict), verdict.counterexample) == ("failed(factorization fails at 1)", (1,))
    assert difference(phi_sg(K, 1)) % 5 != 1


def test_phi_sg_checks_the_identity_form():
    # under equality (2, 1) and (1, 0) are different classes, though both embed 1
    nat0 = get_recipe("nat0")
    K = build_completion(nat0.build(6), builtin_quiver("componentwise-2"),
                         ExactRule(operator.eq), canonical=lambda d: d)
    assert phi_sg(K, 0) == cls(0, 0)
    with pytest.raises(PolyadicError, match=r"identity form \(a,e\) disagrees with "
                                            r"\(a\*a,a\) at a=1"):
        phi_sg(K, 1)


def test_universal_rejects_non_homomorphism():
    # x -> x^2 is no homomorphism of (N, +): the verdict fails at the first
    # sampled pair, and its counterexample replays
    K = completion_for("nat0", "componentwise-2", limit=20)
    target, phi = integers_group(4000), lambda x: x * x
    verdict = check_universal_factorization(K, target, phi, samples=100, seed=11)
    a, b = verdict.counterexample
    assert verdict == Verdict("failed", 0, (a, b), (f"phi not a homomorphism at {(a, b)}",))
    assert phi(K.base.op.fn((a, b))) != target.op.fn((phi(a), phi(b)))


# ---------------------------------------------------------------------------
# one verdict record for every stage

STATUSES = ("proved-exhaustive", "passed-sampled", "failed", "unknown", "vacuous")


def outcome_sweep():
    """Completions whose stages reach every outcome, each with its group status:
    the group-stage failures of GROUP_STAGE_PINS, a doubles-associativity and
    a well-definedness failure among them."""
    diff = ExactRule(lambda a, b: a.top - a.bottom == b.top - b.bottom)
    nat0 = get_recipe("nat0")
    pins = [build_completion(flat_table(math.isqrt(len(cells)), 2, cells), builtin_quiver("componentwise-2"), dec,
                             assoc_mode=CheckMode.sampled(3, seed), samples=samples, seed=seed)
            for cells, dec, seed, samples, _ in GROUP_STAGE_PINS]
    return [
        (build_completion(zmod_add(3, 2), builtin_quiver("componentwise-2"), WitnessSearch()),
         "proved-exhaustive"),
        (completion_for("nat0", "componentwise-2", limit=30), "passed-sampled"),
        (completion_for("nat0", "componentwise-2", limit=6, samples=0), "vacuous"),
        (build_completion(naturals(3, 2), builtin_quiver("componentwise-2"), diff,
                          assoc_mode=CheckMode.sampled(0, 0), samples=0, seed=0), "unknown"),
        *[(K, "failed") for K in pins],
        (build_completion(nat0.build(10), builtin_quiver("twisted-binary"),
                          nat0.exact_decision(), canonical=nat0.canonical_double), "failed"),
        (completion_for("res-7-10", "five-to-three-intact"), "failed"),
    ]


def test_every_stage_reports_one_of_five_outcomes():
    seen = set()
    for K, group_status in outcome_sweep():
        report = K.report
        stages = (report.associative, report.well_defined, report.group)
        assert report.group.status == group_status, report
        assert report.ok == all(v.status not in ("failed", "unknown") for v in stages)
        assert report.group.notes[-1].endswith("-double domain")
        json_report = completion_to_json(K)["report"]
        for v, text in zip(stages, json_report.values()):
            assert v.status in STATUSES and str(v) == text
            assert text.startswith(f"{v.status}(")
            assert re.match(r"^(proved-exhaustive|passed-sampled|failed|unknown|vacuous)\(", text)
            seen.add((v is report.well_defined, v.status))
        for v in stages[:2]:  # a failed law check carries its counterexample
            assert (v.counterexample is not None) == (v.status == "failed")
        # the benchmark reads 'status(count)', or a failure's 'placements i/j'
        assoc = json_report["associative"]
        if report.associative.status == "failed":
            assert re.search(r"\), placements 0/\d+ give ", assoc)
        else:
            assert re.match(r"([\w-]+)\((\d+)\)$", assoc).groups() == (
                report.associative.status, str(report.associative.checked))
    assert {status for _, status in seen} == set(STATUSES)
    assert {status for wd, status in seen if wd} == {"passed-sampled", "failed", "vacuous"}
