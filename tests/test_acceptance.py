"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Each criterion states its bounds explicitly and uses exact
arithmetic.
"""

import itertools
import random

from polygroth import (
    CheckMode,
    ClassDouble,
    Double,
    all_doubles,
    arity_after_intact,
    builtin_quiver,
    check_equivalence_axioms,
    check_total_associativity,
    check_universal_factorization,
    check_well_definedness,
    detect_residue_arity,
    get_recipe,
    hetero_power,
    integers_group,
    integers_mod_group,
    partition_classes,
    placement_result,
    swap_picks,
    zmod_add,
    zmod_mul,
)
from polygroth.completion import check_relation_coincidence, class_inverse
from polygroth.errors import NotQuantized
from reference import completion_for


def _report(num, desc, failures):
    ok = not failures
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} ({desc}): " + "; ".join(str(f) for f in failures[:5])


def test_criterion_01_integer_recovery():
    failures = []
    K = completion_for("nat0", "componentwise-2", limit=40)
    if not K.report.ok:
        failures.append(f"pipeline not ok: {K.report.group}")
    diff = {c: c.rep.top - c.rep.bottom for c in K.classes()}
    if sorted(diff.values()) != list(range(-40, 41)):
        failures.append(f"classes are not in bijection with -40..40 ({len(diff)} classes)")
    checked = 0
    for c1, c2 in itertools.product(K.classes(), repeat=2):
        total = diff[c1] + diff[c2]
        if abs(total) > 40:
            continue
        out = K.product((c1, c2))
        checked += 1
        if out.rep.top - out.rep.bottom != total:
            failures.append(f"{c1} + {c2} -> {out}, expected difference {total}")
            break
    if checked < 1000:
        failures.append(f"only {checked} in-range triples checked")
    neutral = K.partition.resolve(Double(0, 0))
    for c in K.classes():
        inv = class_inverse(K, c)
        if diff[inv] != -diff[c] or K.product((c, inv)) != neutral:
            failures.append(f"inverse transport fails at {c}")
            break
        if K.quer.mapping[c] != neutral:  # the binary quer equation forces the neutral class
            failures.append(f"binary quer of {c} is not the neutral class")
            break
    _report(1, "binary completion of nat0(40) recovers integer addition", failures)


def test_criterion_02_negatives_componentwise_quer():
    import math

    failures = []
    K = completion_for("neg3", "componentwise-3", limit=20)
    if not K.report.ok:
        failures.append(f"pipeline not ok: {K.report.group}")
    for p in range(1, 21):
        for q in range(1, 21):
            if math.gcd(p, q) != 1:
                continue
            c = ClassDouble(Double(-p, -q))
            quer = K.quer.mapping.get(c)
            if quer != ClassDouble(Double(-q, -p)):
                failures.append(f"quer[{c}] = {quer}, expected [-{q};-{p}]")
                break
            if K.product((c, c, quer)) != c:
                failures.append(f"quer equation fails at {c}")
                break
        if failures:
            break
    _report(2, "componentwise ternary completion of negatives: quer swaps components", failures)


def test_criterion_03_negatives_post_quer():
    import math

    failures = []
    K = completion_for("neg3", "post-ternary", limit=20)
    if not K.report.ok:
        failures.append(f"pipeline not ok: {K.report.group}")
    for p in range(1, 21):
        for q in range(1, 21):
            if math.gcd(p, q) != 1:
                continue
            c = ClassDouble(Double(-p, -q))
            if K.quer.mapping.get(c) != c:
                failures.append(f"quer[{c}] = {K.quer.mapping.get(c)}, expected {c}")
                break
            if K.product((c, c, K.quer.mapping[c])) != c:
                failures.append(f"quer equation fails at {c}")
                break
        if failures:
            break
    _report(3, "noncomponentwise ternary completion of negatives: quer fixes classes", failures)


def test_criterion_04_odds_quers():
    failures = []
    Kc = completion_for("odd3", "componentwise-3", limit=101)
    if not Kc.report.ok:
        failures.append(f"componentwise pipeline not ok: {Kc.report.group}")
    for k in range(1, 51):
        up = ClassDouble(Double(2 * k + 1, 1))
        down = ClassDouble(Double(1, 2 * k + 1))
        if Kc.quer.mapping.get(up) != down or Kc.quer.mapping.get(down) != up:
            failures.append(f"componentwise quer does not swap at k={k}")
            break
    Kp = completion_for("odd3", "post-ternary", limit=101)
    if not Kp.report.ok:
        failures.append(f"post pipeline not ok: {Kp.report.group}")
    for c in Kp.classes():
        if Kp.quer.mapping[c] != c:
            failures.append(f"post quer moves {c}")
            break
    _report(4, "odd naturals: componentwise quer swaps up/down, post quer fixes classes", failures)


def test_criterion_05_matrix_structure():
    failures = []
    recipe = get_recipe("matrix4")
    s = recipe.build(25)
    rng = random.Random(2024)

    def eisenstein():
        return rng.randint(-50, 50), rng.randint(-50, 50)

    for _ in range(100):
        a, b = eisenstein(), eisenstein()
        if s.op((a, a, a, a)) != a:
            failures.append(f"idempotence fails at {a}")
            break
        if s.op((a, a, a, b)) != b:
            failures.append(f"three-plus-one identity fails at {a},{b}")
            break
    domain = all_doubles(s.carrier)
    sample = rng.sample(domain, 50)  # a partition domain lists each double once
    part = partition_classes(s, sample, recipe.exact_decision(),
                             canonical=recipe.canonical_double)
    if part.class_count() != 1:
        failures.append(f"{part.class_count()} classes, expected 1")
    _report(5, "matrix-style 4-ary structure: idempotent mix, one class", failures)


def test_criterion_06_residue_arity():
    failures = []
    if detect_residue_arity(7, 10) != 5:
        failures.append("detected arity != 5")
    for m in (2, 3, 4):
        if pow(7, m, 10) == 7:
            failures.append(f"no non-closure witness at m={m}")
    s = get_recipe("res-7-10").build(200)
    elems = s.carrier.elements()
    rng = random.Random(6)
    for _ in range(1000):
        t = tuple(rng.choice(elems) for _ in range(5))
        if (t[0] * t[1] * t[2] * t[3] * t[4]) % 10 != 7:
            failures.append(f"closure fails at {t}")
            break
    _report(6, "residue class {10k+7}: arity 5 detected, closed under 5-fold products", failures)


def test_criterion_07_arity_quantization():
    failures = []
    for m, expected in ((3, 2), (5, 3), (7, 4)):
        got = arity_after_intact(m, 1)
        if got != expected:
            failures.append(f"({m},1) -> {got}, expected {expected}")
    try:
        arity_after_intact(4, 1)
        failures.append("(4,1) was not rejected")
    except NotQuantized:
        pass
    _report(7, "intact-element arity law quantizes (3,5,7)->(2,3,4), rejects m=4", failures)


def test_criterion_08_builtin_quiver_associativity():
    failures = []
    z3 = zmod_add(3, 3)
    z2 = zmod_add(2, 5)
    cases = [
        (z3, "componentwise-3"), (z3, "post-ternary"),
        (z3, "ternary-to-binary-a"), (z3, "ternary-to-binary-b"),
        (z2, "post-5ary"), (z2, "five-to-three-intact"),
    ]
    for base, name in cases:
        verdict = check_total_associativity(
            hetero_power(base, builtin_quiver(name)).structure, CheckMode.exhaustive())
        if verdict.status != "proved-exhaustive":
            failures.append(f"{name} on {base.name}: {verdict}")
    scrambled = swap_picks(builtin_quiver("post-ternary"), ("top", 0), ("bottom", 0))
    d = hetero_power(z3, scrambled).structure
    verdict = check_total_associativity(d, CheckMode.exhaustive())
    if verdict.status != "failed":
        failures.append("scrambled post-ternary did not fail")
    else:
        polyad, i, j, ri, rj = verdict.counterexample
        if placement_result(d.op, polyad, i) != ri or placement_result(d.op, polyad, j) != rj:
            failures.append("counterexample does not replay")
    _report(8, "built-in quivers proved associative exhaustively; scramble fails", failures)


def test_criterion_09_gauge_twist_coincidence():
    failures = []
    for base in (zmod_add(5, 3), zmod_add(3, 2), zmod_mul(4, 3)):
        verdict = check_relation_coincidence(base)
        if not verdict.identical:
            failures.append(f"{base.name}: {verdict.disagreements[:2]}")
    _report(9, "gauge and twisted shifts give identical partitions on Z5+, Z3+, Z4*", failures)


def test_criterion_10_equivalence_axioms():
    failures = []
    limits = {"nat0": 40, "neg3": 20, "odd3": 101, "res-7-10": 200, "matrix4": 25}
    for name, limit in limits.items():
        recipe = get_recipe(name)
        s = recipe.build(limit)
        verdict = check_equivalence_axioms(s, recipe.exact_decision(), samples=200, seed=97)
        if not verdict.ok:
            failures.append(f"{name}: {verdict.failures[:2]}")
        elif verdict.transitivity_checked < 200:
            failures.append(
                f"{name}: only {verdict.transitivity_checked} transitivity witnesses built")
    _report(10, "equivalence axioms incl. combined-witness transitivity, 200 triples each", failures)


def test_criterion_11_well_definedness_honesty():
    failures = []
    passing = [
        ("neg3", "componentwise-3", 20), ("neg3", "post-ternary", 20),
        ("odd3", "componentwise-3", 41), ("odd3", "post-ternary", 41),
    ]
    for name, quiver, limit in passing:
        K = completion_for(name, quiver, limit)
        if not K.report.ok:
            failures.append(f"{name}/{quiver} unexpectedly failed: {K.report.well_defined}")
    # documented counterexample, derived by hand before the build:
    # swapping (7,17) for the equivalent (77,187) in slot 1 multiplies the
    # wired top by 11^2 while the intact bottom stays 17
    rule = get_recipe("res-7-10").exact_rule
    base_top = 7 * 17 * 7 * 17 * 7
    swapped_top = 77 * 17 * 7 * 187 * 7
    if swapped_top != base_top * 11 ** 2 or rule(Double(base_top, 17), Double(swapped_top, 17)):
        failures.append("hand-derived counterexample does not separate")
    K = completion_for("res-7-10", "five-to-three-intact", 200)
    if K.report.ok or K.report.well_defined.status != "failed":
        failures.append(f"residue intact product was not flagged: {K.report.well_defined}")
    if K.quer is not None:
        failures.append("quer was built despite the failed pipeline")
    wd = check_well_definedness(K.partition, K.quiver, samples=200, seed=97)
    if wd.ok:
        failures.append("checker did not reproduce a counterexample")
    else:
        _members, _slot, _alt, r1, r2 = wd.counterexample
        if rule(r1, r2):
            failures.append("reported counterexample is not a counterexample")
    _report(11, "well-definedness: componentwise/post pass, residue intact product fails", failures)


def test_criterion_12_universal_factorization():
    failures = []
    K = completion_for("nat0", "componentwise-2", limit=40)
    v1 = check_universal_factorization(K, integers_group(400), lambda x: x,
                                       samples=100, seed=97)
    if (v1.status, v1.checked) != ("passed-sampled", 100):
        failures.append(f"integers: {v1}")
    v2 = check_universal_factorization(K, integers_mod_group(6), lambda x: x % 6,
                                       samples=100, seed=97)
    if (v2.status, v2.checked) != ("passed-sampled", 100):
        failures.append(f"integers mod 6: {v2}")
    _report(12, "binary factorization through Z and Z6, 100 samples each", failures)
