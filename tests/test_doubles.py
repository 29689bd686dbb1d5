import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygroth import (
    CheckMode,
    Double,
    FiniteCarrier,
    NAryOperation,
    Pick,
    QuiverSpec,
    all_doubles,
    apply_quiver,
    arity_after_intact,
    builtin_quiver,
    check_total_associativity,
    commutativity_report,
    double_carrier,
    find_identities,
    format_quiver,
    hetero_power,
    parse_quiver,
    PolyadicStructure,
    placement_result,
    swap_picks,
    verify_polyadic_group,
    zmod_add,
)
from polygroth import core, doubles
from polygroth.core import _assoc_scan, _index_rows, _index_table
from polygroth.errors import (
    ArityMismatch, InvalidQuiver, NonMember, NotQuantized, UnknownQuiver, UsageError,
)
from polygroth.structures import get_recipe
from polygroth.tables import format_table, parse_table
from reference import (
    BUILTIN_NAMES, apply_quiver_by_picks, assoc_reference, compiled_by_evaluation, count_calls,
    counted_zmod_add, cyclic_flat, every_wiring, perturbed, plain_power, reference_row_entries,
    relabelled, table_structure, table_text,
)

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
    assert q.top == (Pick(1, "T"), Pick(2, "B"), Pick(3, "T"))
    assert q.bottom == (Pick(1, "B"), Pick(2, "T"), Pick(3, "B"))


def test_ternary_to_binary_wirings():
    qa = builtin_quiver("ternary-to-binary-a")
    assert qa.top == (Pick(1, "T"), Pick(1, "B"), Pick(2, "T"))
    assert qa.bottom == (Pick(2, "B"),)
    qb = builtin_quiver("ternary-to-binary-b")
    assert qb.top == (Pick(1, "T"), Pick(2, "B"), Pick(2, "T"))
    assert qb.bottom == (Pick(1, "B"),)


def test_five_to_three_wiring():
    q = builtin_quiver("five-to-three-intact")
    assert q.top == (Pick(1, "T"), Pick(2, "B"), Pick(3, "T"), Pick(1, "B"), Pick(2, "T"))
    assert q.bottom == (Pick(3, "B"),)
    assert (q.input_arity, q.output_arity, q.intact_count) == (5, 3, 1)


def test_unknown_quiver():
    with pytest.raises(UnknownQuiver):
        builtin_quiver("no-such-quiver")


def test_quiver_validation_rejects_bad_arity():
    with pytest.raises(InvalidQuiver):  # intact=1 forces n=2
        parse_quiver("3<-3 intact=1; top=(1,T)(1,B)(2,T); bottom=(2,B)")


def test_quiver_validation_rejects_double_consumption():
    with pytest.raises(InvalidQuiver):
        QuiverSpec(((1, "T"), (1, "T"), (3, "T")), ((1, "B"), (2, "B"), (3, "B")))


def test_quiver_validation_rejects_short_product():
    # the wiring alone is a quantization error (m=2 with an intact wire);
    # against its header it is a mismatch
    with pytest.raises(InvalidQuiver):
        parse_quiver("2<-3 intact=1; top=(1,T)(1,B); bottom=(2,B)")
    with pytest.raises(NotQuantized):
        QuiverSpec(((1, "T"), (1, "B")), ((2, "B"),))


@pytest.mark.parametrize("top, bottom", [
    (((1, "T"),), ((1, "B"),)),                                   # two intact wires
    (((1, "T"), (2, "B"), (3, "T")), ((1, "B"), (2, "T"))),       # product widths differ
    (((1, "T"), (2, "B"), (3, "T")), ((1, "B"), (2, "T"), (3, "X"))),  # bad component
    (((1, "T"), (1, "B"), (2, "T")), ((3, "B"),)),                # slot beyond n
    ((), ()),                                                     # no picks at all
])
def test_quiver_validation_rejects_inconsistent_wirings(top, bottom):
    with pytest.raises(InvalidQuiver):
        QuiverSpec(top, bottom)


@pytest.mark.parametrize("top, bottom", [
    (((1, "T"), (2, "B"), (3, "T", 0)), ((1, "B"), (2, "T"), (3, "B"))),  # a 3-field pick
    ((("1", "T"), (2, "B"), (3, "T")), ((1, "B"), (2, "T"), (3, "B"))),  # a string slot
    (((1, "T"), (2, "B"), (3, "T")), 5),                                 # a wire that is no sequence
    (((True, "T"), (2, "B")), ((2, "T"), (1, "B"))),                     # a bool slot
], ids=["three-field-pick", "string-slot", "non-iterable-wire", "bool-slot"])
def test_quiver_validation_rejects_malformed_input(top, bottom):
    with pytest.raises(InvalidQuiver):
        QuiverSpec(top, bottom)


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
    d = hetero_power(z3, builtin_quiver("post-ternary")).structure
    for args in itertools.product(all_doubles(z3.carrier)[:4], repeat=3):
        (a1, b1), (a2, b2), (a3, b3) = args
        expect = Double((a1 + b2 + a3) % 3, (b1 + a2 + b3) % 3)
        assert d.op(args) == expect


def test_five_to_three_matches_hand_formula():
    z2 = zmod_add(2, 5)
    d = hetero_power(z2, builtin_quiver("five-to-three-intact")).structure
    for args in itertools.product(all_doubles(z2.carrier), repeat=3):
        (a1, b1), (a2, b2), (a3, b3) = args
        expect = Double((a1 + b2 + a3 + b1 + a2) % 2, b3)
        assert d.op(args) == expect


def test_twisted_binary_matches_hand_formula():
    nat = get_recipe("nat0").build(10)
    d = hetero_power(nat, builtin_quiver("twisted-binary")).structure
    assert d.op((Double(2, 3), Double(5, 7))) == Double(2 + 7, 5 + 3)


def test_componentwise_power():
    z3 = zmod_add(3, 3)
    d = hetero_power(z3, builtin_quiver("componentwise-3")).structure
    assert d.arity == 3
    assert d.op((Double(1, 2), Double(2, 2), Double(0, 1))) == Double(0, 2)


def test_hetero_power_arity_mismatch():
    with pytest.raises(ArityMismatch):
        hetero_power(zmod_add(3, 3), builtin_quiver("componentwise-2"))


def test_apply_quiver_arity_mismatch():
    q = builtin_quiver("post-ternary")
    with pytest.raises(ArityMismatch):
        apply_quiver(q, zmod_add(3, 3).op, [Double(0, 0)])


def random_intact_wiring(rng, m):
    """parse_quiver text of a random n<-m wiring with one intact wire."""
    n = m - (m - 1) // 2
    picks = [f"({slot},{comp})" for slot in range(1, n + 1) for comp in "TB"]
    rng.shuffle(picks)
    wires = ["".join(picks[:m]), picks[m]]
    if rng.random() < 0.5:
        wires.reverse()
    return f"{n}<-{m} intact=1; top={wires[0]}; bottom={wires[1]}"


def test_gathered_wiring_matches_pick_by_pick_reference():
    # the base op returns its argument tuple, tagged, so a value records
    # whether the op ran and which inputs a wire read, in what order
    rng = random.Random(5)
    quivers = [builtin_quiver(name) for name in BUILTIN_NAMES]
    for q in list(quivers):
        widths = {"top": len(q.top), "bottom": len(q.bottom)}
        for _ in range(4):
            a, b = [(side, rng.randrange(widths[side]))
                    for side in (rng.choice(["top", "bottom"]) for _ in range(2))]
            quivers.append(swap_picks(q, a, b))
    quivers += [parse_quiver(random_intact_wiring(rng, m)) for m in (3, 3, 5, 5, 5)]
    assert sum(q.intact_count for q in quivers) >= 10
    for q in quivers:
        op = NAryOperation(q.input_arity, lambda t: ("op",) + t)
        plain = [(f"t{i}", f"b{i}") for i in range(1, q.output_arity + 1)]
        doubles = [Double(*d) for d in plain]
        want = apply_quiver_by_picks(q, op, doubles)
        assert apply_quiver(q, op, doubles) == want, format_quiver(q)
        assert apply_quiver(q, op, plain) == want, format_quiver(q)
        assert apply_quiver(q, op, tuple(plain)) == want
        for _ in range(3):
            shuffled = rng.sample(doubles, len(doubles))
            assert apply_quiver(q, op, shuffled) == apply_quiver_by_picks(q, op, shuffled)


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
    d = hetero_power(zmod_add(4, 2), builtin_quiver("twisted-binary")).structure
    t = (Double(0, 0), Double(0, 0), Double(0, 1))
    assert placement_result(d.op, t, 0) == Double(1, 0)
    assert placement_result(d.op, t, 1) == Double(0, 1)
    v = check_total_associativity(d, CheckMode.exhaustive())
    assert v.status == "failed"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_builtin_scramble_has_a_counterexample(name):
    q = builtin_quiver(name)
    base = zmod_add(3, q.input_arity) if q.input_arity <= 3 else zmod_add(2, q.input_arity)
    scrambled = swap_picks(q, ("top", 0), ("bottom", 0))
    d = hetero_power(base, scrambled).structure
    v = check_total_associativity(d, CheckMode.exhaustive())
    assert v.status == "failed"
    polyad, i, j, ri, rj = v.counterexample
    assert placement_result(d.op, polyad, i) == ri != rj == placement_result(d.op, polyad, j)


def test_swapped_post_ternary_breaks_associativity():
    z3 = zmod_add(3, 3)
    scrambled = swap_picks(builtin_quiver("post-ternary"), ("top", 0), ("bottom", 0))
    d = hetero_power(z3, scrambled).structure
    v = check_total_associativity(d, CheckMode.exhaustive())
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
    return table_text(k, m, flat, [f"v{k - 1 - i}" for i in range(k)])


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


def test_power_evaluates_no_base_operation_until_an_exhaustive_check():
    derived, binary = counted_zmod_add(3, 3)
    parsed = parse_table(format_table(zmod_add(3, 3)))
    ternary = count_calls(parsed)
    for base, calls, compiles in ((derived, binary, 9), (parsed, ternary, 0)):
        d = hetero_power(base, builtin_quiver("post-ternary"))
        assert calls == []
        assert check_total_associativity(d.structure, CheckMode.exhaustive()).ok
        # the base table is compiled once: a derived base folds it from its
        # 3x3 binary table (a ternary product would add binary calls), and a
        # parsed table arrives compiled; the proof is lifted from it, so the
        # power's table is never derived
        assert len(calls) == compiles
        assert "index_table" not in d.structure.facts


def test_derived_rows_read_the_binary_table_once(monkeypatch):
    # a derived structure cuts its binary table into rows once, so deriving
    # every row, twice over, reads that table once and pays k^2 binary calls
    reads = []
    s, binary = counted_zmod_add(5, 4)
    index_table = core._index_table
    monkeypatch.setattr(core, "_index_table", lambda t: reads.append(t) or index_table(t))
    row = s.facts["index_row"]
    rows = [row(r) for r in range(5)] + [row(r) for r in range(5)]
    assert rows[:5] == rows[5:] == [tuple((r + sum(t)) % 5 for t in itertools.product(
        range(5), repeat=3)) for r in range(5)]
    assert len(reads) == 1 and len(binary) == 5 ** 2


def counting_base_proofs(monkeypatch):
    """The steps of the lift's base proof, logged as they run: the
    Hosszu-Gluskin decomposition first, then the scan if it fails."""
    steps = []
    decomposes, scan = doubles._decomposes, doubles._assoc_scan
    monkeypatch.setattr(doubles, "_decomposes",
                        lambda s: steps.append("decomposition") or decomposes(s))
    monkeypatch.setattr(doubles, "_assoc_scan", lambda *a: steps.append("scan") or scan(*a))
    return steps


def test_power_runs_its_base_proof_at_most_once(monkeypatch):
    # Z3 addition is proved by its decomposition, Z4 multiplication (no
    # group) by the scan after it; either proof runs once over three checks
    steps = counting_base_proofs(monkeypatch)
    z4 = table_structure(4, 3, [math.prod(t) % 4 for t in itertools.product(range(4), repeat=3)])
    for base, proof in ((zmod_add(3, 3), ["decomposition"]), (z4, ["decomposition", "scan"])):
        del steps[:]
        d = hetero_power(base, builtin_quiver("post-ternary"))
        for _ in range(3):
            assert check_total_associativity(d.structure, CheckMode.exhaustive()).ok
        assert steps == proof
        # a scrambled wiring fails the word check and never proves the base
        scrambled = hetero_power(base, swap_picks(builtin_quiver("post-ternary"),
                                                  ("top", 0), ("bottom", 0)))
        assert check_total_associativity(scrambled.structure, CheckMode.exhaustive()).status == "failed"
        assert steps == proof


def test_group_bases_lift_by_their_decomposition_without_a_scan(monkeypatch):
    # Z5 ternary, Z7 4-ary and Z3 5-ary addition are n-ary groups, proved by
    # their Hosszu-Gluskin decomposition with no scan of the base; Z4 ternary
    # multiplication and a one-entry perturbation of Z5 ternary are not, and
    # are scanned.  The lift's answer is the base scan's, and the power's
    # verdict that of a fact-free structure on the same product, whose table
    # is compiled by evaluation (except Z7 4-ary: 49^4 entries)
    rng = random.Random(67)
    steps = counting_base_proofs(monkeypatch)
    z5 = cyclic_flat(5, 3)
    z4 = [math.prod(t) % 4 for t in itertools.product(range(4), repeat=3)]
    cases = [(zmod_add(5, 3), "post-ternary", 0), (zmod_add(7, 4), "componentwise-4", 0),
             (zmod_add(3, 5), "five-to-three-intact", 0),
             (table_structure(4, 3, z4), "post-ternary", 1),
             (table_structure(5, 3, perturbed(5, z5, rng)), "post-ternary", 1)]
    for base, name, scans in cases:
        del steps[:]
        power = hetero_power(base, builtin_quiver(name)).structure
        lifted = power.facts["lifted_associativity"]()
        assert steps == ["decomposition"] + ["scan"] * scans, name
        assert lifted == (_assoc_scan(*_index_rows(base), base.arity) is None)
        if len(power.carrier) ** power.arity <= 20_000:
            fresh = PolyadicStructure(power.carrier, power.op)
            v = check_total_associativity(power, CheckMode.exhaustive())
            assert v == check_total_associativity(fresh, CheckMode.exhaustive())
            assert v.ok == lifted


def test_placement_words_are_decided_once_per_wiring(monkeypatch):
    # the words depend on the wires alone, so a second power over an equal
    # wiring, re-parsed under another object, evaluates no symbolic placement
    calls = []
    monkeypatch.setattr(doubles, "placement_result",
                        lambda *a: calls.append(a) or placement_result(*a))
    doubles._placement_words.cache_clear()
    text = format_quiver(swap_picks(builtin_quiver("post-ternary"), ("top", 0), ("bottom", 1)))
    for _ in range(2):
        power = hetero_power(zmod_add(3, 3), parse_quiver(text, name="custom")).structure
        assert check_total_associativity(power, CheckMode.exhaustive()).status == "failed"
    assert len(calls) == 3


def test_power_of_unclosed_base_raises_on_exhaustive_check():
    # the compile of the base table meets 2+2+2 = 6, not in Z3: the lift
    # declines on it for a word-identical wiring, and the scan of the power's
    # rows, which compiles it for either wiring, raises
    carrier = FiniteCarrier(range(3))
    unclosed = PolyadicStructure(carrier, NAryOperation(3, sum))
    q = builtin_quiver("post-ternary")
    for wiring in (q, swap_picks(q, ("top", 0), ("bottom", 0))):
        d = hetero_power(unclosed, wiring)
        with pytest.raises(NonMember):
            check_total_associativity(d.structure, CheckMode.exhaustive())


# ---------------------------------------------------------------------------
# associativity lifted from the base by word identity


def closed_transformations(gens):
    """Flat binary table of the semigroup of maps of {0,1,2} that gens generate."""
    elems = list(dict.fromkeys(gens))
    for f in elems:  # the list grows while it is walked
        for g in list(elems):
            for h in (tuple(f[g[x]] for x in range(3)), tuple(g[f[x]] for x in range(3))):
                if h not in elems:
                    elems.append(h)
    index = {f: i for i, f in enumerate(elems)}
    return len(elems), [index[tuple(f[g[x]] for x in range(3))] for f in elems for g in elems]


def associative_binary_tables(rng):
    """(label, k, flat) of seeded associative binary tables."""
    tables = {}
    for k in (2, 3, 4):
        tables[f"Z{k}+"] = k, [(x + y) % k for x in range(k) for y in range(k)]
        tables[f"Z{k}*"] = k, [(x * y) % k for x in range(k) for y in range(k)]
    for k in (2, 3):
        tables[f"left-zero {k}"] = k, [x for x in range(k) for _ in range(k)]
        tables[f"right-zero {k}"] = k, [y for _ in range(k) for y in range(k)]
    maps = list(itertools.product(range(3), repeat=3))
    while len(tables) < 15:
        k, flat = closed_transformations(rng.sample(maps, 2))
        if 2 <= k <= 5:
            tables[f"T3 sub {len(tables)}"] = k, flat
    for a, b in (("Z2+", "left-zero 2"), ("Z3*", "right-zero 2")):
        (ka, fa), (kb, fb) = tables[a], tables[b]
        tables[f"{a} x {b}"] = ka * kb, [
            fa[a1 * ka + a2] * kb + fb[b1 * kb + b2]
            for a1 in range(ka) for b1 in range(kb) for a2 in range(ka) for b2 in range(kb)]
    return [(label, k, flat) for label, (k, flat) in tables.items()]


def iterated_flat(k, flat, m):
    """The m-ary table of the left-nested iterate of a binary table."""
    def fold(t):
        acc = t[0]
        for x in t[1:]:
            acc = flat[acc * k + x]
        return acc
    return [fold(t) for t in itertools.product(range(k), repeat=m)]


def without_lift(base, q):
    power = hetero_power(base, q).structure
    del power.facts["lifted_associativity"]
    return power


def test_lifted_associativity_agrees_with_the_scan():
    # every built-in quiver and two scrambles of it, over seeded associative
    # tables and one-entry perturbations of them, wherever the power has at
    # most 300,000 tuples to scan: the verdict with the lift (status, checked
    # and counterexample) is the verdict of the plain scan
    rng = random.Random(59)
    quivers = {}
    for name in BUILTIN_NAMES:
        q = builtin_quiver(name)
        swaps = [(i, j) for i in range(len(q.top)) for j in range(len(q.bottom))]
        quivers.setdefault(q.input_arity, []).append(q)
        quivers[q.input_arity] += [swap_picks(q, ("top", i), ("bottom", j))
                                   for i, j in rng.sample(swaps, 2)]
    answers = set()
    for label, k, flat in associative_binary_tables(rng):
        for m, wirings in quivers.items():
            table = flat if m == 2 else iterated_flat(k, flat, m)
            for q in wirings:
                if (k * k) ** (2 * q.output_arity - 1) > 300_000:
                    continue
                for flat_m in (table, perturbed(k, table, rng)):
                    base = table_structure(k, m, flat_m, name=label)
                    power = hetero_power(base, q).structure
                    lifted = power.facts["lifted_associativity"]()
                    v = check_total_associativity(power, CheckMode.exhaustive())
                    want = check_total_associativity(without_lift(base, q), CheckMode.exhaustive())
                    assert v == want, (label, flat_m, format_quiver(q))
                    answers.add((lifted, q.name, v.status))
    # the lift proves powers by word identity and by multiset identity over a
    # commutative base, and leaves proofs and refutations to the scan
    assert (True, "post-ternary", "proved-exhaustive") in answers
    assert (True, "five-to-three-intact", "proved-exhaustive") in answers
    assert {(lifted, status) for lifted, _, status in answers} == {
        (True, "proved-exhaustive"), (False, "proved-exhaustive"), (False, "failed")}


def test_noncommutative_5ary_base_falls_back_to_the_scan():
    # five-to-three-intact gives words equal only up to order, so over an
    # associative base that is not commutative the lift does not apply: the
    # scan proves the power over the left-zero band and refutes it over the
    # right-zero band
    q = builtin_quiver("five-to-three-intact")
    for k, flat, status in ((2, [x for x in range(2) for _ in range(2)], "proved-exhaustive"),
                            (2, [y for _ in range(2) for y in range(2)], "failed")):
        base = table_structure(k, 5, iterated_flat(k, flat, 5))
        assert check_total_associativity(base, CheckMode.exhaustive()).ok
        assert commutativity_report(base, CheckMode.exhaustive()).level != "full"
        power = hetero_power(base, q).structure
        assert power.facts["lifted_associativity"]() is False
        v = check_total_associativity(power, CheckMode.exhaustive())
        assert v.status == status
        assert v == check_total_associativity(without_lift(base, q), CheckMode.exhaustive())
        # the scan reads the power's rows; it never assembles the whole table
        assert "index_table" not in power.facts


def test_sampled_verdicts_with_the_lift_match_the_draws():
    # seeded random, perturbed and Z_k tables and the right-zero band, which
    # is associative but not commutative (k = 2..5, m = 2..4, and the 5-ary
    # multiset wiring on k = 2, 3), half of them relabelled, through
    # every built-in wiring of their arity and two scrambles of it: the whole
    # sampled verdict is the one drawn without the lift, at counts on either
    # side of the lift's budget
    rng = random.Random(67)
    wirings = {}
    for name in BUILTIN_NAMES + ["componentwise-4"]:
        q = builtin_quiver(name)
        wirings.setdefault(q.input_arity, []).extend(
            [q] + rng.sample(every_scramble(q), 2))
    answers = set()
    for k, m in itertools.product(range(2, 6), range(2, 6)):
        if m == 5 and k > 3:
            continue
        group = cyclic_flat(k, m)
        band = [t[-1] for t in itertools.product(range(k), repeat=m)]
        for i, flat in enumerate((group, perturbed(k, group, rng),
                                  [rng.randrange(k) for _ in group], band)):
            base = (relabelled(table_structure(k, m, flat), rng) if (i + k) % 2
                    else table_structure(k, m, flat))
            for q in wirings[m]:
                for count in (0, 1, 7, 500):
                    mode = CheckMode.sampled(count, rng.randrange(10_000))
                    power = hetero_power(base, q).structure
                    v = check_total_associativity(power, mode)
                    assert v == check_total_associativity(without_lift(base, q), mode), (
                        k, m, flat, format_quiver(q), mode)
                    answers.add((power.facts["lifted_associativity"](count), v.status))
    assert answers == {(True, "passed-sampled"), (False, "passed-sampled"),
                       (False, "failed"), (False, "vacuous")}


def test_a_lifted_sampled_check_evaluates_no_base_operation():
    # within the budget (3^3 * 3 <= 2 * 3 * 50) the lift decides
    # every draw from the parsed table; a scrambled wiring draws, and fails
    base = parse_table(format_table(zmod_add(3, 3)))
    calls = count_calls(base)
    q = builtin_quiver("post-ternary")
    v = check_total_associativity(hetero_power(base, q).structure, CheckMode.sampled(50, 5))
    assert (str(v), calls) == ("passed-sampled(50)", [])
    scrambled = hetero_power(base, swap_picks(q, ("top", 0), ("bottom", 0))).structure
    assert check_total_associativity(scrambled, CheckMode.sampled(50, 5)).status == "failed"
    assert calls


def test_a_declined_budget_keeps_the_lift_for_an_exhaustive_check():
    # Z12 ternary with one draw: the lift would compile 12^3 entries, the
    # draw makes 6 products, so the check draws and compiles nothing; the
    # exhaustive check then proves the (144)^5 tuples by the lift
    calls = []
    base = PolyadicStructure(FiniteCarrier(range(12)), NAryOperation(
        3, lambda t: calls.append(t) or sum(t) % 12))
    power = hetero_power(base, builtin_quiver("post-ternary")).structure
    assert str(check_total_associativity(power, CheckMode.sampled(1, 9))) == "passed-sampled(1)"
    assert len(calls) == 12 and "index_table" not in base.facts
    assert power.facts["lifted_associativity"](1) is False
    v = check_total_associativity(power, CheckMode.exhaustive())
    assert (v.status, v.checked) == ("proved-exhaustive", 144 ** 5)
    assert len(calls) == 12 + 12 ** 3
    assert power.facts["lifted_associativity"](1) is True


def test_the_lift_is_asked_from_one_pass_over_the_base_table_per_slot():
    # Z7 ternary through post-ternary: 7^3 * 3 = 1029 <= 2 * 3 * 172, so 172
    # draws ask the lift and 171 do not
    lifted = hetero_power(parse_table(format_table(zmod_add(7, 3))),
                          builtin_quiver("post-ternary")).structure.facts["lifted_associativity"]
    assert lifted(171) is False
    assert lifted(172) is True


def test_sampled_lift_edges():
    # an unclosed base: the lift declines on the compile's NonMember and the
    # draws pass, as they do without it
    unclosed = PolyadicStructure(FiniteCarrier(range(3)), NAryOperation(2, lambda t: t[0] + t[1]))
    q, mode = builtin_quiver("componentwise-2"), CheckMode.sampled(50, 1)
    v = check_total_associativity(hetero_power(unclosed, q).structure, mode)
    assert str(v) == "passed-sampled(50)"
    assert v == check_total_associativity(without_lift(unclosed, q), mode)
    # an empty carrier is a usage error before the lift is asked
    empty = PolyadicStructure(FiniteCarrier([]), NAryOperation(2, lambda t: t[0]))
    with pytest.raises(UsageError, match="empty carrier enumeration"):
        check_total_associativity(hetero_power(empty, q).structure, mode)
    # no draws read vacuous, even once the lift has proved the power
    power = hetero_power(zmod_add(3, 2), q).structure
    assert power.facts["lifted_associativity"]() is True
    assert str(check_total_associativity(power, CheckMode.sampled(0, 1))) == "vacuous(0)"


# ---------------------------------------------------------------------------
# the row kernel on powers


def every_scramble(q):
    """Each swap_picks of two distinct picks of q, on one wire or across both."""
    addrs = [(side, i) for side, wire in (("top", q.top), ("bottom", q.bottom))
             for i in range(len(wire))]
    return [swap_picks(q, a, b) for a, b in itertools.combinations(addrs, 2)]


def test_row_kernel_on_powers_agrees_with_placements_and_the_assembled_table():
    # seeded random and perturbed bases with every built-in quiver of input
    # arity 2 or 3 and every scramble of it: the exhaustive verdict (status,
    # checked, counterexample) read from derived rows is the verdict of a
    # tuple-by-tuple scan and of a structure carrying the assembled table
    rng = random.Random(61)
    statuses = set()
    for name in ("componentwise-2", "twisted-binary", "componentwise-3", "post-ternary",
                 "ternary-to-binary-a", "ternary-to-binary-b"):
        q = builtin_quiver(name)
        m = q.input_arity
        for k in (2, 3):
            if (k * k) ** (2 * q.output_arity - 1) > 60_000:
                continue
            group = cyclic_flat(k, m)
            bases = [[rng.randrange(k) for _ in group], perturbed(k, group, rng)]
            for flat in bases:
                base = table_structure(k, m, flat)
                for wiring in [q] + every_scramble(q):
                    power = without_lift(base, wiring)
                    v = check_total_associativity(power, CheckMode.exhaustive())
                    assert "index_table" not in power.facts
                    assembled = without_lift(base, wiring)
                    assembled.facts = {"index_table": _index_table(assembled)}
                    assert v == check_total_associativity(assembled, CheckMode.exhaustive())
                    assert v == assoc_reference(plain_power(base, wiring)), (flat, format_quiver(wiring))
                    statuses.add(v.status)
    assert statuses == {"proved-exhaustive", "failed"}


def test_power_rows_match_bound_product_on_both_sides_of_the_byte_path():
    # seeded random bases of 2..17 elements and arity 2, 3 and 5, each under
    # every built-in quiver of its arity and two scrambles of it, and
    # post-ternary with its top picks 1 and 2 swapped.  A power of at most 256
    # elements whose rest codes, (k-1) times the weight of the picks off
    # double 1, stay below 256 has bytes rows (Z16 ternary does; Z5 5-ary and
    # Z7 under that swap, whose top wire (2B, 1T, 3T) reaches 6 * 50 = 300,
    # are past the bound), and every row read is the reference's; past
    # 2^14 table entries three rows are read, at 500 positions each.  Where
    # the table is at most 2^14 entries, the exhaustive verdict is that of a
    # fact-free structure on the same product
    rng = random.Random(71)
    cases = ([(k, 2) for k in (2, 3, 5, 9, 16, 17)] + [(k, 3) for k in (2, 3, 6, 7, 16, 17)]
             + [(k, 5) for k in (2, 4, 5)])
    swapped = {"post-ternary": [swap_picks(builtin_quiver("post-ternary"), ("top", 0), ("top", 1))]}
    paths = set()
    for k, m in cases:
        base = table_structure(k, m, [rng.randrange(k) for _ in range(k ** m)])
        for q0 in [q for q in map(builtin_quiver, BUILTIN_NAMES) if q.input_arity == m]:
            for q in [q0] + rng.sample(every_scramble(q0), 2) + swapped.get(q0.name, []):
                power = hetero_power(base, q).structure
                row, kk, n = power.facts["index_row"], k * k, q.output_arity
                rest = max(sum(k ** (len(w) - 1 - j) for j, p in enumerate(w) if p.slot != 1)
                           for w in (q.top, q.bottom))
                small = kk <= 256 and (k - 1) * rest < 256
                assert (type(row(0)) is bytes) == small, (k, format_quiver(q))
                paths.add((small, k, m))
                width, full = kk ** (n - 1), kk ** n <= 2 ** 14
                for r in range(kk) if full else rng.sample(range(kk), 3):
                    positions = range(width) if full else rng.sample(range(width), min(width, 500))
                    got = tuple(row(r))
                    assert [got[c] for c in positions] == reference_row_entries(q, base, r, positions)
                if full:
                    fresh = PolyadicStructure(power.carrier, power.op)
                    assert check_total_associativity(power, CheckMode.exhaustive()) == \
                        check_total_associativity(fresh, CheckMode.exhaustive())
    assert {(True, 16, 3), (True, 4, 5), (False, 5, 5), (False, 7, 3), (False, 17, 3)} <= paths


def test_power_of_a_one_element_base_has_a_one_entry_table():
    power = without_lift(zmod_add(1, 3), builtin_quiver("post-ternary"))
    assert check_total_associativity(power, CheckMode.exhaustive()).status == "proved-exhaustive"
    assert _index_table(power) == ((0,), 1)


def test_refutation_derives_only_the_rows_it_reads():
    # scrambled post-ternary powers over Z6 that fail in block 0, which reads
    # only row 0 (all its digits and its product are double 0), and in block
    # 1, which adds the row of its last digit; each row is derived once
    base = parse_table(format_table(zmod_add(6, 3)))
    cases = [((("top", 2), ("bottom", 2)), 2, [0]),
             ((("top", 0), ("bottom", 0)), 36 ** 2 + 1, [0, 1])]
    for swap, checked, rows in cases:
        q = swap_picks(builtin_quiver("post-ternary"), *swap)
        power = hetero_power(base, q).structure
        derived = []
        row = power.facts["index_row"]
        power.facts["index_row"] = lambda r: derived.append(r) or row(r)
        v = check_total_associativity(power, CheckMode.exhaustive())
        assert (v.status, v.checked) == ("failed", checked)
        assert v == assoc_reference(plain_power(base, q))
        assert derived == rows
        assert "index_table" not in power.facts


def test_scan_and_table_assembly_derive_each_row_once():
    # without the lift, the group check scans the power's rows and then
    # assembles its table for solvability; commutativity reads that table,
    # so the 9 rows of the Z3 power are derived once each
    power = without_lift(zmod_add(3, 3), builtin_quiver("post-ternary"))
    gv = verify_polyadic_group(power, CheckMode.exhaustive())
    assert gv.associativity.status == "proved-exhaustive" and "index_table" in power.facts
    assert commutativity_report(power, CheckMode.exhaustive()).level == "semi"
    assert power.facts["index_row"].cache_info().misses == 9


# ---------------------------------------------------------------------------
# commutativity of powers


def test_componentwise_power_stays_fully_commutative():
    d = hetero_power(zmod_add(3, 3), builtin_quiver("componentwise-3"))
    assert commutativity_report(d.structure, CheckMode.exhaustive()).level == "full"


def test_post_ternary_power_loses_full_commutativity():
    # first/last swap survives by symmetry of the wiring, all permutations do not
    d = hetero_power(zmod_add(3, 3), builtin_quiver("post-ternary")).structure
    rep = commutativity_report(d, CheckMode.exhaustive())
    assert rep.level == "semi"
    polyad, perm = rep.full_failure
    assert d.op(polyad) != d.op(tuple(polyad[p] for p in perm))


def test_post_5ary_power_is_semi_not_full():
    # swapping two adjacent doubles mixes top and bottom picks: full fails
    d = hetero_power(zmod_add(2, 5), builtin_quiver("post-5ary")).structure
    rep = commutativity_report(d, CheckMode.exhaustive())
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


def identity_slots(d, E):
    """Per-slot verdicts: slot i holds iff op[E^i, S, E^(n-1-i)] = S for every S."""
    s = d.structure
    return tuple(all(s.op((E,) * i + (S,) + (E,) * (s.arity - 1 - i)) == S
                     for S in s.carrier.elements()) for i in range(s.arity))


def test_identity_reports():
    # E = (e, e) for the identity e of the base: two-sided on the
    # componentwise power, left (only op[E,...,E,S] = S) or right (only
    # op[S,E,...,E] = S) on the intact wirings
    z3, E = zmod_add(3, 3), Double(0, 0)
    assert identity_slots(hetero_power(z3, builtin_quiver("componentwise-3")), E) == (True,) * 3
    assert identity_slots(hetero_power(z3, builtin_quiver("ternary-to-binary-a")), E) == (
        False, True)
    assert identity_slots(hetero_power(z3, builtin_quiver("ternary-to-binary-b")), E) == (
        True, False)
    z2 = zmod_add(2, 5)
    assert identity_slots(hetero_power(z2, builtin_quiver("five-to-three-intact")), E) == (
        False, False, True)


def test_post_ternary_identity_holds_at_outer_slots_only():
    # E=(e,e) survives op[S,E,E] and op[E,E,S]; the middle placement swaps
    # the components of S, so it is not a full ternary identity
    z3 = zmod_add(3, 3)
    d = hetero_power(z3, builtin_quiver("post-ternary"))
    assert identity_slots(d, Double(0, 0)) == (True, False, True)
    E, S = Double(0, 0), Double(1, 2)
    assert d.structure.op((E, S, E)) == Double(2, 1)


def test_no_identity_candidate_on_odds_power():
    # no base identity, so no E = (e, e) to try, and no identity of the power
    odd = get_recipe("odd3").build(21)
    assert find_identities(odd) == []
    assert find_identities(hetero_power(odd, builtin_quiver("componentwise-3")).structure) == []


@pytest.mark.parametrize("m, intact, count", [(3, 0, 720), (3, 1, 48), (5, 1, 1440)])
def test_wiring_census(m, intact, count):
    # every wiring of the header validates, derives the header's arities and
    # round-trips; the same wiring under each header that disagrees with it
    # is refused as InvalidQuiver, or NotQuantized when the declared m is
    # even and a wire is intact
    n = arity_after_intact(m, intact)
    wirings = every_wiring(m, intact)
    assert len(set(wirings)) == count
    for top, bottom in wirings:
        q = QuiverSpec(top, bottom)
        assert (q.output_arity, q.input_arity, q.intact_count) == (n, m, intact)
        text = format_quiver(q)
        assert parse_quiver(text) == q and format_quiver(parse_quiver(text)) == text
        header, wiring = text.split("; ", 1)
        assert header == f"{n}<-{m} intact={intact}"
        for hn, hm, hl in ((n - 1, m, intact), (n + 1, m, intact), (n, m - 1, intact),
                           (n, m + 1, intact), (n, m, 1 - intact)):
            with pytest.raises((InvalidQuiver, NotQuantized)) as exc:
                parse_quiver(f"{hn}<-{hm} intact={hl}; {wiring}")
            assert exc.type is (NotQuantized if hm % 2 == 0 and intact else InvalidQuiver)


def test_enumerate_all_ternary_to_binary_wirings():
    # all 48 one-intact binary wirings of a ternary base; report how many are
    # associative on the Z3-derived base
    z3 = zmod_add(3, 3)
    associative = []
    for top, bottom in every_wiring(3, 1):
        q = QuiverSpec(top, bottom)
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
    q = QuiverSpec(picks[:3], picks[3:])
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
