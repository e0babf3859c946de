from __future__ import annotations

import json
import random
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import datagen
import oracles
from parapic.covers import C2_GROUP, C3_GROUP, IDENTITY, compose, conjugate, perm_order
from parapic import descent
from parapic.dynkin import parse_affine_type
from parapic.errors import BoundUnavailableError, DomainError, NoCoverError, PairingError
from parapic.factorization import (
    CASE3_LITERAL,
    CASE4_LITERAL,
    BaseCase,
    DecompositionWitness,
    _gsd2_sides,
    _shape_error,
    degenerate_gsd3,
    free_labels,
    pair_partition_gsd2,
    pq_sets,
    s3_reduce,
    vacuum_weight,
)
from parapic.picard import GroupDatum, PointDatum, c_delta, vacuum_bundle
from parapic.verlinde import rank_lower_bound

T = parse_affine_type
T12, T23, T13 = (2, 1, 3), (1, 3, 2), (3, 2, 1)
C123, C132 = (2, 3, 1), (3, 1, 2)

S3_CASES = ("S3Case1", "S3Case2", "S3Case3", "S3Case4")


def bad(label, typ, facet, mono):
    return PointDatum(label, T(typ), frozenset(facet), mono, is_bad=True)


def good(label, typ, facet):
    return PointDatum(label, T(typ), frozenset(facet), IDENTITY)


def _prod(seq):
    acc = IDENTITY
    for p in seq:
        acc = compose(acc, p)
    return acc


# ---------------------------------------------------------------------------
# s3_reduce


def test_reduce_two_transpositions_and_inverse_pair():
    w = s3_reduce((T12, T12, C123, C132))
    assert [f.kind for f in w.factors] == ["S3Case1", "S3Case2"]
    assert w.factors[0].elements == (T12, T12)
    assert w.factors[1].elements == (C123, C132)
    assert w.steps == []
    assert w.conservation == ("(12)", "(12)", "(123)", "(132)")


def test_reduce_case3_literal_is_fixed_point():
    w = s3_reduce(CASE3_LITERAL)
    (f,) = w.factors
    assert f.kind == "S3Case3"
    assert f.elements == CASE3_LITERAL
    assert f.conjugator == IDENTITY
    assert f.original == CASE3_LITERAL


def test_reduce_case3_conjugate_records_conjugator():
    delta = C123
    tup = tuple(conjugate(delta, x) for x in CASE3_LITERAL)
    w = s3_reduce(tup)
    (f,) = w.factors
    assert f.kind == "S3Case3"
    assert f.elements == CASE3_LITERAL
    assert f.original == tup
    # the recorded conjugator maps the original back onto the literal
    assert tuple(conjugate(f.conjugator, x) for x in tup) == CASE3_LITERAL


def test_reduce_case4_literal_is_fixed_point():
    w = s3_reduce(CASE4_LITERAL)
    (f,) = w.factors
    assert f.kind == "S3Case4"
    assert f.elements == CASE4_LITERAL
    assert f.conjugator == IDENTITY


def test_reduce_separated_pair_records_one_move_step():
    w = s3_reduce((T12, C123, T12, C123), labels=("a", "b", "c", "d"))
    assert [f.kind for f in w.factors] == ["S3Case1", "S3Case2"]
    assert w.factors[0].labels == ("a", "c")
    assert set(w.factors[1].labels) == {"b", "d"}
    assert w.steps == [{"op": "move", "mover": "c", "from": 2, "to": 1,
                        "conjugator": "(12)"}]


def test_reduce_identities_become_vacuum_factors():
    w = s3_reduce((IDENTITY, T13, IDENTITY, T13))
    kinds = [f.kind for f in oracles.factor_copies(w.factors)]
    assert kinds.count("UntwistedVacuum") == 2
    assert kinds.count("S3Case1") == 1


def test_reduce_three_cycle_triples():
    w = s3_reduce((C123,) * 3)
    (f,) = w.factors
    assert f.kind == "S3Case2" and f.elements == (C123,) * 3
    w = s3_reduce((C123, C123, C123, C123, C132))
    assert [f.kind for f in w.factors] == ["S3Case2", "S3Case2"]
    assert w.factors[0].elements == (C123, C132)
    assert w.factors[1].elements == (C123,) * 3


def test_reduce_carries_weights_through():
    w = s3_reduce(
        (T12, T12),
        labels=("x", "y"),
        charge=2,
        weight_map={"x": ((0, 2),), "y": ((1, 1),)},
    )
    (f,) = w.factors
    assert f.weights == (((0, 2),), ((1, 1),))
    # default weights are vacuum at the given charge
    w2 = s3_reduce((T12, T12), charge=3)
    assert w2.factors[0].weights == (vacuum_weight(3), vacuum_weight(3))


def test_reduce_rejects_non_identity_product():
    with pytest.raises(DomainError, match="identity"):
        s3_reduce((T12, C123))


def test_weight_helpers():
    assert vacuum_weight(2) == ((0, 2),)


@given(st.integers(0, 2 ** 31))
def test_reduce_invariants_random(seed):
    elems = datagen.random_s3_identity_vector(random.Random(seed))
    w = s3_reduce(elems)
    copies = oracles.factor_copies(w.factors)
    # conservation: exact multiset of nontrivial entries up to conjugacy
    got = sorted(
        perm_order(x) for f in copies for x in f.elements if x != IDENTITY
    )
    want = sorted(perm_order(x) for x in elems if x != IDENTITY)
    assert got == want
    # identities all become vacuum factors
    n_vac = sum(1 for f in copies if f.kind == "UntwistedVacuum")
    assert n_vac == sum(1 for x in elems if x == IDENTITY)
    # per-factor product identity
    for f in copies:
        assert _prod(f.elements) == IDENTITY
    # at most one exceptional factor
    assert sum(1 for f in copies if f.kind in ("S3Case3", "S3Case4")) <= 1
    # idempotence on the emitted base cases
    for f in copies:
        if f.kind in S3_CASES:
            again = s3_reduce(f.elements)
            assert len(again.factors) == 1
            assert again.factors[0].kind == f.kind
            assert again.factors[0].elements == f.elements


# ---------------------------------------------------------------------------
# the s3_reduce trail against an independent replay


def _check_trail(values, labels, edit=None):
    """Replay the trail of ``s3_reduce(values)`` with the oracle and check
    it against the factors; ``edit`` overrides fields of the first step."""
    w = s3_reduce(values, labels=labels)
    steps = w.steps if edit is None else [{**w.steps[0], **edit}] + w.steps[1:]
    value, moves = oracles.replay_s3_trail(labels, values, steps)
    copies = oracles.factor_copies(w.factors)
    seen = []
    for f in copies:
        got = tuple(value[lab] for lab in f.labels)
        if f.original is not None:
            assert got == f.original
            assert tuple(oracles.s3_conj(f.conjugator, x) for x in got) == f.elements
        else:
            assert got == f.elements
        seen += f.labels
    assert sorted(seen) == sorted(labels)
    # every rewrite move carries the next Case1 point, then the first two
    # points of the exceptional factor, to the front of the unconsumed part
    movers = [lab for f in copies if f.kind == "S3Case1" for lab in f.labels]
    movers += [lab for f in copies if f.original is not None for lab in f.labels[:2]]
    order = [lab for lab, v in zip(labels, values) if v != IDENTITY]
    dist = oracles.s3_move_distances(order, movers)
    assert moves == [(m, k + d, k) for k, (m, d) in enumerate(zip(movers, dist)) if d]
    # one step per move, and nothing else but the canonicalizations
    canon = [s for s in steps if s["op"] == "canonicalize"]
    assert len(steps) == len(moves) + len(canon)
    for step, f in zip(canon, (f for f in copies if f.original is not None)):
        assert step["conjugator"] == oracles.s3_name(f.conjugator)
    return w


@pytest.mark.parametrize("n", [2, 7, 40, 150, 400])
def test_trail_replays_on_seeded_vectors(n):
    for seed in range(4):
        r = random.Random(f"trail:{n}:{seed}")
        values = oracles.s3_closed([r.choice(oracles.S3_TUPLES) for _ in range(n - 1)])
        _check_trail(values, tuple(f"x{i}" for i in range(n)))


@given(st.lists(st.sampled_from(oracles.S3_TUPLES), max_size=30))
def test_trail_replays_on_hypothesis_vectors(prefix):
    values = oracles.s3_closed(prefix)
    _check_trail(values, tuple(f"q{len(values) - i}" for i in range(len(values))))


def test_trail_at_1600_points_is_linear():
    # one swap per element passed gave this vector a trail of 212,549 steps
    r = random.Random("trail:1600")
    values = oracles.s3_closed([r.choice(oracles.S3_TUPLES) for _ in range(1599)])
    w = _check_trail(values, tuple(f"x{i}" for i in range(1600)))
    assert len(w.steps) <= 2000


def test_trail_replay_rejects_a_tampered_step():
    values = (T12, C123, T12, C123)
    labels = ("a", "b", "c", "d")
    _check_trail(values, labels)
    for bad in ({"mover": "b"}, {"from": 3}, {"from": 1, "to": 0}, {"to": 0},
                {"to": 2}, {"from": 2.0}, {"conjugator": "(13)"}):
        with pytest.raises(AssertionError):
            _check_trail(values, labels, edit=bad)


# ---------------------------------------------------------------------------
# s3_reduce keeps runs of equal factors


def _bound(w):
    """``rank_lower_bound(w)``, or the error it raises."""
    try:
        return rank_lower_bound(w)
    except BoundUnavailableError as e:
        return type(e)


def _check_runs(w):
    """The factors of ``w`` are maximal labelled runs, and the per-copy
    witness the oracle rebuilds has the same copies, bound, conservation
    and JSON."""
    shape = lambda f: (f.kind, f.elements, f.weights)  # noqa: E731
    for f, g in zip(w.factors, w.factors[1:]):
        assert shape(f) != shape(g)
    for f in w.factors:
        k = len(f.elements)
        assert f.types is None and len(f.labels) == f.multiplicity * k
        if f.kind in ("S3Case3", "S3Case4"):
            assert f.multiplicity == 1
    copies = oracles.factor_copies(w.factors)
    assert all(c.multiplicity == 1 and len(c.labels) == len(c.elements) for c in copies)
    per_copy = DecompositionWitness(copies, w.steps)
    assert _bound(w) == _bound(per_copy)
    assert w.conservation == per_copy.conservation
    assert w._json_fields() == per_copy._json_fields()
    return copies


def test_runs_are_maximal_and_expand_to_the_per_copy_witness():
    r = random.Random("runs")
    weights = (vacuum_weight(1), vacuum_weight(2), ((1, 1),))
    merged = 0
    for n in (5, 12, 40, 150):
        for _ in range(25):
            values = oracles.s3_closed([r.choice(oracles.S3_TUPLES) for _ in range(n - 1)])
            labels = tuple(f"x{i}" for i in range(n))
            # vacuum everywhere, then weights that split some runs
            for weight_map in (None, {lab: r.choice(weights) for lab in labels}):
                w = s3_reduce(values, labels=labels, weight_map=weight_map)
                copies = _check_runs(w)
                assert sorted(lab for c in copies for lab in c.labels) == sorted(labels)
                merged += len(copies) - len(w.factors)
    assert merged > 1000


def test_equal_factors_that_are_not_adjacent_stay_separate():
    labels = tuple("abcdefgh")
    other = ((1, 1),)
    w = s3_reduce((IDENTITY, T12, T12, IDENTITY, T12, T12, T12, T12), labels=labels,
                  weight_map={"d": other, "e": other, "f": other})
    _check_runs(w)
    assert [(f.kind, f.labels, f.multiplicity) for f in w.factors] == [
        ("S3Case1", ("b", "c"), 1),
        ("S3Case1", ("e", "f"), 1),
        ("S3Case1", ("g", "h"), 1),
        ("UntwistedVacuum", ("a",), 1),
        ("UntwistedVacuum", ("d",), 1),
    ]
    w = s3_reduce((T12,) * 8, labels=labels)
    assert [(f.labels, f.multiplicity) for f in w.factors] == [(labels, 4)]


def test_a_run_checks_every_copy_weight():
    # (0, True) == (0, 1): a run must not take the bool for the integer
    with pytest.raises(DomainError, match="point e: vertex 0 and coefficient True"):
        s3_reduce((T12,) * 6, labels=tuple("abcdef"), weight_map={"e": ((0, True),)})


# ---------------------------------------------------------------------------
# BaseCase / witness plumbing


def test_base_case_validation():
    with pytest.raises(DomainError, match="multiply to e"):
        BaseCase(
            kind="S3Case1",
            elements=(T12, T23),
            weights=(vacuum_weight(1),) * 2,
            labels=("a", "b"),
        )
    with pytest.raises(DomainError, match="weights"):
        BaseCase(
            kind="S3Case1",
            elements=(T12, T12),
            weights=(vacuum_weight(1),),
            labels=("a", "b"),
        )
    with pytest.raises(DomainError, match="malformed S3Case3"):
        BaseCase(
            kind="S3Case3",
            elements=(T23, T12, C123),
            weights=(vacuum_weight(1),) * 3,
            labels=("a", "b", "c"),
        )


def test_an_invalid_factor_still_raises_after_a_valid_one_of_its_kind():
    ok = dict(weights=(vacuum_weight(1),) * 2, labels=("a", "b"))
    for _ in range(2):
        BaseCase(kind="S3Case1", elements=(T12, T12), **ok)
        BaseCase(kind="S3Case2", elements=(C123, C132), **ok)
        with pytest.raises(DomainError, match="multiply to e"):
            BaseCase(kind="S3Case1", elements=(T12, T23), **ok)
        # multiplies to e, but 3-cycles are not an equal transposition pair
        with pytest.raises(DomainError, match="malformed S3Case1"):
            BaseCase(kind="S3Case1", elements=(C123, C132), **ok)
        with pytest.raises(DomainError, match="unknown factor kind"):
            BaseCase(kind="S3Case9", elements=(T12, T12), **ok)
        with pytest.raises(DomainError, match="weights do not match"):
            BaseCase(kind="S3Case1", elements=(T12, T12),
                     weights=(vacuum_weight(1),), labels=("a", "b"))
    # the genus-g closed form is no factor kind
    with pytest.raises(DomainError, match="unknown factor kind 'ClosedFormA'"):
        BaseCase(kind="ClosedFormA", elements=(T12, T12), **ok)
    # no kind holds more than four points: a longer vector is malformed by
    # its length, whatever its kind, and never reaches the shape memo
    vector = dict(elements=(T12,) * 6, weights=(vacuum_weight(1),) * 6,
                  labels=tuple("abcdef"))
    misses = _shape_error.cache_info().misses
    for kind in ("TwistedPair", "S3Case1", "ClosedFormA"):
        with pytest.raises(DomainError, match=f"malformed {kind} factor: 6 points"):
            BaseCase(kind=kind, **vector)
    assert _shape_error.cache_info().misses == misses


@pytest.mark.parametrize("multiplicity", [0, -1, True, 2.0, "2", None])
def test_base_case_rejects_a_non_positive_or_non_integer_multiplicity(multiplicity):
    with pytest.raises(DomainError, match="multiplicity"):
        BaseCase(kind="UntwistedVacuum", elements=(IDENTITY,),
                 weights=(vacuum_weight(1),), labels=("h",),
                 multiplicity=multiplicity)


@pytest.mark.parametrize("pairs", [((0, True),), ((0, 1.0),), ((True, 1),), (("0", 1),)])
def test_base_case_rejects_a_non_integer_vertex_or_coefficient(pairs):
    # after the factor with (0, 1), which a memo keyed by ((0, True),) would hit
    ok = BaseCase("UntwistedVacuum", (IDENTITY,), (((0, 1),),), ("q",))
    assert json.loads(witness_json([ok]))["factors"][0]["weights"] == [{"0": 1}]
    with pytest.raises(DomainError, match="point q: vertex .* must be integers"):
        BaseCase("UntwistedVacuum", (IDENTITY,), (pairs,), ("q",))
    with pytest.raises(DomainError, match="must be integers"):
        ok._replace(weights=(pairs,))
    with pytest.raises(DomainError, match="1 labels for 2 points"):
        BaseCase("TwistedPair", (IDENTITY, IDENTITY), (((0, 1),), pairs), ("q",))


PAD_PAIR = {"kind": "TwistedPair", "elements": (IDENTITY, IDENTITY),
            "weights": (vacuum_weight(1),) * 2, "multiplicity": 3}


@pytest.mark.parametrize("count", [0, 2, 6])
def test_base_case_accepts_no_labels_one_copy_or_every_copy_labelled(count):
    labels = tuple(f"h{i}" for i in range(count))
    assert BaseCase(**PAD_PAIR, labels=labels).labels == labels


def test_base_case_rejects_other_label_counts_also_in_replace():
    with pytest.raises(DomainError, match="4 labels for 2 points and multiplicity 3"):
        BaseCase(**PAD_PAIR, labels=("a", "b", "c", "d"))
    f = BaseCase(**PAD_PAIR, labels=("a", "b"))
    with pytest.raises(DomainError, match="3 labels for 2 points"):
        f._replace(labels=("a", "b", "c"))
    with pytest.raises(DomainError, match="6 labels for 2 points and multiplicity 2"):
        BaseCase(**PAD_PAIR, labels=tuple("abcdef"))._replace(multiplicity=2)


def witness_json(factors) -> str:
    """The JSON text a certificate writes for a witness of ``factors``."""
    return '{"factors": %s, "steps": %s}' % DecompositionWitness(factors=list(factors))._json_fields()


def entries(f: BaseCase) -> list[dict]:
    """The schema-2 entries of one factor, read back from its JSON."""
    return json.loads(witness_json([f]))["factors"]


def test_labelled_run_writes_one_entry_per_copy_and_a_copy_run_one_entry():
    run = BaseCase(**PAD_PAIR, labels=("h2", "h1", "h3", "a1", "h4", "h5"))
    got = entries(run)
    assert [e["labels"] for e in got] == [["h2", "h1"], ["h3", "a1"], ["h4", "h5"]]
    assert all(e == {"kind": "TwistedPair", "elements": ["e", "e"],
                     "labels": e["labels"], "weights": [{"0": 1}, {"0": 1}]}
               for e in got)
    # the copies share one text before their labels
    text = witness_json([run])
    assert text.count(text[len('{"factors": ['):text.index('"h2"')]) == 3
    copies = BaseCase(**PAD_PAIR, labels=("h1", "h2"))
    assert entries(copies) == [{**got[0], "labels": ["h1", "h2"], "multiplicity": 3}]
    assert rank_lower_bound([run]) == rank_lower_bound([copies]) == 1


def test_multiplicity_is_serialized_only_when_not_one_and_counts_copies():
    one = BaseCase(kind="UntwistedVacuum", elements=(IDENTITY,),
                   weights=(vacuum_weight(1),), labels=("h",))
    assert "multiplicity" not in entries(one)[0]
    two = BaseCase(kind="UntwistedVacuum", elements=(IDENTITY,),
                   weights=(vacuum_weight(1),), labels=("h",), multiplicity=2)
    assert entries(two) == [{**entries(one)[0], "multiplicity": 2}]
    tri = BaseCase(kind="EllipticTriple", elements=(C123,) * 3,
                   weights=(vacuum_weight(1),) * 3, labels=("a", "b", "c"),
                   multiplicity=2)
    w = DecompositionWitness(factors=[tri, two])
    assert w.conservation == ("(123)",) * 6


def test_factor_keeps_tuples_copies_other_sequences_and_serializes_fresh_lists():
    weights, labels = (vacuum_weight(1),) * 2, ("a", "b")
    f = BaseCase(kind="S3Case1", elements=(T12, T12), weights=weights, labels=labels)
    assert f.weights is weights and f.labels is labels
    g = BaseCase(kind="S3Case1", elements=[list(T12), list(T12)],
                 weights=[[(0, 1)], [(0, 1)]], labels=["a", "b"])
    assert g == f and g.elements == (T12, T12)
    with pytest.raises(DomainError, match="multiply to e"):
        f._replace(elements=(T12, T23))
    (first,) = entries(f)
    first["elements"].append("(13)")
    first["weights"][0]["5"] = 1
    assert entries(g) == [{"kind": "S3Case1", "elements": ["(12)", "(12)"],
                           "labels": ["a", "b"], "weights": [{"0": 1}, {"0": 1}]}]


def test_witness_serialization_is_stable():
    w = s3_reduce((T12, T12))
    blob = '{"factors": %s, "steps": %s}' % w._json_fields()
    assert '"kind": "S3Case1"' in blob
    assert w.conservation == ("(12)", "(12)")
    (d,) = entries(w.factors[0])
    assert d["elements"] == ["(12)", "(12)"]
    assert d["weights"] == [{"0": 1}, {"0": 1}]


# ---------------------------------------------------------------------------
# degree-2 pairing


def partition(d, **pairings):
    """``pair_partition_gsd2`` on the sides of ``d``, shadows included."""
    return pair_partition_gsd2(_gsd2_sides(d.points, 2 * d.base_genus), **pairings)


def test_pair_partition_default_adjacent():
    d = GroupDatum(
        0,
        C2_GROUP,
        (
            bad("b1", "A3~2", {0}, T12),
            good("s1", "A3", {0, 1}),
            bad("b2", "A3~2", {0}, T12),
            good("s2", "A3", {0, 3}),
        ),
    )
    branch_pairs, split_pairs = partition(d)
    assert branch_pairs == (("b1", "b2"),)
    assert split_pairs == (("s1", "s2"),)
    assert _gsd2_sides(d.points).aux is None


def test_pair_partition_explicit_pairing():
    d = GroupDatum(
        0,
        C2_GROUP,
        (
            bad("b1", "A3~2", {0}, T12),
            good("s1", "A3", {0, 1}),
            bad("b2", "A3~2", {0}, T12),
            good("s2", "A3", {0, 3}),
        ),
    )
    _branch_pairs, split_pairs = partition(d, split_pairing=[("s2", "s1")])
    assert split_pairs == (("s2", "s1"),)


def test_pair_partition_pads_odd_split_side():
    d = GroupDatum(
        0,
        C2_GROUP,
        (
            bad("b1", "A3~2", {0}, T12),
            bad("b2", "A3~2", {0}, T12),
            good("s1", "A3", {0, 1}),
        ),
    )
    sides = _gsd2_sides(d.points)
    pads = tuple(lab for lab in sides.split if lab not in sides.points)
    assert pads == (sides.aux,)
    assert sides.aux.startswith("_aux")
    assert str(sides.pad_type) == "A3"  # untwisted common base
    _branch_pairs, split_pairs = partition(d)
    assert split_pairs == (("s1", sides.aux),)


def test_pair_partition_rejections():
    with pytest.raises(NoCoverError, match="odd number of branch points"):
        partition(GroupDatum(1, C2_GROUP, (bad("b1", "A3~2", {0}, T12),)))
    d = GroupDatum(
        0,
        C2_GROUP,
        (
            bad("b1", "A3~2", {0}, T12),
            good("s1", "A3", {0, 1}),
            bad("b2", "A3~2", {0}, T12),
            good("s2", "A3", {0, 3}),
        ),
    )
    with pytest.raises(PairingError, match="unknown branch point"):
        partition(d, branch_pairing=[("b1", "zz")])
    with pytest.raises(PairingError, match="repeats"):
        partition(d, branch_pairing=[("b1", "b1")])
    with pytest.raises(PairingError, match="repeats"):
        partition(d, split_pairing=[("s1", "s1")])
    with pytest.raises(DomainError, match="order 1 or 2"):
        partition(
            GroupDatum(
                0,
                C3_GROUP,
                (bad("q1", "D4~3", {0}, C123), bad("q2", "D4~3", {0}, C132)),
            )
        )


# ---------------------------------------------------------------------------
# vertex pairing sets and lcm bounds


def test_pq_sets_untwisted_uses_dual_involution():
    inv = T("A3").involution
    assert list(inv) == [0, 3, 2, 1]
    assert pq_sets(frozenset({1}), frozenset({3}), inv) == ((), (1,))
    assert pq_sets(frozenset({0, 1}), frozenset({0, 3}), inv) == ((0,), (0, 1))


def test_pq_sets_twisted_uses_identity_involution():
    inv = T("A3~2").involution
    assert all(inv[v] == v for v in T("A3~2").vertices)
    assert pq_sets(frozenset({0, 1}), frozenset({1, 2}), inv) == ((1,), (1,))


def pinching_bound(d):
    """The charge of the C2 search's least candidate from charge 1 on:
    the least lcm of the chosen dual labels over every admissible pairing
    and vertex choice (None when no pairing is admissible)."""
    found = descent._c2_search(d, 1, None)
    return None if found is None else found.charge


def test_lcmai_bound_is_lcm():
    # x1, x2 share E6~2 vertex v and x3, x4 vertex 1 (label 2), and no
    # other pair shares one: the bound is the lcm of the two labels
    for v, want in ((2, 6), (3, 4), (1, 2)):
        d = GroupDatum(0, C2_GROUP, (
            bad("x1", "E6~2", {v}, T12), bad("x2", "E6~2", {v}, T12),
            bad("x3", "E6~2", {1}, T12), bad("x4", "E6~2", {1}, T12),
        ))
        assert pinching_bound(d) == want


def test_best_lcmai_bound_anchors():
    d_iw = GroupDatum(
        0,
        C2_GROUP,
        (
            bad("b1", "D4~2", {0, 1, 2, 3}, T12),
            bad("b2", "D4~2", {0, 1, 2, 3}, T12),
        ),
    )
    assert pinching_bound(d_iw) == 1
    d_a2 = GroupDatum(
        0,
        C2_GROUP,
        (bad("x1", "A2~2", {1}, T12), bad("x2", "A2~2", {1}, T12)),
    )
    assert pinching_bound(d_a2) == 2
    # four points, mixed facets: the least pairing lcm is 2
    d_e = GroupDatum(
        0,
        C2_GROUP,
        (
            bad("p1", "E6~2", {0, 2}, T12),
            bad("p2", "E6~2", {1, 2}, T12),
            bad("p3", "E6~2", {1}, T12),
            bad("p4", "E6~2", {0, 1}, T12),
        ),
    )
    assert pinching_bound(d_e) == 2
    # the divisor bound and the pairing bound are always compatible
    for d in (d_iw, d_a2, d_e):
        assert lcm(c_delta(d), pinching_bound(d)) == max(
            c_delta(d), pinching_bound(d)
        )


def test_best_lcmai_bound_rejects_disjoint_facets():
    d = GroupDatum(
        0,
        C2_GROUP,
        (bad("p1", "A3~2", {0}, T12), bad("p2", "A3~2", {1}, T12)),
    )
    # no pairing pinches p1 with p2, so the search finds no candidate
    assert pinching_bound(d) is None


# ---------------------------------------------------------------------------
# degree-3 degeneration


def test_degenerate_gsd3_inverse_pair():
    d = GroupDatum(
        0,
        C3_GROUP,
        (bad("q1", "D4~3", {0, 1, 2}, C123), bad("q2", "D4~3", {0, 1, 2}, C132)),
    )
    w = degenerate_gsd3(d, vacuum_bundle(d), 1)
    (f,) = w.factors
    assert f.kind == "TwistedPair"
    assert f.elements == (C123, C132)
    assert [str(t) for t in f.types] == ["D4~3", "D4~3"]
    assert w.steps[0] == {
        "op": "gsd3-partition",
        "scenario": "b",
        "plus": 1,
        "minus": 1,
    }
    assert rank_lower_bound(w) == 1


def test_degenerate_gsd3_triple_with_handles():
    pts = tuple(bad(f"q{i}", "D4~3", {0}, C123) for i in (1, 2, 3))
    pts += (good("g1", "D4", {0, 1}),)
    d = GroupDatum(1, C3_GROUP, pts)
    w = degenerate_gsd3(d, vacuum_bundle(d), 1)
    kinds = [f.kind for f in w.factors]
    # the point g1, then both handle shadows as one factor
    assert kinds == ["EllipticTriple", "UntwistedVacuum", "UntwistedVacuum"]
    assert [f.multiplicity for f in w.factors] == [1, 1, 2]
    assert w.factors[0].labels == ("q1", "q2", "q3")
    assert any(s.get("op") == "pinch-handles" for s in w.steps)
    assert rank_lower_bound(w) == 2  # elliptic factor contributes 2


def test_degenerate_gsd3_handle_labels_avoid_point_labels():
    pts = (
        bad("_handle1", "D4~3", {0}, C123),
        bad("q2", "D4~3", {0}, C123),
        bad("q3", "D4~3", {0}, C123),
    )
    d = GroupDatum(1, C3_GROUP, pts)
    w = degenerate_gsd3(d, vacuum_bundle(d), 1)
    labels = [lab for f in w.factors for lab in f.labels]
    assert labels == ["_handle1", "q2", "q3", "_handle2"]
    assert w.factors[-1].multiplicity == 2


def c3_datum(monos, genus=0):
    pts = tuple(good(f"q{i}", "D4", {0}) if m == IDENTITY else bad(f"q{i}", "D4~3", {0}, m)
                for i, m in enumerate(monos, 1))
    return GroupDatum(genus, C3_GROUP, pts)


def test_degenerate_gsd3_partition_scenarios():
    for monos, plus, minus, scenario in (
        ([C123, C132], 1, 1, "b"),
        ([C123] * 3, 3, 0, "a"),
        ([C123, C123, C132, C132], 2, 2, "c"),
        ([IDENTITY, C123, IDENTITY, C132], 1, 1, "b"),
    ):
        d = c3_datum(monos)
        w = degenerate_gsd3(d, vacuum_bundle(d), 1)
        assert w.steps[0] == {"op": "gsd3-partition", "scenario": scenario,
                              "plus": plus, "minus": minus}
    d = c3_datum([C123], genus=1)
    with pytest.raises(NoCoverError, match="modulo 3"):
        degenerate_gsd3(d, vacuum_bundle(d), 1)
    # a monodromy outside C3 never reaches the partition
    with pytest.raises(DomainError, match="not in C3"):
        GroupDatum(1, C3_GROUP, (bad("q1", "D4~2", {0}, T12),))


def test_free_labels_skip_used_names():
    assert free_labels({"_aux1", "_aux3", "x"}, "_aux", 3) == [
        "_aux2", "_aux4", "_aux5"
    ]
    assert free_labels(set(), "_handle", 0) == []


def test_degenerate_gsd3_rejects_mod3_mismatch():
    d = GroupDatum(1, C3_GROUP, (bad("q1", "D4~3", {0}, C123),))
    with pytest.raises(NoCoverError, match="modulo 3"):
        degenerate_gsd3(d, vacuum_bundle(d), 1)


def test_degenerate_gsd3_requires_c3():
    d = GroupDatum(
        0, C2_GROUP, (bad("b1", "A3~2", {0}, T12), bad("b2", "A3~2", {0}, T12))
    )
    with pytest.raises(DomainError):
        degenerate_gsd3(d, vacuum_bundle(d), 1)
