from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from parapic.covers import (
    C2_GROUP,
    C3_GROUP,
    ELEMENTS,
    IDENTITY,
    S3_GROUP,
    TRIVIAL_GROUP,
    RamificationVector,
    class_preserving_identity_tuple,
    compose,
    conjugacy_class,
    conjugate,
    element_name,
    enumerate_tuples,
    genus_riemann_hurwitz,
    group_from_name,
    inverse,
    is_connected_genus0,
    parse_element,
    parse_tuple,
    perm_order,
    product,
    subgroup_generated,
)
from parapic.errors import (
    DomainError,
    InconsistentRamificationError,
    ParseError,
)
from parapic.factorization import CASE3_LITERAL, CASE4_LITERAL, s3_reduce

T12, T13, T23 = (2, 1, 3), (3, 2, 1), (1, 3, 2)
C123, C132 = (2, 3, 1), (3, 1, 2)

s3_elem = st.sampled_from(ELEMENTS)


def _prod(seq):
    acc = IDENTITY
    for p in seq:
        acc = compose(acc, p)
    return acc


def test_composition_anchors():
    # later factor acts first: (12)(23) maps 1 -> 1 -> 2, so it is (123)
    assert compose(T12, T23) == C123
    assert compose(T23, T12) == C132
    assert compose(C123, C132) == IDENTITY
    assert inverse(C123) == C132
    assert conjugate(T12, C123) == C132
    assert perm_order(IDENTITY) == 1
    assert perm_order(T13) == 2
    assert perm_order(C132) == 3


def test_element_names_round_trip():
    for p in ELEMENTS:
        assert parse_element(element_name(p)) == p
    assert element_name(IDENTITY) == "e"
    assert parse_element("(123)") == C123
    assert parse_tuple("(12),(23),(132)") == (T12, T23, C132)
    with pytest.raises(ParseError):
        parse_element("(14)")
    # an element is read exactly; a tuple strips each of its parts
    for padded in (" e", "(12) ", "(12)\n"):
        with pytest.raises(ParseError, match="cannot parse permutation"):
            parse_element(padded)
    assert parse_tuple(" (12), (12) ,e ") == (T12, T12, IDENTITY)


@pytest.mark.parametrize("text", ["id", "1", "()", " ( 1 2 ) ", "(1 2)"])
def test_element_names_are_read_exactly(text):
    # only the six names element_name writes
    for padded in (text, f" {text}", f"{text}\n"):
        with pytest.raises(ParseError, match="cannot parse permutation"):
            parse_element(padded)
        with pytest.raises(ParseError, match="cannot parse permutation"):
            parse_tuple(f"(12),{padded}")


def test_group_constants_and_gsd():
    assert [len(g) for g in (TRIVIAL_GROUP, C2_GROUP, C3_GROUP, S3_GROUP)] == [
        1,
        2,
        3,
        6,
    ]
    for name in ("Trivial", "C2", "C3", "S3"):
        assert group_from_name(name).kind == name
    with pytest.raises(ParseError):
        group_from_name("C4")


def test_subgroup_generated_anchors():
    assert subgroup_generated([]) == frozenset({IDENTITY})
    assert subgroup_generated([T12]) == frozenset({IDENTITY, T12})
    assert subgroup_generated([C123]) == frozenset({IDENTITY, C123, C132})
    assert len(subgroup_generated([T12, T23])) == 6


def test_conjugacy_classes_depend_on_ambient_group():
    assert set(conjugacy_class(S3_GROUP, C123)) == {C123, C132}
    assert set(conjugacy_class(S3_GROUP, T12)) == {T12, T13, T23}
    # C3 is abelian: singleton classes
    assert conjugacy_class(C3_GROUP, C123) == (C123,)
    with pytest.raises(DomainError):
        conjugacy_class(C3_GROUP, T12)


def test_ramification_vector_checks_membership():
    RamificationVector(C2_GROUP, (T12, T12))
    with pytest.raises(DomainError):
        RamificationVector(C2_GROUP, (T13,))
    with pytest.raises(DomainError):
        RamificationVector(C3_GROUP, (T12,))


def test_riemann_hurwitz_genus_anchors():
    # the two reduction end-shapes: a 3-point and a 4-point S3 cover
    s = genus_riemann_hurwitz(0, S3_GROUP, (T12, T23, C132))
    assert (s.genus, s.component_count) == (0, 1)
    s = genus_riemann_hurwitz(0, S3_GROUP, (T12, T23, C123, C123))
    assert (s.genus, s.component_count) == (2, 1)


def test_riemann_hurwitz_more_shapes():
    s = genus_riemann_hurwitz(0, C2_GROUP, (T12, T12))
    assert (s.genus, s.component_count) == (0, 1)
    s = genus_riemann_hurwitz(0, C3_GROUP, (C123, C132))
    assert (s.genus, s.component_count) == (0, 1)
    s = genus_riemann_hurwitz(1, S3_GROUP, ())
    assert (s.genus, s.component_count) == (1, 1)
    s = genus_riemann_hurwitz(2, TRIVIAL_GROUP, ())
    assert (s.genus, s.component_count) == (2, 1)
    # disconnected data on a genus-0 base: component count is the index
    s = genus_riemann_hurwitz(0, S3_GROUP, (T12,) * 4)
    assert s.component_count == 3


def test_riemann_hurwitz_rejects_impossible_data():
    with pytest.raises(InconsistentRamificationError, match="2g-2"):
        genus_riemann_hurwitz(0, S3_GROUP, (T12,))
    with pytest.raises(InconsistentRamificationError):
        genus_riemann_hurwitz(0, S3_GROUP, (T12, T12))
    with pytest.raises(DomainError):
        genus_riemann_hurwitz(0, C2_GROUP, (C123,))


def test_riemann_hurwitz_rejects_a_negative_base_genus():
    # ten branch points would make 2g - 2 = 2 over "genus -1"
    with pytest.raises(DomainError, match="base genus must be nonnegative"):
        genus_riemann_hurwitz(-1, C2_GROUP, (T12,) * 10)


@given(st.lists(s3_elem, max_size=7))
def test_riemann_hurwitz_euler_parity(mono):
    try:
        shape = genus_riemann_hurwitz(0, S3_GROUP, mono)
    except InconsistentRamificationError:
        return
    assert shape.genus >= 0


def test_connectivity_filter():
    assert is_connected_genus0(RamificationVector(S3_GROUP, (T12, T23, C132)))
    assert not is_connected_genus0(RamificationVector(S3_GROUP, (T12, T12)))
    assert not is_connected_genus0(RamificationVector(S3_GROUP, (C123, C132)))
    with pytest.raises(DomainError):
        is_connected_genus0(RamificationVector(S3_GROUP, (T12, T23)))


# frozen counts from the exhaustive oracle
ENUM_ANCHORS = [
    (("transposition", "transposition"), 3, 0),
    (("transposition", "transposition", "3-cycle"), 6, 6),
    (("transposition",) * 4, 27, 24),
    (("3-cycle",) * 3, 2, 0),
    (("transposition", "transposition", "3-cycle", "3-cycle"), 12, 12),
]


@pytest.mark.parametrize("classes,total,connected", ENUM_ANCHORS)
def test_enumerate_tuples_frozen_anchors(classes, total, connected):
    count, tuples = enumerate_tuples(S3_GROUP, classes)
    assert count == total and len(tuples) == total
    ccount, ctuples = enumerate_tuples(S3_GROUP, classes, connected_only=True)
    assert ccount == connected
    assert set(ctuples) <= set(tuples)


def test_enumerate_tuples_accepts_many_class_spellings():
    by_name = enumerate_tuples(S3_GROUP, ["transposition", "transposition"])
    by_rep = enumerate_tuples(S3_GROUP, [T13, T23])
    by_str = enumerate_tuples(S3_GROUP, ["(12)", "(13)"])
    assert by_name == by_rep == by_str
    with pytest.raises(DomainError):
        enumerate_tuples(S3_GROUP, [])


def test_enumerate_tuples_matches_exhaustive_oracle():
    reps = {"identity": IDENTITY, "transposition": T12, "3-cycle": C123}
    for n in (1, 2, 3):
        for classes in itertools.product(sorted(reps), repeat=n):
            pools = [reps[c] for c in classes]
            count, tuples = enumerate_tuples(S3_GROUP, classes)
            hits = oracles.brute_identity_tuples(S3_GROUP.elements, pools)
            assert count == len(hits), classes
            assert set(tuples) == set(hits), classes
            assert tuples == sorted(hits, key=lambda tup: [ELEMENTS.index(p) for p in tup])
            ccount, _ = enumerate_tuples(S3_GROUP, classes, connected_only=True)
            chits = oracles.brute_identity_tuples(
                S3_GROUP.elements, pools, connected_only=True
            )
            assert ccount == len(chits), classes


def test_equivalent_cover_data_finds_witness():
    # every conjugate of an exceptional literal reduces to that literal,
    # with a recorded conjugator that maps it back entrywise
    for d in ELEMENTS:
        for literal in (CASE3_LITERAL, CASE4_LITERAL):
            vec = tuple(conjugate(d, x) for x in literal)
            (f,) = s3_reduce(vec).factors
            assert (f.elements, f.original) == (literal, vec)
            assert tuple(conjugate(f.conjugator, y) for y in vec) == literal


def test_class_preserving_adjustment_exhaustive_small():
    for n in range(0, 5):
        for tup in itertools.product(ELEMENTS, repeat=n):
            t = sum(1 for p in tup if perm_order(p) == 2)
            m = sum(1 for p in tup if perm_order(p) == 3)
            out = class_preserving_identity_tuple(tup)
            if t % 2 == 1 or (t, m) == (0, 1):
                assert out is None, tup
            else:
                assert out is not None, tup
                assert len(out) == len(tup)
                assert [perm_order(p) for p in out] == [
                    perm_order(p) for p in tup
                ]
                assert _prod(out) == IDENTITY, tup


@given(st.lists(s3_elem, max_size=9))
def test_class_preserving_adjustment_random(elems):
    out = class_preserving_identity_tuple(elems)
    t = sum(1 for p in elems if perm_order(p) == 2)
    m = sum(1 for p in elems if perm_order(p) == 3)
    if out is None:
        assert t % 2 == 1 or (t, m) == (0, 1)
    else:
        assert _prod(out) == IDENTITY
        assert [perm_order(p) for p in out] == [perm_order(p) for p in elems]


# ---------------------------------------------------------------------------
# the Cayley tables


def test_cayley_tables_match_oracle():
    assert sorted(ELEMENTS) == sorted(oracles.S3_TUPLES)
    for p in ELEMENTS:
        assert inverse(p) == oracles.s3_inv(p)
        assert perm_order(p) == oracles.s3_order(p)
        assert element_name(p) == oracles.s3_name(p)
        for q in ELEMENTS:
            assert compose(p, q) == oracles.s3_mul(p, q)
            assert conjugate(p, q) == oracles.s3_conj(p, q)


@given(st.lists(s3_elem, max_size=12))
def test_product_is_the_ordered_fold(values):
    want = (1, 2, 3)
    for p in values:
        want = oracles.s3_mul(want, p)
    assert product(values) == want
    assert product(iter(values)) == want


@pytest.mark.parametrize("bad", [(1, 1, 1), (0, 1, 2), (1, 2), [2, 1, 3], "e"])
def test_non_elements_raise_domain_error(bad):
    # (1, 1, 1) never reaches the identity under powers, so an order
    # computed by iterating compose would never return on it
    for call in (
        lambda: perm_order(bad),
        lambda: inverse(bad),
        lambda: element_name(bad),
        lambda: compose(bad, T12),
        lambda: compose(T12, bad),
        lambda: conjugate(bad, T12),
        lambda: conjugate(T12, bad),
        lambda: product((T12, bad, T12)),
    ):
        with pytest.raises(DomainError, match="not an element of S3"):
            call()
