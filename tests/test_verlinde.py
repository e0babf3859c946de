from __future__ import annotations

import itertools

import pytest

import oracles
from parapic.covers import ELEMENTS, IDENTITY, perm_order
from parapic.dynkin import parse_affine_type
from parapic.errors import (
    BoundUnavailableError,
    DomainError,
    InternalInconsistencyError,
    UnknownRankError,
)
from parapic.factorization import (
    CASE3_LITERAL,
    CASE4_LITERAL,
    BaseCase,
    s3_reduce,
    vacuum_weight,
)
from parapic.verlinde import (
    RankResult,
    base_case_rank,
    rank_closed_form_A,
    rank_lower_bound,
    s3_level1_rank,
)

T = parse_affine_type
T12, T23 = (2, 1, 3), (1, 3, 2)
C123, C132 = (2, 3, 1), (3, 1, 2)

VAC1 = vacuum_weight(1)


# ---------------------------------------------------------------------------
# closed form


def test_rank_closed_form_values():
    assert rank_closed_form_A(0, 1, 3) == 1
    assert rank_closed_form_A(0, 3, 2) == 4
    assert rank_closed_form_A(1, 1, 5) == 10
    assert rank_closed_form_A(2, 2, 3) == 4 * 27
    assert rank_closed_form_A(3, 4, 5) == 8 * 5**6


def test_rank_closed_form_validation():
    with pytest.raises(DomainError, match="genus"):
        rank_closed_form_A(-1, 1, 2)
    with pytest.raises(DomainError, match="branch-pair"):
        rank_closed_form_A(0, 0, 2)
    with pytest.raises(DomainError, match=">= 2"):
        rank_closed_form_A(0, 1, 1)


@pytest.mark.parametrize("args", [(2.7, 1.9, 3.99), (0, 1, 2.0), (True, 1, 2), (0, "1", 2)])
def test_rank_closed_form_rejects_non_integers(args):
    # int() read (2.7, 1.9, 3.99) as (2, 1, 3) and returned 36
    with pytest.raises(DomainError, match="must be integers"):
        rank_closed_form_A(*args)


@pytest.mark.parametrize("charge", [2.9, 2.0, True, "2"])
def test_vacuum_weight_rejects_non_integers(charge):
    # int() wrote weight 2 for charge 2.9
    with pytest.raises(DomainError, match="must be an integer"):
        vacuum_weight(charge)
    with pytest.raises(DomainError, match="must be an integer"):
        s3_reduce([T12, T12], charge=charge)


# ---------------------------------------------------------------------------
# the S3 character sum


def test_s3_level1_rank_anchors():
    assert s3_level1_rank((T12, T23, C132)).value == 1
    assert s3_level1_rank((T12, T23, C123, C123)).value == 2
    assert s3_level1_rank((C123, C132, T12, T12)).value == 2


def test_s3_level1_rank_power_law():
    # value = 2^(t/2 + m - 2) whenever the inputs generate S3
    cases = [
        (T12, T23, C132),
        (T12, T23, C123, C123),
        (T12, T12, T23, T23),
        (T12, T12, T23, T23, C123, C123, C123),
    ]
    for elems in cases:
        t = sum(1 for p in elems if perm_order(p) == 2)
        m = sum(1 for p in elems if perm_order(p) == 3)
        got = s3_level1_rank(elems)
        assert got.value == 2 ** (t // 2 + m - 2)
        assert got.derivation[0][0] == f"S3 level-1 sum t={t} m={m}"


def test_s3_level1_rank_matches_vacuum_column_oracle():
    # every vector of at most five elements: the oracle's exact sum where
    # the product is e and the cover connected, a DomainError elsewhere
    ranked = 0
    for n in range(6):
        for vec in itertools.product(ELEMENTS, repeat=n):
            want = oracles.s3_vacuum_column_rank(vec)
            if want is None:
                with pytest.raises(DomainError):
                    s3_level1_rank(vec)
            else:
                assert s3_level1_rank(vec).value == want, vec
                ranked += 1
    assert ranked == 1356  # 414 of rank 1, 702 of rank 2, 240 of rank 4


def test_s3_level1_rank_rejections():
    with pytest.raises(DomainError, match="identity"):
        s3_level1_rank((T12, T23))
    with pytest.raises(DomainError, match="disconnected"):
        s3_level1_rank((T12, T12))
    with pytest.raises(DomainError, match="disconnected"):
        s3_level1_rank((C123, C132))


# ---------------------------------------------------------------------------
# the base-case rank table


def case(kind, elements, n=None, **kw):
    n = len(elements) if n is None else n
    kw.setdefault("weights", (VAC1,) * n)
    kw.setdefault("labels", tuple(f"p{i}" for i in range(n)))
    return BaseCase(kind=kind, elements=elements, **kw)


def test_untwisted_vacuum_rank():
    assert base_case_rank(case("UntwistedVacuum", (IDENTITY,))).value == 1
    nonvac = case("UntwistedVacuum", (IDENTITY,), weights=(((1, 1),),))
    assert base_case_rank(nonvac).value == 0


def test_twisted_pair_ranks():
    a3t = (T("A3~2"),) * 2
    vac = case("TwistedPair", (T12, T12), types=a3t)
    assert base_case_rank(vac).value == 1
    matched = case(
        "TwistedPair", (T12, T12), types=a3t, weights=(((1, 1),), ((1, 1),))
    )
    assert base_case_rank(matched).value == 1
    # untwisted pair: dual weights pair to 1, anything else to 0
    a4 = (T("A4"),) * 2
    dual = case(
        "TwistedPair",
        (IDENTITY, IDENTITY),
        types=a4,
        weights=(((1, 1),), ((4, 1),)),
    )
    assert base_case_rank(dual).value == 1
    clash = case(
        "TwistedPair",
        (IDENTITY, IDENTITY),
        types=a4,
        weights=(((1, 1),), ((1, 1),)),
    )
    assert base_case_rank(clash).value == 0


def test_twisted_pair_unknowns():
    mismatch = case(
        "TwistedPair", (T12, T12), types=(T("A3~2"), T("A5~2"))
    )
    with pytest.raises(UnknownRankError, match="matching point types"):
        base_case_rank(mismatch)
    c3 = case(
        "TwistedPair",
        (C123, C132),
        types=(T("D4~3"),) * 2,
        weights=(((1, 1),), ((1, 1),)),
    )
    with pytest.raises(UnknownRankError, match="order-3"):
        base_case_rank(c3)
    no_types = case(
        "TwistedPair", (T12, T12), weights=(((1, 1),), ((1, 1),))
    )
    with pytest.raises(UnknownRankError, match="point types"):
        base_case_rank(no_types)


def test_a_twisted_pair_vertex_off_its_type_matches_nothing():
    # the involution is a tuple of vertex images: a vertex past its end
    # or below 0 must not be read as some other vertex's image
    a3 = (T("A3"),) * 2
    for weights in ((((4, 1),), ((4, 1),)), (((-1, 1),), ((1, 1),)), (((-3, 1),), ((1, 1),))):
        f = case("TwistedPair", (IDENTITY, IDENTITY), types=a3, weights=weights)
        assert base_case_rank(f).value == 0, weights
    f = case("TwistedPair", (T12, T12), types=(T("A3~2"),) * 2,
             weights=(((3, 1),), ((3, 1),)))
    with pytest.raises(UnknownRankError, match="order-2 pair weights"):
        base_case_rank(f)


def test_rank_lookup_by_shape_ignores_labels_and_repeats_unknowns():
    a4 = (T("A4"),) * 2
    dual = dict(types=a4, weights=(((1, 1),), ((4, 1),)))
    first = case("TwistedPair", (IDENTITY, IDENTITY), labels=("a", "b"), **dual)
    again = case("TwistedPair", (IDENTITY, IDENTITY), labels=("c", "d"), **dual)
    assert base_case_rank(first) == base_case_rank(again)
    # the types take part in the lookup: the same weights on B3 mismatch
    b3 = case("TwistedPair", (IDENTITY, IDENTITY), types=(T("B3"),) * 2,
              weights=dual["weights"])
    assert base_case_rank(b3).value == 0
    # an unknown rank is raised on every lookup of its shape
    off = case("EllipticTriple", (C123,) * 3, weights=(VAC1, VAC1, ((1, 1),)))
    for _ in range(2):
        with pytest.raises(UnknownRankError, match="vacuum"):
            base_case_rank(off)


def test_elliptic_triple_rank():
    tri = case("EllipticTriple", (C123, C123, C123), types=(T("D4~3"),) * 3)
    assert base_case_rank(tri).value == 2
    off = case(
        "EllipticTriple",
        (C123, C123, C123),
        types=(T("D4~3"),) * 3,
        weights=(VAC1, VAC1, ((1, 1),)),
    )
    with pytest.raises(UnknownRankError, match="vacuum"):
        base_case_rank(off)


def test_s3_case_ranks():
    assert base_case_rank(case("S3Case1", (T12, T12))).value == 1
    assert base_case_rank(case("S3Case2", (C123, C132))).value == 1
    assert base_case_rank(case("S3Case2", (C123,) * 3)).value == 2
    assert base_case_rank(case("S3Case3", CASE3_LITERAL)).value == 1
    assert base_case_rank(case("S3Case4", CASE4_LITERAL)).value == 2


def test_the_closed_form_has_no_factor_to_rank():
    # base_case_rank is the table alone: no factor holds the closed form,
    # neither by its old kind nor as a whole vector of any kind
    with pytest.raises(DomainError, match="unknown factor kind 'ClosedFormA'"):
        BaseCase(kind="ClosedFormA", elements=(T12, T12))
    with pytest.raises(DomainError, match="malformed TwistedPair factor: 6 points"):
        BaseCase(kind="TwistedPair", elements=(T12,) * 6)


def test_unknown_kind_rejected_at_construction():
    with pytest.raises(DomainError, match="unknown factor kind"):
        BaseCase(kind="Mystery")


# ---------------------------------------------------------------------------
# witness-level bound


def test_rank_lower_bound_multiplies_factors():
    w = s3_reduce((T12, T23, C123, C123, IDENTITY))
    assert rank_lower_bound(w) == 2
    assert rank_lower_bound(s3_reduce(())) == 1
    assert rank_lower_bound([]) == 1


def test_rank_lower_bound_raises_ranks_to_their_multiplicity():
    tri = case("EllipticTriple", (C123,) * 3, multiplicity=3)
    assert base_case_rank(tri).value == 2
    assert rank_lower_bound([tri]) == 2**3
    handles = case("UntwistedVacuum", (IDENTITY,), multiplicity=10**5)
    assert rank_lower_bound([tri, handles]) == 8


def test_rank_lower_bound_names_unknown_factor():
    c3 = case(
        "TwistedPair",
        (C123, C132),
        types=(T("D4~3"),) * 2,
        weights=(((1, 1),), ((1, 1),)),
    )
    with pytest.raises(BoundUnavailableError, match="TwistedPair"):
        rank_lower_bound([c3])


def test_rank_result_checks_derivation():
    RankResult(6, (("a", 2), ("b", 3)))
    with pytest.raises(InternalInconsistencyError, match="derivation"):
        RankResult(5, (("a", 2), ("b", 3)))
