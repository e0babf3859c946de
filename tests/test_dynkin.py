from __future__ import annotations

import hashlib
import random
from math import gcd
from time import perf_counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from parapic.cli import main
from parapic.dynkin import (
    AffineType,
    FiniteType,
    _integer_rank,
    _verify,
    all_affine_types,
    dual_involution,
    parse_affine_type,
    twisted_type,
)
from parapic.errors import InvalidTypeError, ParseError
from parapic.picard import datum_from_json
from parapic.values import setfield

ALL_TYPES = all_affine_types()
TYPE_BY_NAME = {str(t): t for t in ALL_TYPES}

any_type = st.sampled_from(ALL_TYPES)


def test_inventory_is_the_expected_55():
    assert len(ALL_TYPES) == 55
    assert len(TYPE_BY_NAME) == 55  # names are unique
    expected = (
        [f"A{l}" for l in range(1, 9)]
        + [f"B{l}" for l in range(2, 9)]
        + [f"C{l}" for l in range(2, 9)]
        + [f"D{l}" for l in range(4, 9)]
        + ["E6", "E7", "E8", "F4", "G2"]
        + [f"A{l}~2" for l in range(2, 18)]
        + [f"D{l}~2" for l in range(4, 9)]
        + ["E6~2", "D4~3"]
    )
    assert sorted(TYPE_BY_NAME) == sorted(expected)


@given(any_type)
def test_dual_labels_are_the_primitive_positive_left_null_covector(t):
    a = t.cartan
    labels = t.dual_labels
    n = len(labels)
    # direct null-covector identity
    for j in range(n):
        assert sum(labels[i] * a[i][j] for i in range(n)) == 0
    # independent elimination oracle pins the vector itself
    assert labels == oracles.primitive_positive_left_null(a)
    assert labels[0] == 1
    assert all(1 <= x <= 6 for x in labels)
    assert gcd(*labels) == 1 if n > 1 else labels == (1,)


@given(any_type)
def test_cartan_matrix_has_corank_one(t):
    a = t.cartan
    assert oracles.rational_rank(a) == len(a) - 1


@given(any_type)
def test_cartan_matrix_sign_pattern(t):
    a = t.cartan
    n = len(a)
    for i in range(n):
        assert a[i][i] == 2
        for j in range(n):
            if i != j:
                assert a[i][j] <= 0
                assert (a[i][j] == 0) == (a[j][i] == 0)


def test_dual_coxeter_sums_match_closed_forms():
    # sum of dual labels for the untwisted series
    forms = {
        "A": lambda l: l + 1,
        "B": lambda l: 2 * l - 1,
        "C": lambda l: l + 1,
        "D": lambda l: 2 * l - 2,
    }
    exceptional = {"E6": 12, "E7": 18, "E8": 30, "F4": 9, "G2": 4}
    for t in ALL_TYPES:
        if t.twist != 1:
            continue
        s = str(t)
        expect = exceptional.get(s)
        if expect is None:
            expect = forms[t.base.series](t.base.rank)
        assert sum(t.dual_labels) == expect, s


def _transpose(m):
    return tuple(tuple(row[i] for row in m) for i in range(len(m)))


def test_twisted_tables_are_transposes_of_untwisted_partners():
    pairs = [(f"A{2 * l - 1}~2", f"B{l}") for l in range(2, 9)]
    pairs += [(f"D{l}~2", f"C{l - 1}") for l in range(4, 9)]
    pairs += [("E6~2", "F4"), ("D4~3", "G2")]
    for twisted, partner in pairs:
        a = TYPE_BY_NAME[twisted].cartan
        b = TYPE_BY_NAME[partner].cartan
        assert a == _transpose(b), (twisted, partner)


#: sha256 of the (name, cartan, dual labels, pair involution images) of
#: every inventory type and of each twisted type's untwisted base, as
#: the tables stood when every twisted table was written out by hand
TABLES_SHA256 = "d546d900a6f01760d5bd05c5ea14e5f740e0a478b21a0c9c48777e13d63fa840"


def test_every_table_and_involution_is_pinned():
    types = list(ALL_TYPES)
    types += [twisted_type(t.base, 1) for t in ALL_TYPES if t.twist != 1]
    rows = [(str(t), t.cartan, t.dual_labels, t.involution) for t in types]
    assert len(rows) == 78
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == TABLES_SHA256


@pytest.mark.parametrize("name,images", [
    ("A3", (0, 2, 3, 1)),  # not self-inverse
    ("A3", (0, 3, 2)),  # too short
    ("A3", (0, 3, 2, 4)),  # a vertex off the type
    ("A3", (0, 3, 2, -3)),  # a negative vertex
    ("A3", (1, 0, 2, 3)),  # moves the special vertex
    ("B3", (0, 2, 1, 3)),  # swaps dual labels 1 and 2
    ("D4~2", (0, 3, 2, 1)),  # swaps dual labels 2 and 1
])
def test_verify_refuses_a_pair_involution_that_breaks_a_defining_property(name, images):
    t = TYPE_BY_NAME[name]
    built = AffineType(t.base, t.twist, t.cartan, t.dual_labels)
    _verify(built)  # the derived involution passes
    setfield(built, "involution", images)
    with pytest.raises(InvalidTypeError, match="not a label-keeping involution fixing 0"):
        _verify(built)


def test_verify_refuses_a_dual_label_at_o_other_than_1():
    # A2~2 numbered from its other end passes every other check
    t = TYPE_BY_NAME["A2~2"]
    assert t.dual_labels == (1, 2)
    (a, b), (c, e) = t.cartan
    flipped = AffineType(t.base, t.twist, ((e, c), (b, a)), (2, 1))
    with pytest.raises(InvalidTypeError, match="dual label at o is 2, not 1"):
        _verify(flipped)
    # every type of the inventory has label 1 at o, so the charge of a
    # vacuum bundle is its coefficient at every point
    assert {t.dual_labels[0] for t in ALL_TYPES} == {1}


def test_a2_even_twist_anchor():
    # the rank-1 twisted table, smallest member of its family
    t = TYPE_BY_NAME["A2~2"]
    assert t.cartan == ((2, -4), (-1, 2))
    assert t.dual_labels == (1, 2)


def test_involution_matches_longest_element_oracle():
    for t in ALL_TYPES:
        if t.twist != 1:
            continue
        a = t.cartan
        n = len(a)
        finite = [[a[i][j] for j in range(1, n)] for i in range(1, n)]
        expect = oracles.weyl_longest_involution(finite)
        table = dual_involution(t.base)
        got = {i - 1: table[i] - 1 for i in range(1, n)}
        assert got == expect, str(t)


def test_a_series_involution_is_index_reversal():
    for l in (1, 2, 3, 5, 8):
        fin = [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(l)]
            for i in range(l)
        ]
        assert oracles.weyl_longest_involution(fin) == (
            oracles.a_series_reversal_involution(l)
        )
        table = dual_involution(FiniteType("A", l))
        assert all(table[i] == l + 1 - i for i in range(1, l + 1))


@given(any_type)
def test_involution_fixes_special_vertex_and_labels(t):
    inv = dual_involution(t.base)
    assert inv[0] == 0
    labels = twisted_type(t.base, 1).dual_labels
    for i in range(len(labels)):
        assert inv[inv[i]] == i
        assert labels[inv[i]] == labels[i]


def test_parse_round_trip():
    assert len(ALL_TYPES) == 55  # the inventory bound keeps all of them
    for t in ALL_TYPES:
        assert parse_affine_type(str(t)) is twisted_type(t.base, t.twist)


@pytest.mark.parametrize(
    "bad",
    ["Z9", "A0", "E5", "F6", "G3", "B3~2", "A1~2", "F4~2", "D5~3", "A3~4", "",
     "A\u0663~2"],  # ARABIC-INDIC DIGIT THREE is a digit, but not ASCII
)
def test_parse_rejects_invalid_names(bad):
    with pytest.raises(ParseError):
        parse_affine_type(bad)


#: the names of the probe grid that parse, written out apart from the
#: inventory table: each untwisted type of `all_affine_types` with and
#: without "~1", each twisted one, and untwisted A9 to A17, the bases of
#: the A~2 types above A8
ACCEPTED_GRID_NAMES = [
    "A1", "A1~1", "A2", "A2~1", "A2~2", "A3", "A3~1", "A3~2", "A4", "A4~1", "A4~2", "A5",
    "A5~1", "A5~2", "A6", "A6~1", "A6~2", "A7", "A7~1", "A7~2", "A8", "A8~1", "A8~2", "A9",
    "A9~1", "A9~2", "A10", "A10~1", "A10~2", "A11", "A11~1", "A11~2", "A12", "A12~1",
    "A12~2", "A13", "A13~1", "A13~2", "A14", "A14~1", "A14~2", "A15", "A15~1", "A15~2",
    "A16", "A16~1", "A16~2", "A17", "A17~1", "A17~2", "B2", "B2~1", "B3", "B3~1", "B4",
    "B4~1", "B5", "B5~1", "B6", "B6~1", "B7", "B7~1", "B8", "B8~1", "C2", "C2~1", "C3",
    "C3~1", "C4", "C4~1", "C5", "C5~1", "C6", "C6~1", "C7", "C7~1", "C8", "C8~1", "D4",
    "D4~1", "D4~2", "D4~3", "D5", "D5~1", "D5~2", "D6", "D6~1", "D6~2", "D7", "D7~1",
    "D7~2", "D8", "D8~1", "D8~2", "E6", "E6~1", "E6~2", "E7", "E7~1", "E8", "E8~1", "F4",
    "F4~1", "G2", "G2~1",
]

REFUSALS = ("implemented", "cannot parse", "not a finite type", "minimal rank")


def test_the_probe_grid_accepts_exactly_the_inventory():
    t0 = perf_counter()
    accepted = []
    for series in "ABCDEFGHZ":
        for rank in (*range(120), 400, 4000, 10**6):
            for suffix in ("", "~1", "~2", "~3", "~4"):
                name = f"{series}{rank}{suffix}"
                try:
                    t = parse_affine_type(name)
                except ParseError as e:
                    assert any(word in str(e) for word in REFUSALS), (name, str(e))
                    continue
                accepted.append(name)
                canonical = name.removesuffix("~1")
                assert str(t) == canonical and t is parse_affine_type(canonical), name
    assert accepted == ACCEPTED_GRID_NAMES
    assert perf_counter() - t0 < 0.5


@pytest.mark.parametrize("name,refused", [
    ("B3~2", "B3~2"), ("A18", "A18"), ("A18~1", "A18"), ("A400~1", "A400"),
    ("D9~2", "D9~2"), ("A2~3", "A2~3"), ("E7~2", "E7~2"),
])
def test_one_refusal_names_the_type_as_it_prints(name, refused):
    with pytest.raises(ParseError) as e:
        parse_affine_type(name)
    assert str(e.value) == f"{refused} is outside the implemented inventory"


@pytest.mark.parametrize("name", [" A3", "A3 ", "A3\n", " A3~2\n", "\tD4~3", "A3 ~2"])
def test_type_names_are_read_exactly(name, capsys):
    with pytest.raises(ParseError, match="cannot parse"):
        parse_affine_type(name)
    assert main(["dynkin", "info", name]) == 2
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["A05", "A005", "A00", "D04~2", "A017~2"])
def test_a_rank_with_a_leading_zero_is_refused(name, capsys):
    # "A05" read as A5 while "A005" was refused: one message for both now
    with pytest.raises(ParseError) as e:
        parse_affine_type(name)
    assert str(e.value) == f"cannot parse affine type {name!r} (expected e.g. 'A3~2')"
    assert main(["dynkin", "info", name]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_rank_zero_is_refused_as_below_the_minimal_rank():
    # the rank 0 is written as str(0) writes it; the probe grid accepts A10 and A17~2
    with pytest.raises(ParseError, match="A0 is below the minimal rank 1"):
        parse_affine_type("A0")


OUT_OF_INVENTORY = ["A400", "A4000", "A18~2", "D9~2", "A18", "B9"]


def _rejected_fast(call, error):
    t0 = perf_counter()
    with pytest.raises(error, match="implemented"):
        call()
    # building an A400 table alone took 0.1 s, and A4000 minutes
    assert perf_counter() - t0 < 0.05


@pytest.mark.parametrize("name", OUT_OF_INVENTORY)
def test_ranks_above_the_inventory_are_rejected_before_any_table(name, capsys):
    _rejected_fast(lambda: parse_affine_type(name), ParseError)
    datum = {"schema": 1, "genus": 0, "group": "Trivial",
             "points": [{"label": "x", "type": name, "facet": [0]}]}
    _rejected_fast(lambda: datum_from_json(datum), ParseError)
    assert main(["dynkin", "info", name]) == 2
    assert "outside the implemented inventory" in capsys.readouterr().err


def test_twisted_type_rejects_bases_above_the_inventory():
    _rejected_fast(lambda: twisted_type(FiniteType("A", 4000), 1), InvalidTypeError)
    # the largest base any inventory type has: an A17~2 datum has A17
    # split points and pads
    assert parse_affine_type("A17") is twisted_type(FiniteType("A", 17), 1)


def test_twisted_type_validates_twist_compatibility():
    with pytest.raises(InvalidTypeError):
        twisted_type(FiniteType("B", 3), 2)
    with pytest.raises(InvalidTypeError):
        twisted_type(FiniteType("D", 5), 3)
    with pytest.raises(InvalidTypeError):
        twisted_type(FiniteType("A", 2), 4)
    with pytest.raises(InvalidTypeError):
        FiniteType("D", 3)
    with pytest.raises(InvalidTypeError):
        FiniteType("H", 4)


def test_types_are_interned_and_hashable():
    t1 = parse_affine_type("D4~3")
    t2 = twisted_type(FiniteType("D", 4), 3)
    assert t1 is t2
    assert isinstance(t1, AffineType)
    assert t1.vertices == (0, 1, 2)
    assert str(t1) == "D4~3"
    assert t1.vertex_set == frozenset(t1.vertices)


def test_equal_types_hash_equal_whether_interned_or_built_directly():
    for t in ALL_TYPES:
        built = AffineType(base=FiniteType(t.base.series, t.base.rank),
                           twist=t.twist, cartan=t.cartan, dual_labels=t.dual_labels)
        assert built is not t
        assert built == t and hash(built) == hash(t)
        assert built.vertices == t.vertices and built.vertex_set == t.vertex_set
        assert {built: 1}[t] == 1
    # the hash names (base, twist): the 55 types hash apart
    assert len({hash(t) for t in ALL_TYPES}) == 55


def test_parse_is_memoized_and_still_rejects():
    assert parse_affine_type("A3~2") is parse_affine_type("A3~2")
    for _ in range(2):  # a rejection is raised afresh, never cached
        with pytest.raises(ParseError):
            parse_affine_type("B3~2")
        with pytest.raises(ParseError):
            parse_affine_type("A0")


def _perturbed(rows, rng):
    """Copies of an integer matrix whose corank differs from one: one
    diagonal entry raised, a row doubled onto another, a row cleared."""
    n = len(rows)
    out = []
    m = [list(r) for r in rows]
    m[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, 2, 3))
    out.append(m)
    i, j = rng.sample(range(n), 2)
    m = [list(r) for r in rows]
    m[j] = [2 * x for x in m[i]]
    out.append(m)
    m = [list(r) for r in rows]
    m[rng.randrange(n)] = [0] * n
    m[rng.randrange(n)] = [0] * n
    out.append(m)
    return out


def test_integer_rank_matches_the_rational_oracle():
    rng = random.Random(0xC0)
    coranks = set()
    for t in ALL_TYPES:
        n = len(t.cartan)
        assert _integer_rank(t.cartan) == oracles.rational_rank(t.cartan) == n - 1
        for m in _perturbed(t.cartan, rng):
            rank = oracles.rational_rank(m)
            assert _integer_rank(m) == rank
            coranks.add(n - rank)
    # the perturbations reach coranks other than one on both sides
    assert {0, 2} <= coranks
