from __future__ import annotations

import json
import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import datagen
import oracles
from parapic import picard
from parapic.cli import main
from parapic.covers import C2_GROUP, IDENTITY, S3_GROUP, TRIVIAL_GROUP
from parapic.dynkin import parse_affine_type
from parapic.errors import DomainError, ParseError
from parapic.picard import (
    GroupDatum,
    PointDatum,
    WeightBundle,
    bundle_from_json,
    bundle_to_json,
    c_delta,
    cdelta_bundle,
    central_charge,
    datum_from_json,
    is_pic_delta,
    load_bundle,
    load_datum,
    pic_delta_rank,
    vacuum_bundle,
    validate_bundle,
)

T = parse_affine_type


def point(label, typ, facet, mono=IDENTITY):
    return PointDatum(
        label, T(typ), frozenset(facet), mono, is_bad=(mono != IDENTITY)
    )


def iwahori(label, typ, mono=IDENTITY):
    t = T(typ)
    return PointDatum(
        label, t, frozenset(t.vertices), mono, is_bad=(mono != IDENTITY)
    )


def a2_two_special_datum():
    """Two order-2 points on the middle vertex of the smallest twisted
    type; the smallest datum with a charge gap above 1."""
    pts = (
        PointDatum("x1", T("A2~2"), frozenset({1}), (2, 1, 3), is_bad=True),
        PointDatum("x2", T("A2~2"), frozenset({1}), (2, 1, 3), is_bad=True),
    )
    return GroupDatum(0, C2_GROUP, pts)


def test_point_validation():
    with pytest.raises(DomainError, match="facet must be nonempty"):
        PointDatum("p", T("A2"), frozenset())
    with pytest.raises(DomainError, match="not in A2"):
        PointDatum("p", T("A2"), frozenset({5}))
    with pytest.raises(DomainError, match="does not match twist"):
        PointDatum("p", T("A2"), frozenset({0}), (2, 1, 3), is_bad=True)
    with pytest.raises(DomainError, match="trivial monodromy"):
        PointDatum("p", T("A3~2"), frozenset({0}), (2, 1, 3), is_bad=False)
    with pytest.raises(DomainError, match="must contain o"):
        PointDatum("p", T("A2"), frozenset({1}), IDENTITY, is_bad=False)
    # bad points may omit the special vertex
    PointDatum("p", T("A2"), frozenset({1}), IDENTITY, is_bad=True)


def test_an_invalid_point_still_raises_after_a_valid_one_of_its_type():
    t = T("A3~2")
    good = PointDatum("p", t, frozenset(t.vertices), (2, 1, 3), is_bad=True)
    assert good.facet == t.vertex_set
    for _ in range(2):
        with pytest.raises(DomainError, match="not in A3~2"):
            PointDatum("q", t, frozenset({0, 3}), (2, 1, 3), is_bad=True)
        with pytest.raises(DomainError, match="does not match twist"):
            PointDatum("q", t, frozenset({0}), IDENTITY, is_bad=True)
    obj = datagen.datum_to_json(GroupDatum(1, C2_GROUP, (good,)))
    assert datum_from_json(obj).points == (good,)
    bad = json.loads(json.dumps(obj))
    bad["points"][0]["facet"] = [0, 3]
    for _ in range(2):
        with pytest.raises(ParseError, match="not in A3~2"):
            datum_from_json(bad)


def test_a_repeated_shape_with_a_field_of_another_type_still_raises():
    obj = datagen.datum_to_json(a2_two_special_datum())
    datum_from_json(obj)  # the shape (A2~2, [1], (12), true) is now known
    # true == 1 == 1.0 and their hashes agree: only the type tells them apart
    for key, value, match in (("bad", 1, "bad must be a boolean"),
                              ("facet", [True], "facet must be a list of integers"),
                              ("facet", [1.0], "facet must be a list of integers"),
                              ("monodromy", True, "cannot parse permutation")):
        changed = json.loads(json.dumps(obj))
        changed["points"][1][key] = value
        with pytest.raises(ParseError, match=match):
            datum_from_json(changed)
    # an absent bad flag is not a null one, and a known shape needs a label
    changed = json.loads(json.dumps(obj))
    changed["points"][1]["bad"] = None
    with pytest.raises(ParseError, match=r"points\[1\]: bad must be a boolean"):
        datum_from_json(changed)
    changed = json.loads(json.dumps(obj))
    del changed["points"][1]["label"]
    with pytest.raises(ParseError, match=r"points\[1\]: missing field 'label'"):
        datum_from_json(changed)


def test_each_repeat_of_an_invalid_shape_names_its_own_point():
    good = {"type": "A3~2", "facet": [0, 1, 2], "monodromy": "(12)", "bad": True}
    wrong = dict(good, facet=[0, 3])
    for i in range(4):
        pts = [dict(good, label=f"x{j}") for j in range(4)]
        pts[i] = dict(wrong, label=f"y{i}")
        obj = {"schema": 1, "genus": 0, "group": "C2", "points": pts}
        with pytest.raises(ParseError) as info:
            datum_from_json(obj)
        assert str(info.value) == (
            f"points[{i}]: point y{i}: facet vertices [3] not in A3~2")


def test_the_point_shape_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(picard, "_point_shapes", {})
    n = picard._MAX_POINT_SHAPES + 40
    # each ordering of distinct E8 vertices is its own shape: 3,609 of
    # them with at most four vertices
    facets = [f for k in range(1, 5) for f in permutations(range(9), k)]
    assert len(facets) > n
    facets = facets[:n]
    obj = {"schema": 1, "genus": 0, "group": "Trivial", "points": [
        {"label": f"p{k}", "type": "E8", "facet": list(f), "bad": True}
        for k, f in enumerate(facets)]}
    want = GroupDatum(0, TRIVIAL_GROUP, tuple(
        PointDatum(f"p{k}", T("E8"), frozenset(f), is_bad=True) for k, f in enumerate(facets)))
    for _ in range(2):
        assert datum_from_json(obj) == want
        assert 0 < len(picard._point_shapes) <= picard._MAX_POINT_SHAPES


def test_a_facet_that_repeats_a_vertex_is_rejected(capsys, tmp_path):
    pts = [{"label": "p", "type": "D4", "facet": [0, 1]},
           {"label": "q", "type": "D4", "facet": [0, 0, 1]}]
    obj = {"schema": 1, "genus": 0, "group": "Trivial", "points": pts}
    # twice: a failed point leaves no shape in the memo
    for _ in range(2):
        with pytest.raises(ParseError, match=r"^points\[1\]: facet \[0, 0, 1\] repeats a vertex$"):
            datum_from_json(obj)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj))
    assert main(["picard", "rank", "--datum", str(path)]) == 2
    assert "points[1]: facet [0, 0, 1] repeats a vertex" in capsys.readouterr().err


def test_datum_validation():
    p1 = iwahori("p1", "A2")
    with pytest.raises(DomainError, match="nonnegative"):
        GroupDatum(-1, TRIVIAL_GROUP, (p1,))
    with pytest.raises(DomainError, match="unique"):
        GroupDatum(0, TRIVIAL_GROUP, (p1, p1))
    with pytest.raises(DomainError, match="not in Trivial"):
        GroupDatum(0, TRIVIAL_GROUP, (iwahori("q", "D4~2", (2, 1, 3)),))
    with pytest.raises(DomainError, match="ordered product"):
        GroupDatum(0, C2_GROUP, (iwahori("q", "D4~2", (2, 1, 3)),))
    # same point list is fine once the base has a handle
    GroupDatum(1, C2_GROUP, (iwahori("q", "D4~2", (2, 1, 3)),))


def test_central_charge_anchors():
    p = point("x", "A2~2", {1}, (2, 1, 3))
    assert p.affine_type.dual_labels == (1, 2)
    assert central_charge(p, ((1, 1),)) == 2
    assert central_charge(p, ()) == 0
    q = iwahori("q", "A1")
    assert central_charge(q, ((0, 1),)) == 1
    assert central_charge(q, ((0, 2), (1, 3))) == 5
    with pytest.raises(DomainError, match="outside facet"):
        central_charge(p, ((0, 1),))


def test_pic_basis_sorted():
    # a point's Picard basis is its facet: the rank counts its vertices,
    # and a bundle lists their coefficients in increasing vertex order
    p = point("x", "C3", {2, 0, 3})
    assert pic_delta_rank(GroupDatum(0, TRIVIAL_GROUP, (p,))) == 3
    b = WeightBundle.from_dict({"x": {3: 1, 0: 2, 2: 5}})
    assert list(bundle_to_json(b)["weights"]["x"]) == ["0", "2", "3"]


def test_bundle_constructors_and_validation():
    d = GroupDatum(0, TRIVIAL_GROUP, (iwahori("p1", "A2"), iwahori("p2", "B3")))
    b = WeightBundle.from_dict({"p1": {0: 1, 1: 0}, "p2": {0: 1}})
    assert b.weight("p1") == ((0, 1),)  # zero coefficients are dropped
    assert b.weight("nope") == ()
    assert validate_bundle(d, b) == {"p1": 1, "p2": 1}
    assert is_pic_delta(d, b) == (True, 1)
    assert b.dominant
    bad = WeightBundle.from_dict({"zzz": {0: 1}})
    with pytest.raises(DomainError, match="unknown point"):
        validate_bundle(d, bad)
    dd = GroupDatum(0, TRIVIAL_GROUP, (point("p1", "A2", {0, 1}),))
    outside = WeightBundle.from_dict({"p1": {2: 1}})
    with pytest.raises(DomainError, match="outside facet"):
        validate_bundle(dd, outside)
    neg = WeightBundle.from_dict({"p1": {0: -1}, "p2": {0: -1}})
    assert is_pic_delta(d, neg) == (True, -1)
    assert not neg.dominant
    skew = WeightBundle.from_dict({"p1": {0: 1}, "p2": {0: 2}})
    assert is_pic_delta(d, skew) == (False, None)


def test_vacuum_bundle():
    d = GroupDatum(0, TRIVIAL_GROUP, (iwahori("p1", "A2"), iwahori("p2", "G2")))
    b = vacuum_bundle(d, 3)
    assert is_pic_delta(d, b) == (True, 3)
    off = PointDatum("p1", T("A2"), frozenset({1}), IDENTITY, is_bad=True)
    d2 = GroupDatum(0, TRIVIAL_GROUP, (off,))
    with pytest.raises(DomainError, match="special vertex"):
        vacuum_bundle(d2)


@pytest.mark.parametrize("charge", [0, 1, 7])
def test_vacuum_bundle_equals_the_bundle_from_its_dict(charge):
    r = random.Random(f"vacuum-bundle:{charge}")
    for gen in datagen.IWAHORI_GENERATORS.values():
        for _ in range(10):
            d = gen(r)
            want = WeightBundle.from_dict({p.label: {0: charge} for p in d.points})
            assert vacuum_bundle(d, charge).entries == want.entries


@pytest.mark.parametrize("charge", [True, False, 1.0, 0.0])
def test_vacuum_bundle_rejects_a_bool_or_float_charge(charge):
    d = GroupDatum(0, TRIVIAL_GROUP, (iwahori("p1", "A2"),))
    with pytest.raises(DomainError, match="integer"):
        vacuum_bundle(d, charge)


def test_c_delta_iwahori_is_one():
    d = GroupDatum(
        0,
        S3_GROUP,
        (
            iwahori("p1", "D4~2", (2, 1, 3)),
            iwahori("p2", "D4~2", (1, 3, 2)),
            iwahori("p3", "D4~3", (3, 1, 2)),
        ),
    )
    assert c_delta(d) == 1


def test_c_delta_two_special_points_is_two():
    d = a2_two_special_datum()
    assert c_delta(d) == 2
    b = cdelta_bundle(d)
    assert is_pic_delta(d, b) == (True, 2)
    assert b.weight("x1") == ((1, 1),) and b.weight("x2") == ((1, 1),)


def test_c_delta_ignores_good_points():
    # good points never contribute, whatever their facet labels
    d = GroupDatum(
        0,
        TRIVIAL_GROUP,
        (point("p1", "G2", {0, 1}), point("p2", "G2", {0})),
    )
    assert not any(p.is_bad for p in d.points)
    assert c_delta(d) == 1


def test_c_delta_lcm_of_facet_gcds():
    # G2 labels (1,2,1): facet {1} contributes 2
    # E7 labels (1,2,3,4,3,2,1,2): facet {3} contributes 4, {2,3} gcd 1
    p1 = PointDatum("p1", T("G2"), frozenset({1}), IDENTITY, is_bad=True)
    p2 = PointDatum("p2", T("E7"), frozenset({3}), IDENTITY, is_bad=True)
    d = GroupDatum(0, TRIVIAL_GROUP, (p1, p2))
    assert c_delta(d) == 4  # lcm(2, 4)
    p3 = PointDatum("p3", T("E7"), frozenset({2, 3}), IDENTITY, is_bad=True)
    assert c_delta(GroupDatum(0, TRIVIAL_GROUP, (p1, p3))) == 2  # lcm(2, 1)


def _redrawn_facets(d, r):
    """``d`` with each facet redrawn as a random nonempty set of its
    type's vertices; a point whose facet misses o is bad."""
    pts = []
    for p in d.points:
        verts = p.affine_type.vertices
        facet = frozenset(r.sample(verts, r.randint(1, min(3, len(verts)))))
        pts.append(PointDatum(p.label, p.affine_type, facet, p.monodromy,
                              is_bad=p.is_bad or 0 not in facet))
    return GroupDatum(d.base_genus, d.gamma, tuple(pts))


def test_c_delta_matches_the_cartan_oracle_on_built_and_parsed_data():
    # built with PointDatum(...), then parsed from JSON twice under new
    # labels: the second parse relabels the shapes the first one cached
    r = random.Random(0xCDE1)
    values = set()
    for _ in range(100):
        for gen in datagen.IWAHORI_GENERATORS.values():
            d = _redrawn_facets(gen(r), r)
            want = oracles.c_delta_from_cartan(d)
            assert c_delta(d) == want
            obj = datagen.datum_to_json(d)
            for prefix in ("q", "r"):
                obj["points"] = [{**pt, "label": prefix + pt["label"]} for pt in obj["points"]]
                assert c_delta(datum_from_json(json.loads(json.dumps(obj)))) == want
            values.add(want)
    assert {1, 2, 3, 4} <= values


@given(st.integers(0, 2 ** 31))
def test_cdelta_bundle_properties(seed):
    r = random.Random(seed)
    d = datagen.random_small_datum(r)
    b = cdelta_bundle(d)
    ok, charge = is_pic_delta(d, b)
    assert ok and charge % c_delta(d) == 0 and charge > 0
    assert b.dominant


def test_cdelta_bundle_matches_scanning_oracle():
    # every generator, and a seeded corpus shaped like the c2-search one
    r = random.Random(0xCD)
    gens = list(datagen.IWAHORI_GENERATORS.values()) + [
        datagen.c2_small_facet_datum, datagen.c2_search_datum,
        datagen.random_small_datum,
    ]
    above = 0
    for gen in gens:
        for _ in range(150):
            d = gen(r)
            b = cdelta_bundle(d)
            assert b == WeightBundle.from_dict(oracles.cdelta_weights(d)), d
            above += is_pic_delta(d, b)[1] > c_delta(d)
    # some charges lie past c_Delta, so the reach tables decide them
    assert above >= 10


def test_cdelta_bundle_combines_vertices():
    # E8 facet {4} has label 5, so c_Delta = 5
    p2 = PointDatum("p2", T("E8"), frozenset({4}), IDENTITY, is_bad=True)
    # E7 facet {2, 3} has labels 3 and 4: no single vertex reaches 5 or
    # 10 at the first point, but 3 + 3 + 4 = 10 does
    p1 = PointDatum("p1", T("E7"), frozenset({2, 3}), IDENTITY, is_bad=True)
    # E8 facet {1, 2, 7} has labels 2, 3, 2: 5 = 2 + 3 = 3 + 2, and the
    # first vertex takes the largest coefficient that leaves a reachable
    # remainder
    q1 = PointDatum("p1", T("E8"), frozenset({1, 2, 7}), IDENTITY, is_bad=True)
    for d, want in (
        (GroupDatum(0, TRIVIAL_GROUP, (p1, p2)), (("p1", ((2, 2), (3, 1))), ("p2", ((4, 2),)))),
        (GroupDatum(0, TRIVIAL_GROUP, (q1, p2)), (("p1", ((1, 1), (2, 1))), ("p2", ((4, 1),)))),
    ):
        b = cdelta_bundle(d)
        assert b.entries == want
        assert b == WeightBundle.from_dict(oracles.cdelta_weights(d))


def test_pic_delta_rank_formula_anchors():
    d1 = GroupDatum(0, TRIVIAL_GROUP, (point("p1", "A3", {0, 1, 2}),))
    assert pic_delta_rank(d1) == 3
    d2 = GroupDatum(
        0, TRIVIAL_GROUP, (point("p1", "A3", {0, 1}), point("p2", "B3", {0, 3}))
    )
    assert pic_delta_rank(d2) == 3
    with pytest.raises(DomainError):
        pic_delta_rank(GroupDatum(0, TRIVIAL_GROUP, ()))


@given(st.integers(0, 2 ** 31))
def test_pic_delta_rank_matches_kernel_oracle(seed):
    d = datagen.random_small_datum(random.Random(seed))
    assert pic_delta_rank(d) == oracles.charge_difference_kernel_rank(d)


def test_datum_json_round_trip():
    r = random.Random(4)
    for gen in datagen.IWAHORI_GENERATORS.values():
        d = gen(r)
        blob = datagen.datum_to_json(d)
        assert blob["schema"] == 1
        assert datum_from_json(blob) == d
        # byte-stable under sort_keys
        s = json.dumps(blob, sort_keys=True)
        assert json.dumps(datagen.datum_to_json(datum_from_json(json.loads(s))),
                          sort_keys=True) == s


def test_bundle_json_round_trip():
    b = WeightBundle.from_dict({"p1": {0: 2, 3: 1}, "p2": {1: 4}})
    blob = bundle_to_json(b)
    assert blob["schema"] == 1
    assert bundle_from_json(blob) == b


def test_json_rejects_malformed_payloads():
    with pytest.raises(ParseError):
        datum_from_json({"schema": 1})
    with pytest.raises(ParseError):
        datum_from_json({"schema": 99, "genus": 0, "group": "S3", "points": []})
    with pytest.raises(ParseError, match="group must be a string"):
        datum_from_json({"schema": 1, "genus": 0, "group": None, "points": []})
    with pytest.raises(ParseError):
        bundle_from_json({"schema": 1})
    with pytest.raises(ParseError):
        bundle_from_json([1, 2, 3])


def test_load_helpers(tmp_path):
    d = a2_two_special_datum()
    b = cdelta_bundle(d)
    dp = tmp_path / "datum.json"
    bp = tmp_path / "bundle.json"
    dp.write_text(json.dumps(datagen.datum_to_json(d)))
    bp.write_text(json.dumps(bundle_to_json(b)))
    assert load_datum(str(dp)) == d
    assert load_bundle(str(bp)) == b


@pytest.mark.parametrize("genus", [True, False, 1.0, "1"])
def test_datum_json_rejects_non_integer_genus(genus):
    obj = datagen.datum_to_json(a2_two_special_datum())
    obj["genus"] = genus
    with pytest.raises(ParseError, match="genus"):
        datum_from_json(obj)


@pytest.mark.parametrize("vertex", [True, 1.0])
def test_datum_json_rejects_non_integer_facet_vertex(vertex):
    obj = datagen.datum_to_json(a2_two_special_datum())
    obj["points"][0]["facet"] = [vertex]
    with pytest.raises(ParseError, match="facet"):
        datum_from_json(obj)


@pytest.mark.parametrize("key,value", [
    ("type", " A2~2\n"), ("type", "A2~2\n"), ("type", "A2~2 "),
    ("monodromy", " ( 1 2 ) "), ("monodromy", "(12)\n"), ("monodromy", "( 12)"),
])
def test_type_and_monodromy_strings_are_read_exactly(key, value, tmp_path, capsys):
    obj = datagen.datum_to_json(a2_two_special_datum())
    datum_from_json(obj)  # the canonical spelling parses, and its shape is known
    changed = json.loads(json.dumps(obj))
    changed["points"][1][key] = value
    with pytest.raises(ParseError, match="cannot parse"):
        datum_from_json(changed)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(changed))
    assert main(["cg", "--datum", str(path)]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_a_datum_type_rank_with_a_leading_zero_is_refused(tmp_path, capsys):
    point = {"type": "D4~2", "facet": [0], "monodromy": "(12)", "bad": True}
    obj = {"schema": 1, "genus": 0, "group": "C2",
           "points": [{"label": "x1", **point}, {"label": "x2", **point}]}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj))
    assert main(["cg", "--datum", str(path)]) == 0
    capsys.readouterr()
    obj["points"][1]["type"] = "D04~2"  # read as D4~2 before
    path.write_text(json.dumps(obj))
    assert main(["cg", "--datum", str(path)]) == 2
    assert "cannot parse affine type 'D04~2'" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,refusal", [
    ("type", "D04~2", "cannot parse affine type 'D04~2' (expected e.g. 'A3~2')"),
    ("type", "A400", "A400 is outside the implemented inventory"),
    ("monodromy", "(1 2)", "cannot parse permutation '(1 2)' (use e, (12), (123), ...)"),
], ids=["D04~2", "A400", "(1 2)"])
def test_a_type_or_monodromy_refusal_names_its_point(key, value, refusal, tmp_path, capsys):
    point = {"type": "D4~2", "facet": [0], "monodromy": "(12)", "bad": True}
    obj = {"schema": 1, "genus": 0, "group": "C2",
           "points": [{"label": "x1", **point}, {"label": "x2", **point, key: value}]}
    with pytest.raises(ParseError) as e:
        datum_from_json(obj)
    assert str(e.value) == f"points[1]: {refusal}"
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj))
    assert main(["cg", "--datum", str(path)]) == 2
    assert capsys.readouterr().err == f"error: points[1]: {refusal}\n"


@pytest.mark.parametrize("key", ["label", "type", "monodromy"])
def test_a_string_field_of_another_type_is_rejected_not_coerced(key, tmp_path, capsys):
    obj = datagen.datum_to_json(a2_two_special_datum())
    datum_from_json(obj)  # both points have the now known shape
    want = "cannot parse permutation" if key == "monodromy" else f"{key} must be a string"
    # null, true and 5 were read as the strings "None", "True" and "5",
    # and a monodromy 1 as the identity
    for value in (None, True, 5, 1, ["(12)"]):
        for i in (0, 1):
            changed = json.loads(json.dumps(obj))
            changed["points"][i][key] = value
            with pytest.raises(ParseError, match=rf"points\[{i}\]: {want}"):
                datum_from_json(changed)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(changed))
    assert main(["picard", "cdelta", "--datum", str(path)]) == 2
    assert "points[1]" in capsys.readouterr().err


@pytest.mark.parametrize("weight", [1.7, 1.0, True, False, "1", None])
def test_bundle_json_rejects_non_integer_weight(weight):
    with pytest.raises(ParseError, match="must be an integer"):
        bundle_from_json({"schema": 1, "weights": {"x": {"0": weight}}})


@pytest.mark.parametrize("load", [datum_from_json, bundle_from_json])
@pytest.mark.parametrize("schema", [True, 1.0, "1"])
def test_json_loaders_reject_a_non_integer_schema(load, schema):
    # true and 1.0 compare equal to 1
    with pytest.raises(ParseError, match="unsupported schema"):
        load({"schema": schema, "genus": 0, "group": "S3", "points": [],
              "weights": {}})


@pytest.mark.parametrize(
    "key", [" 1", "1 ", "1_0", "\u0663", "01", "+1", "-0", "1.0", ""]
)
def test_bundle_json_rejects_non_canonical_vertex_keys(key):
    # int() reads the first four as 1, 1, 10 and 3
    with pytest.raises(ParseError, match="vertex key"):
        bundle_from_json({"schema": 1, "weights": {"x": {key: 1}}})
    assert bundle_from_json({"schema": 1, "weights": {"x": {"10": 1}}}) == \
        WeightBundle.from_dict({"x": {10: 1}})


@pytest.mark.parametrize("entry", [{0: 1.7}, {0: True}, {1.0: 1}, {True: 1}, {"0": 1}])
def test_bundle_from_dict_rejects_non_integers(entry):
    with pytest.raises(DomainError, match="must be integers"):
        WeightBundle.from_dict({"p1": entry})


@pytest.mark.parametrize("pairs", [((0, 1.7),), ((0, True),), ((1.0, 1),), ((True, 1),), (("0", 1),)])
def test_bundle_constructor_rejects_what_from_dict_rejects(pairs):
    # after an int weight, so that one equal to it is checked too
    with pytest.raises(DomainError, match="must be integers"):
        WeightBundle((("p0", ((0, 1),)), ("p1", pairs)))


def test_bundle_from_dict_rejects_two_keys_of_one_label():
    # 1 and "1" both name the point "1": one weight would certify, the other print
    with pytest.raises(DomainError, match="more than one weight"):
        WeightBundle.from_dict({1: {0: 1}, "1": {0: 2}})
    with pytest.raises(DomainError, match="more than one weight"):
        WeightBundle((("p1", ((0, 1),)), ("p1", ((0, 2),))))
    assert WeightBundle.from_dict({1: {0: 1}, "2": {0: 2}}).entries == (("1", ((0, 1),)), ("2", ((0, 2),)))
