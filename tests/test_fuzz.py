"""Fuzzing of the JSON loaders and the command line.

Untrusted input must be rejected precisely: the loaders either return a
value or raise ``ParseError``, and ``parapic`` exits 0, 1 or 2 with no
traceback, whatever the datum and bundle files hold.  The data start
from valid point templates, so a good share of them reach the
certificate search, and fields are swapped for arbitrary JSON values.
"""
from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parapic import picard
from parapic.cli import main
from parapic.errors import ParseError
from parapic.picard import GroupDatum, WeightBundle, bundle_from_json, datum_from_json

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-2, 7)
    | st.text(max_size=5),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)

_UNTWISTED = (
    {"type": "D4", "facet": [0, 1, 2, 3, 4]},
    {"type": "D4", "facet": [0], "monodromy": "e"},
    {"type": "D4", "facet": [2], "bad": True},
)


def _twisted(typ, monodromies, facets):
    return tuple(
        {"type": typ, "facet": f, "monodromy": m, **({"bad": True} if 0 not in f else {})}
        for m in monodromies
        for f in facets
    )


_ORDER2 = ("D4~2", ([0, 1, 2, 3], [1]))
_ORDER3 = ("D4~3", ([0, 1, 2], [2]))
#: valid points per group, all of base type D4 so handles can be pinched
TEMPLATES = {
    "Trivial": _UNTWISTED,
    "C2": _UNTWISTED + _twisted(_ORDER2[0], ["(12)"], _ORDER2[1]),
    "C3": _UNTWISTED + _twisted(_ORDER3[0], ["(123)", "(132)"], _ORDER3[1]),
    "S3": _UNTWISTED
    + _twisted(_ORDER2[0], ["(12)", "(13)", "(23)"], _ORDER2[1])
    + _twisted(_ORDER3[0], ["(123)", "(132)"], _ORDER3[1]),
}
POINT_KEYS = ("label", "type", "facet", "monodromy", "bad")


def _patch(keys):
    """Mostly None (no change), else one key with a junk value or dropped."""
    change = st.tuples(st.sampled_from(keys), JUNK | st.just(KeyError))
    return st.tuples(st.integers(0, 4), change).map(lambda t: t[1] if t[0] == 4 else None)


def _apply(obj: dict, change) -> dict:
    if change is None:
        return obj
    key, value = change
    obj = dict(obj)
    if value is KeyError:
        obj.pop(key, None)
    else:
        obj[key] = value
    return obj


def _datum(genus, group, points, change):
    pts = [
        _apply({"label": f"x{i + 1}", **template}, pc)
        for i, (template, pc) in enumerate(points)
    ]
    obj = {"schema": 1, "genus": genus, "group": group, "points": pts}
    return _apply(obj, change)


datum_objs = st.sampled_from(sorted(TEMPLATES)).flatmap(
    lambda group: st.builds(
        _datum,
        st.integers(0, 2),
        st.just(group),
        st.lists(
            st.tuples(st.sampled_from(TEMPLATES[group]), _patch(POINT_KEYS)),
            max_size=5,
        ),
        _patch(("schema", "genus", "group", "points")),
    )
)
coeff_maps = st.dictionaries(
    st.sampled_from(["0", "1", "2", "3", "-1", "x"]),
    st.integers(-1, 3) | JUNK,
    max_size=2,
)
bundle_objs = st.builds(
    lambda weights, change: _apply({"schema": 1, "weights": weights}, change),
    st.dictionaries(
        st.sampled_from(["x1", "x2", "x3", "x4", "x5", "y"]),
        st.just({"0": 1}) | coeff_maps,
        max_size=5,
    ),
    _patch(("schema", "weights")),
) | JUNK


def bundles_for(datum_obj):
    """Fuzzed bundles, or the vacuum at charge 1 or 2 on the datum's own
    labels with at most one point's coefficients replaced."""
    try:
        labels = [p["label"] for p in datum_obj["points"]]
        hash(tuple(labels))
    except (KeyError, TypeError):
        return bundle_objs

    def vacuum(charge, change):
        weights = {lab: {"0": charge} for lab in labels}
        if change is not None and labels:
            i, coeffs = change
            weights[labels[i % len(labels)]] = coeffs
        return {"schema": 1, "weights": weights}

    return bundle_objs | st.builds(
        vacuum, st.integers(1, 2), st.none() | st.tuples(st.integers(0, 4), coeff_maps)
    )


@settings(max_examples=50, deadline=None)
@given(datum_objs | JUNK)
def test_datum_loader_accepts_or_raises_parse_error(obj):
    try:
        d = datum_from_json(obj)
    except ParseError:
        return
    assert isinstance(d, GroupDatum)


def _parse_or_message(obj):
    """The datum and every field of its points (``_label_gcd``, which
    ``_fields`` leaves out, included), or the ParseError text.  No point
    shares its field dict with another point or with the shape memo."""
    try:
        d = datum_from_json(obj)
    except ParseError as e:
        return str(e)
    held = {id(fields) for fields in picard._point_shapes.values()}
    dicts = {id(vars(p)) for p in d.points}
    assert len(dicts) == len(d.points) and not dicts & held
    return d, [vars(p) for p in d.points]


#: every valid point template as one datum, to fill the point shape memo
_ALL_TEMPLATES = {"schema": 1, "genus": 1, "group": "S3", "points": [
    {"label": f"t{i}", **t} for i, t in enumerate(TEMPLATES["S3"])]}


def _refused(template: dict, change: str, k: int) -> dict:
    """A template point with one change that the memo's copy must not
    hide: ``bad`` or ``monodromy`` dropped, the bad flag as the int equal
    to it, the ``k``-th facet vertex replaced by a bool or a float equal
    to it or not, a label that is no string, or an extra key."""
    point = {"label": "r", **template}
    if change in ("bad", "monodromy"):
        point.pop(change, None)
    elif change == "int":
        point["bad"] = int(point.get("bad", k % 2))
    elif change in ("bool", "float"):
        facet = list(point["facet"])
        i = k % len(facet)
        facet[i] = (facet[i] == 1) if change == "bool" else float(facet[i])
        point["facet"] = facet
    elif change == "label":
        point["label"] = [1, None, ["r"], True][k % 4]
    else:
        point["extra"] = [1, "e", None][k % 3]
    return point


@st.composite
def refused_objs(draw):
    """An S3 datum of template points with one `_refused` point among them."""
    points = [{"label": f"x{i}", **t}
              for i, t in enumerate(draw(st.lists(st.sampled_from(TEMPLATES["S3"]), max_size=4)))]
    refused = _refused(draw(st.sampled_from(TEMPLATES["S3"])),
                       draw(st.sampled_from(["bad", "monodromy", "int", "bool", "float", "label", "extra"])),
                       draw(st.integers(0, 11)))
    points.insert(draw(st.integers(0, len(points))), refused)
    return {"schema": 1, "genus": draw(st.integers(0, 2)), "group": "S3", "points": points}


@settings(max_examples=120, deadline=None)
@given(datum_objs | refused_objs() | JUNK)
def test_datum_loader_answers_alike_with_a_cold_and_a_warm_memo(obj):
    picard._point_shapes.clear()
    cold = _parse_or_message(obj)
    datum_from_json(_ALL_TEMPLATES)
    assert _parse_or_message(obj) == cold


@settings(max_examples=50, deadline=None)
@given(bundle_objs)
def test_bundle_loader_accepts_or_raises_parse_error(obj):
    try:
        b = bundle_from_json(obj)
    except ParseError:
        return
    assert isinstance(b, WeightBundle)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return str(root / "datum.json"), str(root / "bundle.json")


VERBS = (
    ("cg", "--json"),
    ("descend",),
    ("picard", "check"),
    ("picard", "cdelta"),
    ("picard", "rank", "--json"),
)


def _run(capsys, verb, datum, bundle):
    argv = [*verb, "--datum", datum]
    if verb[0] == "descend" or verb[1:2] == ("check",):
        argv += ["--bundle", bundle]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    return code, err


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(datum_objs, st.data(), st.sampled_from(VERBS))
def test_cli_exit_codes_on_fuzzed_files(capsys, files, datum_obj, data, verb):
    bundle_obj = data.draw(bundles_for(datum_obj))
    datum, bundle = files
    with open(datum, "w", encoding="utf-8") as fh:
        json.dump(datum_obj, fh)
    with open(bundle, "w", encoding="utf-8") as fh:
        json.dump(bundle_obj, fh)
    code, err = _run(capsys, verb, datum, bundle)
    if code:
        assert err.startswith("error: ")


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=24))
def test_cli_rejects_undecodable_files(capsys, files, raw):
    datum, bundle = files
    with open(datum, "wb") as fh:
        fh.write(raw)
    code, err = _run(capsys, ("cg",), datum, bundle)
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("text", [b"\xff\xfe{", b"[" * 100_000])
def test_cli_rejects_bad_bytes_and_deep_nesting(capsys, files, text):
    datum, bundle = files
    with open(datum, "wb") as fh:
        fh.write(text)
    code, err = _run(capsys, ("cg", "--json"), datum, bundle)
    assert code == 2 and "invalid JSON" in err
