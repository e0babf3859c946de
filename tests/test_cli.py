"""End-to-end command-line tests: byte-stable goldens and exit codes."""
from __future__ import annotations

import hashlib
import json

import pytest

from parapic.cli import main

A2_PAIR_DATUM = {
    "schema": 1,
    "genus": 0,
    "group": "C2",
    "points": [
        {"label": "x1", "type": "A2~2", "facet": [1], "monodromy": "(12)",
         "bad": True},
        {"label": "x2", "type": "A2~2", "facet": [1], "monodromy": "(12)",
         "bad": True},
    ],
}
A2_PAIR_BUNDLE = {"schema": 1, "weights": {"x1": {"1": 1}, "x2": {"1": 1}}}


@pytest.fixture()
def a2_files(tmp_path):
    datum = tmp_path / "datum.json"
    bundle = tmp_path / "bundle.json"
    datum.write_text(json.dumps(A2_PAIR_DATUM))
    bundle.write_text(json.dumps(A2_PAIR_BUNDLE))
    return str(datum), str(bundle)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dynkin_info_human(capsys):
    code, out, _ = run(capsys, "dynkin", "info", "A2~2")
    assert code == 0
    assert out == (
        "type: A2~2\n"
        "base: A2\n"
        "twist: 2\n"
        "vertices: 0 1\n"
        "dual labels: 1 2\n"
        "cartan matrix:\n"
        "   2 -4\n"
        "  -1  2\n"
    )


def test_dynkin_info_json(capsys):
    code, out, _ = run(capsys, "dynkin", "info", "A2~2", "--json")
    assert code == 0
    assert out.rstrip("\n") == (
        '{"base": "A2", "cartan": [[2, -4], [-1, 2]], "dual_labels": [1, 2],'
        ' "schema": 2, "twist": 2, "type": "A2~2", "vertices": [0, 1]}'
    )


def test_picard_cdelta(capsys, a2_files):
    datum, _ = a2_files
    code, out, _ = run(capsys, "picard", "cdelta", "--datum", datum)
    assert (code, out) == (0, "c_delta = 2\n")
    code, out, _ = run(capsys, "picard", "cdelta", "--datum", datum, "--json")
    assert (code, out) == (0, '{"c_delta": 2, "schema": 2}\n')


def test_picard_rank(capsys, a2_files):
    datum, _ = a2_files
    code, out, _ = run(capsys, "picard", "rank", "--datum", datum, "--json")
    assert (code, out) == (0, '{"rank": 1, "schema": 2}\n')


def test_picard_check(capsys, a2_files):
    datum, bundle = a2_files
    code, out, _ = run(
        capsys, "picard", "check", "--datum", datum, "--bundle", bundle
    )
    assert code == 0
    assert out == "dominant: true\nin charge lattice: true\ncharge: 2\n"


def test_picard_check_validates_the_bundle_once(capsys, a2_files, monkeypatch):
    from parapic import picard

    calls = []
    validate = picard.validate_bundle
    monkeypatch.setattr(picard, "validate_bundle",
                        lambda d, b: calls.append(1) or validate(d, b))
    datum, bundle = a2_files
    code, out, _ = run(capsys, "picard", "check", "--datum", datum,
                       "--bundle", bundle, "--json")
    assert (code, len(calls)) == (0, 1)
    assert json.loads(out)["dominant"] is True


def test_covers_genus(capsys):
    code, out, _ = run(capsys, "covers", "genus", "(12),(23),(132)")
    assert (code, out) == (0, "genus = 0\ncomponents = 1\n")


def test_covers_connected(capsys):
    code, out, _ = run(capsys, "covers", "connected", "(12),(12)", "--json")
    assert (code, out) == (0, '{"connected": false, "schema": 2}\n')


def test_covers_enumerate(capsys):
    code, out, _ = run(
        capsys,
        "covers",
        "enumerate",
        "--classes",
        "transposition,transposition",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {
        "count": 3,
        "schema": 2,
        "tuples": [["(12)", "(12)"], ["(13)", "(13)"], ["(23)", "(23)"]],
    }


def test_covers_enumerate_limit(capsys):
    code, out, _ = run(
        capsys,
        "covers",
        "enumerate",
        "--classes",
        "transposition,transposition",
        "--limit",
        "1",
    )
    assert (code, out) == (0, "count = 3\n(12),(12)\n")


def test_reduce_s3(capsys):
    code, out, _ = run(capsys, "reduce", "s3", "(12),(12),(123),(132)")
    assert code == 0
    assert out == (
        "factors: 2\n"
        "  S3Case1: (12),(12)\n"
        "  S3Case2: (123),(132)\n"
    )


def test_reduce_s3_lists_every_copy_of_a_run(capsys):
    # the three equal pairs and the two vacua are one run each in memory
    code, out, _ = run(capsys, "reduce", "s3", "(12),e,(12),(12),(12),e,(12),(12)")
    assert code == 0
    assert out == "factors: 5\n" + "  S3Case1: (12),(12)\n" * 3 + "  UntwistedVacuum: e\n" * 2


def test_verlinde_rank(capsys):
    code, out, _ = run(
        capsys, "verlinde", "rank", "(12),(23),(123),(123)", "--json"
    )
    assert code == 0
    assert out.rstrip("\n") == (
        '{"derivation": [["S3 level-1 sum t=2 m=2", 2]],'
        ' "rank": 2, "schema": 2}'
    )


def test_verlinde_closed_form(capsys):
    code, out, _ = run(capsys, "verlinde", "closed-form", "1", "2", "3")
    assert (code, out) == (0, "rank = 18\n")


def test_descend(capsys, a2_files):
    datum, bundle = a2_files
    code, out, _ = run(
        capsys, "descend", "--datum", datum, "--bundle", bundle
    )
    assert code == 0
    assert out == (
        "verdict: Descends\ncharge: 2\nrank bound: 1\nroute: pair partition\n"
    )


#: a genus-1 datum of four D5~2 branch points whose cg certificate pairs
#: (p1, p4) and (p2, p3): its adjacent pairs are mismatched
D5_GENUS_1 = {"schema": 1, "genus": 1, "group": "C2", "points": [
    {"label": f"p{i}", "type": "D5~2", "facet": facet, "monodromy": "(12)", "bad": True}
    for i, facet in enumerate(([0, 1, 3], [1, 2, 4], [0, 2, 3], [0, 3]), 1)]}


def test_descend_reads_the_bundle_of_a_cg_or_descend_payload(capsys, tmp_path):
    datum, report, replay = (tmp_path / name for name in ("d.json", "cg.json", "descend.json"))
    datum.write_text(json.dumps(D5_GENUS_1))
    code, out, _ = run(capsys, "cg", "--datum", str(datum), "--json")
    assert code == 0
    report.write_text(out)
    cert = json.loads(out)["certificate"]
    assert (cert["charge"], cert["bundle"]) == (
        2, {"p1": {"0": 2}, "p2": {"2": 1}, "p3": {"2": 1}, "p4": {"0": 2}})
    code, out, _ = run(capsys, "descend", "--datum", str(datum), "--bundle", str(report))
    assert (code, out) == (0, "verdict: Descends\ncharge: 2\nrank bound: 1\n"
                              "route: pair partition\n")
    code, out, _ = run(capsys, "descend", "--datum", str(datum), "--bundle", str(report),
                       "--json")
    assert json.loads(out) == {**cert, "schema": 2}
    replay.write_text(out)
    code, again, _ = run(capsys, "descend", "--datum", str(datum), "--bundle", str(replay),
                         "--json")
    assert (code, again) == (0, out)


@pytest.mark.parametrize("payload, message", [
    ({"certificate": None, "certified_charge": None, "exact": None, "lower": 1, "schema": 2},
     "holds no certificate bundle"),
    ({"certificate": {"charge": 2}, "schema": 2}, "holds no certificate bundle"),
    ({"bundle": {"p1": {"0": 2}}, "schema": 3}, "unsupported schema 3"),
    ({"bundle": {"p1": {"0": 2}}, "schema": True}, "unsupported schema True"),
    ({"bundle": [["p1", 2]], "schema": 2}, "must be an object"),
    ({"bundle": {"p1": {"0": 2.0}}, "schema": 2}, "must be an integer"),
])
def test_descend_refuses_a_payload_without_a_bundle(capsys, tmp_path, payload, message):
    datum, bundle = tmp_path / "d.json", tmp_path / "b.json"
    datum.write_text(json.dumps(D5_GENUS_1))
    bundle.write_text(json.dumps(payload))
    code, out, err = run(capsys, "descend", "--datum", str(datum), "--bundle", str(bundle))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and message in err and "Traceback" not in err


def test_cg_json(capsys, a2_files):
    datum, _ = a2_files
    code, out, _ = run(capsys, "cg", "--datum", datum, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 2
    assert (payload["lower"], payload["certified_charge"], payload["exact"]) \
        == (2, 2, 2)
    cert = payload["certificate"]
    assert cert["verdict"] == "Descends"
    assert cert["bundle"] == {"x1": {"1": 1}, "x2": {"1": 1}}
    assert cert["witness"]["factors"][0]["kind"] == "TwistedPair"
    # byte-stable: a second run prints the identical line
    code2, out2, _ = run(capsys, "cg", "--datum", datum, "--json")
    assert (code2, out2) == (code, out)


def test_cg_human(capsys, a2_files):
    datum, _ = a2_files
    code, out, _ = run(capsys, "cg", "--datum", datum)
    assert code == 0
    assert out == (
        "lower bound (c_delta): 2\ncertified charge: 2\nexact: 2\n"
    )


# ---------------------------------------------------------------------------
# exit codes


def test_parse_error_is_exit_2(capsys):
    code, out, err = run(capsys, "dynkin", "info", "Z9")
    assert (code, out) == (2, "")
    assert "cannot parse affine type 'Z9'" in err


def test_unknown_group_is_exit_2(capsys):
    code, _, err = run(capsys, "covers", "genus", "(12)", "--group", "C4")
    assert code == 2
    assert "unknown group 'C4'" in err


def test_missing_file_is_exit_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "picard", "cdelta", "--datum", str(tmp_path / "nope.json")
    )
    assert code == 2
    assert "No such file" in err


@pytest.mark.parametrize("argv", [
    ("covers", "genus", "--group", "C2", "--base-genus", "-1", ",".join(["(12)"] * 10)),
    ("covers", "enumerate", "--classes", "(12),(12)", "--limit", "-1"),
], ids=["base-genus", "limit"])
def test_negative_count_option_is_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "expected a nonnegative integer, got '-" in err


#: integer texts that ``int`` reads but ``str`` never writes
NON_CANONICAL = {"separator": "1_0", "arabic-indic": "\u0663", "leading-space": " 2",
                 "trailing-space": "2 ", "plus": "+2", "leading-zero": "02", "minus-zero": "-0"}


@pytest.mark.parametrize("argv", [
    ("covers", "genus", "--base-genus", "{n}", "(12),(12)"),
    ("covers", "enumerate", "--classes", "(12),(12)", "--limit", "{n}"),
    ("verlinde", "closed-form", "{n}", "2", "3"),
    ("verlinde", "closed-form", "1", "{n}", "3"),
    ("verlinde", "closed-form", "1", "2", "{n}"),
], ids=["base-genus", "limit", "closed-form-g", "closed-form-n", "closed-form-r"])
@pytest.mark.parametrize("text", NON_CANONICAL.values(), ids=NON_CANONICAL.keys())
def test_non_canonical_integer_argument_is_exit_2(capsys, argv, text):
    code, out, err = run(capsys, *(a.format(n=text) for a in argv))
    assert (code, out) == (2, "")
    assert f"integer, got {text!r}" in err


def test_cg_has_no_budget_option(capsys, a2_files):
    code, out, err = run(capsys, "cg", "--datum", a2_files[0], "--budget", "64")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --budget 64" in err


def test_domain_error_is_exit_1(capsys):
    code, _, err = run(capsys, "verlinde", "rank", "(12),(12)")
    assert code == 1
    assert "disconnected" in err


def test_usage_error_is_exit_2(capsys):
    assert run(capsys, "picard", "cdelta")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


@pytest.mark.parametrize(
    "datum_patch, bundle_weights",
    [
        ({"genus": True}, None),
        ({"points": [dict(A2_PAIR_DATUM["points"][0], facet=[True]),
                     A2_PAIR_DATUM["points"][1]]}, None),
        ({}, {"x1": {"1": 1.7}, "x2": {"1": 1}}),
        ({}, {"x1": {"1": True}, "x2": {"1": 1}}),
        ({"schema": True}, None),
        ({"schema": 1.0}, None),
        ({}, {"x1": {" 1": 1}, "x2": {"1": 1}}),
        ({}, {"x1": {"1_0": 1}, "x2": {"1": 1}}),
        ({}, {"x1": {"\u0661": 1}, "x2": {"1": 1}}),
    ],
    ids=["bool-genus", "bool-facet-vertex", "float-weight", "bool-weight",
         "bool-schema", "float-schema", "spaced-vertex-key",
         "underscored-vertex-key", "arabic-indic-vertex-key"],
)
def test_non_integer_input_is_exit_2(capsys, tmp_path, datum_patch, bundle_weights):
    datum = tmp_path / "datum.json"
    bundle = tmp_path / "bundle.json"
    datum.write_text(json.dumps({**A2_PAIR_DATUM, **datum_patch}))
    weights = bundle_weights or A2_PAIR_BUNDLE["weights"]
    bundle.write_text(json.dumps({"schema": 1, "weights": weights}))
    for argv in (
        ("descend", "--datum", str(datum), "--bundle", str(bundle)),
        ("picard", "check", "--datum", str(datum), "--bundle", str(bundle)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


_A2_POINTS = json.dumps(A2_PAIR_DATUM["points"])


@pytest.mark.parametrize(
    "datum_text, bundle_text, key",
    [
        # json alone would read x1's weight as 5
        (None, '{"schema": 1, "weights": {"x1": {"1": 1, "1": 5}, "x2": {"1": 1}}}', "1"),
        # json alone would keep one weight of x1, past WeightBundle's check
        (None, '{"schema": 1, "weights": {"x1": {"1": 1}, "x1": {"1": 2}, "x2": {"1": 1}}}',
         "x1"),
        # json alone would certify at genus 3
        ('{"schema": 1, "genus": 0, "genus": 3, "group": "C2", "points": %s}' % _A2_POINTS,
         None, "genus"),
    ],
    ids=["vertex", "bundle-label", "genus"],
)
def test_repeated_json_key_is_exit_2(capsys, a2_files, tmp_path, datum_text, bundle_text, key):
    datum, bundle = a2_files
    if datum_text is not None:
        datum = tmp_path / "repeated-datum.json"
        datum.write_text(datum_text)
    if bundle_text is not None:
        bundle = tmp_path / "repeated-bundle.json"
        bundle.write_text(bundle_text)
    for argv in (("descend", "--datum", str(datum), "--bundle", str(bundle)),
                 ("picard", "check", "--datum", str(datum), "--bundle", str(bundle))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"key {key!r} is given twice in one object" in err


HIGH_GENUS_C2_DATUM = {
    "schema": 1,
    "genus": 20000,
    "group": "C2",
    "points": [
        {"label": f"p{i}", "type": "A3~2", "facet": [0, 1, 2], "monodromy": "(12)"}
        for i in (1, 2)
    ],
}

#: 14,286 elliptic triples of rank 2: a rank bound of 2^14286, 4301 digits
MANY_TRIPLES_C3_DATUM = {
    "schema": 1,
    "genus": 0,
    "group": "C3",
    "points": [
        {"label": f"q{i}", "type": "D4~3", "facet": [0, 1, 2], "monodromy": "(123)"}
        for i in range(3 * 14286)
    ],
}


@pytest.mark.parametrize(
    "argv",
    [
        ("verlinde", "closed-form", "100000", "1", "2"),
        ("verlinde", "closed-form", "100000", "1", "2", "--json"),
        # 2^(10^11) is refused before it is built
        ("verlinde", "closed-form", "100000000000", "1", "2"),
        # 2^14286 has 4301 digits, just past the limit
        ("verlinde", "closed-form", "7143", "1", "2"),
        ("cg", "--datum", "{triples}", "--json"),
        ("descend", "--datum", "{triples}", "--bundle", "{triples_bundle}", "--json"),
        ("descend", "--datum", "{triples}", "--bundle", "{triples_bundle}"),
        # the level-1 sum of two transpositions and m 3-cycles is 2^(m-1)
        ("verlinde", "rank", ",".join(["(12)", "(12)"] + ["(123)"] * 15000)),
        # S3 genus from a 4,300-digit base genus: about 6g, 4,301 digits
        ("covers", "genus", "--base-genus", "9" * 4300, "(12),(12)"),
        # a 4,300-digit coefficient at a vertex of dual label 2
        ("descend", "--datum", "{genus0}", "--bundle", "{big_bundle}"),
        ("picard", "check", "--datum", "{genus0}", "--bundle", "{big_bundle}"),
    ],
    ids=["closed-form", "closed-form-json", "closed-form-1e11",
         "closed-form-4301-digits", "cg-json", "descend-json", "descend",
         "level-1-sum", "covers-genus", "descend-charge", "picard-check-charge"],
)
def test_integer_past_the_written_digit_limit_is_exit_1(capsys, tmp_path, argv):
    triples = tmp_path / "triples.json"
    triples_bundle = tmp_path / "triples_bundle.json"
    if on_triples := "{triples}" in argv:
        triples.write_text(json.dumps(MANY_TRIPLES_C3_DATUM))
        triples_bundle.write_text(json.dumps(
            _vacua(*(p["label"] for p in MANY_TRIPLES_C3_DATUM["points"]))))
    genus0 = tmp_path / "genus0.json"
    genus0.write_text(json.dumps({**HIGH_GENUS_C2_DATUM, "genus": 0}))
    big = int("9" * 4300)
    big_bundle = tmp_path / "big_bundle.json"
    big_bundle.write_text(json.dumps(
        {"schema": 1, "weights": {"p1": {"2": big}, "p2": {"2": big}}}))
    argv = [a.format(triples=triples, triples_bundle=triples_bundle, genus0=genus0,
                     big_bundle=big_bundle)
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert "4300 decimal digits" in err or "4300 Python writes" in err
    if on_triples:
        assert "the rank bound has more than 4300 decimal digits" in err


def test_integer_at_the_written_digit_limit_is_written(capsys, tmp_path):
    # 2^14284 has exactly 4300 digits
    code, out, _ = run(capsys, "verlinde", "closed-form", "7142", "1", "2")
    assert code == 0
    assert len(out) == len("rank = ") + 4300 + 1
    # without --json, cg prints no rank, so the high-genus datum answers
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps(HIGH_GENUS_C2_DATUM))
    code, out, _ = run(capsys, "cg", "--datum", str(datum))
    assert (code, out) == (0, "lower bound (c_delta): 1\ncertified charge: 1\nexact: 1\n")


def _pt(label, t, facet, mono="e"):
    return {"label": label, "type": t, "facet": facet, "monodromy": mono}

def _vacua(*labels):
    return {"schema": 1, "weights": {lab: {"0": 1} for lab in labels}}

#: (datum, bundle) files the ``--json`` digests below are taken on
PINNED_CLI_DATA = {
    "readme": (A2_PAIR_DATUM, A2_PAIR_BUNDLE),
    # labels that JSON escapes; an odd split side and two handles pad
    "c2-genus-2-escaped": (
        {"schema": 1, "genus": 2, "group": "C2", "points": [
            _pt('b"1', "A3~2", [0, 1, 2], "(12)"), _pt("b\\2", "A3~2", [0, 1, 2], "(12)"),
            _pt("ñ-s1", "A3", [0, 1, 2, 3])]},
        _vacua('b"1', "b\\2", "ñ-s1")),
    # a pairing search that certifies above c_delta
    "c2-search": (
        {"schema": 1, "genus": 0, "group": "C2", "points": [
            {**_pt("p1", "E6~2", [2, 3, 4], "(12)"), "bad": True}, _pt("p2", "E6", [0, 2]),
            {**_pt("p3", "E6", [1, 3]), "bad": True}, _pt("p4", "E6~2", [0, 3, 4], "(12)"),
            {**_pt("p5", "E6", [2, 4, 5]), "bad": True}]},
        {"schema": 1, "weights": {"p1": {"4": 1}, "p2": {"0": 2}, "p3": {"1": 2},
                                  "p4": {"4": 1}, "p5": {"5": 2}}}),
    # the genus-3 A5~2 datum the closed form once covered: pairs and pads
    "c2-closed-form": (
        {"schema": 1, "genus": 3, "group": "C2", "points": [
            _pt("x1", "A5~2", [0, 1, 2, 3], "(12)"), _pt("x2", "A5~2", [0, 1, 2, 3], "(12)")]},
        _vacua("x1", "x2")),
    "s3-case3-escaped": (
        {"schema": 1, "genus": 0, "group": "S3", "points": [
            _pt("té", "D4~2", [0, 1, 2, 3], "(12)"), _pt("t\\", "D4~2", [0, 1, 2, 3], "(23)"),
            _pt('c"', "D4~3", [0, 1, 2], "(132)")]},
        _vacua("té", "t\\", 'c"')),
    "s3-genus-2": (
        {"schema": 1, "genus": 2, "group": "S3", "points": [
            _pt("p1", "D4", [0, 1, 2, 3, 4]), _pt("p2", "D4~2", [0, 1, 2, 3], "(23)"),
            _pt("p3", "D4~3", [0, 1, 2], "(123)"), _pt("p4", "D4", [0, 1, 2, 3, 4]),
            _pt("p5", "D4~2", [0, 1, 2, 3], "(23)"), _pt("p6", "D4~2", [0, 1, 2, 3], "(13)"),
            _pt("p7", "D4~3", [0, 1, 2], "(132)"), _pt("p8", "D4~2", [0, 1, 2, 3], "(23)")]},
        _vacua(*(f"p{i}" for i in range(1, 9)))),
}
PINNED_S3_TUPLES = ("(12),(12),(123),(132)", "(12),(23),(132)",
                    "(12),(23),(123),(123),(13),(13),(12),(12)")

#: sha256 of the ``--json`` output of ``cg`` and ``descend`` on each of
#: PINNED_CLI_DATA and of ``reduce s3`` on each of PINNED_S3_TUPLES,
#: recorded while reports were still built as dicts for ``json.dumps``;
#: the ``c2-closed-form`` pair was re-recorded when the A-series closed
#: form left certification, and checked against ``oracles.report_json``
#: and ``oracles.certificate_dict``; the ``c2-search`` descend line again
#: when the default C2 pairing became the first pinching of the bundle
#: (Unknown on adjacent pairs, now Descends as its ``cg`` certificate
#: does), and checked against ``oracles.c2_pair_witness``
PINNED_CLI_DIGESTS = {
    ("cg", "readme"):
        "f3369a8ef269bcf08aceb1b9d1ce220ff3dd3a5ada1eae4c0ca9e5804ee3a133",
    ("descend", "readme"):
        "f3196fcfdb3c56dff3dc973632ef2747c4687b914e2433298c3fc34f1ce41358",
    ("cg", "c2-genus-2-escaped"):
        "176702793484db2af0935611650042862195b44989278c592d3296e9eab271c4",
    ("descend", "c2-genus-2-escaped"):
        "93a9481a1e70e7adcca184668fded3c26ab607d9da9043df28ab43491d0492f5",
    ("cg", "c2-search"):
        "5f9e16824b42b6d1665a6cad5100cd53ec7288198f58e18731199e8361a57eff",
    ("descend", "c2-search"):
        "d9cad59372506c8457bb338f67bda1b0689687593ef912f55a796edead5c69f6",
    ("cg", "c2-closed-form"):
        "5b2310f8e1b9338eaf9565348ccab0e65b0e644df77d3622e047ce4336451a74",
    ("descend", "c2-closed-form"):
        "673573a852ccb66f1b7ac6d7f2e042d626fe861e764a1a4f7d6b1cd2748995f1",
    ("cg", "s3-case3-escaped"):
        "4e43125929b357b92a7e446837d7a4679efb487338b56648357970f1f9400684",
    ("descend", "s3-case3-escaped"):
        "2502f81d23b23dd0459e13d35ebc655d86fbd457745b3121bf803b9c3aafb570",
    ("cg", "s3-genus-2"):
        "d4de24588bdb9760dde6324327f21fb89fc14c778bc3da34c9f56637ea3c8d15",
    ("descend", "s3-genus-2"):
        "6c3196ba62aaa07ca7d2f8307c2ef520e7e39e21c87bbed41eaf1811dfd52730",
    ("reduce", "(12),(12),(123),(132)"):
        "a7fb0203901869d12c6337a9d901a882945f86decbd11d76216af6f154560fbd",
    ("reduce", "(12),(23),(132)"):
        "cbaa08010432db73e58bb17a5c153298345cd81ac048ceb02bb92970b2a486b5",
    ("reduce", "(12),(23),(123),(123),(13),(13),(12),(12)"):
        "3097df491fabef373cbdbf020696f868cce643003256965e628964c14de8c85d",
}


def test_json_output_is_byte_identical_to_the_pinned_digests(capsys, tmp_path):
    got = {}
    for name, (datum, bundle) in PINNED_CLI_DATA.items():
        dp, bp = tmp_path / f"{name}.json", tmp_path / f"{name}-bundle.json"
        dp.write_text(json.dumps(datum))
        bp.write_text(json.dumps(bundle))
        for verb, argv in (("cg", ("cg", "--datum", str(dp))),
                           ("descend", ("descend", "--datum", str(dp), "--bundle", str(bp)))):
            code, out, _ = run(capsys, *argv, "--json")
            assert code == 0, (verb, name)
            got[verb, name] = hashlib.sha256(out.encode()).hexdigest()
    for t in PINNED_S3_TUPLES:
        code, out, _ = run(capsys, "reduce", "s3", t, "--json")
        assert code == 0, t
        got["reduce", t] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_CLI_DIGESTS


#: a genus-1 C2 datum with one real split point: its split side is p2,
#: two handle shadows and the ``_aux`` pad, which pair in side order
C2_GENUS_1_AUX = {"schema": 1, "genus": 1, "group": "C2", "points": [
    {**_pt("p1", "D4~2", [0, 1, 2], "(12)"), "bad": True}, _pt("p2", "D4", [0, 1, 2]),
    {**_pt("p3", "D4~2", [1], "(12)"), "bad": True}]}


@pytest.mark.parametrize("datum_json", [PINNED_CLI_DATA["c2-search"][0], C2_GENUS_1_AUX],
                         ids=["c2-search", "c2-genus-1-aux"])
def test_descend_on_the_bundle_of_a_cg_payload_prints_its_certificate(capsys, tmp_path,
                                                                      datum_json):
    # the C2 search pairs the bundle it finds as certify_descent does, so
    # descend on the cg payload prints that payload's certificate object
    # (with the schema entry descend adds), byte for byte
    datum, report = tmp_path / "d.json", tmp_path / "cg.json"
    datum.write_text(json.dumps(datum_json))
    code, out, _ = run(capsys, "cg", "--datum", str(datum), "--json")
    assert code == 0
    report.write_text(out)
    cert = json.loads(out)["certificate"]
    assert cert["verdict"] == "Descends"
    code, again, _ = run(capsys, "descend", "--datum", str(datum), "--bundle", str(report),
                         "--json")
    assert (code, again) == (0, json.dumps({**cert, "schema": 2}, sort_keys=True) + "\n")
