"""End-to-end command-line tests: byte-stable goldens and exit codes."""
from __future__ import annotations

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


HIGH_GENUS_C2_DATUM = {
    "schema": 1,
    "genus": 20000,
    "group": "C2",
    "points": [
        {"label": f"p{i}", "type": "A3~2", "facet": [0, 1, 2], "monodromy": "(12)"}
        for i in (1, 2)
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
        ("cg", "--datum", "{datum}", "--json"),
        ("descend", "--datum", "{datum}", "--bundle", "{bundle}", "--json"),
        ("descend", "--datum", "{datum}", "--bundle", "{bundle}"),
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
    # the closed form at genus 20000 is 2^40000, about 12,000 digits
    datum = tmp_path / "datum.json"
    bundle = tmp_path / "bundle.json"
    datum.write_text(json.dumps(HIGH_GENUS_C2_DATUM))
    bundle.write_text(json.dumps({"schema": 1, "weights": {"p1": {"0": 1}, "p2": {"0": 1}}}))
    genus0 = tmp_path / "genus0.json"
    genus0.write_text(json.dumps({**HIGH_GENUS_C2_DATUM, "genus": 0}))
    big = int("9" * 4300)
    big_bundle = tmp_path / "big_bundle.json"
    big_bundle.write_text(json.dumps(
        {"schema": 1, "weights": {"p1": {"2": big}, "p2": {"2": big}}}))
    argv = [a.format(datum=datum, bundle=bundle, genus0=genus0, big_bundle=big_bundle)
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert "4300 decimal digits" in err or "4300 Python writes" in err


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
