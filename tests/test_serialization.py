"""The report writer against the dict tree that ``json.dumps`` writes.

`CGReport.to_json` writes its sorted keys in one pass over per-shape
fragments; the oracle builds the same report as dicts from the fields of
its factors and bundle and hands them to ``json.dumps(...,
sort_keys=True)``.  The two must agree byte for byte on any report,
including ones no search builds: labels JSON escapes, bundles whose
entries are out of order, bools and ``int`` subclasses where numbers go
and ranks of thousands of digits.  The ``--json`` payloads of ``cg``,
``descend`` and ``reduce s3`` are the same dict trees with "schema".
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datagen
import oracles
from parapic import cli, picard
from parapic.covers import C3_PLUS, ELEMENTS, IDENTITY, element_name, inverse
from parapic.descent import CGReport, DescentCertificate, certify_descent, compute_cG
from parapic.errors import DomainError
from parapic.factorization import (
    CASE3_LITERAL,
    CASE4_LITERAL,
    BaseCase,
    DecompositionWitness,
    s3_reduce,
)
from parapic.picard import WeightBundle, bundle_to_json

T12, T13 = (2, 1, 3), (3, 2, 1)
C132 = inverse(C3_PLUS)

#: (kind, elements) of valid factors of a handful of points
SHAPES = (
    ("UntwistedVacuum", (IDENTITY,)),
    ("TwistedPair", (T12, T12)),
    ("TwistedPair", (IDENTITY, IDENTITY)),
    ("EllipticTriple", (C3_PLUS,) * 3),
    ("S3Case1", (T13, T13)),
    ("S3Case2", (C3_PLUS, C132)),
    ("S3Case2", (C132,) * 3),
    ("S3Case3", CASE3_LITERAL),
    ("S3Case4", CASE4_LITERAL),
)


class Count(int):
    """An ``int`` subclass with a repr of its own: JSON writes its int text."""

    def __repr__(self) -> str:
        return f"Count({int(self)})"


# quotes, backslashes, control and non-ASCII characters all get escaped
labels = st.text(alphabet=st.sampled_from('ab"\\\n\x00é€😀 _1'), max_size=4)
big = st.integers(-(10 ** 40), 10 ** 40) | st.just(10 ** 4299)
# what the writer's fast path must leave to the encoder: bools and int subclasses
scalars = big | big.map(Count) | st.booleans()
small = st.integers(-5, 5)
step_values = small | small.map(Count) | st.booleans() | labels | st.lists(labels, max_size=3)


class Name(str):
    """A ``str`` subclass: JSON writes its text as a string."""


@st.composite
def move_like_steps(draw):
    """A ``move`` step, exact or with one change the move writer must
    leave to the encoder: a bool or ``Count`` position, a mover that is
    no exact ``str``, an extra or a missing key, or another op."""
    step = {"op": "move", "mover": draw(labels), "from": draw(big), "to": draw(small),
            "conjugator": draw(st.sampled_from([element_name(p) for p in ELEMENTS]))}
    change = draw(st.sampled_from(["none", "position", "mover", "extra", "missing", "op"]))
    if change == "position":
        step[draw(st.sampled_from(["from", "to"]))] = draw(st.booleans() | small.map(Count))
    elif change == "mover":
        step[draw(st.sampled_from(["mover", "conjugator"]))] = draw(
            small | st.none() | labels.map(Name) | st.lists(labels, max_size=2))
    elif change == "extra":
        step[draw(st.sampled_from(["count", "labels", "kind"]))] = draw(step_values)
    elif change == "missing":
        del step[draw(st.sampled_from(sorted(step)))]
    elif change == "op":
        step["op"] = draw(st.sampled_from(["swap", "Move", "canonicalize", ""]) | labels.map(Name))
    return step


steps = st.lists(st.dictionaries(st.sampled_from(["op", "count", "labels"]), step_values)
                 | move_like_steps(), max_size=4)
# vertices past 9, so that string and integer key order differ
weight = st.lists(st.tuples(st.integers(0, 12), big), max_size=3).map(tuple)


@st.composite
def factors(draw):
    kind, elements = draw(st.sampled_from(SHAPES))
    k = len(elements)
    multiplicity = draw(st.integers(1, 3))
    count = draw(st.sampled_from((0, k, multiplicity * k)))
    exceptional = kind in ("S3Case3", "S3Case4")
    return BaseCase(
        kind=kind,
        elements=elements,
        weights=tuple(draw(weight) for _ in range(k)) if draw(st.booleans()) else (),
        labels=tuple(draw(st.lists(labels, min_size=count, max_size=count))),
        conjugator=draw(st.sampled_from(ELEMENTS)) if exceptional else None,
        original=tuple(draw(st.sampled_from(ELEMENTS)) for _ in range(k))
        if exceptional and draw(st.booleans()) else None,
        multiplicity=multiplicity,
    )


# entries built directly, in any label order and any vertex order
bundles = st.dictionaries(labels, weight, max_size=5).flatmap(
    lambda m: st.permutations(list(m.items()))).map(lambda e: WeightBundle(tuple(e)))


@st.composite
def pooled_bundles(draw):
    """Up to 30 entries, in any order, whose weights come from a pool of
    two or three: runs of one weight (A A A), interleavings (A B A), and
    equal weights held as one tuple or as distinct equal tuples."""
    pool = draw(st.lists(weight, min_size=2, max_size=3))
    entries = []
    for lab in draw(st.lists(labels, unique=True, max_size=30)):
        w = draw(st.sampled_from(pool))
        entries.append((lab, w if draw(st.booleans()) else tuple(list(w))))
    return WeightBundle(tuple(draw(st.permutations(entries))))

witnesses = st.builds(
    DecompositionWitness,
    factors=st.lists(factors(), max_size=6),
    steps=steps,
)


certificates = st.builds(
    DescentCertificate,
    bundle=bundles,
    charge=scalars,
    witness=st.none() | witnesses,
    rank_bound=st.none() | scalars,
    verdict=st.sampled_from(["Descends", "Unknown"]),
    route=labels,
)

reports = st.builds(
    CGReport,
    lower=scalars,
    certified_charge=st.none() | scalars,
    exact=st.none() | scalars,
    certificate=st.none() | certificates,
)


@settings(max_examples=300, deadline=None)
@given(reports)
def test_report_json_is_the_dict_tree_json_dumps_writes(report):
    assert report.to_json() == oracles.report_json(report)
    cert = report.certificate
    if cert is not None:
        assert cert.to_json() == json.dumps(oracles.certificate_dict(cert), sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(pooled_bundles())
def test_bundles_with_runs_of_one_weight_are_written_as_json_dumps_writes_them(bundle):
    cert = DescentCertificate(bundle=bundle, charge=1, witness=None, rank_bound=None,
                              verdict="Unknown", route="vacuum")
    assert cert.to_json() == json.dumps(oracles.certificate_dict(cert), sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(steps)
def test_steps_are_written_as_json_dumps_writes_them(steps):
    # exact moves fill the writer's template, every other step goes to the encoder
    assert DecompositionWitness(steps=steps)._json_fields()[1] == json.dumps(steps, sort_keys=True)


def test_no_factor_is_a_whole_vector():
    # the writer memoizes one frame per factor shape: the genus-g closed
    # form is no kind, and no kind holds more than four points
    with pytest.raises(DomainError, match="unknown factor kind 'ClosedFormA'"):
        BaseCase(kind="ClosedFormA", elements=(T12, T12))
    with pytest.raises(DomainError, match="malformed TwistedPair factor: 6 points"):
        BaseCase(kind="TwistedPair", elements=(T12,) * 6, labels=tuple("abcdef"))


def test_unsorted_bundle_entries_and_pairs_are_written_sorted():
    b = WeightBundle((("q", ((10, 1), (2, 3))), ("p", ((0, 1),))))
    cert = DescentCertificate(bundle=b, charge=1, witness=None, rank_bound=None,
                              verdict="Unknown", route="vacuum")
    out = cert.to_json()
    assert out.startswith('{"bundle": {"p": {"0": 1}, "q": {"2": 3, "10": 1}}, ')
    assert out == json.dumps(oracles.certificate_dict(cert), sort_keys=True)


def test_search_reports_match_the_oracle():
    r = random.Random(12)
    data = [gen(r) for gen in datagen.IWAHORI_GENERATORS.values() for _ in range(20)]
    data += [datagen.c2_search_datum(r) for _ in range(20)]
    for d in data:
        report = compute_cG(d)
        assert report.to_json() == oracles.report_json(report)


def test_a_rank_past_the_digit_limit_raises_value_error():
    b = WeightBundle((("p", ((0, 1),)),))
    cert = DescentCertificate(bundle=b, charge=1, witness=None, rank_bound=10 ** 4300,
                              verdict="Descends", route="vacuum")
    with pytest.raises(ValueError, match="4300"):
        cert.to_json()
    with pytest.raises(ValueError, match="4300"):
        CGReport(lower=1, certified_charge=1, exact=1, certificate=cert).to_json()


@pytest.mark.parametrize("slot", ["lower", "certified_charge", "exact", "charge"])
def test_an_int_past_the_digit_limit_raises_value_error_in_every_other_scalar_slot(slot):
    # the rank bound's slot is the test above
    fields = {"lower": 1, "certified_charge": 1, "exact": 1, "charge": 1, slot: 10 ** 4300}
    cert = DescentCertificate(bundle=WeightBundle((("p", ((0, 1),)),)), charge=fields["charge"],
                              witness=None, rank_bound=1, verdict="Descends", route="vacuum")
    report = CGReport(lower=fields["lower"], certified_charge=fields["certified_charge"],
                      exact=fields["exact"], certificate=cert)
    with pytest.raises(ValueError, match="4300"):
        report.to_json()
    if slot == "charge":
        with pytest.raises(ValueError, match="4300"):
            cert.to_json()


def test_an_int_subclass_writes_its_int_text_and_a_bool_stays_a_bool():
    w = DecompositionWitness(steps=[{"count": Count(3), "flag": True, "labels": ["a"]}])
    cert = DescentCertificate(bundle=WeightBundle(()), charge=Count(2), witness=w,
                              rank_bound=True, verdict="Descends", route="vacuum")
    out = cert.to_json()
    assert '"charge": 2, "rank_bound": true, ' in out
    assert out.endswith('"steps": [{"count": 3, "flag": true, "labels": ["a"]}]}}')
    assert out == json.dumps(oracles.certificate_dict(cert), sort_keys=True)


# ---------------------------------------------------------------------------
# the CLI payloads: the record's dict tree plus "schema"


def cli_json(*argv) -> str:
    """What ``parapic <argv> --json`` prints, without its newline."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--json"]) == 0
    return out.getvalue().removesuffix("\n")


def with_schema(tree: dict) -> str:
    return json.dumps({**tree, "schema": cli.SCHEMA}, sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(reports, certificates, witnesses)
def test_cli_payloads_are_the_dict_tree_with_the_schema(report, cert, witness):
    # the verbs' writers run on Hypothesis records in place of computed ones
    with mock.patch.object(picard, "load_datum", lambda path: None), \
            mock.patch.object(picard, "load_bundle", lambda path: None), \
            mock.patch.object(cli, "compute_cG", lambda d: report), \
            mock.patch.object(cli, "certify_descent", lambda d, b: cert), \
            mock.patch.object(cli, "s3_reduce", lambda mono: witness):
        assert cli_json("cg", "--datum", "-") == with_schema(oracles.report_dict(report))
        assert cli_json("descend", "--datum", "-", "--bundle", "-") == \
            with_schema(oracles.certificate_dict(cert))
        assert cli_json("reduce", "s3", "(12),(12)") == with_schema(
            {**oracles.witness_dict(witness), "conservation": list(witness.conservation)})


def test_cli_payloads_on_a_seeded_corpus_are_the_dict_tree_with_the_schema(tmp_path):
    r = random.Random(22)
    data = [gen(r) for gen in datagen.IWAHORI_GENERATORS.values() for _ in range(6)]
    data += [datagen.c2_search_datum(r) for _ in range(12)]
    described = 0
    for i, d in enumerate(data):
        dp = tmp_path / f"datum{i}.json"
        dp.write_text(json.dumps(datagen.datum_to_json(d)))
        report = compute_cG(picard.load_datum(str(dp)))
        assert cli_json("cg", "--datum", str(dp)) == with_schema(oracles.report_dict(report))
        if report.certificate is not None:
            bp = tmp_path / f"bundle{i}.json"
            bp.write_text(json.dumps(bundle_to_json(report.certificate.bundle)))
            cert = certify_descent(picard.load_datum(str(dp)), picard.load_bundle(str(bp)))
            assert cli_json("descend", "--datum", str(dp), "--bundle", str(bp)) == \
                with_schema(oracles.certificate_dict(cert))
            described += 1
    assert described >= 20
    for _ in range(30):
        text = ",".join(map(element_name, datagen.random_s3_identity_vector(r)))
        w = s3_reduce(cli.covers.parse_tuple(text))
        assert cli_json("reduce", "s3", text) == with_schema(
            {**oracles.witness_dict(w), "conservation": list(w.conservation)})
