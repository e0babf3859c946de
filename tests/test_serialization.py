"""The report writer against the dict tree that ``json.dumps`` writes.

`CGReport.to_json` composes its text from per-shape fragments; the
oracle builds the same report as dicts from the fields of its factors
and bundle and hands them to ``json.dumps(..., sort_keys=True)``.  The
two must agree byte for byte on any report, including ones no search
builds: labels JSON escapes, bundles whose entries are out of order and
ranks of thousands of digits.
"""
from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datagen
import oracles
from parapic.covers import C3_PLUS, ELEMENTS, IDENTITY, inverse
from parapic.descent import CGReport, DescentCertificate, compute_cG
from parapic.errors import DomainError
from parapic.factorization import CASE3_LITERAL, CASE4_LITERAL, BaseCase, DecompositionWitness
from parapic.picard import WeightBundle

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

# quotes, backslashes, control and non-ASCII characters all get escaped
labels = st.text(alphabet=st.sampled_from('ab"\\\n\x00é€😀 _1'), max_size=4)
big = st.integers(-(10 ** 40), 10 ** 40) | st.just(10 ** 4299)
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

witnesses = st.builds(
    DecompositionWitness,
    factors=st.lists(factors(), max_size=6),
    steps=st.lists(st.dictionaries(st.sampled_from(["op", "count", "labels"]),
                                   st.integers(0, 5) | labels), max_size=3),
)


certificates = st.builds(
    DescentCertificate,
    bundle=bundles,
    charge=big,
    witness=st.none() | witnesses,
    rank_bound=st.none() | big,
    verdict=st.sampled_from(["Descends", "Unknown"]),
    route=labels,
)

reports = st.builds(
    CGReport,
    lower=big,
    certified_charge=st.none() | big,
    exact=st.none() | big,
    certificate=st.none() | certificates,
)


@settings(max_examples=300, deadline=None)
@given(reports)
def test_report_json_is_the_dict_tree_json_dumps_writes(report):
    assert report.to_json() == oracles.report_json(report)
    cert = report.certificate
    if cert is not None:
        assert cert.to_json() == json.dumps(oracles.certificate_dict(cert), sort_keys=True)


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
