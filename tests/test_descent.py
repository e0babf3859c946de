from __future__ import annotations

import collections
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import datagen
import oracles
from parapic.covers import C2_GROUP, C3_GROUP, IDENTITY, S3_GROUP, TRIVIAL_GROUP
from parapic import descent, dynkin
from parapic.descent import DESCENDS, certify_descent, compute_cG
from parapic.dynkin import all_affine_types, parse_affine_type
from parapic.errors import (
    DomainError,
    NoCoverError,
    NotDominantError,
    NotInPicDeltaError,
    UnknownRankError,
)
from parapic.factorization import BaseCase, _gsd2_sides
from parapic.pairing import first_perfect_matching, neighbours
from parapic.verlinde import base_case_rank
from parapic.picard import (
    GroupDatum,
    PointDatum,
    WeightBundle,
    c_delta,
    cdelta_bundle,
    datum_from_json,
    vacuum_bundle,
)

T = parse_affine_type
T12, T23 = (2, 1, 3), (1, 3, 2)
C123, C132 = (2, 3, 1), (3, 1, 2)
D4_2_FULL = frozenset({0, 1, 2, 3})
D4_FULL = frozenset({0, 1, 2, 3, 4})
D4_3_FULL = frozenset({0, 1, 2})


def bad(label, typ, facet, mono):
    return PointDatum(label, T(typ), frozenset(facet), mono, is_bad=True)


def good(label, typ, facet):
    return PointDatum(label, T(typ), frozenset(facet), IDENTITY)


def a2_pair():
    return GroupDatum(
        0,
        C2_GROUP,
        (bad("x1", "A2~2", {1}, T12), bad("x2", "A2~2", {1}, T12)),
    )


# ---------------------------------------------------------------------------
# one certificate per route


def test_route_untwisted_vacuum():
    d = GroupDatum(
        1, TRIVIAL_GROUP, (good("p1", "A4", {0}), good("p2", "A4", {0, 2}))
    )
    c = certify_descent(d, vacuum_bundle(d, 1))
    assert (c.verdict, c.charge, c.route) == (
        DESCENDS,
        1,
        "untwisted vacuum factorization",
    )
    kinds = [f.kind for f in c.witness.factors]
    assert kinds == ["UntwistedVacuum"] * 3  # 2 points + 2 handle shadows
    assert [f.multiplicity for f in c.witness.factors] == [1, 1, 2]
    assert c.witness.factors[-1].labels == ("_handle1",)
    assert {"op": "pinch-handles", "count": 1} in c.witness.steps


def test_route_untwisted_vacuum_needs_one_base_type_to_pinch_handles():
    pts = (good("p1", "A4", {0}), good("p2", "D4", {0}))
    d0 = GroupDatum(0, TRIVIAL_GROUP, pts)
    assert certify_descent(d0, vacuum_bundle(d0, 1)).verdict == DESCENDS
    d1 = GroupDatum(1, TRIVIAL_GROUP, pts)
    with pytest.raises(DomainError, match="single base type"):
        certify_descent(d1, vacuum_bundle(d1, 1))


def test_route_pair_partition():
    d = a2_pair()
    c = certify_descent(d, cdelta_bundle(d))
    assert (c.verdict, c.charge, c.route) == (DESCENDS, 2, "pair partition")
    assert c.rank_bound == 1
    (f,) = c.witness.factors
    assert f.kind == "TwistedPair"
    assert f.labels == ("x1", "x2")


def test_route_pair_partition_on_a_closed_form_datum():
    # the closed form gives this datum's whole block (rank 2^g r^(g+n-1) = 8),
    # but the one-sided criterion needs only the rank-1 pairs
    d = GroupDatum(
        1, C2_GROUP, tuple(bad(f"b{i}", "A3~2", {0}, T12) for i in range(4))
    )
    c = certify_descent(d, vacuum_bundle(d, 1))
    assert (c.verdict, c.charge, c.route) == (DESCENDS, 1, "pair partition")
    assert c.rank_bound == 1
    assert {f.kind for f in c.witness.factors} == {"TwistedPair"}
    assert [f.labels for f in c.witness.factors] == [
        ("b0", "b1"), ("b2", "b3"), ("_handle1", "_handle2")]
    assert c.witness.steps == [{"op": "pinch-handles", "count": 1}]


def test_route_scenario_decomposition():
    d = GroupDatum(
        0,
        C3_GROUP,
        (
            bad("q1", "D4~3", D4_3_FULL, C123),
            bad("q2", "D4~3", D4_3_FULL, C132),
        ),
    )
    c = certify_descent(d, vacuum_bundle(d, 1))
    assert (c.verdict, c.charge, c.route) == (
        DESCENDS,
        1,
        "scenario decomposition",
    )
    assert [f.kind for f in c.witness.factors] == ["TwistedPair"]


def test_route_s3_reduction():
    d = GroupDatum(
        0,
        S3_GROUP,
        (
            bad("p1", "D4~2", D4_2_FULL, T12),
            bad("p2", "D4~2", D4_2_FULL, T12),
            good("p3", "D4", D4_FULL),
        ),
    )
    c = certify_descent(d, vacuum_bundle(d, 1))
    assert (c.verdict, c.charge, c.route) == (DESCENDS, 1, "S3 reduction")
    assert [f.kind for f in c.witness.factors] == [
        "S3Case1",
        "UntwistedVacuum",
    ]


# ---------------------------------------------------------------------------
# rejections


def test_rejects_non_dominant_bundle():
    with pytest.raises(NotDominantError, match="coefficient -1 at vertex 1"):
        certify_descent(
            a2_pair(), WeightBundle.from_dict({"x1": {1: -1}, "x2": {1: 1}})
        )


def test_non_dominant_bundle_names_the_first_offender_in_datum_order():
    # the bundle's entries run a, b; the datum's points b, a
    t = parse_affine_type("A2")
    d = GroupDatum(0, TRIVIAL_GROUP, tuple(
        PointDatum(lab, t, frozenset({0, 1, 2})) for lab in ("b", "a")))
    b = WeightBundle.from_dict({"a": {1: -1}, "b": {0: 1, 2: -2}})
    with pytest.raises(NotDominantError, match="point 'b' has coefficient -2 at vertex 2$"):
        certify_descent(d, b)


def test_rejects_mismatched_charges():
    with pytest.raises(NotInPicDeltaError, match="x1: 2, x2: 4"):
        certify_descent(
            a2_pair(), WeightBundle.from_dict({"x1": {1: 1}, "x2": {1: 2}})
        )


def test_rejects_zero_charge():
    with pytest.raises(DomainError, match="positive central charge"):
        certify_descent(
            a2_pair(), WeightBundle.from_dict({"x1": {}, "x2": {}})
        )


# ---------------------------------------------------------------------------
# positive-genus S3 handling


def test_genus1_s3_odd_branch_count_has_no_cover():
    d = GroupDatum(1, S3_GROUP, (bad("p1", "D4~2", D4_2_FULL, T12),))
    with pytest.raises(NoCoverError, match="odd number of order-2"):
        certify_descent(d, vacuum_bundle(d, 1))


@pytest.mark.parametrize("genus,monodromies", [
    (2, (T12,)),
    (1, (T12, C123, T23, C132, T12)),
    (2, (C123, T12, T12, C123, T23, C123)),
])
def test_s3_odd_branch_count_has_no_cover_at_any_genus(genus, monodromies):
    points = tuple(
        bad(f"p{i}", "D4~2", D4_2_FULL, mono) if mono in (T12, T23)
        else bad(f"p{i}", "D4~3", D4_3_FULL, mono)
        for i, mono in enumerate(monodromies)
    )
    d = GroupDatum(genus, S3_GROUP, points)
    with pytest.raises(NoCoverError, match="no S3 cover exists: odd number of order-2"):
        certify_descent(d, vacuum_bundle(d, 1))
    report = compute_cG(d)
    assert (report.certificate, report.certified_charge) == (None, None)


def test_genus1_s3_unramified_has_no_cover():
    d = GroupDatum(1, S3_GROUP, (good("g1", "D4", D4_FULL),))
    with pytest.raises(NoCoverError, match="genus-1"):
        certify_descent(d, vacuum_bundle(d, 1))


def test_genus1_s3_lone_three_cycle_absorbed_by_handle():
    d = GroupDatum(1, S3_GROUP, (bad("q1", "D4~3", D4_3_FULL, C123),))
    c = certify_descent(d, vacuum_bundle(d, 1))
    assert c.verdict == DESCENDS
    assert [f.kind for f in c.witness.factors] == ["S3Case2"]
    assert c.witness.steps == [
        {"op": "pinch-handles", "count": 1, "absorbed": "(123)"}
    ]


def test_genus1_s3_records_class_adjustment():
    d = GroupDatum(
        1,
        S3_GROUP,
        (
            bad("p1", "D4~2", D4_2_FULL, T23),
            bad("p2", "D4~2", D4_2_FULL, T23),
        ),
    )
    c = certify_descent(d, vacuum_bundle(d, 1))
    assert c.verdict == DESCENDS
    assert c.witness.steps[0] == {
        "op": "class-adjust",
        "original": ["(23)", "(23)"],
        "adjusted": ["(12)", "(12)"],
    }
    # two handle shadows become one vacuum factor of multiplicity 2
    kinds = [f.kind for f in c.witness.factors]
    assert kinds == ["S3Case1", "UntwistedVacuum"]
    assert c.witness.factors[-1].multiplicity == 2


# ---------------------------------------------------------------------------
# the Iwahori corollary


def test_iwahori_certificate_every_degree():
    rng = random.Random(7)
    for gsd, gen in sorted(datagen.IWAHORI_GENERATORS.items()):
        for _ in range(10):
            d = gen(rng)
            c = certify_descent(d, vacuum_bundle(d, 1))
            assert (c.verdict, c.charge) == (DESCENDS, 1), f"degree {gsd}"


def test_iwahori_rejects_partial_facet():
    # the charge-1 vacuum needs the special vertex in every facet
    with pytest.raises(DomainError, match="x1: facet does not contain the special vertex"):
        vacuum_bundle(a2_pair())
    assert compute_cG(a2_pair()).certified_charge == 2


def test_iwahori_rejects_empty_datum():
    # with no marked point there is no candidate to certify
    rep = compute_cG(GroupDatum(0, TRIVIAL_GROUP, ()))
    assert (rep.lower, rep.certified_charge, rep.certificate) == (1, None, None)


# ---------------------------------------------------------------------------
# the two-sided report


def test_report_two_special_points():
    rep = compute_cG(a2_pair())
    assert (rep.lower, rep.certified_charge, rep.exact) == (2, 2, 2)
    assert rep.certificate.route == "pair partition"


def test_report_soundness_on_random_data():
    rng = random.Random(13)
    for gsd, gen in sorted(datagen.IWAHORI_GENERATORS.items()):
        for _ in range(10):
            d = gen(rng)
            rep = compute_cG(d)
            assert rep.lower == c_delta(d)
            if rep.certificate is not None:
                assert rep.certificate.verdict == DESCENDS
                assert rep.certified_charge % rep.lower == 0
            if rep.exact is not None:
                assert rep.exact == rep.lower == rep.certified_charge


def test_report_serialization():
    rep = compute_cG(a2_pair())
    d = json.loads(rep.to_json())
    assert sorted(d) == ["certificate", "certified_charge", "exact", "lower"]
    cert = d["certificate"]
    assert sorted(cert) == [
        "bundle",
        "charge",
        "rank_bound",
        "route",
        "verdict",
        "witness",
    ]
    assert cert["bundle"] == {"x1": {"1": 1}, "x2": {"1": 1}}
    assert json.loads(rep.to_json())["exact"] == 2


#: sha256 of the ``compute_cG`` reports of the corpora below, one JSON
#: line each, recorded when the local lookups were memoized: any change
#: of a report's bytes shows here.  ``iwahori-2`` and ``c2`` were
#: re-recorded when the A-series closed form left certification, and
#: checked against ``oracles.report_json``
PINNED_REPORT_DIGESTS = {
    "iwahori-1": "7d9c89d28f59409668a962c5675669383407627b81835f7dad445dba11bebd19",
    "iwahori-2": "01a2704eb30ac5255eea78bd9c1c8aa7a51600ed13a3ba7fb8edebedeafe4624",
    "iwahori-3": "1737ecd26f414eb2e7091b30bf329870b8b2c9409fac908630fe352a4678c002",
    "iwahori-6": "902d965eec47b9e2f1a37b2780c1b68418c1930e77e99a5b90f50eeb4deb849f",
    "c2": "dec0119fabd8b952afa6089550f71f2f4b53ce0bb8756afaa214525a8e2a34f6",
}


def _report_digest(data):
    h = hashlib.sha256()
    for d in data:
        h.update(compute_cG(d).to_json().encode() + b"\n")
    return h.hexdigest()


def test_reports_are_byte_identical_to_the_pinned_digests():
    r = random.Random("pinned-reports")
    got = {}
    for degree, gen in sorted(datagen.IWAHORI_GENERATORS.items()):
        got[f"iwahori-{degree}"] = _report_digest([gen(r) for _ in range(100)])
    got["c2"] = _report_digest([datagen.c2_small_facet_datum(r) for _ in range(60)])
    assert got == PINNED_REPORT_DIGESTS


# ---------------------------------------------------------------------------
# C2 handle shadows at high genus


def c2_iwahori(genus, twisted, branch, split):
    """A C2 Iwahori datum: order-2 points of type ``twisted`` labelled
    ``branch``, then trivial-monodromy points of its untwisted base."""
    tb, ts = T(twisted), T(twisted.split("~")[0])
    pts = [PointDatum(lab, tb, tb.vertex_set, T12, is_bad=True) for lab in branch]
    pts += [PointDatum(lab, ts, ts.vertex_set, IDENTITY, is_bad=True) for lab in split]
    return GroupDatum(genus, C2_GROUP, tuple(pts))


#: odd and even real split counts, a split side of shadows only, and
#: labels that take the first free ``_handle`` and ``_aux`` names
HIGH_GENUS_C2 = {
    "genus-1-odd": (1, "D4~2", ["b1", "b2"], ["s1"]),
    "genus-2-even": (2, "D4~2", ["b1", "b2"], ["s1", "s2"]),
    "genus-3-odd": (3, "E6~2", ["b1", "b2", "b3", "b4"], ["s1", "s2", "s3"]),
    "genus-17-even": (17, "A5~2", ["b1", "b2"], ["s1", "s2"]),
    "genus-1000-odd": (1000, "D4~2", ["b1", "b2"], ["s1"]),
    "genus-1000-shadows-only": (1000, "D4~2", ["b1", "b2"], []),
    "genus-2-label-clash": (2, "D4~2", ["_handle1", "_handle3"], ["_aux1"]),
}

#: sha256 of each datum's ``compute_cG`` report, recorded when every
#: shadow was still built as a point
PINNED_HIGH_GENUS_DIGESTS = {
    "genus-1-odd": "e31886e70af218704ed13684268b22e4b341944f16067d71b924e56ba58c4e32",
    "genus-2-even": "1e2bcb50acd7d137eee085a136a5098a049a79785f735d31aba375adc62adac5",
    "genus-3-odd": "843a4345514b3dc4cee9073d90129f062ccecc4105ecdef99c87a2e00aaa737c",
    "genus-17-even": "aacfcfc0a4386ddaadae79e3bc770d5f4fb236de19dedd4170e2f360f68190ad",
    "genus-1000-odd": "49aa79517b4b75959c92f7c8cc8c39b1ebae999abd9c6abb5ee7ebc7e5295b2f",
    "genus-1000-shadows-only": "435a425efa67ee01ce04a0354f8c8dfe26d2ced84669c71a853a618ec68baa26",
    "genus-2-label-clash": "ccfe47709034132db6b1c78624ec91255d052bf2842d91bcd745b79c6ca61eaf",
}


def test_high_genus_c2_reports_are_byte_identical_to_the_pinned_digests():
    got = {name: hashlib.sha256(compute_cG(c2_iwahori(*args)).to_json().encode())
           .hexdigest() for name, args in HIGH_GENUS_C2.items()}
    assert got == PINNED_HIGH_GENUS_DIGESTS


def big_witness_shaped_data():
    """Data shaped like the benchmark's big-witness corpus: genus-0 S3
    vectors of 50 to 400 points and Trivial, C2, C3 and S3 data at
    genus 10^2 to 10^4."""
    r = random.Random("pinned-big-witness")
    data = {f"s3-genus-0-n{n}": [datagen.iwahori_datum_gsd6(r, genus=0, n=n)
                                 for _ in range(3)] for n in (50, 200, 400)}
    data["trivial-genus-100"] = [datagen.iwahori_datum_gsd1(r, genus=100)
                                 for _ in range(3)]
    data["c3-genus-1000"] = [datagen.iwahori_datum_gsd3(r, genus=1000)
                             for _ in range(3)]
    data["s3-genus-10000"] = [datagen.iwahori_datum_gsd6(r, genus=10_000)
                              for _ in range(3)]
    for base in ("D5", "E6"):
        data[f"c2-genus-1000-{base}"] = [
            datagen.iwahori_datum_gsd2(r, genus=1000, base=T(base).base)
            for _ in range(3)]
    return data


#: sha256 of the reports of `big_witness_shaped_data`, each datum read
#: back from its datum JSON first, recorded before factors and points
#: were built from per-shape memos
PINNED_BIG_WITNESS_DIGESTS = {
    "s3-genus-0-n50": "9d887b8eb00898080d91af5ce66f4dc8f3d3cfdc50205d926615972692b0fcf9",
    "s3-genus-0-n200": "abe43b4f3a9092b8cddb1a4e568220fd4708abf013260644dd0dc6eb1b32a156",
    "s3-genus-0-n400": "a0199e6bd5d4e477b6794530be418461fb01581598b423e83586b3f821dba129",
    "trivial-genus-100": "1116f229cbe5b52b4ab4c16cbb9d7409046fb666559e39bb6a310f6cd79ac806",
    "c3-genus-1000": "dbfd3238751843bfacbf22098a4a8f1504a6ac5c50c8c5ba635ce9cf4a65a9a1",
    "s3-genus-10000": "709c393fed299ddd94a06c3a14331ae2acdc58631f19141bb34eecc8d8d377ef",
    "c2-genus-1000-D5": "8f35e3530841daaeccd6d9ae35ad0510b64d46322eae267d74a35b2603560f19",
    "c2-genus-1000-E6": "a2da8a8fc9fb5395d818b7db568fbaa0406f12c919b84cd24e30c96ebadb8f60",
}


def test_big_witness_shaped_reports_are_byte_identical_to_the_pinned_digests():
    got = {}
    for name, data in big_witness_shaped_data().items():
        parsed = [datum_from_json(json.loads(json.dumps(datagen.datum_to_json(d))))
                  for d in data]
        assert parsed == data, name
        got[name] = _report_digest(parsed)
    assert got == PINNED_BIG_WITNESS_DIGESTS


def random_facet_data(degree, count=100):
    """``count`` data of ``datagen.iwahori_datum_gsd{degree}``, each facet
    redrawn as one to three random vertices of its point's type and every
    point bad: the c_Δ bundles of these data put weight off the special
    vertex, and many of their certificates are Unknown."""
    r = random.Random(f"pinned-random-facets-{degree}")
    return [_redrawn_facets(r, datagen.IWAHORI_GENERATORS[degree](r)) for _ in range(count)]


def _redrawn_facets(r, d):
    """``d`` with each facet redrawn as one to three random vertices of
    its point's type, and every point bad."""
    pts = []
    for p in d.points:
        t = p.affine_type
        facet = r.sample(t.vertices, r.randint(1, min(3, len(t.vertices))))
        pts.append(PointDatum(p.label, t, frozenset(facet), p.monodromy, is_bad=True))
    return GroupDatum(d.base_genus, d.gamma, tuple(pts))


def high_genus_random_facet_c2(count=300):
    """``count`` C2 Iwahori data at genus 2 to 15 with random facets (as
    in `random_facet_data`): nearly all have more handle shadows than
    `descent._c2_stage` keeps, so the pairing search stages them again."""
    r = random.Random("pinned-random-facets-c2-genus-2-15")
    return [_redrawn_facets(r, datagen.iwahori_datum_gsd2(r, genus=r.randint(2, 15)))
            for _ in range(count)]


def _json_or_error(call):
    try:
        return call().to_json()
    except Exception as e:  # the class name pins which rejection it was
        return type(e).__name__


#: sha256 of the c_Δ-bundle certificates and the reports of
#: `random_facet_data`, one line each (the exception's class name where
#: a call raises), recorded before the witness factors of the Trivial,
#: C3 and closed-form routes and of `s3_reduce` came from one
#: constructor per input shape.  The degree-2 lines were re-recorded
#: when the A-series closed form left certification, and checked
#: against the ``oracles`` dict trees
PINNED_RANDOM_FACET_DIGESTS = {
    "cdelta-certificate-1": "103eeff0dc67f3d072e029ee3572477c6dd965588732239ae4cfc3fe8c16703d",
    "report-1": "d2b7ede56bbb982f480bcdf5611ce8b4c9455272013a288ac534fa94df6cf5a1",
    "cdelta-certificate-2": "7cc2114fba28b277002d1cf0f698e43a43c8e0d9eda50a51e334ab9a5628fda3",
    "report-2": "41ec44e954b28161f9acc4270c5b8662359a6d3347b03426762481342a88d57e",
    "cdelta-certificate-3": "dc1553665075edf5c21e39c88581656254c2a8134a6dac43cfaac5706b02d5fc",
    "report-3": "fd238c97c413c573417ffa632c31c6be7d302214352d624fba9c84d01a050c0c",
    "cdelta-certificate-6": "a564c3b2fbefb76ab3d9819d80e53b8de265f2cf623030ca222ae25786ef9ebd",
    "report-6": "a3d41765a4f0c8de85b524b3075310de919249a068a81ba38f4c0be8a4d85819",
}


def test_random_facet_reports_are_byte_identical_to_the_pinned_digests():
    got = {}
    for degree in sorted(datagen.IWAHORI_GENERATORS):
        data = random_facet_data(degree)
        for name, call in (("cdelta-certificate", lambda d: certify_descent(d, cdelta_bundle(d))),
                           ("report", compute_cG)):
            h = hashlib.sha256()
            for d in data:
                h.update(_json_or_error(lambda: call(d)).encode() + b"\n")
            got[f"{name}-{degree}"] = h.hexdigest()
    assert got == PINNED_RANDOM_FACET_DIGESTS


#: sha256 of the reports of `high_genus_random_facet_c2`, one line each,
#: recorded before the C2 search was staged with at most r + 2 pads
PINNED_HIGH_GENUS_RANDOM_FACET_C2 = (
    "b3db433c91c712b8e91dbe1feb03c7f2a5b7439205127029f813ff23a75c297a")


def test_high_genus_random_facet_c2_reports_are_byte_identical_to_the_pinned_digest():
    h = hashlib.sha256()
    for d in high_genus_random_facet_c2():
        h.update(_json_or_error(lambda: compute_cG(d)).encode() + b"\n")
    assert h.hexdigest() == PINNED_HIGH_GENUS_RANDOM_FACET_C2


def _replay(d, out):
    """A C2 report's pairings, read off its witness entries as a replay
    reads them, and its certificate certified again with them."""
    cert = json.loads(out)["certificate"]
    pairings = {"branch_pairing": [], "split_pairing": []}
    for f in cert["witness"]["factors"]:
        side = "split_pairing" if f["elements"][0] == "e" else "branch_pairing"
        pairings[side].append(tuple(f["labels"]))
    bundle = WeightBundle.from_dict({
        lab: {int(v): n for v, n in m.items()} for lab, m in cert["bundle"].items()
    })
    return pairings, certify_descent(d, bundle, **pairings).to_json()


def test_high_genus_c2_certificates_replay_with_pairings_naming_the_shadows():
    for name, args in HIGH_GENUS_C2.items():
        d = c2_iwahori(*args)
        out = compute_cG(d).to_json()
        pairings, replay = _replay(d, out)
        shadows = [lab for pair in pairings["split_pairing"] for lab in pair
                   if lab.startswith("_handle") and lab not in args[2] + args[3]]
        assert len(shadows) == 2 * d.base_genus, name
        assert f'"certificate": {replay}' in out, name


def closed_form_data():
    """The data the A-series closed form once certified whole: criterion
    5's grid (genus 0-3, 1-4 branch pairs, A_{2r-1}~2 for r = 2..5, facet
    {0}) and the all-branch A-series draws of the C2 Iwahori generator."""
    out = [GroupDatum(g, C2_GROUP, tuple(bad(f"b{i}", f"A{2 * r - 1}~2", {0}, T12)
                                         for i in range(2 * n)))
           for g in range(4) for n in range(1, 5) for r in range(2, 6)]
    r = random.Random("closed-form-draws")
    while len(out) < 64 + 40:
        d = datagen.iwahori_datum_gsd2(r, base=r.choice(datagen._TWIST2_BASES[:2]))
        if d.points and all(p.monodromy == T12 for p in d.points):
            out.append(d)
    return out


def test_former_closed_form_data_take_the_pair_route():
    for d in closed_form_data():
        report = compute_cG(d)
        out = report.to_json()
        assert out == oracles.report_json(report)
        assert (report.lower, report.certified_charge, report.exact) == (1, 1, 1)
        cert = report.certificate
        assert (cert.route, cert.verdict, cert.rank_bound) == ("pair partition", DESCENDS, 1)
        assert {f.kind for f in cert.witness.factors} == {"TwistedPair"}
        assert f'"certificate": {_replay(d, out)[1]}' in out


def test_explicit_pairings_resolve_shadow_and_aux_labels():
    d = c2_iwahori(1, "D4~2", ["b1", "b2"], ["s1"])
    cert = certify_descent(d, vacuum_bundle(d, 1), split_pairing=[
        ("_aux1", "s1"), ("_handle2", "_handle1")])
    assert cert.verdict == DESCENDS
    split = [f for f in cert.witness.factors if f.elements[0] == IDENTITY]
    assert [f.labels for f in split] == [("_aux1", "s1"), ("_handle2", "_handle1")]
    assert all(f.types == (T("D4"), T("D4")) for f in split)
    assert all(f.weights == (((0, 1),), ((0, 1),)) for f in split)
    with pytest.raises(DomainError, match="misses split points"):
        certify_descent(d, vacuum_bundle(d, 1), split_pairing=[("_aux1", "s1")])


def _split_into_pairs(order):
    return [tuple(order[i:i + 2]) for i in range(0, len(order), 2)]


@st.composite
def c2_pairing_cases(draw):
    """A C2 Iwahori datum at genus 0 to 6, a single-vertex bundle of
    charge 1 or 2, and random explicit pairings of both sides, pads
    included."""
    genus = draw(st.integers(0, 6))
    # a genus-0 cover needs branch points, and a datum some point
    branch = [f"b{i}" for i in range(1, 2 * draw(st.integers(1 if genus == 0 else 0, 2)) + 1)]
    split = [f"s{i}" for i in range(1, draw(st.integers(0 if branch else 1, 3)) + 1)]
    d = c2_iwahori(genus, "D4~2", branch, split)
    charge = draw(st.sampled_from([1, 2]))
    weights = {}
    for p in d.points:
        labels = p.affine_type.dual_labels
        v = draw(st.sampled_from([v for v in sorted(p.facet) if charge % labels[v] == 0]))
        weights[p.label] = {v: charge // labels[v]}
    sides = oracles.c2_sides(d)
    orders = [draw(st.permutations([p.label for p in side])) for side in sides]
    pairings = dict(zip(("branch_pairing", "split_pairing"), map(_split_into_pairs, orders)))
    return d, weights, charge, pairings


@settings(max_examples=80, deadline=None)
@given(c2_pairing_cases())
@example((  # pad pairs between real pairs, a reversed pad pair and the _aux pad
    c2_iwahori(2, "D4~2", ["b1", "b2"], ["s1", "s2", "s3"]),
    {lab: {0: 1} for lab in ("b1", "b2", "s1", "s2", "s3")}, 1,
    {"branch_pairing": [("b2", "b1")],
     "split_pairing": [("s1", "_handle3"), ("_handle2", "_handle1"), ("s2", "s3"),
                       ("_aux1", "_handle4")]},
))
def test_pad_runs_serialize_as_the_per_pair_witness(case):
    d, weights, charge, pairings = case
    b = WeightBundle.from_dict(weights)
    cert = json.loads(certify_descent(d, b, **pairings).to_json())
    witness, bound = oracles.c2_pair_witness(d, b, charge, **pairings)
    assert json.dumps(cert["witness"], sort_keys=True) == json.dumps(witness, sort_keys=True)
    assert cert["rank_bound"] == bound


def test_shadows_never_become_points_on_the_certification_path(monkeypatch):
    d = c2_iwahori(1000, "D4~2", ["b1", "b2"], ["s1"])
    built, factors = [], []
    init, new = PointDatum.__init__, BaseCase.__new__
    monkeypatch.setattr(PointDatum, "__init__",
                        lambda self, label, *a, **k: built.append(label) or init(self, label, *a, **k))
    monkeypatch.setattr(BaseCase, "__new__",
                        lambda cls, *a, **k: factors.append(k) or new(cls, *a, **k))
    rep = compute_cG(d)
    witness = rep.certificate.witness
    written = json.loads(rep.to_json())["certificate"]["witness"]["factors"]
    assert rep.exact == 1 and len(written) == 1 + 1001
    # the 1000 pad pairs after (s1, _handle1) are one labelled run
    assert len(witness.factors) <= 3 and len(factors) <= 3
    assert built == []


def test_staging_and_the_pinching_bound_build_no_pad_points(monkeypatch):
    # genus 1 with one split point: two handle shadows and the _aux pad
    d = c2_iwahori(1, "D4~2", ["b1", "b2"], ["s1"])
    built = []
    init = PointDatum.__init__
    monkeypatch.setattr(PointDatum, "__init__",
                        lambda self, label, *a, **k: built.append(label) or init(self, label, *a, **k))
    _charge, _weights, kwargs = oracles.c2_candidate(descent._c2_search(d, 1, None))
    assert any("_aux1" in pair for pair in kwargs["split_pairing"])
    assert built == []


# ---------------------------------------------------------------------------
# every candidate is certified at most once


def _key(b, kwargs):
    return b.entries, tuple(sorted(
        (name, tuple(map(tuple, pairing))) for name, pairing in kwargs.items()))


def _certified_keys(monkeypatch, d):
    """The (bundle entries, pairings) that one ``compute_cG`` call
    certifies: through ``certify_descent``, or built by the search, with
    the pairings of its witness."""
    keys, certify, search = [], descent.certify_descent, descent._c2_search

    def counted(d, b, **kwargs):
        keys.append(_key(b, kwargs))
        return certify(d, b, **kwargs)

    def searched(*args):
        if (cert := search(*args)) is not None:
            keys.append(_key(cert.bundle, oracles.c2_candidate(cert)[2]))
        return cert

    monkeypatch.setattr(descent, "certify_descent", counted)
    monkeypatch.setattr(descent, "_c2_search", searched)
    compute_cG(d)
    return keys


def _seeded_corpora():
    r = random.Random("certified-once")
    data = [gen(r) for gen in datagen.IWAHORI_GENERATORS.values() for _ in range(50)]
    c2 = [datagen.c2_search_datum(r) for _ in range(60)]
    return data, c2 + [datagen.c2_small_facet_datum(r) for _ in range(60)]


def _staging_rejects(d):
    """A C2 datum off the vacuum path whose pinch tables have no perfect
    matching: `compute_cG` certifies nothing for it."""
    return (d.gamma.kind == "C2" and not all(0 in p.facet for p in d.points)
            and descent._c2_stage(d) is None)


def test_no_candidate_is_certified_twice(monkeypatch):
    data, c2 = _seeded_corpora()
    rejected = 0
    for d in data + c2:
        keys = _certified_keys(monkeypatch, d)
        assert len(set(keys)) == len(keys), d
        assert bool(keys) != _staging_rejects(d), d
        rejected += not keys
    assert rejected > 10


def test_staged_candidates_are_distinct():
    # the least candidate descends at its charge; below that charge the
    # search finds nothing, and below the next integer the same candidate
    searched = 0
    for d in _seeded_corpora()[1]:
        found = descent._c2_search(d, c_delta(d), None)
        if found is None:
            continue
        charge = found.charge
        cert = certify_descent(d, found.bundle, **oracles.c2_candidate(found)[2])
        assert (cert.verdict, cert.charge) == (DESCENDS, charge), d
        assert descent._c2_search(d, c_delta(d), charge) is None, d
        assert descent._c2_search(d, c_delta(d), charge + 1) == found, d
        searched += 1
    assert searched > 50


def test_a_cdelta_bundle_equal_to_the_vacuum_bundle_is_certified_once(monkeypatch):
    # the vacuum pairs two types, so it stays Unknown; the c_Delta
    # bundle is the same candidate and is not tried after it
    d = GroupDatum(0, C2_GROUP, (bad("b1", "A3~2", {0}, T12), bad("b2", "A5~2", {0}, T12)))
    vacuum = vacuum_bundle(d, 1)
    assert cdelta_bundle(d) == vacuum
    assert certify_descent(d, vacuum).verdict != DESCENDS
    assert _certified_keys(monkeypatch, d) == [(vacuum.entries, ())]


DATUM_GENERATORS = {
    **{f"iwahori_datum_gsd{k}": gen for k, gen in datagen.IWAHORI_GENERATORS.items()},
    "c2_small_facet_datum": datagen.c2_small_facet_datum,
    "c2_search_datum": datagen.c2_search_datum,
    "random_small_datum": datagen.random_small_datum,
}


@pytest.mark.parametrize("name", sorted(DATUM_GENERATORS))
def test_compute_cg_builds_one_first_candidate(monkeypatch, name):
    # when every facet holds o (dual label 1), c_Delta is 1 and the
    # c_Delta bundle is the charge-1 vacuum, so compute_cG builds only
    # the vacuum; otherwise only the c_Delta bundle, and for a C2 datum
    # only when the staging passes and both default pairings pinch every
    # adjacent pair, since otherwise that bundle cannot descend
    r = random.Random(f"one first candidate {name}")
    data = [DATUM_GENERATORS[name](r) for _ in range(200)]
    at_o = [d for d in data if d.points and all(0 in p.facet for p in d.points)]
    assert at_o
    for d in at_o:
        assert c_delta(d) == 1
        assert cdelta_bundle(d) == vacuum_bundle(d, 1)
    built = []
    for attr in ("vacuum_bundle", "cdelta_bundle"):
        fn = getattr(descent, attr)
        monkeypatch.setattr(descent, attr,
                            lambda *a, fn=fn, attr=attr: built.append(attr) or fn(*a))
    for d in data:
        built.clear()
        compute_cG(d)
        first = [] if _staging_rejects(d) else ["vacuum_bundle" if d in at_o else "cdelta_bundle"]
        if first == ["cdelta_bundle"] and d.gamma.kind == "C2" and not all(
                descent._pinches_adjacent(side, table) for side, table, _ in descent._c2_stage(d)[1]):
            first = []
        assert built == first, d


# ---------------------------------------------------------------------------
# C2 staging: the existence test before the first candidate


def _staged_with_every_pad(d):
    """`descent._c2_stage` with all 2g handle shadows kept."""
    try:
        staged = descent._pinch_tables(_gsd2_sides(d.points, 2 * d.base_genus))
    except DomainError:
        return None
    if any(first_perfect_matching(neighbours(len(side), table)) is None for side, table, _ in staged):
        return None
    return staged


def staging_soundness_data():
    r = random.Random("c2 staging soundness")
    data = [datagen.c2_small_facet_datum(r) for _ in range(150)]
    data += [datagen.c2_search_datum(r) for _ in range(150)]
    # the points of a Trivial datum, read as the split side of a C2
    # datum: mixed base types, odd sides and no branch points
    data += [GroupDatum(d.base_genus, C2_GROUP, d.points)
             for d in (datagen.random_small_datum(r) for _ in range(150))]
    # branch points of two base types: pads need one, so only genus 0
    # has a pinching
    mixed = (bad("b1", "A3~2", {0, 1}, T12), bad("b2", "A3~2", {0, 1}, T12),
             bad("b3", "D4~2", {1, 2}, T12), bad("b4", "D4~2", {1}, T12))
    data += [GroupDatum(genus, C2_GROUP, mixed) for genus in range(4)]
    return data + high_genus_random_facet_c2()


def test_staging_rejects_no_datum_with_a_pinching():
    # a rejected datum has no pairing candidate and its first candidate
    # does not descend; neither does a first candidate whose default
    # pairing leaves the tables; and the pads staging drops change
    # neither answer
    seen = {"rejected": 0, "off the tables": 0, "pads dropped": 0}
    for d in staging_soundness_data():
        staged, full = descent._c2_stage(d), _staged_with_every_pad(d)
        assert (staged is None) == (full is None), d
        if descent._staged_shadows(d) < 2 * d.base_genus:
            seen["pads dropped"] += 1
        try:
            first = vacuum_bundle(d, 1) if all(0 in p.facet for p in d.points) else cdelta_bundle(d)
            verdict = certify_descent(d, first).verdict
        except DomainError:
            verdict = None
        if staged is None:
            assert oracles.least_c2_candidate(d) is None, d
            assert verdict != DESCENDS, d
            seen["rejected"] += 1
            continue
        adjacent, on_full = ([descent._pinches_adjacent(side, table) for side, table, _ in tables]
                             for tables in (staged[1], full))
        assert adjacent == on_full, d
        adjacent = all(adjacent)
        if not adjacent:
            assert verdict != DESCENDS, d
            seen["off the tables"] += 1
    assert min(seen.values()) >= 30, seen


def test_staging_builds_the_branch_table_only_past_the_split_side(monkeypatch):
    # most rejected data fail on the split side, so it is built and tested
    # first; a datum that passes gets the same tables as building both
    calls, options = [], descent._pinch_options
    monkeypatch.setattr(descent, "_pinch_options",
                        lambda shapes: calls.append(len(shapes)) or options(shapes))
    # 1* = 1 on D4, so s1 and s2 have no pinching
    d = GroupDatum(0, C2_GROUP, (bad("b1", "D4~2", {1, 2}, T12), bad("b2", "D4~2", {1, 2}, T12),
                                 bad("s1", "D4", {1}, IDENTITY), bad("s2", "D4", {3}, IDENTITY)))
    assert descent._c2_stage(d) is None and calls == [2]
    seen = collections.Counter()
    for d in staging_soundness_data():
        try:
            sides = _gsd2_sides(d.points, descent._staged_shadows(d))
        except DomainError:
            continue
        both = descent._pinch_tables(sides)
        split, branch = (first_perfect_matching(neighbours(len(side), table)) is not None
                         for side, table, _ in both)
        calls.clear()
        staged = descent._c2_stage(d)
        if not split:
            assert staged is None and calls == [len(sides.split)], d
        elif not branch:
            assert staged is None and calls == [len(sides.split), len(sides.branch)], d
        else:
            assert staged == (sides, both) and len(calls) == 2, d
        seen[split, branch] += 1
    assert min(seen.values()) >= 10 and len(seen) == 4, seen


def test_pinch_memos_key_types_by_value():
    # clearing the type memos (as perfbench's cold table build does)
    # builds equal types anew; they hit the memo entries of the old ones
    def corpus():
        r = random.Random("c2-search:1")
        return [datagen.c2_search_datum(r) for _ in range(300)]

    first = corpus()
    reports = [compute_cG(d).to_json() for d in first]
    memos = (descent._shape_masks, descent._choices)
    misses = [memo.cache_info().misses for memo in memos]
    dynkin.twisted_type.cache_clear()
    dynkin.parse_affine_type.cache_clear()
    again = corpus()
    old, new = first[0].points[0].affine_type, again[0].points[0].affine_type
    assert old == new and old is not new
    assert [compute_cG(d).to_json() for d in again] == reports
    assert [memo.cache_info().misses for memo in memos] == misses
    assert all(memo.cache_info().currsize <= 1024 for memo in memos)


#: two ``D4~2`` branch points and one ``D4`` split point, by facets: the
#: c_Delta bundle of the first descends, so no pairing is searched; the
#: second has no pinching at all
STAGED_AT_ANY_GENUS = {
    "first candidate descends": ({1, 2}, {1, 2}, {0, 2}),
    "no pinching": ({1, 2}, {2}, {1}),
}


@pytest.mark.parametrize("name", sorted(STAGED_AT_ANY_GENUS))
def test_staging_builds_the_same_pinch_tables_at_any_genus(monkeypatch, name):
    b1, b2, s1 = STAGED_AT_ANY_GENUS[name]
    entries, options = [], descent._pinch_options

    def counted(shapes):
        table, offered = options(shapes)
        entries.append(len(table))
        return table, offered

    monkeypatch.setattr(descent, "_pinch_options", counted)
    built, reports = {}, set()
    for genus in (10, 10**4):
        d = GroupDatum(genus, C2_GROUP, (bad("b1", "D4~2", b1, T12), bad("b2", "D4~2", b2, T12),
                                         bad("s1", "D4", s1, IDENTITY)))
        entries.clear()
        rep = compute_cG(d)
        reports.add((rep.lower, rep.certified_charge, rep.exact))
        built[genus] = sum(entries)
    assert built[10] == built[10**4] > 0
    assert reports == {(2, None, None) if name == "no pinching" else (2, 2, 2)}, reports


def _rank_one_pairs(t):
    """The (v, w) whose single-vertex weights v and w at a twisted pair
    of two ``t`` points rank 1."""
    mono = IDENTITY if t.twist == 1 else T12
    out = set()
    for v, w in itertools.product(t.vertices, repeat=2):
        f = BaseCase("TwistedPair", (mono, mono), (((v, 1),), ((w, 1),)), types=(t, t))
        try:
            if base_case_rank(f).value == 1:
                out.add((v, w))
        except UnknownRankError:
            pass
    return out


def test_pinch_options_are_exactly_the_rank_one_pairs():
    # every choice of a pinch table is a rank-1 pair of its two points,
    # and every rank-1 pair on their facets is a choice
    for t in all_affine_types():
        if t.twist == 3:
            continue
        rank_one = _rank_one_pairs(t)
        assert rank_one, str(t)
        facets = [frozenset(c) for r in (1, 2) for c in itertools.combinations(t.vertices, r)]
        for f1, f2 in itertools.product(facets, repeat=2):
            table, offered = descent._pinch_options([(t, f1), (t, f2)])
            opts = table.get((0, 1), ())
            assert {(v, w) for v, w, _a in opts} == {
                (v, w) for v, w in rank_one if v in f1 and w in f2}, (str(t), f1, f2)
            assert [a for v, _w, a in opts] == [t.dual_labels[v] for v, _w, _a in opts]
            assert offered == {a for *_vw, a in opts}
