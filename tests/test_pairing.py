"""The pairing engine against exhaustive oracles.

The engine must list exactly the perfect matchings the plain recursion
lists, in the same order, and the C2 search built on it must reproduce
the reports of the exhaustive walk over every matching.
"""
from __future__ import annotations

import gc
import itertools
import json
import random
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import datagen
import oracles
from parapic import descent
from parapic.cli import main
from parapic.covers import C2_GROUP
from parapic.descent import compute_cG
from parapic.dynkin import parse_affine_type
from parapic.errors import DomainError
from parapic.factorization import _gsd2_sides, pq_sets_for_points
from parapic.pairing import perfect_matchings
from parapic.picard import GroupDatum, PointDatum

T12 = (2, 1, 3)


def oracle_matchings(n, edges):
    return [
        m for m in oracles.perfect_matchings(list(range(n)))
        if all(e in edges for e in m)
    ]


def matching_exists(n, edges):
    return next(perfect_matchings(n, edges), None) is not None


def random_graph(r: random.Random, max_n: int = 12):
    n = r.randint(0, max_n)
    density = r.random()
    edges = {
        (i, j) for j in range(n) for i in range(j) if r.random() < density
    }
    return n, edges


def test_engine_matches_oracle_on_random_graphs():
    r = random.Random(2024)
    for _ in range(150):
        n, edges = random_graph(r)
        expected = oracle_matchings(n, edges)
        assert list(perfect_matchings(n, edges)) == expected, (n, edges)
        assert matching_exists(n, edges) == bool(expected), (n, edges)


def _graphs(n):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
    return st.tuples(st.just(n), edges)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10).flatmap(_graphs))
def test_engine_matches_oracle_hypothesis(graph):
    n, edges = graph
    expected = oracle_matchings(n, edges)
    assert list(perfect_matchings(n, edges)) == expected
    assert matching_exists(n, edges) == bool(expected)


def test_blossom_needs_contraction():
    # a triangle 0-1-2 with a pendant 3 at 0: the greedy start matches
    # 0-1, and the search from 2 reaches 1 as an outer vertex through 0,
    # so it finds 2-1-0-3 only by contracting the triangle
    edges = {(0, 1), (0, 2), (1, 2), (0, 3)}
    assert matching_exists(4, edges)
    assert list(perfect_matchings(4, edges)) == [((0, 3), (1, 2))]
    # two odd components (Tutte's condition fails with the empty set)
    odd = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}
    assert not matching_exists(6, odd)
    assert list(perfect_matchings(6, odd)) == []


def test_engine_answers_large_obstruction_at_once():
    # K_39 plus an isolated vertex: (37)!! dead branches for a plain walk
    n = 40
    edges = {(i, j) for j in range(39) for i in range(j)}
    assert next(perfect_matchings(n, edges), None) is None


# ---------------------------------------------------------------------------
# the C2 callers


def _labels_offered(side, split):
    def offered(i, j):
        try:
            p_set, q_set = pq_sets_for_points(side[i], side[j])
        except DomainError:
            return set()
        verts = q_set if split else p_set
        return {side[i].affine_type.dual_labels[v] for v in verts}

    return offered


def test_best_lcmai_bound_matches_oracle():
    # the pinching bound is the gcd of the charges the unstopped C2
    # staging yields: over every admissible pairing and vertex choice,
    # of the lcm of the chosen dual labels
    r = random.Random(5)
    seen = 0
    for _ in range(60):
        d = datagen.c2_small_facet_datum(r)
        sides = _gsd2_sides(d.points, 2 * d.base_genus)
        branch = [sides.points[lab] for lab in sides.branch]
        split = [sides.points.get(lab) or PointDatum(lab, sides.pad_type, {0})
                 for lab in sides.split]
        expected = oracles.gcd_of_pinching_lcms(
            [(len(branch), _labels_offered(branch, False)),
             (len(split), _labels_offered(split, True))]
        )
        charges = [charge for charge, _candidates in descent._staged_gsd2(d, 10**6)]
        if expected is None:
            assert charges == [], "charges staged on an inadmissible datum"
            continue
        assert gcd(*charges) == expected
        seen += 1
    assert seen >= 20


def staged(d, budget):
    """``descent._staged_gsd2`` flattened to (charge, weights, kwargs)."""
    return [(charge, weights, kwargs)
            for charge, candidates in descent._staged_gsd2(d, budget)
            for weights, kwargs in candidates]


def oracle_levels(d, budget):
    """``oracles.staged_gsd2`` grouped by charge, in the shape of
    ``descent._staged_gsd2``."""
    for charge, run in itertools.groupby(oracles.staged_gsd2(d, budget),
                                         key=lambda c: c[0]):
        yield charge, ((weights, kwargs) for _c, weights, kwargs in run)


def test_compute_cg_matches_exhaustive_search(monkeypatch):
    r = random.Random(17)
    data = [datagen.c2_small_facet_datum(r) for _ in range(40)]
    for budget in (64, 2, 0):
        engine = [compute_cG(d, budget=budget).to_json() for d in data]
        with monkeypatch.context() as m:
            m.setattr(descent, "_staged_gsd2", oracle_levels)
            exhaustive = [compute_cG(d, budget=budget).to_json() for d in data]
        assert engine == exhaustive, budget


def test_candidate_cap_counts_candidates_in_matching_order():
    pts = tuple(
        PointDatum(f"p{i}", parse_affine_type("E6~2"), frozenset({1, 2, 3}),
                   T12, is_bad=True)
        for i in range(1, 9)
    )
    d = GroupDatum(0, C2_GROUP, pts)
    cands = staged(d, budget=2)
    assert len(cands) == 16
    # 3^4 vertex choices per pairing: all 16 come from the first one
    assert {json.dumps(c[2]) for c in cands} == {
        json.dumps({"branch_pairing": [("p1", "p2"), ("p3", "p4"),
                                       ("p5", "p6"), ("p7", "p8")],
                    "split_pairing": []})
    }


BUDGETS = (0, 1, 2, 3, 5, 64)


def test_staged_sequence_matches_oracle_on_seeded_data():
    r = random.Random(606)
    data = [datagen.c2_small_facet_datum(r) for _ in range(125)]
    data += [datagen.c2_search_datum(r, max_branch=6) for _ in range(250)]
    reached = 0
    for d in data:
        for budget in BUDGETS:
            got = staged(d, budget)
            assert got == list(oracles.staged_gsd2(d, budget)), (d, budget)
            reached += bool(got)
    assert reached >= 1000


def _c2_datum(genus, specs, base="E6"):
    """A C2 datum from (label, branch?, facet) triples over one base."""
    pts = tuple(
        PointDatum(lab, parse_affine_type(base + ("~2" if branch else "")),
                   frozenset(facet), T12 if branch else (1, 2, 3),
                   is_bad=branch or 0 not in facet)
        for lab, branch, facet in specs
    )
    return GroupDatum(genus, C2_GROUP, pts)


HAND_BUILT = {
    # 3 x 3 choices per pairing: a cap of 8 cuts the first block
    "cut block": _c2_datum(0, [(f"p{i}", True, {1, 2, 3}) for i in range(4)]),
    # one shared vertex everywhere: every pairing gives the same bundle
    "equal bundles": _c2_datum(0, [(f"p{i}", True, {2}) for i in range(6)]),
    # JSON escapes reorder these labels against plain string order
    "escaped labels": _c2_datum(0, [(lab, True, {2, 3}) for lab in
                                    ("b", "\u00e9", "\u00e9t\u00e9", 'a"', "a", "\\z")]),
    "genus-1 shadows": _c2_datum(1, [("p1", True, {1, 2}), ("p2", True, {2, 3}),
                                     ("s1", False, {0, 1}), ("s2", False, {0, 6})]),
    "aux padding": _c2_datum(0, [("p1", True, {2}), ("p2", True, {2, 4}),
                                 ("s1", False, {0, 2}), ("s2", False, {0, 4}),
                                 ("s3", False, {0, 1, 6})]),
    "shadows and padding": _c2_datum(1, [("_handle1", True, {1, 2}), ("p2", True, {1, 2}),
                                         ("s1", False, {0})]),
}


def test_staged_sequence_matches_oracle_on_hand_built_data():
    for name, d in HAND_BUILT.items():
        for budget in BUDGETS:
            got = staged(d, budget)
            assert got, (name, budget)
            assert got == list(oracles.staged_gsd2(d, budget)), (name, budget)
    assert len(staged(HAND_BUILT["cut block"], 1)) == 8
    tied = staged(HAND_BUILT["equal bundles"], 64)
    assert len(tied) == 15
    assert len({json.dumps(w, sort_keys=True) for _c, w, _k in tied}) == 1


def test_mixed_base_types_at_positive_genus_end_the_search(tmp_path, capsys):
    # no pad has the base type of every point, so at genus 1 no pairing
    # is staged and cg reports no certificate; genus 0 needs no pad
    branch, split = parse_affine_type("A3~2"), parse_affine_type("D4")
    pts = (
        PointDatum("b1", branch, frozenset({0, 1, 2}), T12, is_bad=True),
        PointDatum("b2", branch, frozenset({0, 1, 2}), T12, is_bad=True),
        PointDatum("s1", split, frozenset({0})),
        PointDatum("s2", split, frozenset({0})),
    )
    assert compute_cG(GroupDatum(0, C2_GROUP, pts)).exact == 1
    d = GroupDatum(1, C2_GROUP, pts)
    assert staged(d, 64) == list(oracles.staged_gsd2(d, 64)) == []
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datagen.datum_to_json(d)))
    assert main(["cg", "--datum", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["lower"], rep["certified_charge"], rep["exact"]) == (1, None, None)


def test_matching_walk_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        assert len(list(perfect_matchings(4, {(0, 1), (1, 2), (2, 3), (0, 3)}))) == 2
        walk = perfect_matchings(8, {(i, j) for j in range(8) for i in range(j)})
        next(walk)
        next(walk)
        walk.close()
        del walk
        assert gc.collect() == 0
    finally:
        gc.enable()
