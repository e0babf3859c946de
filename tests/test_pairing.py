"""The pairing engine against exhaustive oracles.

The engine must list exactly the perfect matchings the plain recursion
lists, in the same order, and the C2 search built on it must reproduce
the reports of the exhaustive walk over every matching.
"""
from __future__ import annotations

import itertools
import json
import random
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

import datagen
import oracles
from parapic import (
    C2_GROUP,
    DomainError,
    GroupDatum,
    PointDatum,
    WeightBundle,
    best_lcmai_bound,
    bundle_to_json,
    compute_cG,
    parse_affine_type,
    pq_sets_for_points,
)
from parapic import descent
from parapic.factorization import _gsd2_sides, pair_involution
from parapic.pairing import has_perfect_matching, perfect_matchings

T12 = (2, 1, 3)


def oracle_matchings(n, edges):
    return [
        m for m in oracles.perfect_matchings(list(range(n)))
        if all(e in edges for e in m)
    ]


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
        assert has_perfect_matching(n, edges) == bool(expected), (n, edges)


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
    assert has_perfect_matching(n, edges) == bool(expected)


def test_blossom_needs_contraction():
    # a triangle 0-1-2 with a pendant 3 at 0: the greedy start matches
    # 0-1, and the search from 2 reaches 1 as an outer vertex through 0,
    # so it finds 2-1-0-3 only by contracting the triangle
    edges = {(0, 1), (0, 2), (1, 2), (0, 3)}
    assert has_perfect_matching(4, edges)
    assert list(perfect_matchings(4, edges)) == [((0, 3), (1, 2))]
    # two odd components (Tutte's condition fails with the empty set)
    odd = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}
    assert not has_perfect_matching(6, odd)
    assert list(perfect_matchings(6, odd)) == []


def test_engine_answers_large_obstruction_at_once():
    # K_39 plus an isolated vertex: (37)!! dead branches for a plain walk
    n = 40
    edges = {(i, j) for j in range(39) for i in range(j)}
    assert not has_perfect_matching(n, edges)
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
    r = random.Random(5)
    seen = 0
    for _ in range(60):
        d = datagen.c2_small_facet_datum(r)
        branch, others, aux = _gsd2_sides(d)
        split = others + aux
        expected = oracles.gcd_of_pinching_lcms(
            [(len(branch), _labels_offered(branch, False)),
             (len(split), _labels_offered(split, True))]
        )
        if expected is None:
            try:
                best_lcmai_bound(d)
            except DomainError:
                continue
            raise AssertionError("bound returned on an inadmissible datum")
        assert best_lcmai_bound(d) == expected
        seen += 1
    assert seen >= 20


def reference_staged_gsd2(d, budget):
    """The exhaustive C2 search: every matching of both sides, every
    vertex choice, the first max(8 * budget, 1) candidates staged and
    sorted by (charge, bundle JSON, pairing JSON)."""
    aug = descent._with_handle_shadows(d)
    try:
        branch, others, aux = _gsd2_sides(aug)
    except DomainError:
        return
    split = others + aux
    real = {p.label for p in d.points}
    staged = []

    def options(bp, sp):
        out = []
        for pairs, split_side in ((bp, False), (sp, True)):
            for x, y in pairs:
                try:
                    p_set, q_set = pq_sets_for_points(x, y)
                except DomainError:
                    return None
                verts = q_set if split_side else p_set
                if not verts:
                    return None
                inv = pair_involution(x.affine_type)
                out.append([
                    (x, y, v, inv(v) if split_side else v,
                     x.affine_type.dual_labels[v])
                    for v in verts
                ])
        return out

    def candidates():
        for bp in oracles.perfect_matchings(branch):
            for sp in oracles.perfect_matchings(split):
                opts = options(bp, sp)
                if opts is None:
                    continue
                kwargs = {
                    "branch_pairing": [(x.label, y.label) for x, y in bp],
                    "split_pairing": [(x.label, y.label) for x, y in sp],
                }
                for picks in itertools.product(*opts):
                    charge = lcm(*(a for *_p, a in picks))
                    weights = {}
                    for x, y, vx, vy, a in picks:
                        if x.label in real:
                            weights[x.label] = {vx: charge // a}
                        if y.label in real:
                            weights[y.label] = {vy: charge // a}
                    yield charge, weights, kwargs

    for charge, weights, kwargs in candidates():
        ser = json.dumps(bundle_to_json(WeightBundle.from_dict(weights)),
                         sort_keys=True)
        staged.append((charge, ser, json.dumps(sorted(kwargs.items())),
                       weights, kwargs))
        if len(staged) >= max(8 * budget, 1):
            break
    staged.sort(key=lambda c: c[:3])
    for charge, _ser, _pairing, weights, kwargs in staged:
        yield charge, weights, kwargs


def test_compute_cg_matches_exhaustive_search(monkeypatch):
    r = random.Random(17)
    data = [datagen.c2_small_facet_datum(r) for _ in range(40)]
    for budget in (64, 2, 0):
        engine = [compute_cG(d, budget=budget).to_json() for d in data]
        with monkeypatch.context() as m:
            m.setattr(descent, "_staged_gsd2", reference_staged_gsd2)
            exhaustive = [compute_cG(d, budget=budget).to_json() for d in data]
        assert engine == exhaustive, budget


def test_candidate_cap_counts_candidates_in_matching_order():
    pts = tuple(
        PointDatum(f"p{i}", parse_affine_type("E6~2"), frozenset({1, 2, 3}),
                   T12, is_bad=True)
        for i in range(1, 9)
    )
    d = GroupDatum(0, C2_GROUP, pts)
    cands = list(descent._gsd2_candidates(d, budget=2))
    assert len(cands) == 16
    # 3^4 vertex choices per pairing: all 16 come from the first one
    assert {json.dumps(c[1]) for c in cands} == {
        json.dumps({"branch_pairing": [("p1", "p2"), ("p3", "p4"),
                                       ("p5", "p6"), ("p7", "p8")],
                    "split_pairing": []})
    }
