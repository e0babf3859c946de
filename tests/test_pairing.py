"""The pairing engine against exhaustive oracles.

The reference first perfect matching built on the engine's existence
test and pins (`oracles.first_perfect_matching`) must return the first
matching the plain recursion lists, or None exactly when it lists none,
and the C2 search built on the engine must reproduce the reports of the
exhaustive walk over every matching.
"""
from __future__ import annotations

import collections
import functools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import datagen
import oracles
from oracles import first_perfect_matching
from parapic import descent, pairing
from parapic.cli import main
from parapic.covers import C2_GROUP
from parapic.descent import DESCENDS, certify_descent, compute_cG
from parapic.dynkin import parse_affine_type
from parapic.errors import DomainError
from parapic.factorization import _gsd2_sides, pq_sets_for_points
from parapic.pairing import neighbours, perfect_matching, repair_matching
from parapic.picard import GroupDatum, PointDatum, WeightBundle, c_delta

T12 = (2, 1, 3)


def oracle_matchings(n, edges):
    return [
        m for m in oracles.perfect_matchings(list(range(n)))
        if all(e in edges for e in m)
    ]


def oracle_first(n, edges, key=int):
    """The oracle's matching whose partners come first in ``key`` order
    (its first one in plain order), or None when it lists none."""
    return min(oracle_matchings(n, edges), key=lambda m: [key(j) for _i, j in m], default=None)


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
        assert first_perfect_matching(neighbours(n, edges)) == oracle_first(n, edges), (n, edges)


def test_engine_tries_partners_in_key_order():
    # with a key, the recursion tries the partners of the lowest vertex
    # in key order, so the first matching has the least partners' keys
    r = random.Random(2025)
    for _ in range(100):
        n, edges = random_graph(r, max_n=10)
        rank = list(range(n))
        r.shuffle(rank)
        assert first_perfect_matching(neighbours(n, edges), key=rank.__getitem__) == \
            oracle_first(n, edges, rank.__getitem__), (n, edges)


def is_perfect_matching(mate, n, edges):
    """Whether the mate list pairs every vertex along an edge."""
    return len(mate) == n and all(
        0 <= mate[v] < n and mate[mate[v]] == v and (min(v, mate[v]), max(v, mate[v])) in edges
        for v in range(n))


def test_existence_matches_oracle_on_random_graphs():
    r = random.Random(2026)
    found = 0
    for _ in range(300):
        n, edges = random_graph(r)
        mate = perfect_matching(neighbours(n, edges))
        assert (mate is not None) == (oracle_first(n, edges) is not None), (n, edges)
        if mate is not None:
            assert is_perfect_matching(mate, n, edges), (n, edges, mate)
            found += n > 0
    assert found >= 50


def test_repair_matches_oracle_after_losing_a_matched_pair():
    # delete some edges at one vertex, the one to its mate among them,
    # and repair: the answer is the oracle's on the smaller graph, and a
    # failed repair leaves the matching as it was
    r = random.Random(2027)
    outcomes = collections.Counter()
    for _ in range(400):
        n, edges = random_graph(r)
        adj = neighbours(n, edges)
        if n == 0 or (mate := perfect_matching(adj)) is None:
            continue
        i = r.randrange(n)
        lost = {(min(i, j), max(i, j)) for j in adj[i] if j == mate[i] or r.random() < 0.5}
        smaller = edges - lost
        for x, y in lost:
            adj[x].discard(y)
            adj[y].discard(x)
        before = mate.copy()
        ok = repair_matching(adj, mate, i)
        assert ok == (oracle_first(n, smaller) is not None), (n, edges, i, lost)
        assert is_perfect_matching(mate, n, smaller) if ok else mate == before
        outcomes[ok] += 1
    assert min(outcomes[True], outcomes[False]) >= 30, outcomes


def _graphs(n):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
    return st.tuples(st.just(n), edges)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10).flatmap(_graphs))
def test_engine_matches_oracle_hypothesis(graph):
    n, edges = graph
    assert first_perfect_matching(neighbours(n, edges)) == oracle_first(n, edges)


def test_blossom_needs_contraction():
    # a triangle 0-1-2 with a pendant 3 at 0: the greedy start matches
    # 0-1, and the search from 2 reaches 1 as an outer vertex through 0,
    # so it finds 2-1-0-3 only by contracting the triangle
    edges = {(0, 1), (0, 2), (1, 2), (0, 3)}
    assert first_perfect_matching(neighbours(4, edges)) == ((0, 3), (1, 2))
    # two odd components (Tutte's condition fails with the empty set)
    odd = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}
    assert first_perfect_matching(neighbours(6, odd)) is None


def test_engine_answers_large_obstruction_at_once():
    # K_39 plus an isolated vertex: (37)!! dead branches for a plain walk
    n = 40
    edges = {(i, j) for j in range(39) for i in range(j)}
    assert first_perfect_matching(neighbours(n, edges)) is None


def test_pinned_partner_keeps_its_one_edge():
    # vertex 0 first tries 1, which leaves no perfect matching, then its
    # start mate 3: pinning it there must drop (0, 5) too, or the repair
    # that pairs 1 with 2 moves 0 to 5 and 3 ends up in two pairs
    edges = {(0, 1), (0, 3), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4)}
    assert first_perfect_matching(neighbours(6, edges)) == ((0, 3), (1, 5), (2, 4))


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


def least_candidate(d):
    """The least candidate of ``descent._c2_search`` at any charge, as
    ``oracles.least_c2_candidate`` gives it."""
    cert = descent._c2_search(d, c_delta(d))
    return None if cert is None else oracles.c2_candidate(cert)


def test_best_lcmai_bound_matches_oracle():
    # the charge of the least candidate is the least lcm of the chosen
    # dual labels over every admissible pairing and vertex choice
    r = random.Random(5)
    seen = 0
    for _ in range(60):
        d = datagen.c2_small_facet_datum(r)
        sides = _gsd2_sides(d.points, 2 * d.base_genus)
        branch = [sides.points[lab] for lab in sides.branch]
        split = [sides.points.get(lab) or PointDatum(lab, sides.pad_type, {0})
                 for lab in sides.split]
        expected = oracles.least_pinching_lcm(
            [(len(branch), _labels_offered(branch, False)),
             (len(split), _labels_offered(split, True))]
        )
        found = least_candidate(d)
        if expected is None:
            assert found is None, "a candidate on an inadmissible datum"
            continue
        assert found[0] == expected
        seen += 1
    assert seen >= 20


def oracle_search(d, lower):
    """``oracles.least_c2_candidate``, certified, in the shape of
    ``descent._c2_search``."""
    found = oracles.least_c2_candidate(d)
    if found is None:
        return None
    _charge, weights, kwargs = found
    return certify_descent(d, WeightBundle.from_dict(weights), **kwargs)


def test_compute_cg_matches_exhaustive_search(monkeypatch):
    r = random.Random(17)
    data = [datagen.c2_small_facet_datum(r) for _ in range(40)]
    data += [datagen.c2_search_datum(r) for _ in range(40)]
    engine = [compute_cG(d).to_json() for d in data]
    monkeypatch.setattr(descent, "_c2_search", oracle_search)
    assert engine == [compute_cG(d).to_json() for d in data]


def test_the_search_alone_gives_the_report_when_charge_one_is_out_of_reach(monkeypatch):
    # 3^4 vertex choices per pairing, and charge 1 is out of reach: the
    # search's least candidate, at charge 2, is the report, and nothing
    # goes through certify_descent
    pts = tuple(
        PointDatum(f"p{i}", parse_affine_type("E6~2"), frozenset({1, 2, 3}),
                   T12, is_bad=True)
        for i in range(1, 9)
    )
    d = GroupDatum(0, C2_GROUP, pts)
    counts = _counted(monkeypatch)
    rep = compute_cG(d)
    assert (rep.lower, rep.certified_charge, rep.exact) == (1, 2, None)
    assert counts["certified"] == 0
    assert least_candidate(d)[0] == 2
    assert rep.certificate.to_json() == descent._c2_search(d, 1).to_json()


def test_staged_sequence_matches_oracle_on_seeded_data():
    # the search's candidate is the oracle's least candidate, and it
    # finds none exactly when the oracle finds none
    r = random.Random(606)
    data = [datagen.c2_small_facet_datum(r) for _ in range(125)]
    data += [datagen.c2_search_datum(r, max_branch=6) for _ in range(250)]
    reached = 0
    for d in data:
        got = least_candidate(d)
        assert got == oracles.least_c2_candidate(d), d
        reached += got is not None
    assert reached >= 100


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
    # 3 x 3 choices per pairing, at charges 2, 3, 4, 6 and 12
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
        got = least_candidate(d)
        assert got is not None, name
        assert got == oracles.least_c2_candidate(d), name
    # every pairing gives the same bundle; the first pinching in side
    # order pairs it
    _charge, weights, kwargs = least_candidate(HAND_BUILT["equal bundles"])
    assert weights == {f"p{i}": {2: 1} for i in range(6)}
    assert kwargs == {"branch_pairing": [("p0", "p1"), ("p2", "p3"), ("p4", "p5")],
                      "split_pairing": []}


def test_objects_sort_by_json_text_past_one_digit_vertices():
    # A17's pair involution swaps 2 with 16 and 10 with 8, so s1 can take
    # vertex 2 or 10, each at charge 1; as JSON text {"10": 1} comes
    # first, though 2 < 10
    d = _c2_datum(0, [("b1", True, {1}), ("b2", True, {1}),
                      ("s1", False, {2, 10}), ("s2", False, {8, 16})], base="A17")
    rep = compute_cG(d)
    assert rep.certificate.bundle.weight("s1") == ((10, 1),)
    assert '"s1": {"10": 1}, "s2": {"8": 1}' in rep.to_json()
    assert least_candidate(d) == oracles.least_c2_candidate(d)


def test_staged_sequence_matches_oracle_on_two_digit_vertices():
    # the other C2 corpora keep to A3, A5, D4, D5 and E6, whose vertices
    # have one digit, so numeric and JSON object order agree there
    r = random.Random("two-digit vertices")
    reached = two_digit = 0
    for d in (datagen.c2_two_digit_datum(r) for _ in range(500)):
        got = least_candidate(d)
        assert got == oracles.least_c2_candidate(d), d
        reached += got is not None
        two_digit += got is not None and any(v >= 10 for w in got[1].values() for v in w)
    assert reached >= 150 and two_digit >= 50, (reached, two_digit)


def test_mixed_base_types_at_positive_genus_end_the_search(tmp_path, capsys):
    # no pad has the base type of every point, so at genus 1 no pairing
    # is searched and cg reports no certificate; genus 0 needs no pad
    branch, split = parse_affine_type("A3~2"), parse_affine_type("D4")
    pts = (
        PointDatum("b1", branch, frozenset({0, 1, 2}), T12, is_bad=True),
        PointDatum("b2", branch, frozenset({0, 1, 2}), T12, is_bad=True),
        PointDatum("s1", split, frozenset({0})),
        PointDatum("s2", split, frozenset({0})),
    )
    assert compute_cG(GroupDatum(0, C2_GROUP, pts)).exact == 1
    d = GroupDatum(1, C2_GROUP, pts)
    assert least_candidate(d) is None and oracles.least_c2_candidate(d) is None
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datagen.datum_to_json(d)))
    assert main(["cg", "--datum", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["lower"], rep["certified_charge"], rep["exact"]) == (1, None, None)


@functools.lru_cache(maxsize=None)
def search_corpus():
    """The first 600 data of ``c2_search_datum(Random(12345))`` and four
    later ones whose bracket a shuffle and a renaming of the points
    changed under the capped staging: 1322, 1493, 1666 (11 genus-0
    ``A3~2`` points, certified 2 at budget 64 but exact 1 uncapped) and
    2200."""
    r = random.Random(12345)
    data = [datagen.c2_search_datum(r) for _ in range(2201)]
    return tuple(data[:600] + [data[i] for i in (1322, 1493, 1666, 2200)])


def dense_forty_points():
    """40 ``E6~2`` branch points; odd ones share vertex 1, even ones
    vertex 4, both of dual label 2, and every pair shares two vertices."""
    t = parse_affine_type("E6~2")
    return GroupDatum(0, C2_GROUP, tuple(
        PointDatum(f"p{i + 1}", t, frozenset({1, 2, 3} if i % 2 else {2, 3, 4}), T12,
                   is_bad=True)
        for i in range(40)))


def test_least_candidate_matches_oracle_on_the_search_corpus():
    for d in (*search_corpus(), dense_forty_points()):
        assert least_candidate(d) == oracles.least_c2_candidate(d), d
    rep = compute_cG(search_corpus()[602])
    assert (rep.lower, rep.certified_charge, rep.exact) == (1, 1, 1)


def presented_anew(d, r, how):
    """``d`` with its points shuffled and relabelled: the old labels
    permuted, fresh labels, or each label reversed."""
    pts = list(d.points)
    r.shuffle(pts)
    if how == "permuted":
        names = [p.label for p in d.points]
        r.shuffle(names)
    elif how == "fresh":
        names = [f"x{r.randrange(10**6)}_{i}" for i in range(len(pts))]
    else:
        names = [p.label[::-1] + "z" for p in pts]
    return GroupDatum(d.base_genus, d.gamma, tuple(
        PointDatum(lab, p.affine_type, p.facet, p.monodromy, is_bad=p.is_bad)
        for lab, p in zip(names, pts)))


def test_bracket_does_not_depend_on_the_presentation():
    def bracket(d):
        rep = compute_cG(d)
        return rep.lower, rep.certified_charge, rep.exact

    r = random.Random(99)
    for d in search_corpus():
        want = bracket(d)
        for how in ("permuted", "fresh", "reversed"):
            assert bracket(presented_anew(d, r, how)) == want, (how, d)


def _counted(monkeypatch):
    """Counters of the search's matching tests (existence tests and
    repairs alike), its repairs (the weight step's pins that search), the
    blossom searches of its most searching repair, and its
    certifications."""
    counts = collections.Counter()
    for name, counter in (("perfect_matching", "tests"), ("certify_descent", "certified")):
        fn = getattr(descent, name)
        monkeypatch.setattr(descent, name, lambda *a, _fn=fn, _counter=counter, **k:
                            counts.update([_counter]) or _fn(*a, **k))
    augment, pin = pairing._augment, descent.pin
    monkeypatch.setattr(pairing, "_augment", lambda *a: counts.update(["augments"]) or augment(*a))

    def pinned(*a):
        # a pin whose matched edge stands makes no search
        before = counts["augments"]
        out = pin(*a)
        if counts["augments"] > before:
            counts.update(["tests", "repairs"])
        counts["most augments per repair"] = max(counts["most augments per repair"],
                                                 counts["augments"] - before)
        return out

    monkeypatch.setattr(descent, "pin", pinned)
    return counts


def test_matching_tests_stay_within_the_work_bound(monkeypatch):
    # 2 existence tests, 2 per divisor of L (at most tau(60) = 12), then
    # for the certified charge at most one repair per object a real point
    # could take (at most one per facet vertex), each one blossom search
    counts = _counted(monkeypatch)
    repairs = 0
    for d in (*search_corpus()[:300], dense_forty_points()):
        counts.clear()
        compute_cG(d)
        objects = sum(len(p.facet) for p in d.points)
        assert counts["tests"] <= 2 + 2 * 12 + objects, d
        assert counts["most augments per repair"] <= 1, d
        # only a first candidate goes through certify_descent
        assert counts["certified"] <= 1, d
        repairs += counts["repairs"]
    assert repairs >= 50


def test_least_pinching_matches_the_from_scratch_reference(monkeypatch):
    # the kept matching changes only the work: each side's weights are
    # the ones the self-reduction gets with every matching test solved
    # anew
    least, compared = descent._least_pinching, []

    def both(side, table, real, adj, mate):
        want = oracles.least_pinching_from_scratch(side, table, real)
        got = least(side, table, real, adj, mate)
        assert {lab: dict(w) for lab, w in got.items()} == want, (side, table)
        compared.append(side)
        return got

    monkeypatch.setattr(descent, "_least_pinching", both)
    r = random.Random(303)
    data = [*search_corpus(), dense_forty_points()]
    data += [datagen.c2_small_facet_datum(r) for _ in range(200)]
    for d in data:
        least_candidate(d)
    assert len(compared) >= 600


def test_every_search_candidate_descends_with_rank_bound_one():
    # every pinch-table option is a rank-1 pair, so the one candidate
    # the search returns needs no second one behind it; its certificate,
    # built without certify_descent, is the one certify_descent gives
    # its bundle, byte for byte
    data = [*search_corpus(), dense_forty_points()]
    for seed in (1, 2, 3):
        r = random.Random(seed)
        data += [datagen.c2_search_datum(r) for _ in range(200)]
    found = 0
    for d in data:
        if (cert := descent._c2_search(d, c_delta(d))) is None:
            continue
        replay = certify_descent(d, cert.bundle)
        assert (cert.verdict, cert.rank_bound) == (DESCENDS, 1), d
        assert cert.to_json() == replay.to_json() and cert == replay, d
        found += 1
    assert found >= 400
