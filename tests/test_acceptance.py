"""Acceptance suite: one test per advertised guarantee.

Every comparison is exact (integers and rationals, tolerance zero) and
every criterion runs inside a one-second budget.  Randomized criteria
use fixed seeds so the suite is reproducible; the generators live in
``datagen`` and the independent re-implementations in ``oracles``.
"""
from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from itertools import product as iproduct
from math import gcd

import datagen
import oracles
from parapic.cli import main
from parapic.covers import (
    C2_GROUP,
    IDENTITY,
    S3_GROUP,
    RamificationVector,
    compose,
    conjugate,
    enumerate_tuples,
    genus_riemann_hurwitz,
    is_connected_genus0,
    perm_order,
)
from parapic.descent import DESCENDS, _c2_search, certify_descent, compute_cG
from parapic.dynkin import all_affine_types, parse_affine_type
from parapic.factorization import (
    CASE3_LITERAL,
    CASE4_LITERAL,
    s3_reduce,
)
from parapic.picard import (
    GroupDatum,
    PointDatum,
    WeightBundle,
    c_delta,
    load_datum,
    pic_delta_rank,
    vacuum_bundle,
)
from parapic.verlinde import rank_closed_form_A, rank_lower_bound, s3_level1_rank

T12, T23 = (2, 1, 3), (1, 3, 2)
C123, C132 = (2, 3, 1), (3, 1, 2)


@contextmanager
def budget(label: str):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    assert dt <= 1.0, f"{label} took {dt:.2f}s (budget is 1s)"
    print(f"{label}: PASS ({dt * 1000:.0f} ms)")


def test_criterion_1_dual_label_suite():
    with budget("criterion 1 (dual labels over the full inventory)"):
        inventory = all_affine_types()
        assert len(inventory) == 55
        for t in inventory:
            a = t.dual_labels
            m = t.cartan
            assert len(a) == len(t.vertices)
            for j in range(len(a)):
                assert sum(a[i] * m[i][j] for i in range(len(a))) == 0, t
            assert a[0] == 1, t
            assert all(1 <= x <= 6 for x in a), t
            assert gcd(*a) == 1, t


def test_criterion_2_s3_base_case_ranks():
    with budget("criterion 2 (S3 base-case ranks)"):
        assert s3_level1_rank((T12, T23, C132)).value == 1
        assert s3_level1_rank((T12, T23, C123, C123)).value == 2


def test_criterion_3_riemann_hurwitz_genus():
    with budget("criterion 3 (cover genus of the exceptional cases)"):
        s3 = genus_riemann_hurwitz(0, S3_GROUP, CASE3_LITERAL)
        s4 = genus_riemann_hurwitz(0, S3_GROUP, CASE4_LITERAL)
        assert (s3.genus, s3.component_count) == (0, 1)
        assert (s4.genus, s4.component_count) == (2, 1)
        assert is_connected_genus0(RamificationVector(S3_GROUP, CASE3_LITERAL))
        assert is_connected_genus0(RamificationVector(S3_GROUP, CASE4_LITERAL))


def test_criterion_4_iwahori_charge_is_one():
    with budget("criterion 4 (200 random Iwahori data per degree)"):
        rng = random.Random(0x1A4)
        for gsd, gen in sorted(datagen.IWAHORI_GENERATORS.items()):
            for i in range(200):
                d = gen(rng)
                rep = compute_cG(d)
                assert rep.exact == 1, (gsd, i, rep.to_json())


def test_criterion_5_closed_form_and_descent():
    with budget("criterion 5 (closed form and its descent certificates)"):
        for g in range(4):
            for n in range(1, 5):
                for r in range(2, 6):
                    want = 2**g * r ** (g + n - 1)
                    assert rank_closed_form_A(g, n, r) == want
                    typ = parse_affine_type(f"A{2 * r - 1}~2")
                    pts = tuple(
                        PointDatum(f"b{i}", typ, frozenset({0}), T12,
                                   is_bad=True)
                        for i in range(2 * n)
                    )
                    d = GroupDatum(g, C2_GROUP, pts)
                    cert = certify_descent(d, vacuum_bundle(d, 1))
                    # the pair route bounds the closed form's rank from below
                    assert (cert.verdict, cert.charge) == (DESCENDS, 1), (g, n, r)
                    assert 1 <= cert.rank_bound <= rank_closed_form_A(g, n, r)


def test_criterion_6_cdelta_examples():
    with budget("criterion 6 (divisor bound examples)"):
        rng = random.Random(0xC0)
        for _gsd, gen in sorted(datagen.IWAHORI_GENERATORS.items()):
            for _ in range(5):
                assert c_delta(gen(rng)) == 1
        two_special = GroupDatum(
            0,
            C2_GROUP,
            (
                PointDatum("x1", parse_affine_type("A2~2"), frozenset({1}),
                           T12, is_bad=True),
                PointDatum("x2", parse_affine_type("A2~2"), frozenset({1}),
                           T12, is_bad=True),
            ),
        )
        assert c_delta(two_special) == 2
        assert compute_cG(two_special).exact == 2


def test_criterion_7_reduction_conservation(monkeypatch):
    with budget("criterion 7 (500 random reductions)"):
        rng = random.Random(0x5E7)
        for _ in range(500):
            elems = datagen.random_s3_identity_vector(rng)
            # an identity product has an even number of transpositions
            assert sum(perm_order(x) == 2 for x in elems) % 2 == 0
            w = s3_reduce(elems)
            copies = oracles.factor_copies(w.factors)
            got = sorted(
                perm_order(x)
                for f in copies
                for x in f.elements
                if x != IDENTITY
            )
            want = sorted(perm_order(x) for x in elems if x != IDENTITY)
            assert got == want
            for f in copies:
                acc = IDENTITY
                for p in f.elements:
                    acc = compose(acc, p)
                assert acc == IDENTITY
            exceptional = [
                f for f in copies if f.kind in ("S3Case3", "S3Case4")
            ]
            assert len(exceptional) <= 1
            for f in copies:
                if f.kind.startswith("S3Case"):
                    again = s3_reduce(f.elements)
                    assert len(again.factors) == 1
                    assert again.factors[0].kind == f.kind
                    assert again.factors[0].elements == f.elements

        # disconnected-as-S3 inputs stay in the cyclic cases and never
        # touch the character sum
        def boom(*_a, **_k):
            raise AssertionError("s3_level1_rank must not be invoked")

        monkeypatch.setattr("parapic.verlinde.s3_level1_rank", boom)
        monkeypatch.setattr("parapic.s3_level1_rank", boom)
        for elems in [
            (T12, T12),
            (T23, T23, T23, T23),
            (C123, C132),
            (C123, C123, C123),
            (IDENTITY, C132, C123, IDENTITY),
        ]:
            w = s3_reduce(elems)
            assert all(
                f.kind in ("S3Case1", "S3Case2", "UntwistedVacuum")
                for f in w.factors
            )
            assert rank_lower_bound(w) >= 1


def test_criterion_8_enumeration_matches_oracle():
    with budget("criterion 8 (tuple counts vs. exhaustive oracle)"):
        names = ("identity", "transposition", "3-cycle")
        reps = {"identity": IDENTITY, "transposition": T12, "3-cycle": C123}
        counts: dict[tuple, int] = {}
        conn_counts: dict[tuple, int] = {}
        for length in range(1, 5):
            for vec in iproduct(names, repeat=length):
                count, tuples = enumerate_tuples(S3_GROUP, list(vec))
                hits = oracles.brute_identity_tuples(
                    S3_GROUP.elements, [reps[x] for x in vec]
                )
                assert count == len(hits) == len(tuples)
                assert sorted(tuples) == sorted(hits)
                ccount, ctuples = enumerate_tuples(
                    S3_GROUP, list(vec), connected_only=True
                )
                chits = oracles.brute_identity_tuples(
                    S3_GROUP.elements, [reps[x] for x in vec],
                    connected_only=True,
                )
                assert ccount == len(chits)
                assert sorted(ctuples) == sorted(
                    t
                    for t in tuples
                    if is_connected_genus0(RamificationVector(S3_GROUP, t))
                )
                # the hit set is closed under simultaneous conjugation
                for g in S3_GROUP.elements:
                    image = {
                        tuple(conjugate(g, p) for p in t) for t in tuples
                    }
                    assert image == set(tuples)
                counts[vec] = count
                conn_counts[vec] = ccount
        for vec, c in counts.items():
            rot = vec[1:] + vec[:1]
            assert counts[rot] == c
            assert conn_counts[rot] == conn_counts[vec]


def test_criterion_9_charge_lattice_rank():
    with budget("criterion 9 (lattice rank vs. kernel oracle)"):
        rng = random.Random(0x91C)
        for _ in range(100):
            d = datagen.random_small_datum(rng)
            assert pic_delta_rank(d) == oracles.charge_difference_kernel_rank(d)


def forty_e6_branch_points(facet_of):
    t = parse_affine_type("E6~2")
    return GroupDatum(0, C2_GROUP, tuple(
        PointDatum(f"p{i + 1}", t, frozenset(facet_of(i)), T12, is_bad=True)
        for i in range(40)
    ))


def test_criterion_10_c2_pairing_search_at_40_points():
    datum = forty_e6_branch_points

    with budget("criterion 10 (C2 pairing search at 40 branch points)"):
        # three points share only vertex 1, 37 only vertex 2: two odd
        # components, so no pairing is admissible
        blocked = datum(lambda i: {1} if i in (0, 13, 26) else {2})
        assert _c2_search(blocked, 6) is None
        rep = compute_cG(blocked)
        assert (rep.lower, rep.certified_charge, rep.exact) == (6, None, None)
        # every pair shares two vertices; the odd points pair at vertex 1
        # and the even ones at vertex 4, both of dual label 2
        dense = datum(lambda i: {1, 2, 3} if i % 2 else {2, 3, 4})
        rep = compute_cG(dense)
        assert rep.certificate.verdict == DESCENDS
        assert (rep.lower, rep.certified_charge, rep.exact) == (1, 2, None)


def test_criterion_11_linear_witnesses_at_genus_1e5(tmp_path, capsys):
    def datum(group, points):
        return {"schema": 1, "genus": 10**5, "group": group, "points": [
            {"label": f"p{i + 1}", "type": t, "facet": f, "monodromy": m}
            for i, (t, f, m) in enumerate(points)
        ]}

    data = {
        "Trivial": datum("Trivial", [("D4", [0, 1, 2, 3, 4], "e")]),
        "C3": datum("C3", [("D4~3", [0, 1, 2], "(123)")] * 3),
        "S3": datum("S3", [("D4~2", [0, 1, 2, 3], "(23)")] * 2),
        "S3, lone 3-cycle": datum("S3", [("D4~3", [0, 1, 2], "(123)")]),
    }
    with budget("criterion 11 (cg --json at genus 10^5, in under 4 KB)"):
        for name, obj in data.items():
            path = tmp_path / "datum.json"
            path.write_text(json.dumps(obj))
            assert main(["cg", "--datum", str(path), "--json"]) == 0, name
            out = capsys.readouterr().out
            assert len(out.encode()) < 4096, name
            rep = json.loads(out)
            assert rep["exact"] == 1, name
            # the 2g (lone 3-cycle: 2g - 2) identity shadows are one factor
            handles = rep["certificate"]["witness"]["factors"][-1]
            want = 2 * 10**5 - (2 if name.endswith("3-cycle") else 0)
            assert handles["multiplicity"] == want, name
            d = load_datum(str(path))
            bundle = WeightBundle.from_dict({
                lab: {int(v): n for v, n in m.items()}
                for lab, m in rep["certificate"]["bundle"].items()
            })
            assert json.loads(certify_descent(d, bundle).to_json()) \
                == rep["certificate"], name


def test_criterion_12_linear_s3_rewrite_at_12800_points():
    r = random.Random(0xC12)
    transpositions = [p for p in oracles.S3_TUPLES if oracles.s3_order(p) == 2]
    # 3-cycles first, then equal transposition pairs: every move passes
    # the whole run of 3-cycles
    cycles_first = [C123] * 6402
    for _ in range(3199):
        cycles_first += [r.choice(transpositions)] * 2
    seeded = oracles.s3_closed([r.choice(oracles.S3_TUPLES) for _ in range(12799)])
    vectors = [tuple(cycles_first), seeded]
    labels = tuple(f"x{i}" for i in range(12800))
    with budget("criterion 12 (S3 rewrite of two 12,800-entry vectors)"):
        witnesses = [s3_reduce(v, labels=labels) for v in vectors]
    for values, w in zip(vectors, witnesses):
        assert len(values) == 12800
        value, moves = oracles.replay_s3_trail(labels, values, w.steps)
        assert len(moves) <= len(values)
        seen = []
        for f in oracles.factor_copies(w.factors):
            got = tuple(value[lab] for lab in f.labels)
            assert got == (f.original if f.original is not None else f.elements)
            seen += f.labels
        assert sorted(seen) == sorted(labels)
