"""Seeded random generators for admissible test data.

The Iwahori generators enforce, per splitting degree, exactly the
existence constraints of a connected Galois cover with the drawn local
monodromies:

* gsd 1 — nothing beyond at least one marked point;
* gsd 2 — evenly many order-2 points (sign), at least two on a genus-0
  base (connectivity); handles connect everything in higher genus;
* gsd 3 — #(positive 3-cycles) == #(negative 3-cycles) mod 3, with some
  ramification required on a genus-0 base;
* gsd 6 — genus 0 by rejection sampling on product-identity plus
  generation; genus 1 needs an even transposition count and excludes
  the everywhere-unramified shape (the torus group is abelian), while
  the single-3-cycle shape (t, m) = (0, 1) is admissible and drawn
  deliberately; genus >= 2 only needs the sign condition.

Affine types are tied to monodromy order (twist == order); Iwahori
points always carry the full vertex set as facet.
"""
from __future__ import annotations

import random

from parapic.covers import (
    C2_GROUP,
    C3_GROUP,
    IDENTITY,
    S3_GROUP,
    TRIVIAL_GROUP,
    compose,
    element_name,
    inverse,
    perm_order,
    subgroup_generated,
)
from parapic.dynkin import FiniteType, twisted_type
from parapic.picard import SCHEMA_VERSION, GroupDatum, PointDatum

TRANSPOSITIONS = ((2, 1, 3), (3, 2, 1), (1, 3, 2))
THREE_CYCLES = ((2, 3, 1), (3, 1, 2))

# finite bases admitting both an untwisted and an order-2 twisted table
_TWIST2_BASES = (
    FiniteType("A", 3),
    FiniteType("A", 5),
    FiniteType("D", 4),
    FiniteType("D", 5),
    FiniteType("E", 6),
)
_UNTWISTED_BASES = (
    FiniteType("A", 1),
    FiniteType("A", 4),
    FiniteType("B", 3),
    FiniteType("C", 2),
    FiniteType("D", 5),
    FiniteType("E", 7),
    FiniteType("F", 4),
    FiniteType("G", 2),
)
_D4 = FiniteType("D", 4)


def _iwahori_point(label: str, affine, mono) -> PointDatum:
    return PointDatum(
        label,
        affine,
        frozenset(affine.vertices),
        mono,
        is_bad=(mono != IDENTITY),
    )


def _assemble(
    r: random.Random, genus: int, gamma, monos, type_of, shuffle: bool = True
) -> GroupDatum:
    # shuffling is only order-safe when the group is abelian or the
    # base has handles (no ordered-product constraint)
    if shuffle:
        r.shuffle(monos)
    pts = [
        _iwahori_point(f"p{i + 1}", type_of(m), m) for i, m in enumerate(monos)
    ]
    return GroupDatum(genus, gamma, tuple(pts))


def iwahori_datum_gsd1(r: random.Random, genus: int | None = None) -> GroupDatum:
    # a datum models one group scheme, so all points share a base type
    genus = r.randint(0, 2) if genus is None else genus
    n = r.randint(1, 4)
    affine = twisted_type(r.choice(_UNTWISTED_BASES), 1)
    pts = [_iwahori_point(f"p{i + 1}", affine, IDENTITY) for i in range(n)]
    return GroupDatum(genus, TRIVIAL_GROUP, tuple(pts))


def iwahori_datum_gsd2(r: random.Random, genus: int | None = None,
                       base: FiniteType | None = None) -> GroupDatum:
    genus = r.randint(0, 2) if genus is None else genus
    base = r.choice(_TWIST2_BASES) if base is None else base
    branch = 2 * (r.randint(1, 2) if genus == 0 else r.randint(0, 2))
    good = r.randint(0 if branch else 1, 2)
    monos = [(2, 1, 3)] * branch + [IDENTITY] * good

    def type_of(m):
        return twisted_type(base, 2 if m != IDENTITY else 1)

    return _assemble(r, genus, C2_GROUP, monos, type_of)


def iwahori_datum_gsd3(r: random.Random, genus: int | None = None) -> GroupDatum:
    genus = r.randint(0, 2) if genus is None else genus
    designs = [(1, 1), (2, 2), (3, 0), (0, 3), (4, 1)]
    if genus >= 1:
        designs.append((0, 0))
    plus, minus = r.choice(designs)
    good = r.randint(0 if plus + minus else 1, 2)
    monos = [(2, 3, 1)] * plus + [(3, 1, 2)] * minus + [IDENTITY] * good

    def type_of(m):
        return twisted_type(_D4, perm_order(m))

    return _assemble(r, genus, C3_GROUP, monos, type_of)


def iwahori_datum_gsd6(r: random.Random, genus: int | None = None,
                       n: int | None = None) -> GroupDatum:
    """``n`` fixes the point count of a genus-0 datum (3 to 6 when None)."""
    genus = r.randint(0, 2) if genus is None else genus
    if genus == 0:
        while True:
            k = r.randint(3, 6) if n is None else n
            monos = [r.choice(S3_GROUP.elements) for _ in range(k - 1)]
            acc = IDENTITY
            for m in monos:
                acc = compose(acc, m)
            monos.append(inverse(acc))
            if len(subgroup_generated(monos)) == len(S3_GROUP):
                break
    else:
        while True:
            t = 2 * r.randint(0, 2)
            m = r.randint(0, 3)
            if genus == 1 and (t, m) == (0, 0):
                continue
            break
        if genus == 1 and r.random() < 0.2:
            t, m = 0, 1
        good = r.randint(0 if t + m else 1, 2)
        monos = (
            [r.choice(TRANSPOSITIONS) for _ in range(t)]
            + [r.choice(THREE_CYCLES) for _ in range(m)]
            + [IDENTITY] * good
        )

    def type_of(mono):
        return twisted_type(_D4, perm_order(mono))

    return _assemble(r, genus, S3_GROUP, monos, type_of, shuffle=genus > 0)


IWAHORI_GENERATORS = {
    1: iwahori_datum_gsd1,
    2: iwahori_datum_gsd2,
    3: iwahori_datum_gsd3,
    6: iwahori_datum_gsd6,
}


def random_s3_identity_vector(r: random.Random) -> tuple:
    """A product-identity S3 vector of length 2..10."""
    k = r.randint(2, 10)
    elems = [r.choice(S3_GROUP.elements) for _ in range(k - 1)]
    acc = IDENTITY
    for p in elems:
        acc = compose(acc, p)
    elems.append(inverse(acc))
    return tuple(elems)


def c2_small_facet_datum(r: random.Random, max_points: int = 10) -> GroupDatum:
    """A C2 datum with random facets of one to three vertices.

    One base type throughout: 2 to max_points - 2 branch points (an even
    count, twisted type), 0 to 2 split points (untwisted type) and
    genus 0 or 1.  Small facets leave many pairs unpinchable, so the
    pairing search meets sparse as well as dense pair graphs.
    """
    base = r.choice(_TWIST2_BASES)
    branch = 2 * r.randint(1, (max_points - 2) // 2)
    split = r.randint(0, 2)
    pts = []
    for i in range(branch + split):
        mono = (2, 1, 3) if i < branch else IDENTITY
        t = twisted_type(base, 2 if i < branch else 1)
        facet = frozenset(r.sample(t.vertices, r.randint(1, min(3, len(t.vertices)))))
        pts.append(
            PointDatum(f"p{i + 1}", t, facet, mono,
                       is_bad=(mono != IDENTITY or 0 not in facet))
        )
    r.shuffle(pts)
    return GroupDatum(r.randint(0, 1), C2_GROUP, tuple(pts))


def c2_search_datum(r: random.Random, max_branch: int = 10) -> GroupDatum:
    """A C2 datum shaped like the benchmark's c2-search corpus.

    One base type: an even 2 to max_branch branch points (twisted type)
    and 0 to 3 split points (untwisted type) in random order, facets of
    one to three random vertices, genus 0 or 1 (a genus-1 base adds two
    handle shadows to the split side, so with an odd split count the
    side is padded by an auxiliary point).
    """
    base = r.choice(_TWIST2_BASES)
    monos = [(2, 1, 3)] * (2 * r.randint(1, max_branch // 2)) + [IDENTITY] * r.randint(0, 3)
    r.shuffle(monos)
    pts = []
    for i, mono in enumerate(monos):
        t = twisted_type(base, 2 if mono != IDENTITY else 1)
        facet = frozenset(r.sample(t.vertices, r.randint(1, min(3, len(t.vertices)))))
        pts.append(PointDatum(f"p{i + 1}", t, facet, mono,
                              is_bad=(mono != IDENTITY or 0 not in facet)))
    return GroupDatum(r.randint(0, 1), C2_GROUP, tuple(pts))


def c2_two_digit_datum(r: random.Random) -> GroupDatum:
    """A C2 datum on an A9 to A17 base whose split points reach two-digit
    vertices (A17 has vertices 0 to 17), where JSON text order and
    numeric order of one vertex's weight disagree ("10" < "2").

    2 to 6 branch points and 0 to 4 split points, genus 0 or 1.  Each
    side draws facets of one to three vertices from a pool of three
    random vertices and their images under the pair involution, so
    most pairs are pinchable and points meet several choices.
    """
    base = FiniteType("A", r.randint(9, 17))
    pts = []
    for twist, mono, count in ((2, (2, 1, 3), 2 * r.randint(1, 3)),
                               (1, IDENTITY, r.randint(0, 4))):
        t = twisted_type(base, twist)
        pool = sorted({w for v in r.sample(t.vertices, 3) for w in (v, t.involution[v])})
        for _ in range(count):
            facet = frozenset(r.sample(pool, r.randint(1, min(3, len(pool)))))
            pts.append(PointDatum(f"p{len(pts) + 1}", t, facet, mono,
                                  is_bad=(mono != IDENTITY or 0 not in facet)))
    r.shuffle(pts)
    return GroupDatum(r.randint(0, 1), C2_GROUP, tuple(pts))


def random_small_datum(r: random.Random) -> GroupDatum:
    """Unramified datum with random small facets (for lattice ranks)."""
    n = r.randint(1, 4)
    pts = []
    for i in range(n):
        t = twisted_type(r.choice(_UNTWISTED_BASES), 1)
        size = r.randint(1, min(4, len(t.vertices)))
        facet = frozenset(r.sample(t.vertices, size))
        pts.append(
            PointDatum(
                f"p{i + 1}", t, facet, IDENTITY, is_bad=(0 not in facet)
            )
        )
    return GroupDatum(r.randint(0, 2), TRIVIAL_GROUP, tuple(pts))


def datum_to_json(d: GroupDatum) -> dict:
    """The datum file object (schema 1) that ``picard.datum_from_json``
    reads back as ``d``."""
    return {
        "schema": SCHEMA_VERSION,
        "genus": d.base_genus,
        "group": d.gamma.kind,
        "points": [
            {
                "label": p.label,
                "type": str(p.affine_type),
                "facet": sorted(p.facet),
                "monodromy": element_name(p.monodromy),
                "bad": p.is_bad,
            }
            for p in d.points
        ],
    }
