"""Seeded datum generators for the three benchmark workloads.

Every generator yields datum JSON objects (``"schema": 1``), the form a
corpus user hands to ``picard.datum_from_json``.  Nothing here imports
the package under test: the type sizes and the S3 multiplication are
written out locally, so a generator cannot inherit a bug from the code
it feeds.

The parameters that set a datum's cost (group, genus, branch count,
vector length, genus size) are drawn balanced, so two seeds give corpora
of the same shape and the run-to-run spread comes from the program
rather than from the mix.
"""
from __future__ import annotations

import random

IDENTITY = (1, 2, 3)
TRANSPOSITIONS = ((2, 1, 3), (3, 2, 1), (1, 3, 2))
C3_PLUS, C3_MINUS = (2, 3, 1), (3, 1, 2)
S3_ELEMENTS = (IDENTITY,) + TRANSPOSITIONS + (C3_PLUS, C3_MINUS)
NAMES = {
    (1, 2, 3): "e",
    (2, 1, 3): "(12)",
    (3, 2, 1): "(13)",
    (1, 3, 2): "(23)",
    (2, 3, 1): "(123)",
    (3, 1, 2): "(132)",
}

#: vertex counts of the affine types the generators use
VERTICES = {
    "A1": 2, "A3": 4, "A4": 5, "A5": 6, "B3": 4, "C2": 3, "D4": 5, "D5": 6,
    "E6": 7, "E7": 8, "F4": 5, "G2": 3,
    "A3~2": 3, "A5~2": 4, "D4~2": 4, "D5~2": 5, "E6~2": 5, "D4~3": 3,
}
UNTWISTED_BASES = ("A1", "A4", "B3", "C2", "D5", "E7", "F4", "G2")
TWIST2_BASES = ("A3", "A5", "D4", "D5", "E6")


def compose(s, t):
    """s after t, on image tuples of {1, 2, 3}."""
    return (s[t[0] - 1], s[t[1] - 1], s[t[2] - 1])


def inverse(p):
    out = [0, 0, 0]
    for x in (1, 2, 3):
        out[p[x - 1] - 1] = x
    return tuple(out)


def order(p) -> int:
    if p == IDENTITY:
        return 1
    return 2 if p in TRANSPOSITIONS else 3


def generates_s3(elements) -> bool:
    """An S3 subset generates S3 iff it holds a transposition and some
    other non-identity element distinct from it."""
    nontrivial = {p for p in elements if p != IDENTITY}
    return any(order(p) == 2 for p in nontrivial) and len(nontrivial) >= 2


def _point(label, type_name, facet, mono):
    return {
        "label": label,
        "type": type_name,
        "facet": sorted(facet),
        "monodromy": NAMES[mono],
        "bad": mono != IDENTITY or 0 not in facet,
    }


def _datum(genus, group, points):
    return {"schema": 1, "genus": genus, "group": group, "points": points}


def _full(type_name):
    return range(VERTICES[type_name])


def _d4_type(mono) -> str:
    return {1: "D4", 2: "D4~2", 3: "D4~3"}[order(mono)]


def _iwahori(genus, group, monos, type_of):
    pts = [
        _point(f"p{i + 1}", type_of(m), _full(type_of(m)), m)
        for i, m in enumerate(monos)
    ]
    return _datum(genus, group, pts)


def _genus0_s3_vector(r: random.Random, n: int) -> list:
    """A generating S3 vector of length n whose ordered product is e."""
    while True:
        monos = [r.choice(S3_ELEMENTS) for _ in range(n - 1)]
        acc = IDENTITY
        for m in monos:
            acc = compose(acc, m)
        monos.append(inverse(acc))
        if generates_s3(monos):
            return monos


def _s3_handle_monos(r: random.Random, genus: int, max_points: int) -> list:
    """Monodromies for an S3 datum on a base of genus >= 1: an even
    transposition count; genus 1 excludes the everywhere-unramified
    shape (the torus group is abelian) and admits a lone 3-cycle."""
    while True:
        t = 2 * r.randint(0, 2)
        m = r.randint(0, 3)
        if genus == 1 and r.random() < 0.2:
            t, m = 0, 1
        if genus == 1 and (t, m) == (0, 0):
            continue
        if t + m <= max_points:
            break
    lo = 0 if t + m else 1
    good = r.randint(lo, max(lo, min(2, max_points - t - m)))
    monos = (
        [r.choice(TRANSPOSITIONS) for _ in range(t)]
        + [r.choice((C3_PLUS, C3_MINUS)) for _ in range(m)]
        + [IDENTITY] * good
    )
    r.shuffle(monos)
    return monos


# ---------------------------------------------------------------------------
# iwahori-sweep: full facets, every datum closes at the charge-1 vacuum
# ---------------------------------------------------------------------------


def _iwahori_trivial(r, genus):
    t = r.choice(UNTWISTED_BASES)
    return _iwahori(genus, "Trivial", [IDENTITY] * r.randint(1, 6), lambda m: t)


def _iwahori_c2(r, genus):
    base = r.choice(TWIST2_BASES)
    branch = 2 * (r.randint(1, 3) if genus == 0 else r.randint(0, 3))
    good = r.randint(0 if branch else 1, 6 - branch)
    monos = [(2, 1, 3)] * branch + [IDENTITY] * good
    r.shuffle(monos)
    return _iwahori(genus, "C2", monos,
                    lambda m: base + ("~2" if m != IDENTITY else ""))


def _iwahori_c3(r, genus):
    designs = [(1, 1), (2, 2), (3, 0), (0, 3), (4, 1), (1, 4), (3, 3)]
    if genus >= 1:
        designs.append((0, 0))
    plus, minus = r.choice(designs)
    good = r.randint(0 if plus + minus else 1, min(2, 6 - plus - minus))
    monos = [C3_PLUS] * plus + [C3_MINUS] * minus + [IDENTITY] * good
    r.shuffle(monos)
    return _iwahori(genus, "C3", monos, _d4_type)


def _iwahori_s3(r, genus):
    if genus == 0:
        monos = _genus0_s3_vector(r, r.randint(3, 6))
    else:
        monos = _s3_handle_monos(r, genus, 6)
    return _iwahori(genus, "S3", monos, _d4_type)


_IWAHORI = (("Trivial", _iwahori_trivial), ("C2", _iwahori_c2),
            ("C3", _iwahori_c3), ("S3", _iwahori_s3))


def iwahori_sweep(r: random.Random):
    """Iwahori data over the 12 (group, genus) strata, 1-6 points each."""
    strata = [(gen, g) for _name, gen in _IWAHORI for g in (0, 1, 2)]
    while True:
        r.shuffle(strata)
        for gen, genus in strata:
            yield gen(r, genus)


# ---------------------------------------------------------------------------
# c2-search: random small facets, so the pairing search runs
# ---------------------------------------------------------------------------

#: branch-point levels: 8 or 10 branch points in two data of seven, and
#: the median datum inside the dense 4-point level, where p50 is steady
C2_BRANCH_LEVELS = (2, 4, 4, 4, 6, 8, 10)


def _balanced(r: random.Random, levels, size: int) -> list:
    """``size`` draws holding each level equally often, shuffled."""
    out = list(levels) * (size // len(levels))
    r.shuffle(out)
    return out


def _random_facet(r, type_name):
    verts = list(_full(type_name))
    return r.sample(verts, r.randint(1, min(3, len(verts))))


def c2_search(r: random.Random):
    """Non-Iwahori C2 data: 2-10 branch points, 0-3 split points.

    Each block of 56 holds every (branch level, split count, genus) cell
    once, with the five bases balanced across it: the cell sets the size
    of the pairing search (a genus-1 base adds two handle points to the
    split side), so a run's cost mix is the same for every seed.
    """
    cells = [(b, s, g) for b in C2_BRANCH_LEVELS for s in range(4) for g in (0, 1)]
    while True:
        r.shuffle(cells)
        bases = _balanced(r, TWIST2_BASES, len(cells))
        for (branch, split, genus), base in zip(cells, bases):
            monos = [(2, 1, 3)] * branch + [IDENTITY] * split
            r.shuffle(monos)
            pts = []
            for i, m in enumerate(monos):
                t = base + ("~2" if m != IDENTITY else "")
                pts.append(_point(f"p{i + 1}", t, _random_facet(r, t), m))
            yield _datum(genus, "C2", pts)


# ---------------------------------------------------------------------------
# big-witness: long S3 vectors and high-genus bases
# ---------------------------------------------------------------------------

S3_VECTOR_RANGE = (50, 400)
GENUS_LOG10_RANGE = (2.0, 4.0)
#: the vectors fill the latency range below the largest genera, so the
#: quantiles of a run sit where data are dense
VECTORS_PER_HIGH_GENUS = 3


def _rotation(r: random.Random, step: float):
    """Points of [0, 1) from an additive recurrence with a random start;
    any prefix of n points covers [0, 1) within O(log n / n), so the
    size mix of a run barely depends on the seed."""
    u = r.random()
    while True:
        yield u
        u = (u + step) % 1.0


def _high_genus(r, group, genus):
    if group == "Trivial":
        t = r.choice(UNTWISTED_BASES)
        return _iwahori(genus, group, [IDENTITY] * r.randint(1, 3), lambda m: t)
    if group == "C2":
        # non-A bases keep the pair route (the A-series closed form would
        # collapse the witness to one factor)
        base = r.choice(("D4", "D5", "E6"))
        monos = [(2, 1, 3)] * (2 * r.randint(0, 2)) + [IDENTITY] * r.randint(1, 2)
        r.shuffle(monos)
        return _iwahori(genus, group, monos,
                        lambda m: base + ("~2" if m != IDENTITY else ""))
    if group == "C3":
        plus, minus = r.choice([(1, 1), (3, 0), (2, 2), (0, 0)])
        monos = [C3_PLUS] * plus + [C3_MINUS] * minus + [IDENTITY] * r.randint(1, 2)
        r.shuffle(monos)
        return _iwahori(genus, group, monos, _d4_type)
    return _iwahori(genus, group, _s3_handle_monos(r, genus, 6), _d4_type)


def big_witness(r: random.Random):
    """Genus-0 S3 vectors (n = 50-400) and high-genus data (g = 10^2-10^4),
    three vectors to one high-genus datum; the groups of the high-genus
    data are balanced in blocks of four, each group with its own
    sequence of genera."""
    groups = ("Trivial", "C2", "C3", "S3")
    sizes = _rotation(r, 0.6180339887498949)
    genera = {g: _rotation(r, 0.6180339887498949) for g in groups}
    lo, hi = S3_VECTOR_RANGE
    glo, ghi = GENUS_LOG10_RANGE
    while True:
        for group in _balanced(r, groups, 4):
            for _ in range(VECTORS_PER_HIGH_GENUS):
                n = lo + int(next(sizes) * (hi - lo + 1))
                yield _iwahori(0, "S3", _genus0_s3_vector(r, n), _d4_type)
            genus = round(10 ** (glo + next(genera[group]) * (ghi - glo)))
            yield _high_genus(r, group, genus)


WORKLOADS = {
    "iwahori-sweep": iwahori_sweep,
    "c2-search": c2_search,
    "big-witness": big_witness,
}


def stream(workload: str, seed: int, salt: str = ""):
    """The workload's datum stream; the same seed gives the same data."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{salt}"))
