r"""Finite and twisted affine Dynkin diagram data.

Every affine type carries its vertex set {0, 1, ..., k} (0 is the special
vertex ``o``), its generalized Cartan matrix A (convention
A[i][j] = 2(a_i, a_j)/(a_i, a_i), so a double arrow pointing from i to j
means A[j][i] = -2), and its dual labels: the primitive positive integer
vector ``l`` with ``l . A = 0`` normalized so l[0] = 1.

Vertex numbering (untwisted types; the affine vertex is always 0):

    A1    0 <=> 1                      (quadruple bond, A = [[2,-2],[-2,2]])
    Al    0 - 1 - 2 - ... - l - 0      (cycle, l >= 2)
    Bl    0   1                        (l >= 3; also B2 with 0,1 both
           \ /                          joined to 2 by arrows into 2)
            2 - 3 - ... - (l-1) => l
    Cl    0 => 1 - 2 - ... - (l-1) <= l
    Dl    0   1         (l-1)
           \ /            |
            2 - 3 - ... (l-2) - l
    E6    1 - 2 - 3 - 4 - 5   with 6 on 3 and 0 on 6
    E7    0 - 1 - 2 - 3 - 4 - 5 - 6   with 7 on 3
    E8    0 - 1 - 2 - 3 - 4 - 5 - 6 - 7   with 8 on 5
    F4    0 - 1 - 2 => 3 - 4
    G2    0 - 1 ≡> 2   (triple bond; vertex 1 long, 2 short)

Twisted types (obtained by transposing an untwisted Cartan matrix, which
swaps marks and dual labels):

    A2~2        0 <≡≡ 1                (A = [[2,-4],[-1,2]])
    A(2l)~2     0 <= 1 - ... - (l-1) <= l          (l >= 2)
    A(2l-1)~2   0   1                              (l >= 2)
                 \ /
                  2 - ... - (l-1) <= l
    Dl~2        0 <= 1 - ... - (l-2) => (l-1)      (base D_l, l >= 4)
    E6~2        0 - 1 - 2 <= 3 - 4
    D4~3        0 - 1 <≡ 2

Serialized names: "A3" or "A3~1" for untwisted, "A3~2" etc. for twisted;
the compact form (no "~1") is used on output.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd

from .errors import InvalidTypeError, ParseError
from .values import Value, setfield

_SERIES_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "F": 4, "G": 2}

#: (series, twist) -> the base ranks of the implemented types, in
#: `all_affine_types` order.
_INVENTORY = {
    ("A", 1): range(1, 9), ("B", 1): range(2, 9), ("C", 1): range(2, 9),
    ("D", 1): range(4, 9), ("E", 1): (6, 7, 8), ("F", 1): (4,), ("G", 1): (2,),
    ("A", 2): range(2, 18), ("D", 2): range(4, 9), ("E", 2): (6,), ("D", 3): (4,),
}

#: The (series, rank, twist) that `twisted_type` builds: the inventory,
#: and the untwisted type on each twisted type's base, since such a C2
#: datum has split points and pads of its base type (A17 for A17~2).
_IMPLEMENTED = frozenset((series, rank, t) for (series, twist), ranks in _INVENTORY.items()
                         for rank in ranks for t in {1, twist})


class FiniteType(Value):
    """A simple finite type such as A5 or E7."""

    _fields = ("series", "rank")

    def __init__(self, series: str, rank: int):
        setfield(self, "series", series)
        setfield(self, "rank", rank)
        if series not in "ABCDEFG":
            raise InvalidTypeError(f"unknown series {series!r}")
        if series == "E":
            if rank not in (6, 7, 8):
                raise InvalidTypeError(f"E{rank} is not a finite type")
        elif series == "F":
            if rank != 4:
                raise InvalidTypeError(f"F{rank} is not a finite type")
        elif series == "G":
            if rank != 2:
                raise InvalidTypeError(f"G{rank} is not a finite type")
        elif rank < _SERIES_MIN_RANK[series]:
            raise InvalidTypeError(
                f"{series}{rank} is below the minimal rank "
                f"{_SERIES_MIN_RANK[series]} of series {series}"
            )

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


class AffineType(Value):
    """A (possibly twisted) affine Dynkin type with its verified tables.

    ``vertices`` (the tuple 0..k), ``vertex_set`` (the same as a
    frozenset) and ``involution`` (the images of 0..k under the pair
    involution v -> v*: `dual_involution` of the base when untwisted,
    the identity when twisted) are derived at construction; the hash is
    that of ``(base, twist)``, computed once.
    """

    _fields = ("base", "twist", "cartan", "dual_labels")

    def __init__(self, base: FiniteType, twist: int,
                 cartan: tuple[tuple[int, ...], ...], dual_labels: tuple[int, ...]):
        # derived once per type: every point of the type asks for them
        vertices = tuple(range(len(dual_labels)))
        setfield(self, "base", base)
        setfield(self, "twist", twist)
        setfield(self, "cartan", cartan)
        setfield(self, "dual_labels", dual_labels)
        setfield(self, "vertices", vertices)
        setfield(self, "vertex_set", frozenset(vertices))
        setfield(self, "involution", dual_involution(base) if twist == 1 else vertices)
        setfield(self, "_hash", hash((base, twist)))

    def __hash__(self) -> int:
        # (base, twist) names the type; the tables follow from it
        return self._hash

    def __str__(self) -> str:
        if self.twist == 1:
            return str(self.base)
        return f"{self.base}~{self.twist}"


def _matrix(n: int, off: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    rows = []
    for i in range(n):
        row = [2 if i == j else 0 for j in range(n)]
        rows.append(row)
    for (i, j), v in off.items():
        rows[i][j] = v
    return tuple(tuple(r) for r in rows)


def _chain(edges):
    """Symmetric single bonds for each (i, j) pair."""
    off = {}
    for i, j in edges:
        off[(i, j)] = -1
        off[(j, i)] = -1
    return off


def _untwisted_tables(base: FiniteType):
    s, l = base.series, base.rank
    if s == "A":
        if l == 1:
            return _matrix(2, {(0, 1): -2, (1, 0): -2}), (1, 1)
        off = _chain([(i, i + 1) for i in range(l)] + [(l, 0)])
        return _matrix(l + 1, off), tuple([1] * (l + 1))
    if s == "B":
        if l == 2:
            off = {(0, 2): -1, (2, 0): -2, (1, 2): -1, (2, 1): -2}
            return _matrix(3, off), (1, 1, 1)
        off = _chain([(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, l - 1)])
        off[(l - 1, l)] = -1
        off[(l, l - 1)] = -2
        labels = (1, 1) + (2,) * (l - 2) + (1,)
        return _matrix(l + 1, off), labels
    if s == "C":
        off = _chain([(i, i + 1) for i in range(1, l - 1)])
        off[(0, 1)] = -1
        off[(1, 0)] = -2
        off[(l - 1, l)] = -2
        off[(l, l - 1)] = -1
        return _matrix(l + 1, off), tuple([1] * (l + 1))
    if s == "D":
        off = _chain(
            [(0, 2), (1, 2)]
            + [(i, i + 1) for i in range(2, l - 2)]
            + [(l - 2, l - 1), (l - 2, l)]
        )
        labels = (1, 1) + (2,) * (l - 3) + (1, 1)
        return _matrix(l + 1, off), labels
    if s == "E":
        if l == 6:
            off = _chain([(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 0)])
            return _matrix(7, off), (1, 1, 2, 3, 2, 1, 2)
        if l == 7:
            off = _chain([(i, i + 1) for i in range(6)] + [(3, 7)])
            return _matrix(8, off), (1, 2, 3, 4, 3, 2, 1, 2)
        off = _chain([(i, i + 1) for i in range(7)] + [(5, 8)])
        return _matrix(9, off), (1, 2, 3, 4, 5, 6, 4, 2, 3)
    if s == "F":
        off = _chain([(0, 1), (1, 2), (3, 4)])
        off[(2, 3)] = -1
        off[(3, 2)] = -2
        return _matrix(5, off), (1, 2, 3, 2, 1)
    # G2
    off = {(0, 1): -1, (1, 0): -1, (1, 2): -1, (2, 1): -3}
    return _matrix(3, off), (1, 2, 1)


def _twisted_tables(base: FiniteType, order: int):
    """A(2m)~2 by its formula, every other twisted type as the transpose
    of its untwisted partner's matrix (Kac, Tables Aff 1-3), with the
    partner's marks written out as dual labels for `_verify` to check."""
    s, l = base.series, base.rank
    if s == "A" and l % 2 == 0:  # A(2m)~2, m >= 1, vertices 0..m
        m = l // 2
        off = _chain([(i, i + 1) for i in range(1, m - 1)])
        off[(0, 1)] = -2
        off[(1, 0)] = -1
        off[(m - 1, m)] = off.get((m - 1, m), 0) - 2  # A2~2 (m = 1): -4
        off[(m, m - 1)] = -1
        return _matrix(m + 1, off), (1,) + (2,) * m
    if s == "A":  # A(2m-1)~2 <-> B_m, m >= 2
        m = (l + 1) // 2
        partner, labels = FiniteType("B", m), (1, 1) + (2,) * (m - 1)
    elif s == "D" and order == 2:  # Dl~2 <-> C_(l-1)
        partner, labels = FiniteType("C", l - 1), (1,) + (2,) * (l - 2) + (1,)
    elif s == "E":  # E6~2 <-> F4
        partner, labels = FiniteType("F", 4), (1, 2, 3, 4, 2)
    else:  # D4~3 <-> G2
        partner, labels = FiniteType("G", 2), (1, 2, 3)
    return tuple(zip(*_untwisted_tables(partner)[0])), labels


def _verify(t: AffineType) -> None:
    """Check the stored tables against the defining properties.

    Tables are generated from per-family formulas; this construction-time
    check (null covector, normalization, primitivity, bounded entries,
    corank one, sign pattern, pair involution) catches any transcription
    slip.
    """
    a, labels = t.cartan, t.dual_labels
    n = len(labels)
    assert len(a) == n and all(len(r) == n for r in a)
    for j in range(n):
        if sum(labels[i] * a[i][j] for i in range(n)) != 0:
            raise InvalidTypeError(f"{t}: dual labels are not a null covector")
    if labels[0] != 1:  # so a vacuum bundle's charge is its coefficient (`picard.vacuum_bundle`)
        raise InvalidTypeError(f"{t}: dual label at o is {labels[0]}, not 1")
    if any(x < 1 or x > 6 for x in labels):
        raise InvalidTypeError(f"{t}: dual labels out of range")
    if gcd(*labels) != 1:
        raise InvalidTypeError(f"{t}: dual labels not primitive")
    for i in range(n):
        if a[i][i] != 2:
            raise InvalidTypeError(f"{t}: diagonal must be 2")
        for j in range(n):
            if i != j and (a[i][j] > 0 or (a[i][j] == 0) != (a[j][i] == 0)):
                raise InvalidTypeError(f"{t}: bad off-diagonal pattern")
    if _integer_rank(a) != n - 1:
        raise InvalidTypeError(f"{t}: corank is not one")
    inv = t.involution
    if len(inv) != n or inv[0] != 0 or any(
            not 0 <= j < n or inv[j] != i or labels[j] != labels[i] for i, j in enumerate(inv)):
        raise InvalidTypeError(f"{t}: pair involution is not a label-keeping involution fixing 0")


def _integer_rank(rows) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    elimination: a row below the pivot row p becomes p[c] * row - row[c] * p,
    which clears column c and keeps every entry an integer."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [p[c] * x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def _outside(base, twist: int) -> str:
    # the one refusal; it names the type as AffineType.__str__ does
    return f"{base}{'' if twist == 1 else f'~{twist}'} is outside the implemented inventory"


@lru_cache(maxsize=None)
def twisted_type(base: FiniteType, order: int) -> AffineType:
    """The affine type obtained from ``base`` twisted by an order-r
    diagram automorphism (r = 1 is the untwisted affinization).  A type
    outside `_IMPLEMENTED` is refused before any table is built, so the
    memo stays small."""
    if (base.series, base.rank, order) not in _IMPLEMENTED:
        raise InvalidTypeError(_outside(base, order))
    if order == 1:
        cartan, labels = _untwisted_tables(base)
    else:
        cartan, labels = _twisted_tables(base, order)
    t = AffineType(base=base, twist=order, cartan=cartan, dual_labels=labels)
    _verify(t)
    return t


_TYPE_RE = re.compile(r"([A-G])(0|[1-9][0-9]*)(?:~([123]))?")


@lru_cache(maxsize=256)
def parse_affine_type(s: str) -> AffineType:
    """The type a name such as "A3~2" denotes, read exactly (no
    surrounding whitespace, no leading zero in the rank); memoized per
    string (a ParseError is raised afresh each time, never cached).
    `twisted_type` refuses a type outside the implemented inventory
    before any table is built."""
    m = _TYPE_RE.fullmatch(s)
    if not m:
        raise ParseError(f"cannot parse affine type {s!r} (expected e.g. 'A3~2')")
    series, digits, twist = m.group(1), m.group(2), int(m.group(3) or 1)
    # no implemented rank has three digits; longer ones are never converted
    if len(digits) > 2:
        raise ParseError(_outside(series + digits, twist))
    try:
        return twisted_type(FiniteType(series, int(digits)), twist)
    except InvalidTypeError as e:
        raise ParseError(str(e)) from e


def dual_involution(base: FiniteType) -> tuple[int, ...]:
    """The images of the vertices 0..l under the involution i -> i*
    induced by minus the longest Weyl element on the finite diagram,
    extended to the affine diagram by fixing the special vertex (0* = 0)."""
    s, l = base.series, base.rank
    if s == "A":
        return (0, *range(l, 0, -1))
    images = list(range(l + 1))
    if s == "D" and l % 2 == 1:
        images[l - 1], images[l] = l, l - 1
    elif s == "E" and l == 6:
        images[1:6] = 5, 4, 3, 2, 1
    return tuple(images)


def all_affine_types() -> list[AffineType]:
    """The enumerated type inventory (criteria suites run over this)."""
    return [twisted_type(FiniteType(series, rank), twist)
            for (series, twist), ranks in _INVENTORY.items() for rank in ranks]
