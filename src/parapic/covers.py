"""Finite-group machinery for Galois covers of curves.

Groups are the trivial group, C2 = <(12)>, C3 = <(123)> and S3, realized
as permutations of {1,2,3} stored as image tuples (p[0], p[1], p[2]) =
(p(1), p(2), p(3)).

Composition convention: right-to-left.  compose(s, t) applies t first,
then s.  All serialized cycle notation ("e", "(12)", "(123)", ...) refers
to this convention; ordered-product checks depend on it.
"""

from __future__ import annotations

from itertools import product as iproduct

from .errors import (
    DomainError,
    InconsistentRamificationError,
    ParseError,
)
from .values import Value, setfield

Perm = tuple[int, int, int]

IDENTITY: Perm = (1, 2, 3)

#: the designated "+" generator of C3
C3_PLUS: Perm = (2, 3, 1)

#: canonical element order used for deterministic search and serialization
ELEMENTS: tuple[Perm, ...] = (
    (1, 2, 3),  # e
    (2, 1, 3),  # (12)
    (3, 2, 1),  # (13)
    (1, 3, 2),  # (23)
    (2, 3, 1),  # (123)
    (3, 1, 2),  # (132)
)

_NAMES = {
    (1, 2, 3): "e",
    (2, 1, 3): "(12)",
    (3, 2, 1): "(13)",
    (1, 3, 2): "(23)",
    (2, 3, 1): "(123)",
    (3, 1, 2): "(132)",
}
_BY_NAME = {v: k for k, v in _NAMES.items()}


def _cayley_tables():
    """Product, inverse, order and conjugation over ``ELEMENTS``.

    Built once at import from the image-tuple formulas; every group
    operation below is a single lookup, and anything that is not one of
    the six elements misses the tables.
    """

    def mul(s, t):
        return (s[t[0] - 1], s[t[1] - 1], s[t[2] - 1])

    mul_t = {s: {t: mul(s, t) for t in ELEMENTS} for s in ELEMENTS}
    inv_t = {p: next(q for q in ELEMENTS if mul(p, q) == IDENTITY) for p in ELEMENTS}
    order_t = {}
    for p in ELEMENTS:
        q, n = p, 1
        while q != IDENTITY:
            q, n = mul(p, q), n + 1
        order_t[p] = n
    conj_t = {g: {x: mul(mul(g, x), inv_t[g]) for x in ELEMENTS} for g in ELEMENTS}
    return mul_t, inv_t, order_t, conj_t


_MUL, _INV, _ORDER, _CONJ = _cayley_tables()


def _not_elements(*ps) -> DomainError:
    def known(p) -> bool:
        try:
            return p in _INV
        except TypeError:  # unhashable
            return False

    bad = ", ".join(repr(p) for p in ps if not known(p))
    return DomainError(f"not an element of S3: {bad}")


def compose(s: Perm, t: Perm) -> Perm:
    """s after t."""
    try:
        return _MUL[s][t]
    except (KeyError, TypeError):
        raise _not_elements(s, t) from None


def product(values) -> Perm:
    """Ordered product values[0] values[1] ... (the last entry acts first);
    the empty product is the identity."""
    acc = IDENTITY
    for p in values:
        try:
            acc = _MUL[acc][p]
        except (KeyError, TypeError):
            raise _not_elements(p) from None
    return acc


def inverse(p: Perm) -> Perm:
    try:
        return _INV[p]
    except (KeyError, TypeError):
        raise _not_elements(p) from None


def conjugate(g: Perm, x: Perm) -> Perm:
    """g x g^-1."""
    try:
        return _CONJ[g][x]
    except (KeyError, TypeError):
        raise _not_elements(g, x) from None


def perm_order(p: Perm) -> int:
    try:
        return _ORDER[p]
    except (KeyError, TypeError):
        raise _not_elements(p) from None


def element_name(p: Perm) -> str:
    try:
        return _NAMES[p]
    except (KeyError, TypeError):
        raise _not_elements(p) from None


def parse_element(s: str) -> Perm:
    """The element `element_name` writes as ``s``, read exactly."""
    if s in _BY_NAME:
        return _BY_NAME[s]
    raise ParseError(f"cannot parse permutation {s!r} (use e, (12), (123), ...)")


def split_top_level(s: str) -> list[str]:
    """Split on the commas outside parentheses; the parts keep their
    surrounding whitespace, and ``s`` without such a comma is one part."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_tuple(s: str) -> tuple[Perm, ...]:
    """Parse a comma-separated list of cycles, e.g. "(12), (23),(132)";
    each part is stripped, then read exactly."""
    text = s.strip()
    if not text:
        return ()
    return tuple(parse_element(p.strip()) for p in split_top_level(text))


class FiniteGroup(Value):
    """A subgroup of S3.  Besides its fields it keeps ``element_set``,
    its elements as a frozen set, for membership scans over many points."""

    _fields = ("kind", "elements")

    def __init__(self, kind: str, elements: tuple[Perm, ...]):
        setfield(self, "kind", kind)
        setfield(self, "elements", elements)
        setfield(self, "element_set", frozenset(elements))

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return self.kind


TRIVIAL_GROUP = FiniteGroup("Trivial", (IDENTITY,))
C2_GROUP = FiniteGroup("C2", (IDENTITY, (2, 1, 3)))
C3_GROUP = FiniteGroup("C3", (IDENTITY, (2, 3, 1), (3, 1, 2)))
S3_GROUP = FiniteGroup("S3", ELEMENTS)

_GROUPS = {g.kind: g for g in (TRIVIAL_GROUP, C2_GROUP, C3_GROUP, S3_GROUP)}


def group_from_name(name: str) -> FiniteGroup:
    try:
        return _GROUPS[name]
    except KeyError:
        raise ParseError(f"unknown group {name!r} (expected Trivial/C2/C3/S3)") from None


def subgroup_generated(elements) -> frozenset[Perm]:
    gens = [p for p in elements if p != IDENTITY]
    closure = {IDENTITY, *gens}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = compose(x, g)
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return frozenset(closure)


def conjugacy_class(gamma: FiniteGroup, p: Perm) -> tuple[Perm, ...]:
    if p not in gamma:
        raise DomainError(f"{element_name(p)} is not in {gamma}")
    cls = {conjugate(g, p) for g in gamma.elements}
    return tuple(e for e in ELEMENTS if e in cls)


class RamificationVector(Value):
    """Ordered local monodromies of marked points on a genus-0 base."""

    _fields = ("group", "elements")

    def __init__(self, group: FiniteGroup, elements: tuple[Perm, ...]):
        setfield(self, "group", group)
        setfield(self, "elements", elements)
        for p in elements:
            if p not in group:
                raise DomainError(f"monodromy {element_name(p)} is not in {group}")

    def __str__(self) -> str:
        return ",".join(element_name(p) for p in self.elements)


class CoverShape(Value):
    _fields = ("genus", "component_count")

    def __init__(self, genus: int, component_count: int):
        setfield(self, "genus", genus)
        setfield(self, "component_count", component_count)


def genus_riemann_hurwitz(g_base: int, gamma: FiniteGroup, monodromies) -> CoverShape:
    """Genus of the Galois cover from local monodromy orders.

    2g_C - 2 = |G|(2 g_base - 2) + sum_p (|G|/e_p)(e_p - 1).

    component_count is the index of the generated subgroup for a genus-0
    base; for base genus >= 1 it is reported as 1 (handle monodromies are
    free and can always be chosen to connect the cover).
    """
    if g_base < 0:
        raise DomainError("base genus must be nonnegative")
    n = len(gamma)
    monodromies = tuple(monodromies)
    for p in monodromies:
        if p not in gamma:
            raise DomainError(f"monodromy {element_name(p)} is not in {gamma}")
    rhs = n * (2 * g_base - 2)
    for p in monodromies:
        e = perm_order(p)
        rhs += (n // e) * (e - 1)
    if rhs % 2 != 0 or rhs + 2 < 0:
        raise InconsistentRamificationError(
            f"inconsistent ramification data: 2g-2 = {rhs}"
        )
    genus = (rhs + 2) // 2
    if g_base == 0:
        components = n // len(subgroup_generated(monodromies))
    else:
        components = 1
    return CoverShape(genus=genus, component_count=components)


def is_connected_genus0(r: RamificationVector) -> bool:
    if product(r.elements) != IDENTITY:
        raise DomainError("ordered product of monodromies is not the identity")
    return len(subgroup_generated(r.elements)) == len(r.group)


_CLASS_ALIASES = {
    "transposition": (2, 1, 3),
    "transpositions": (2, 1, 3),
    "3-cycle": (2, 3, 1),
    "3-cycles": (2, 3, 1),
    "identity": IDENTITY,
}


def _class_of(gamma: FiniteGroup, spec) -> tuple[Perm, ...]:
    if isinstance(spec, tuple):
        rep = spec
    else:
        key = str(spec).strip()
        rep = _CLASS_ALIASES.get(key)
        if rep is None:
            rep = parse_element(key)
    return conjugacy_class(gamma, rep)


def enumerate_tuples(gamma: FiniteGroup, classes, connected_only: bool = False):
    """All ordered tuples with entry i in class i and ordered product e.

    Classes may be given as representative elements, cycle strings, or
    the names "transposition"/"3-cycle"/"identity" (conjugacy closure is
    taken inside ``gamma``).  Returns (count, tuples) with the tuples in
    the canonical lexicographic element order: each pool lists its class
    in `ELEMENTS` order, so the product yields the tuples in that order.
    """
    classes = list(classes)
    if not classes:
        raise DomainError("class list must be nonempty")
    pools = [_class_of(gamma, c) for c in classes]
    out = []
    for cand in iproduct(*pools):
        if product(cand) != IDENTITY:
            continue
        if connected_only and len(subgroup_generated(cand)) != len(gamma):
            continue
        out.append(cand)
    return len(out), out


def class_preserving_identity_tuple(elements):
    """Replace each entry by a conjugate so the ordered product is e.

    Entry conjugacy classes are preserved (identities stay identities).
    Returns None when impossible: an odd number of transpositions (sign
    obstruction) or exactly one 3-cycle and no transpositions.  Used for
    base genus >= 1, where marked monodromies are only well-defined up to
    conjugacy.
    """
    elements = tuple(elements)
    kinds = [perm_order(p) for p in elements]
    t = sum(1 for k in kinds if k == 2)
    m = sum(1 for k in kinds if k == 3)
    if t % 2 == 1:
        return None
    if (t, m) == (0, 1):
        return None
    # Fill every slot but the last nontrivial one with a canonical class
    # representative, then complete: the prefix product is odd exactly
    # when a transposition is owed (t even), and if a 3-cycle is owed but
    # the prefix collapsed to e, flipping one earlier representative
    # replaces the prefix by a conjugate of a nontrivial even element.
    nontrivial = [i for i, k in enumerate(kinds) if k > 1]
    out = [IDENTITY] * len(elements)
    if nontrivial:
        last = nontrivial[-1]
        for i in nontrivial[:-1]:
            out[i] = (2, 1, 3) if kinds[i] == 2 else C3_PLUS
        if kinds[last] == 3 and product(out[:last]) == IDENTITY:
            j = nontrivial[0]
            out[j] = (3, 2, 1) if kinds[j] == 2 else inverse(C3_PLUS)
        out[last] = inverse(product(out[:last]))
        if perm_order(out[last]) != kinds[last]:  # pragma: no cover
            raise AssertionError("class-preserving adjustment failed")
    if product(out) != IDENTITY:  # pragma: no cover - construction is total
        raise AssertionError("class-preserving adjustment failed")
    return tuple(out)
