"""Exact rank evaluation for block factors.

Three ingredients, all in integers: the rank table for the recognized
base cases; the level-1 S3 character sum, which is the power of two
2^(t/2+m-2); and the genus-g closed form 2^g * r^(g+n-1) for order-2
twists of type A_{2r-1}, which only `verlinde closed-form` evaluates:
a one-sided criterion never needs a whole-block rank.

Unknown ranks are a distinct outcome (:class:`UnknownRankError`), never
conflated with 0 — the descent criterion is one-sided, so a missing
table entry must not be read as vanishing.
"""
from __future__ import annotations

from functools import lru_cache
from math import inf, log10, prod

from .covers import (
    IDENTITY,
    S3_GROUP,
    compose,  # noqa: F401 - a module attribute that perfbench/spans.py rebinds
    perm_order,
    product,
    subgroup_generated,
)
from .errors import (
    BoundUnavailableError,
    DomainError,
    InternalInconsistencyError,
    UnknownRankError,
)
from .factorization import (
    ELLIPTIC_TRIPLE,
    S3_CASE1,
    S3_CASE2,
    S3_CASE3,
    S3_CASE4,
    TWISTED_PAIR,
    UNTWISTED_VACUUM,
    BaseCase,
    vacuum_weight,
)
from .picard import _is_int
from .values import Value, setfield


class RankResult(Value):
    """An exact rank plus the factor ranks (or formula) it came from."""

    _fields = ("value", "derivation")

    def __init__(self, value: int, derivation: tuple[tuple[str, int], ...]):
        derivation = tuple(derivation)
        setfield(self, "value", value)
        setfield(self, "derivation", derivation)
        recomputed = prod(v for _lab, v in derivation)
        if recomputed != value:
            raise InternalInconsistencyError(
                f"rank derivation product {recomputed} != value {value}"
            )


def _closed_form_args(g, n, r) -> tuple[int, int, int]:
    if not (_is_int(g) and _is_int(n) and _is_int(r)):
        raise DomainError(f"closed-form parameters must be integers, got {(g, n, r)!r}")
    if g < 0:
        raise DomainError(f"genus must be >= 0, got {g}")
    if n < 1:
        raise DomainError(f"branch-pair count must be >= 1, got {n}")
    if r < 2:
        raise DomainError(f"type parameter r must be >= 2, got {r}")
    return g, n, r


def rank_closed_form_A(g: int, n: int, r: int) -> int:
    """2^g * r^(g+n-1): the genus-g rank for 2n order-2 branch points of
    type A_{2r-1} twisted, all weights vacuum at level one."""
    g, n, r = _closed_form_args(g, n, r)
    return 2**g * r ** (g + n - 1)


def closed_form_A_log10(g: int, n: int, r: int) -> float:
    """log10 of ``rank_closed_form_A(g, n, r)`` in floating point, without
    computing the rank (inf when the exponents exceed a float); the
    rank has about this many decimal digits."""
    g, n, r = _closed_form_args(g, n, r)
    try:
        return g * log10(2) + (g + n - 1) * log10(r)
    except OverflowError:
        return inf


def _is_vacuum(weight, charge=None) -> bool:
    if len(weight) != 1 or weight[0][0] != 0:
        return False
    return charge is None or weight[0][1] == charge


def _single_vertex(weight):
    """(vertex, coefficient) when the weight is supported on one vertex."""
    if len(weight) == 1:
        return weight[0]
    return None


def base_case_rank(b: BaseCase) -> RankResult:
    """Exact rank of one factor, looked up in the table by its kind, point
    count, weights and (for twisted pairs) types.  Raises UnknownRankError
    outside the table; rank 0 (a known vanishing) is not unknown."""
    types = tuple(b.types) if b.kind == TWISTED_PAIR and b.types is not None else None
    return _table_rank(b.kind, len(b.elements), b.weights, types)


@lru_cache(maxsize=1024)
def _table_rank(k: str, points: int, weights, types) -> RankResult:
    """The table entry for one factor shape; memoized, as a workload
    meets few shapes (an UnknownRankError is raised afresh each time)."""
    if k == UNTWISTED_VACUUM:
        w = weights[0] if weights else vacuum_weight(1)
        if _is_vacuum(w):
            return RankResult(1, ((k, 1),))
        sv = _single_vertex(w)
        if sv is not None:
            # a single non-vacuum point on the line has no invariants
            return RankResult(0, ((k + " (non-vacuum single vertex)", 0),))
        raise UnknownRankError(
            f"no rank table entry for a one-point weight {w}"
        )
    if k == TWISTED_PAIR:
        w1, w2 = weights
        if types is not None and types[0] != types[1]:
            raise UnknownRankError(
                "twisted pair rank needs matching point types"
            )
        if _is_vacuum(w1) and w1 == w2:
            return RankResult(1, ((k + " (vacuum)", 1),))
        if types is None:
            raise UnknownRankError(
                "twisted pair rank needs the point types for non-vacuum weights"
            )
        t = types[0]
        s1, s2 = _single_vertex(w1), _single_vertex(w2)
        if s1 is None or s2 is None:
            raise UnknownRankError(
                f"no rank table entry for pair weights {w1}, {w2}"
            )
        if t.twist == 3:
            raise UnknownRankError(
                "order-3 twisted pairs are only tabulated at vacuum weights"
            )
        # a vertex off the type matches nothing, and never wraps around
        if s1[0] in t.vertex_set and s2 == (t.involution[s1[0]], s1[1]):
            return RankResult(1, ((k + (" (dual match)" if t.twist == 1 else " (matched)"), 1),))
        if t.twist == 1:
            # untwisted gluing of non-dual weights vanishes
            return RankResult(0, ((k + " (dual mismatch)", 0),))
        raise UnknownRankError(
            f"no rank table entry for order-2 pair weights {w1}, {w2}"
        )
    if k == ELLIPTIC_TRIPLE:
        if all(_is_vacuum(w, 1) for w in weights):
            return RankResult(2, ((k, 2),))
        raise UnknownRankError(
            "elliptic triples are only tabulated at level-1 vacuum weights"
        )
    if k in (S3_CASE1, S3_CASE2, S3_CASE3, S3_CASE4):
        if not all(_is_vacuum(w, 1) for w in weights):
            raise UnknownRankError(
                f"{k} is only tabulated at level-1 vacuum weights"
            )
        if k == S3_CASE1:
            # cyclic treatment: one order-2 pair factor
            return RankResult(1, ((k + " (cyclic pair)", 1),))
        if k == S3_CASE2:
            if points == 2:
                return RankResult(1, ((k + " (cyclic pair)", 1),))
            return RankResult(2, ((k + " (cyclic triple)", 2),))
        if k == S3_CASE3:
            return RankResult(1, ((k, 1),))
        return RankResult(2, ((S3_CASE4, 2),))
    raise UnknownRankError(f"unrecognized factor kind {k!r}")


def s3_level1_rank(r) -> RankResult:
    """The level-1 S3 character-sum rank for a connected genus-0 cover
    with vacuum weights: prod_i S^{gamma_i}_00 / S_00^(s-2).

    The vacuum-column entries are 1/2 (identity), 2^(-1/2) (transposition)
    and 1 (3-cycle), so a vector with t transpositions and m 3-cycles has
    rank 2^(t/2 + m - 2).  A vector that multiplies to e has t even, and
    one that also generates S3 has t >= 2 and, if t = 2, m >= 1, so the
    exponent is a nonnegative integer.

    The two anchor instances are ((12),(23),(132)) -> 1 and
    ((12),(23),(123),(123)) -> 2.  Applying the same sum to *other*
    generating vacuum vectors extends those instances; the extension
    rests on the vacuum column being the only contributing row at level
    one.
    """
    elements = tuple(tuple(p) for p in r)
    if product(elements) != IDENTITY:
        raise DomainError("monodromies do not multiply to the identity")
    if subgroup_generated(elements) != frozenset(S3_GROUP.elements):
        raise DomainError(
            "monodromies do not generate S3 (disconnected cover); "
            "use the factor decomposition instead"
        )
    orders = [perm_order(p) for p in elements]
    t, m = orders.count(2), orders.count(3)
    v = 2 ** (t // 2 + m - 2)
    return RankResult(v, ((f"S3 level-1 sum t={t} m={m}", v),))


def rank_lower_bound(w) -> int:
    """Product of the factor ranks of a decomposition witness, each
    raised to its factor's multiplicity.

    The undegenerated block contains a copy of the factor product, so
    its rank is >= the returned value.  Empty witnesses give 1.
    """
    factors = getattr(w, "factors", w)
    bound = 1
    for f in factors:
        try:
            bound *= base_case_rank(f).value ** f.multiplicity
        except UnknownRankError as e:
            raise BoundUnavailableError(
                f"factor {f.kind} at {f.labels} has unknown rank: {e}"
            ) from e
    return bound
