"""Descent certification and the charge-lattice report.

`certify_descent` assembles a degeneration witness for a datum and a
weight bundle and applies the one-sided criterion: when the witness
factors into pieces of known rank whose product is >= 1, the bundle
descends.  The other verdict is always "Unknown" — nothing here ever
asserts non-descent.  Every C2 datum takes the pair partition, paired
by the bundle's weights (`pair_partition_gsd2`).

`compute_cG` combines the divisor lower bound c_Delta with a search for
the cheapest certified charge; the report carries an exact value only
when the two coincide.  For degree-2 groups off the vacuum path that
search alone, with perfect-matching tests from :mod:`parapic.pairing`,
finds the least pairing charge.
"""
from __future__ import annotations

from functools import lru_cache
from math import lcm

from .covers import (
    IDENTITY,
    class_preserving_identity_tuple,
    element_name,
    perm_order,
)
from .errors import (
    BoundUnavailableError,
    DomainError,
    NoCoverError,
    NotDominantError,
    NotInPicDeltaError,
)
from .factorization import (
    TWISTED_PAIR,
    UNTWISTED_VACUUM,
    BaseCase,
    DecompositionWitness,
    Gsd2Sides,
    _gsd2_sides,
    degenerate_gsd3,
    free_labels,
    handle_base,
    handle_vacua,
    pair_partition_gsd2,
    point_factor,
    pq_sets_for_points,  # noqa: F401 - a module attribute that perfbench/spans.py rebinds
    s3_reduce,
    vacuum_weight,
)
from .picard import (
    GroupDatum,
    WeightBundle,
    _json_value,
    bundle_to_json,  # noqa: F401 - a module attribute that perfbench/spans.py rebinds
    c_delta,
    cdelta_bundle,
    is_pic_delta,  # noqa: F401 - a module attribute that perfbench/spans.py rebinds
    vacuum_bundle,
    validate_bundle,
)
from .pairing import neighbours, perfect_matching, pin
from .values import Record
from .verlinde import rank_lower_bound

DESCENDS = "Descends"
UNKNOWN = "Unknown"


class DescentCertificate(Record):
    _fields = ("bundle", "charge", "witness", "rank_bound", "verdict", "route")

    def __init__(self, bundle: WeightBundle, charge: int, witness: DecompositionWitness | None,
                 rank_bound: int | None, verdict: str, route: str):
        self.bundle, self.charge, self.witness = bundle, charge, witness
        self.rank_bound, self.verdict, self.route = rank_bound, verdict, route

    def to_json(self, schema: int | None = None) -> str:
        """The certificate's JSON text in one pass over its sorted keys,
        with a ``"schema"`` entry when ``schema`` is given (the CLI's)."""
        w = self.witness
        witness = "null" if w is None else '{"factors": %s, "steps": %s}' % w._json_fields()
        mid = "" if schema is None else f'"schema": {_json_value(schema)}, '
        return (f'{{"bundle": {self.bundle._json()}, "charge": {_json_value(self.charge)}, '
                f'"rank_bound": {_json_value(self.rank_bound)}, '
                f'"route": {_json_value(self.route)}, {mid}'
                f'"verdict": {_json_value(self.verdict)}, "witness": {witness}}}')


class CGReport(Record):
    _fields = ("lower", "certified_charge", "exact", "certificate")

    def __init__(self, lower: int, certified_charge: int | None, exact: int | None,
                 certificate: DescentCertificate | None):
        self.lower, self.certified_charge = lower, certified_charge
        self.exact, self.certificate = exact, certificate

    def to_json(self, schema: int | None = None) -> str:
        """The report's JSON text in one pass over its sorted keys, with a
        ``"schema"`` entry when ``schema`` is given (the CLI's)."""
        cert = self.certificate
        tail = "" if schema is None else f', "schema": {_json_value(schema)}'
        return (f'{{"certificate": {"null" if cert is None else cert.to_json()}, '
                f'"certified_charge": {_json_value(self.certified_charge)}, '
                f'"exact": {_json_value(self.exact)}, "lower": {_json_value(self.lower)}{tail}}}')


def _reject_if_invalid(d: GroupDatum, b: WeightBundle) -> int:
    """Dominance and charge-lattice membership checks; returns the
    common central charge.  A bundle `vacuum_bundle` built for this very
    datum was checked there, and returns the charge it recorded."""
    if (checked := b._checked) is not None and checked[0] is d:
        return checked[1]
    charges = validate_bundle(d, b)
    if not b.dominant:  # one pass over the entries; the points name the first offender
        for p in d.points:
            for v, c in b.weight(p.label):
                if c < 0:
                    raise NotDominantError(
                        f"bundle is not dominant: point {p.label!r} has "
                        f"coefficient {c} at vertex {v}"
                    )
    distinct = sorted(set(charges.values()))
    if len(distinct) > 1:
        raise NotInPicDeltaError(
            "bundle charges disagree across points: "
            + ", ".join(f"{lab}: {charges[lab]}" for lab in sorted(charges))
        )
    charge = distinct[0] if distinct else 0
    if charge <= 0:
        raise DomainError(
            f"descent certification needs a positive central charge, got {charge}"
        )
    return charge


def _route_gsd1(d, b, charge) -> DecompositionWitness:
    w = DecompositionWitness([point_factor(UNTWISTED_VACUUM, (p,), b) for p in d.points])
    if d.base_genus:
        handle_base(d.points)  # pinching handles needs one base type across points
        w.factors += handle_vacua({p.label for p in d.points},
                                  2 * d.base_genus, charge)
        w.steps.append({"op": "pinch-handles", "count": d.base_genus})
    return w


def _route_gsd2(d, b, charge, branch_pairing=None, split_pairing=None):
    return _pair_witness(_gsd2_sides(d.points, 2 * d.base_genus), b, charge, d.base_genus,
                         branch_pairing, split_pairing)


def _pair_witness(sides: Gsd2Sides, b: WeightBundle, charge: int, genus: int,
                  branch_pairing=None, split_pairing=None) -> DecompositionWitness:
    """One twisted-pair factor per label pair of `pair_partition_gsd2`
    (the branch pairs, the split pairs, then the trailing pads two by
    two), where a pad (a label no point has) is a vacuum point."""
    branch_pairs, split_pairs, pads = pair_partition_gsd2(
        sides, b, charge, branch_pairing=branch_pairing, split_pairing=split_pairing)
    w = DecompositionWitness()
    if genus:
        w.steps.append({"op": "pinch-handles", "count": genus})
    if sides.aux is not None:
        w.steps.append({"op": "pad-split-side", "labels": [sides.aux]})
    vac, pad_type, points = vacuum_weight(charge), sides.pad_type, sides.points
    pad = (IDENTITY, vac, pad_type)

    def entry(lab):
        p = points.get(lab)
        return pad if p is None else (p.monodromy, b.weight(lab), p.affine_type)

    def pad_run(labels):
        """Consecutive pad pairs, each the same factor, as one labelled run."""
        return BaseCase(kind=TWISTED_PAIR, elements=(IDENTITY, IDENTITY),
                        weights=(vac, vac), labels=tuple(labels),
                        types=(pad_type, pad_type), multiplicity=len(labels) // 2)

    run: list[str] = []  # the labels of the pad pairs since the last real point
    for x, y in (*branch_pairs, *split_pairs):
        if x not in points and y not in points:  # a pad pair
            run += (x, y)
            continue
        if run:
            w.factors.append(pad_run(run))
            run = []
        (ex, wx, tx), (ey, wy, ty) = entry(x), entry(y)
        w.factors.append(BaseCase(kind=TWISTED_PAIR, elements=(ex, ey),
                                  weights=(wx, wy), labels=(x, y), types=(tx, ty)))
    run += pads
    if run:
        w.factors.append(pad_run(run))
    return w


def _route_gsd6(d, b, charge) -> DecompositionWitness:
    elements = [p.monodromy for p in d.points]
    labels = [p.label for p in d.points]
    # a checked bundle of positive charge weighs every point and nothing else;
    # a shadow the route adds has none, and so takes the charge's vacuum
    weight_map = b._index
    steps: list[dict] = []
    if d.base_genus >= 1:
        orders = [*map(perm_order, elements)]
        t, m = orders.count(2), orders.count(3)
        if (t, m) == (0, 0) and d.base_genus == 1:
            raise NoCoverError(
                "no connected S3 cover of a genus-1 base with all "
                "monodromies trivial"
            )
        if (t, m) == (0, 1):
            # a lone 3-cycle: one handle absorbs two conjugate copies,
            # completing an equal triple
            gamma = next(p for p in elements if perm_order(p) == 3)
            labels += free_labels(set(labels), "_handle", 2)
            elements += (gamma, gamma)
            steps.append(
                {"op": "pinch-handles", "count": d.base_genus,
                 "absorbed": element_name(gamma)}
            )
            shadow_count = 2 * (d.base_genus - 1)
        else:
            adjusted = class_preserving_identity_tuple(elements)
            if adjusted is None:  # (0, 1) was taken above: t is odd
                raise NoCoverError("no S3 cover exists: odd number of order-2 monodromies")
            if tuple(adjusted) != tuple(elements):
                steps.append(
                    {"op": "class-adjust",
                     "original": [element_name(p) for p in elements],
                     "adjusted": [element_name(p) for p in adjusted]}
                )
            elements = list(adjusted)
            shadow_count = 2 * d.base_genus
            steps.append({"op": "pinch-handles", "count": d.base_genus})
    w = s3_reduce(elements, labels=labels, charge=charge, weight_map=weight_map)
    w.steps = steps + w.steps
    if d.base_genus >= 1:
        # the identity shadows split off last, as one vacuum factor
        w.factors += handle_vacua(set(labels), shadow_count, charge)
    return w


_ROUTES = {
    "Trivial": "untwisted vacuum factorization",
    "C2": "pair partition",
    "C3": "scenario decomposition",
    "S3": "S3 reduction",
}


def certify_descent(d: GroupDatum, b: WeightBundle, branch_pairing=None,
                    split_pairing=None) -> DescentCertificate:
    """Certify that b descends along the quotient, or report Unknown.

    Routing follows the generic splitting degree of the Galois group:
    1 untwisted, 2 pair partition, 3 scenario decomposition, 6 the S3
    rewriting engine.  The bundle must be dominant, of one positive
    central charge across the points, and name only points of ``d`` and
    vertices of their facets (`_reject_if_invalid`); `vacuum_bundle`
    checked its own bundle for ``d`` when it built it.  A Descends
    verdict needs every factor rank known and a positive product; the
    criterion is sufficient only, so no input yields "does not
    descend".  A C2 bundle gets Descends exactly when
    each side has a pinching of rank-1 pairs under it, and the first
    one in side order is its pairing; ``branch_pairing`` and
    ``split_pairing`` (lists of label pairs) replace it only for the
    benchmark's replay of a certificate's pairs.
    """
    charge = _reject_if_invalid(d, b)
    kind = d.gamma.kind
    if kind == "Trivial":
        witness = _route_gsd1(d, b, charge)
    elif kind == "C2":
        witness = _route_gsd2(d, b, charge, branch_pairing=branch_pairing,
                              split_pairing=split_pairing)
    elif kind == "C3":
        witness = degenerate_gsd3(d, b, charge)
    elif kind == "S3":
        witness = _route_gsd6(d, b, charge)
    else:  # pragma: no cover - FiniteGroup admits only the four kinds
        raise DomainError(f"unsupported Galois group kind {kind!r}")
    return _certificate(b, charge, witness, _ROUTES[kind])


def _certificate(b: WeightBundle, charge: int, witness: DecompositionWitness,
                 route: str) -> DescentCertificate:
    """Descends when every factor rank is known and their product is >= 1."""
    try:
        bound = rank_lower_bound(witness)
    except BoundUnavailableError:
        bound = None
    verdict = DESCENDS if bound is not None and bound >= 1 else UNKNOWN
    return DescentCertificate(bundle=b, charge=charge, witness=witness, rank_bound=bound,
                              verdict=verdict, route=route)


@lru_cache(maxsize=1024)
def _shape_masks(t, facet) -> tuple[int, int]:
    """A facet and its image under the type's pair involution, as bitmasks."""
    return sum(1 << v for v in facet), sum(1 << t.involution[v] for v in facet)


@lru_cache(maxsize=1024)
def _choices(t, meet: int) -> tuple[tuple, frozenset]:
    """The choices (v, v*, dual label of v) of a type at each vertex v of
    the bitmask ``meet``, and their dual labels."""
    opts = tuple((v, t.involution[v], t.dual_labels[v]) for v in t.vertices if meet >> v & 1)
    return opts, frozenset(a for *_v, a in opts)


def _pinch_options(shapes) -> tuple[dict, set]:
    """The pinchable pairs of one side of a C2 datum, with their choices.

    ``shapes`` holds the (type, facet) of each label of the side.  Maps
    (i, j), i < j in side order, to the tuple of choices (v at label i,
    v* at label j, dual label of v), the rank-1 pairs: each v of facet i
    whose image v* under the type's pair involution lies in facet j (on
    a branch point's twisted type, v* = v).  Pairs of different types,
    or with no choice, are not pinchable and absent.  Returned with the
    dual labels of every choice.

    The choices are the meet of the first facet with the second one's
    image, as bitmasks.  Labels of one shape (the pads, or points drawn
    alike) share an index, so each pair of shape indices is worked out
    once per call.  A shape's masks (`_shape_masks`) and the choices of
    a (type, meet) (`_choices`) are memoized across calls, by value.
    """
    kinds: dict[tuple, int] = {}  # shape -> shape index
    kind = [kinds.setdefault(s, len(kinds)) for s in shapes]
    info = [(t, *_shape_masks(t, facet)) for t, facet in kinds]
    offered, pairs, table = set(), {}, {}  # pairs: shape index pair -> choices
    for j, kj in enumerate(kind):
        for i in range(j):
            if (opts := pairs.get(key := (kind[i], kj))) is None:
                (ti, mask, _image), (tj, _mask, image) = info[key[0]], info[kj]
                opts = ()
                if (meet := mask & image) and (ti is tj or ti == tj):
                    opts, labels = _choices(tj, meet)
                    offered |= labels
                pairs[key] = opts
            if opts:
                table[i, j] = opts
    return table, offered


def _pinch_table(sides: Gsd2Sides, side) -> tuple:
    """One side of a C2 datum (its padded split labels or its branch
    labels) with its `_pinch_options` table and offered labels.  The
    table reads a pad as a vacuum point, (``pad_type``, {0})."""
    pad, points = (sides.pad_type, (0,)), sides.points
    return (side, *_pinch_options([pad if (p := points.get(lab)) is None
                                   else (p.affine_type, p.facet) for lab in side]))


def _object_text(obj) -> str:
    """``{"v": n}``: the JSON a bundle writes for one point's single vertex."""
    return f'{{"{obj[0]}": {obj[1]}}}'


def _least_pinching(side, table: dict, real, adj: list[set], mate: list[int]) -> dict:
    """The least weights of one side's points, one (vertex, coefficient)
    pair each, in JSON order.

    ``table`` maps each usable pair (i, j) to its options, as the
    ((vertex, coefficient) at i, (vertex, coefficient) at j) they give;
    ``adj`` holds its edges as neighbour sets and ``mate`` one perfect
    matching of them; the search narrows all three.  Each real label in
    sorted order maps, in one pass over its edges, each object to the
    partners offering it, and pins itself to the partners of the first
    object that leaves a perfect matching (`pin`: the kept matching
    stands when its pair offers the object, else one `repair_matching`
    search decides, so each object costs at most one search); kept
    edges of several options are narrowed to that object."""
    weights = {}
    for i in sorted((i for i, lab in enumerate(side) if lab in real), key=side.__getitem__):
        partners: dict[tuple, set] = {}  # object -> the partners offering it
        for j in adj[i]:
            for o in table[i, j] if i < j else table[j, i]:
                partners.setdefault(o[i > j], set()).add(j)
        for obj in sorted(partners, key=_object_text):
            if pin(adj, mate, i, partners[obj]):
                break
        for j in adj[i]:
            e, k = ((i, j), 0) if i < j else ((j, i), 1)
            if len(opts := table[e]) > 1:
                table[e] = [o for o in opts if o[k] == obj]
        weights[side[i]] = (obj,)
    return weights


def _at_charge(table: dict, charge: int) -> dict:
    """The options of a pinch table whose dual label divides ``charge``,
    as the (vertex, coefficient) objects they give the pair's two points;
    pairs left with none are dropped."""
    out = {}
    for e, opts in table.items():
        if kept := [((vx, charge // a), (vy, charge // a)) for vx, vy, a in opts
                    if charge % a == 0]:
            out[e] = kept
    return out


def _staged_shadows(d) -> int:
    """The handle shadows `_c2_stage` keeps: all 2g, but no more than
    r + 2 - r % 2 for r real split points.  Pads are interchangeable
    vacuum points that always pair with one another, so with at least r
    of them extra pad pairs never change whether a side has a perfect
    matching, and staging stays O(n^2) at any genus."""
    r = sum(p.monodromy == IDENTITY for p in d.points)
    return min(2 * d.base_genus, r + 2 - r % 2)


def _c2_stage(d):
    """The sides of a C2 datum (`_gsd2_sides`, with `_staged_shadows`
    pads) and the `_pinch_table` of its split side, then of its branch
    side, as (sides, tables), when both sides have a perfect matching
    on them; None when a side has none, or when the datum has no C2
    sides (`_gsd2_sides` raises DomainError).

    A pair has rank >= 1 only at an option of its table (a vacuum pair,
    a matched or a dual-matched one), so a C2 bundle can descend only
    along a pairing that is a perfect matching of both tables: when this
    returns None, none does.  The split side, where most rejected data
    fail, is built and tested first, and the branch side only after."""
    try:
        sides = _gsd2_sides(d.points, _staged_shadows(d))
    except DomainError:  # no cover, or pads of mixed base types
        return None
    tables = ()
    for side in (sides.split, sides.branch):
        side, table, _offered = staged = _pinch_table(sides, side)
        if perfect_matching(neighbours(len(side), table)) is None:
            return None
        tables += (staged,)
    return sides, tables


def _c2_search(d, lower: int) -> DescentCertificate | None:
    """The certificate of the least bundle a pinching certifies for a C2
    datum, or None when it has none.

    Every option of a pinch table is a rank-1 pair, so the search asks
    for the least lcm of the chosen dual labels.  For each divisor c of
    the lcm L of the offered labels that ``lower`` divides, ascending,
    the tables of `_c2_stage` keep the options whose label divides c
    (`_at_charge`).  The first c at which both sides still have a
    perfect matching (`perfect_matching`) is the least lcm, since every
    lcm is a multiple of c_Delta.  `_least_pinching` gives each side's
    least weights, each point of charge c; the matching tests number at
    most 2 tau(L), plus one repair per object it compares.  The bundle
    is certified as `certify_descent` certifies it, paired by
    `pair_partition_gsd2` on sides with all 2g pads (`_pair_witness`),
    so its certificate is the one ``descend`` writes for that bundle.
    """
    if (staged := _c2_stage(d)) is None:
        return None
    sides, tables = staged
    top = lcm(*(a for *_rest, offered in tables for a in offered))
    for charge in range(lower, top + 1, lower):
        if top % charge:
            continue
        found = []
        for side, table, _offered in tables:
            table = _at_charge(table, charge)
            adj = neighbours(len(side), table)
            if (mate := perfect_matching(adj)) is None:
                break
            found.append((side, table, adj, mate))
        else:
            weights = {}
            for side, table, adj, mate in found:
                weights.update(_least_pinching(side, table, sides.points, adj, mate))
            bundle = WeightBundle(tuple(sorted(weights.items())))
            if _staged_shadows(d) < 2 * d.base_genus:
                sides = _gsd2_sides(d.points, 2 * d.base_genus)
            witness = _pair_witness(sides, bundle, charge, d.base_genus)
            return _certificate(bundle, charge, witness, _ROUTES["C2"])
    return None


def compute_cG(d: GroupDatum) -> CGReport:
    """Bracket the generator of the descending-charge lattice.

    lower = c_Delta(d) divides every descending charge.  When every
    facet contains the special vertex, c_Delta is 1 and the search
    certifies the charge-1 vacuum bundle first.  A C2 datum off that
    path takes the certificate of its least pinched bundle
    (`_c2_search`) alone, and so does one whose vacuum bundle does not
    descend; any other datum certifies its c_Delta-charge bundle.  The
    certified charge, if any, is an upper bound in the divisibility
    order; `exact` is set when the two ends meet.
    """
    lower = c_delta(d)
    best = None
    if d.points:
        at_o, c2 = all(0 in p.facet for p in d.points), d.gamma.kind == "C2"
        if at_o or not c2:
            try:  # vacuum_bundle checked its bundle; certify_descent checks cdelta_bundle's
                first = certify_descent(d, vacuum_bundle(d, 1) if at_o else cdelta_bundle(d))
                best = first if first.verdict == DESCENDS else None
            except DomainError:  # no bundle of charge c_Delta, or no route
                pass
        if c2 and best is None:
            found = _c2_search(d, lower)
            if found is not None and found.verdict == DESCENDS:
                best = found
    certified = best.charge if best is not None else None
    exact = lower if certified == lower else None
    return CGReport(lower=lower, certified_charge=certified, exact=exact,
                    certificate=best)
