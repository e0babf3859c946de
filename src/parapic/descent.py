"""Descent certification and the charge-lattice report.

`certify_descent` assembles a degeneration witness for a datum and a
weight bundle and applies the one-sided criterion: when the witness
factors into pieces of known rank whose product is >= 1, the bundle
descends.  The other verdict is always "Unknown" — nothing here ever
asserts non-descent.

`compute_cG` combines the divisor lower bound c_Delta with a search for
the cheapest certified charge; the report carries an exact value only
when the two coincide.  For degree-2 groups that search runs over the
admissible pairings listed by :mod:`parapic.pairing`.
"""
from __future__ import annotations

import json
from itertools import compress, islice, repeat, starmap
from itertools import product as iproduct
from math import lcm, prod
from operator import add

from .covers import (
    IDENTITY,
    class_preserving_identity_tuple,
    element_name,
    perm_order,
)
from .errors import (
    BoundUnavailableError,
    DomainError,
    InternalInconsistencyError,
    NoCoverError,
    NotDominantError,
    NotInPicDeltaError,
)
from .factorization import (
    CLOSED_FORM_A,
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
    pair_involution,
    pair_partition_gsd2,
    point_factor,
    pq_sets_for_points,  # noqa: F401 - a module attribute that perfbench/spans.py rebinds
    s3_reduce,
    vacuum_weight,
)
from .picard import (
    GroupDatum,
    WeightBundle,
    _json_object,
    _json_value,
    bundle_to_json,  # noqa: F401 - a module attribute that perfbench/spans.py rebinds
    c_delta,
    cdelta_bundle,
    central_charge,
    is_pic_delta,  # noqa: F401 - a module attribute that perfbench/spans.py rebinds
    vacuum_bundle,
    validate_bundle,
)
from .pairing import perfect_matchings
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

    def _json_items(self) -> list[tuple[str, str]]:
        w = self.witness
        return [("verdict", _json_value(self.verdict)), ("charge", _json_value(self.charge)),
                ("rank_bound", _json_value(self.rank_bound)), ("route", _json_value(self.route)),
                ("bundle", self.bundle._json()),
                ("witness", "null" if w is None else _json_object(w._json_items()))]

    def to_json(self) -> str:
        return _json_object(self._json_items())


class CGReport(Record):
    _fields = ("lower", "certified_charge", "exact", "certificate")

    def __init__(self, lower: int, certified_charge: int | None, exact: int | None,
                 certificate: DescentCertificate | None):
        self.lower, self.certified_charge = lower, certified_charge
        self.exact, self.certificate = exact, certificate

    def _json_items(self) -> list[tuple[str, str]]:
        cert = self.certificate
        return [("lower", _json_value(self.lower)), ("exact", _json_value(self.exact)),
                ("certified_charge", _json_value(self.certified_charge)),
                ("certificate", "null" if cert is None else cert.to_json())]

    def to_json(self) -> str:
        return _json_object(self._json_items())


def _reject_if_invalid(d: GroupDatum, b: WeightBundle) -> int:
    """Dominance and charge-lattice membership checks; returns the
    common central charge."""
    charges = validate_bundle(d, b)
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


def _closed_form_applicable(d, b, charge):
    """All points order-2 branch of one type A_{2r-1} twisted, vacuum
    weights at level 1: the genus-g closed form covers the whole datum."""
    if charge != 1 or not d.points:
        return None
    types = {p.affine_type for p in d.points}
    if len(types) != 1:
        return None
    (t,) = types
    if t.twist != 2 or t.base.series != "A" or t.base.rank % 2 == 0:
        return None
    if any(perm_order(p.monodromy) != 2 for p in d.points):
        return None
    if any(b.weight(p.label) != ((0, 1),) for p in d.points):
        return None
    if len(d.points) % 2 == 1:
        # the pair route raises the cover-parity rejection
        return None
    r = (t.base.rank + 1) // 2
    return (d.base_genus, len(d.points) // 2, r)


def _route_gsd2(d, b, charge, branch_pairing=None, split_pairing=None):
    if branch_pairing is None and split_pairing is None and (
            params := _closed_form_applicable(d, b, charge)) is not None:
        # every weight is vacuum_weight(1), which the check has compared
        g, n, r = params
        return DecompositionWitness([point_factor(CLOSED_FORM_A, d.points, b, params=params)],
                                    [{"op": "closed-form", "g": g, "n": n, "r": r}])
    sides = _gsd2_sides(d.points, 2 * d.base_genus)
    branch_pairs, split_pairs = pair_partition_gsd2(
        sides, branch_pairing=branch_pairing, split_pairing=split_pairing)
    w = DecompositionWitness()
    if d.base_genus:
        w.steps.append({"op": "pinch-handles", "count": d.base_genus})
    if sides.aux is not None:
        w.steps.append({"op": "pad-split-side", "labels": [sides.aux]})
    # the branch pairs, then the split pairs, where a pad (a label no
    # point has) is an untwisted vacuum point
    vac, pad_type = vacuum_weight(charge), sides.pad_type
    pad = (IDENTITY, vac, pad_type)

    def entry(lab):
        p = sides.points.get(lab)
        return pad if p is None else (p.monodromy, b.weight(lab), p.affine_type)

    def pad_run(labels):
        """Consecutive pad pairs, each the same factor, as one labelled run."""
        return BaseCase(kind=TWISTED_PAIR, elements=(IDENTITY, IDENTITY),
                        weights=(vac, vac), labels=tuple(labels),
                        types=(pad_type, pad_type), multiplicity=len(labels) // 2)

    run: list[str] = []  # the labels of the pad pairs since the last real point
    for x, y in (*branch_pairs, *split_pairs):
        fx, fy = entry(x), entry(y)
        if fx is pad and fy is pad:
            run += (x, y)
            continue
        if run:
            w.factors.append(pad_run(run))
            run = []
        (ex, wx, tx), (ey, wy, ty) = fx, fy
        w.factors.append(BaseCase(kind=TWISTED_PAIR, elements=(ex, ey),
                                  weights=(wx, wy), labels=(x, y), types=(tx, ty)))
    if run:
        w.factors.append(pad_run(run))
    return w


def _route_gsd6(d, b, charge) -> DecompositionWitness:
    elements = [p.monodromy for p in d.points]
    labels = [p.label for p in d.points]
    weight_map = {p.label: b.weight(p.label) for p in d.points}
    steps: list[dict] = []
    if d.base_genus >= 1:
        t = sum(1 for p in elements if perm_order(p) == 2)
        m = sum(1 for p in elements if perm_order(p) == 3)
        if t % 2 == 1:
            raise NoCoverError(
                "no S3 cover exists: odd number of order-2 monodromies"
            )
        if (t, m) == (0, 0) and d.base_genus == 1:
            raise NoCoverError(
                "no connected S3 cover of a genus-1 base with all "
                "monodromies trivial"
            )
        if (t, m) == (0, 1):
            # a lone 3-cycle: one handle absorbs two conjugate copies,
            # completing an equal triple
            gamma = next(p for p in elements if perm_order(p) == 3)
            for lab in free_labels(set(labels), "_handle", 2):
                elements.append(gamma)
                labels.append(lab)
                weight_map[lab] = vacuum_weight(charge)
            steps.append(
                {"op": "pinch-handles", "count": d.base_genus,
                 "absorbed": element_name(gamma)}
            )
            shadow_count = 2 * (d.base_genus - 1)
        else:
            adjusted = class_preserving_identity_tuple(elements)
            if adjusted is None:  # pragma: no cover - excluded above
                raise InternalInconsistencyError("class adjustment failed")
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
    1 untwisted, 2 pair partition (or the closed form when it applies),
    3 scenario decomposition, 6 the S3 rewriting engine.  A Descends
    verdict needs every factor rank known and a positive product; the
    criterion is sufficient only, so no input yields "does not descend".
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
    route = _ROUTES[kind]
    try:
        bound = rank_lower_bound(witness)
    except BoundUnavailableError:
        return DescentCertificate(
            bundle=b, charge=charge, witness=witness, rank_bound=None,
            verdict=UNKNOWN, route=route,
        )
    verdict = DESCENDS if bound >= 1 else UNKNOWN
    return DescentCertificate(
        bundle=b, charge=charge, witness=witness, rank_bound=bound,
        verdict=verdict, route=route,
    )


def _pinch_options(shapes, split: bool) -> tuple[dict, set]:
    """The pinchable pairs of one side of a C2 datum, with their choices.

    ``shapes`` holds the (type, facet) of each label of the side.  Maps
    (i, j), i < j in side order, to the tuple of choices (vertex at
    label i, vertex at label j, dual label): common facet vertices (P)
    for branch pairs, dual-matched ones (Q) for split pairs.  Pairs of
    different types, or with no choice, are not pinchable and absent.
    Returned with the (vertex, dual label) pairs of every choice.

    Facets are bitmasks here: P is the meet of the two facets and Q the
    meet of the first facet with the second one's image under the pair
    involution.  The choices of one (type, meet) are built once per call.
    """
    masks = [sum(1 << v for v in facet) for _t, facet in shapes]
    images = masks
    if split:
        images = []
        for t, facet in shapes:
            inv = pair_involution(t)
            images.append(sum(1 << inv(v) for v in facet))
    built: dict[tuple, tuple] = {}
    offered: set[tuple[int, int]] = set()
    table = {}
    for j, (t, _facet) in enumerate(shapes):
        for i in range(j):
            meet = masks[i] & images[j]
            if not meet or shapes[i][0] != t:
                continue
            if (t, meet) not in built:
                labels, inv = t.dual_labels, pair_involution(t)
                opts = built[t, meet] = tuple((v, inv(v) if split else v, labels[v])
                                              for v in range(meet.bit_length()) if meet >> v & 1)
                offered.update((v, a) for vx, vy, a in opts for v in (vx, vy))
            table[i, j] = built[t, meet]
    return table, offered


def _pinch_tables(sides: Gsd2Sides):
    """The branch labels and the (padded) split labels of a C2 datum,
    each with its `_pinch_options` table and offered pairs.  The tables
    read a pad as a vacuum point, (``pad_type``, {0}); the search meets
    pads at genus 0 and 1 in practice."""
    pad = (sides.pad_type, (0,))

    def shape(lab):
        p = sides.points.get(lab)
        return pad if p is None else (p.affine_type, p.facet)

    return tuple((side, *_pinch_options(list(map(shape, side)), split))
                 for side, split in ((sides.branch, False), (sides.split, True)))


class _Half:
    """One perfect matching of one side of a C2 datum.

    ``side`` is 0 for the branch side and 1 for the split side, and
    ``options`` holds the options of each pair of ``matching`` (see
    `_pinch_options`).  Its candidates are the product of those options,
    in product order; it has ``size`` of them, and the blocks reach the
    first ``need``.
    """

    __slots__ = ("side", "matching", "options", "size", "need", "charges")

    def __init__(self, side: int, matching, table: dict):
        self.side = side
        self.matching = matching
        self.options = list(map(table.__getitem__, matching))
        self.size = prod(map(len, self.options))
        self.need = 0
        self.charges: list[int] = []

    def pick(self, i: int):
        """(pair, option) for each pair, as element ``i`` of the product
        chooses them."""
        for e, opts in zip(reversed(self.matching), reversed(self.options)):
            i, r = divmod(i, len(opts))
            yield e, opts[r]


def _product_head(combine, unit, factors: list, n: int) -> list:
    """``combine`` folded over each element of the product of ``factors``
    (lists of values), for its first ``n`` elements in product order.

    The product is built from the last factor back, as the head of the
    product of the factors after the current one.  Once that head holds
    n elements, the first n elements of every longer product take the
    first value of each earlier factor; ``combine`` is associative and
    commutative with identity ``unit`` (lcm and 1, or + and 0), so those
    values, like those of one-value factors, fold into one.  No product is
    walked past n."""
    fixed, head = unit, [unit]
    for values in reversed(factors):
        if len(values) == 1 or len(head) >= n:
            fixed = combine(fixed, values[0])
        else:
            head = list(islice(starmap(combine, iproduct(values, head)), n))
    return list(map(combine, repeat(fixed), head))


def _gsd2_blocks(sides, budget: int):
    """The staged pairing candidates of a C2 datum, in blocks.

    A block is one (branch matching, split matching) pair; its candidates
    are the product of the options of its branch pairs and then of its
    split pairs, so the branch choice varies slowest.  Blocks come in
    matching order (branch matchings, then split matchings) and the first
    max(8 * budget, 1) candidates are staged, so the last block may be
    cut.  Returns (branch half, split half, count, charges) per block,
    where ``charges`` holds the lcm of the chosen dual labels of each of
    the block's ``count`` candidates, from the heads of the two halves'
    lcm lists (`_product_head`).
    """
    (branch, btab, _), (split, stab, _) = sides
    left = max(8 * budget, 1)
    # each pairing gives at least one candidate, so cap split matchings do
    split_halves = [_Half(1, m, stab)
                    for m in islice(perfect_matchings(len(split), stab), left)]
    blocks = []
    if split_halves:
        for bm in perfect_matchings(len(branch), btab):
            bh = _Half(0, bm, btab)
            for sh in split_halves:
                count = min(bh.size * sh.size, left)
                # the block reaches ceil(count / split size) branch choices
                # and, when cut inside its first branch choice, count split ones
                bh.need = max(bh.need, -(-count // sh.size))
                sh.need = max(sh.need, min(sh.size, count))
                blocks.append((bh, sh, count))
                left -= count
                if not left:
                    break
            if not left:
                break
    for half in {h for bh, sh, _count in blocks for h in (bh, sh)}:
        labels = [[a for _vx, _vy, a in opts] for opts in half.options]
        half.charges = _product_head(lcm, 1, labels, half.need)
    return [(bh, sh, count,
             list(islice(starmap(lcm, iproduct(bh.charges, sh.charges)), count)))
            for bh, sh, count in blocks]


def _level_candidates(sides, blocks, real: list[str], charge: int):
    """The staged candidates of one charge, as (weights, kwargs), sorted
    by (bundle JSON, pairing JSON).

    A candidate of charge c sets one vertex v at every point, with
    coefficient c // (dual label of v), so its bundle JSON lists the same
    labels in the same order as every other candidate of that charge and
    differs only in the per-point objects ``{"v": n}``.  Each of those
    ends at its only closing brace, so ranking the objects the options of
    the tables can give at c by their JSON and reading the ranks in label
    order as the digits of one integer orders the candidates as their
    bundle JSON does.  Each real point lies in exactly one pinched pair,
    so an option adds its points' digits and a candidate's key is the sum
    over its options: the sums run in C over the heads of the two halves'
    key lists (`_product_head`), as the charges do.

    Equal bundles from different blocks are ordered by the blocks'
    pairing JSON.  Blocks list their label pairs in the same shape, and
    JSON strings are prefix-free, so that order is the lexicographic order
    of the labels' own JSON strings, read pair by pair; the blocks of the
    charge are sorted that way first, and a key ties only across blocks.
    """
    level = [b for b in blocks if charge in b[3]]
    halves = {h for bh, sh, *_rest in level for h in (bh, sh)}
    names = [side for side, *_rest in sides]

    def labels(half):
        side = names[half.side]
        return [(side[i], side[j]) for i, j in half.matching]

    if len(level) > 1:
        json_rank = {lab: r for r, lab in enumerate(
            sorted((lab for side in names for lab in side), key=json.dumps))}
        pairing = {id(h): [json_rank[lab] for pair in labels(h) for lab in pair]
                   for h in halves}
        level.sort(key=lambda b: (pairing[id(b[0])], pairing[id(b[1])]))

    # every object an option could give at this charge, ordered by
    # json.dumps({str(v): n}), which is this string for integers v and n
    objs = {(v, charge // a) for *_rest, offered in sides for v, a in offered
            if charge % a == 0}
    ranked = sorted(objs, key=lambda o: f'{{"{o[0]}": {o[1]}}}')
    rank = {o: r for r, o in enumerate(ranked)}
    digit = {lab: len(ranked) ** k for k, lab in enumerate(reversed(real))}
    # each option's share of the key; one whose label does not divide the
    # charge is never at it
    parts = [{(i, j): [rank[vx, charge // a] * digit.get(side[i], 0)
                       + rank[vy, charge // a] * digit.get(side[j], 0)
                       if charge % a == 0 else 0
                       for vx, vy, a in opts]
              for (i, j), opts in table.items()}
             for side, table, _offered in sides]
    heads = {id(h): _product_head(add, 0, list(map(parts[h.side].__getitem__, h.matching)),
                                  h.need)
             for h in halves}
    staged = []
    for r, (bh, sh, count, charges) in enumerate(level):
        keys = starmap(add, iproduct(heads[id(bh)], heads[id(sh)]))
        staged += compress(zip(keys, repeat(r), range(count)),
                           map(charge.__eq__, charges))
    staged.sort()

    real_set = set(real)
    for _key, r, i in staged:
        bh, sh = level[r][:2]
        ib, isplit = divmod(i, sh.size)
        weights = {}
        for half, k in ((bh, ib), (sh, isplit)):
            side = names[half.side]
            for (ix, iy), (vx, vy, a) in half.pick(k):
                if side[ix] in real_set:
                    weights[side[ix]] = {vx: charge // a}
                if side[iy] in real_set:
                    weights[side[iy]] = {vy: charge // a}
        yield weights, {"branch_pairing": labels(bh), "split_pairing": labels(sh)}


def _staged_gsd2(d, budget):
    """The pairing candidates in certification order, one charge at a time.

    Yields (charge, candidates) for each charge of the candidates of
    `_gsd2_blocks`, ascending, where ``candidates`` is the
    `_level_candidates` generator of that charge.  It keys and sorts its
    charge only once it is first advanced, so a search that stops at a
    charge never pays for it.
    """
    try:
        split = _gsd2_sides(d.points, 2 * d.base_genus)
    except DomainError:  # no cover, or pads of mixed base types
        return
    sides = _pinch_tables(split)
    blocks = _gsd2_blocks(sides, budget)
    real = sorted(p.label for p in d.points)
    for charge in sorted({c for *_b, charges in blocks for c in charges}):
        yield charge, _level_candidates(sides, blocks, real, charge)


def compute_cG(d: GroupDatum, budget: int = 64) -> CGReport:
    """Bracket the generator of the descending-charge lattice.

    lower = c_Delta(d) divides every descending charge; the search then
    tries one first candidate and, for degree-2 groups, single-vertex
    pairing bundles.  The first candidate is the charge-1 vacuum bundle
    when every facet contains the special vertex (then c_Delta is 1 and
    the c_Delta-charge constructor builds the same bundle), and that
    constructor's bundle otherwise.  The minimal certified charge, if
    any, is an upper bound in the divisibility order; `exact` is set
    when the two ends meet.
    """
    lower = c_delta(d)
    attempts = 0
    best: DescentCertificate | None = None

    def settled(charge: int) -> bool:
        """True when no candidate of this charge can still be tried or
        improve the bracket."""
        return attempts >= max(budget, 1) or (best is not None and charge >= best.charge)

    def try_candidate(bundle, charge, **kwargs) -> bool:
        """Certify one candidate; True means the bracket has closed.

        Each source builds a dominant bundle of one positive charge at
        every point, so ``charge`` comes from the source and
        ``certify_descent`` is the only validation.  No candidate comes
        twice: one first candidate is tried, and the staged ones are
        distinct and name their pairings.
        """
        nonlocal attempts, best
        if settled(charge):
            return False
        attempts += 1
        try:
            cert = certify_descent(d, bundle, **kwargs)
        except DomainError:
            return False
        if cert.verdict == DESCENDS:
            if best is None or cert.charge < best.charge:
                best = cert
        return best is not None and best.charge == lower

    done = False
    if d.points and all(0 in p.facet for p in d.points):
        done = try_candidate(vacuum_bundle(d, 1), 1)
    elif d.points:
        try:
            cb = cdelta_bundle(d)
        except DomainError:
            cb = None
        if cb is not None:
            first = d.points[0]
            done = try_candidate(cb, central_charge(first, cb.weight(first.label)))
    if not done and d.gamma.kind == "C2" and d.points:
        # sorted by charge: once one certifies, no later one can win, and
        # the charge the search stops at is never keyed
        for charge, candidates in _staged_gsd2(d, budget):
            if settled(charge):
                break
            for weights, kwargs in candidates:
                if settled(charge):
                    break
                try_candidate(WeightBundle.from_dict(weights), charge, **kwargs)
    certified = best.charge if best is not None else None
    exact = lower if certified == lower else None
    return CGReport(lower=lower, certified_charge=certified, exact=exact,
                    certificate=best)
