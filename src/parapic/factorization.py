"""Degeneration engine: split a global datum into rank-known base cases.

Every routine here produces a :class:`DecompositionWitness`, a list of
small "factor" configurations together with enough bookkeeping to check
conservation (the multiset of nontrivial monodromies is preserved up to
recorded conjugations) and to replay the reduction.  Rank bookkeeping
lives in :mod:`parapic.verlinde`; this module is pure combinatorics.

The factor vocabulary:

==================  ====================================================
kind                shape
==================  ====================================================
UntwistedVacuum     one untwisted point, vacuum-type weight
TwistedPair         two points with inverse (or equal order-2) twists
EllipticTriple      three points sharing one order-3 twist
S3Case1             two equal transpositions
S3Case2             inverse 3-cycle pair, or an equal 3-cycle triple
S3Case3             literally ((12),(23),(132)) after conjugation
S3Case4             literally ((12),(23),(123),(123)) after conjugation
==================  ====================================================

No kind holds more than four points.  The genus-g closed form is a
whole-block rank, not a factor: the criterion is one-sided.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .covers import (
    C3_PLUS,
    ELEMENTS,
    IDENTITY,
    Perm,
    compose,
    conjugate,
    element_name,
    inverse,
    perm_order,
    product,
)
from .dynkin import AffineType, twisted_type
from .errors import (
    DomainError,
    InternalInconsistencyError,
    NoCoverError,
    PairingError,
)
from .picard import PointDatum, _check_integers, _is_int, _json_str, _json_value
from .values import Record

# factor kinds
UNTWISTED_VACUUM = "UntwistedVacuum"
TWISTED_PAIR = "TwistedPair"
ELLIPTIC_TRIPLE = "EllipticTriple"
S3_CASE1 = "S3Case1"
S3_CASE2 = "S3Case2"
S3_CASE3 = "S3Case3"
S3_CASE4 = "S3Case4"

_T12: Perm = (2, 1, 3)
_T23: Perm = (1, 3, 2)
_C3_MINUS: Perm = inverse(C3_PLUS)

_TRANSPOSITIONS = frozenset(p for p in ELEMENTS if perm_order(p) == 2)

#: canonical literal payloads for the exceptional S3 factors
CASE3_LITERAL: tuple[Perm, ...] = (_T12, _T23, _C3_MINUS)
CASE4_LITERAL: tuple[Perm, ...] = (_T12, _T23, C3_PLUS, C3_PLUS)

Weight = tuple[tuple[int, int], ...]


def vacuum_weight(charge: int = 1) -> Weight:
    if not _is_int(charge):
        raise DomainError(f"vacuum charge {charge!r} must be an integer")
    return ((0, charge),)


#: the most points a factor of any kind has (S3Case4)
_MAX_FACTOR_POINTS = 4


@lru_cache(maxsize=1024)
def _shape_error(kind: str, els: tuple[Perm, ...]) -> str | None:
    """Why ``els`` (at most `_MAX_FACTOR_POINTS`) cannot be the monodromies
    of a ``kind`` factor, or None when they can.  About 25 shapes are
    valid; `s3_reduce` also asks the four S3 kinds of each short vector."""
    if product(els) != IDENTITY:
        return "factor monodromies do not multiply to e"
    orders = tuple(perm_order(p) for p in els)
    if kind == UNTWISTED_VACUUM:
        ok = orders == (1,)
    elif kind == TWISTED_PAIR:
        # order 1 pairs are the untwisted node-gluing case
        ok = len(els) == 2 and orders[0] == orders[1]
    elif kind == ELLIPTIC_TRIPLE:
        ok = orders == (3, 3, 3) and len(set(els)) == 1
    elif kind == S3_CASE1:
        ok = orders == (2, 2) and els[0] == els[1]
    elif kind == S3_CASE2:
        ok = (orders == (3, 3) and els[1] == inverse(els[0])) or (
            orders == (3, 3, 3) and len(set(els)) == 1
        )
    elif kind == S3_CASE3:
        ok = els == CASE3_LITERAL
    elif kind == S3_CASE4:
        ok = els == CASE4_LITERAL
    else:
        return f"unknown factor kind {kind!r}"
    return None if ok else f"malformed {kind} factor: {els}"


@lru_cache(maxsize=1024)
def _entry_frame(kind, elements, weights, conjugator, original):
    """The JSON text of a schema-2 factor entry of this shape around its
    list of labels, memoized like `_shape_error`: the entry written with
    no labels, cut inside that list.  A quote inside a JSON string is
    escaped, so the text of the "labels" key occurs nowhere else."""
    entry = {"kind": kind, "labels": [], "elements": list(map(element_name, elements)),
             "weights": [{str(v): c for v, c in w} for w in weights]}
    if conjugator is not None:
        entry["conjugator"] = element_name(conjugator)
        entry["original"] = [element_name(p) for p in original or ()]
    head, tail = _json_value(entry).split('"labels": []')
    return head + '"labels": [', "]" + tail


class _Factor(NamedTuple):
    """The fields of a `BaseCase`."""

    kind: str
    elements: tuple[Perm, ...] = ()
    weights: tuple[Weight, ...] = ()
    labels: tuple[str, ...] = ()
    types: tuple[AffineType, ...] | None = None
    conjugator: Perm | None = None
    original: tuple[Perm, ...] | None = None
    multiplicity: int = 1


class BaseCase(_Factor):
    """One factor of a decomposition witness.

    ``elements`` are the monodromies at the factor's marked points (in
    order), ``weights`` the matching weight assignments and ``labels``
    which original points the factor consumed.  For the exceptional S3
    cases ``elements`` is always the canonical literal; ``conjugator``
    and ``original`` record how to undo the normalization.
    ``multiplicity`` counts identical copies of the factor, so ``2g``
    pinched-handle vacua take one factor instead of ``2g``.  A *copy
    run* has ``len(elements)`` labels, which every copy shares; a
    *labelled run* has ``multiplicity × len(elements)`` labels, the
    copies' labels one after another (see `DecompositionWitness._json_fields`).

    A factor is a named tuple, and every way to build one is checked and
    cheap: a tuple argument is kept (a tuple of labels must hold
    strings), another sequence copied.
    """

    __slots__ = ()

    def __new__(cls, kind, elements=(), weights=(), labels=(), types=None,
                conjugator=None, original=None, multiplicity=1):
        if type(multiplicity) is not int or multiplicity < 1:
            raise DomainError(
                f"factor multiplicity must be a positive integer, got "
                f"{multiplicity!r}"
            )
        if type(elements) is not tuple:
            elements = tuple(map(tuple, elements))
        if type(weights) is not tuple:
            weights = tuple(map(tuple, weights))
        if type(labels) is not tuple:
            labels = tuple(map(str, labels))
        k, n = len(elements), len(labels)
        if weights and len(weights) != k:
            raise DomainError("factor weights do not match its points")
        if n and n != k and n != multiplicity * k:
            raise DomainError(
                f"factor has {n} labels for {k} points and multiplicity {multiplicity}"
            )
        for w in weights:  # by type: a memo keyed by weights takes True for 1
            for v, c in w:
                if type(v) is not int or type(c) is not int:
                    for i, x in enumerate(weights):
                        _check_integers(labels[i] if labels else i, x)
        # no kind holds more points: rejected before the memo sees them
        error = (f"malformed {kind} factor: {k} points" if k > _MAX_FACTOR_POINTS
                 else _shape_error(kind, elements))
        if error is not None:
            raise DomainError(error)
        return tuple.__new__(cls, (kind, elements, weights, labels, types,
                                   conjugator, original, multiplicity))

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` checks as well
        return cls(*iterable)


def point_factor(kind: str, points, bundle) -> BaseCase:
    """The ``kind`` factor of ``points``: their monodromies, weights in
    ``bundle``, labels and affine types, in order."""
    if len(points) == 1:  # most factors: no transpose, as cheap as literal tuples
        (p,) = points
        return BaseCase(kind, (p.monodromy,), (bundle.weight(p.label),), (p.label,),
                        (p.affine_type,))
    els, weights, labels, types = zip(
        *[(p.monodromy, bundle.weight(p.label), p.label, p.affine_type) for p in points])
    return BaseCase(kind, els, weights, labels, types)


class DecompositionWitness(Record):
    """Outcome of a degeneration: factors plus replay bookkeeping (fresh lists by default)."""

    _fields = ("factors", "steps")

    def __init__(self, factors: list[BaseCase] | None = None, steps: list[dict] | None = None):
        self.factors = [] if factors is None else factors
        self.steps = [] if steps is None else steps

    @property
    def conservation(self) -> tuple[str, ...]:
        """Multiset union (sorted) of the nontrivial factor monodromies,
        each factor counted ``multiplicity`` times."""
        out = []
        for f in self.factors:
            names = [element_name(p) for p in f.elements if p != IDENTITY]
            out += names * f.multiplicity
        return tuple(sorted(out))

    def _json_fields(self) -> tuple[str, str]:
        """The JSON texts of ``factors`` and ``steps``, for the records that
        hold a witness to write around them.  A labelled run writes one
        entry per copy, each with its own labels; any other factor is one
        entry, which carries ``multiplicity`` when it is not 1.  A step
        that is exactly a ``move`` (`_step_json`) fills a fixed template;
        any other step goes to the encoder."""
        parts = []  # joined once: no string per entry
        for kind, elements, weights, labels, _, conjugator, original, multiplicity in self.factors:
            head, tail = _entry_frame(kind, elements, weights, conjugator, original)
            if len(labels) > (k := len(elements)):
                # a labelled run: between two copies' labels, one's tail and the next one's head
                seps = ([", "] * (k - 1) + [tail + ", " + head]) * (len(labels) // k)
                seps[-1] = tail
                parts += (", ", head, *chain.from_iterable(zip(map(_json_str, labels), seps)))
            else:
                if multiplicity != 1:  # "multiplicity" sorts right after "labels"
                    tail = f'], "multiplicity": {_json_value(multiplicity)}{tail[1:]}'
                parts += (", ", head, ", ".join(map(_json_str, labels)), tail)
        steps = self.steps
        steps = ("[" + ", ".join(map(_step_json, steps)) + "]" if type(steps) is list
                 else _json_value(steps))
        return "".join(["[", *parts[1:], "]"]), steps


#: a move step's values, in `_MOVE_TEXT` order but for "op" first
_move_fields = itemgetter("op", "conjugator", "from", "mover", "to")
#: a move step as ``json.dumps(step, sort_keys=True)`` writes it
_MOVE_TEXT = '{"conjugator": %s, "from": %d, "mover": %s, "op": "move", "to": %d}'


def _step_json(step) -> str:
    """``json.dumps(step, sort_keys=True)``.  A step that is exactly a
    ``move`` dict (its five keys, an exact ``str`` mover and conjugator,
    exact ``int`` positions) fills `_MOVE_TEXT`; any other goes to the
    encoder, bools and ``int`` subclasses included."""
    if type(step) is dict and len(step) == 5:
        try:
            op, conjugator, i, mover, j = _move_fields(step)
        except KeyError:
            return _json_value(step)
        if (type(op) is str and op == "move" and type(conjugator) is str and type(i) is int
                and type(mover) is str and type(j) is int):
            return _MOVE_TEXT % (_json_str(conjugator), i, _json_str(mover), j)
    return _json_value(step)


# ---------------------------------------------------------------------------
# gsd = 2: pairing the branch locus
# ---------------------------------------------------------------------------


class Gsd2Sides(NamedTuple):
    """The two sides of a C2 datum's pinching, as tuples of labels.

    ``branch`` holds the labels of the points with order-2 monodromy and
    ``split`` those of the points with trivial monodromy, in input order,
    then the pads: the labels of the pinched handles' shadows and, when
    the real split count is odd, of one ``_aux`` point that makes the
    side even.  ``points`` maps each real label to its point; a pad is a
    label it does not hold, a vacuum point of ``pad_type`` (the untwisted
    common base type) with facet {0}, and nothing but its label is kept.
    """

    branch: tuple[str, ...]
    split: tuple[str, ...]
    points: dict[str, PointDatum]
    pad_type: AffineType | None

    @property
    def aux(self) -> str | None:
        """The label of the ``_aux`` pad, or None when there is none."""
        return self.split[-1] if (len(self.points) - len(self.branch)) % 2 else None


#: the fewest names `free_labels` builds in one comprehension; a loop
#: that tests each name is cheaper for fewer
_BULK_NAMES = 16


def free_labels(used, prefix: str, count: int) -> list[str]:
    """The first ``count`` labels ``{prefix}1``, ``{prefix}2``, ... that
    are not in ``used``: the names of handle shadows and auxiliary points,
    kept clear of the datum's own labels.  Many names (a C2 datum's 2g
    shadows) are named in bulk (`_bulk_labels`), a few one at a time."""
    if count >= _BULK_NAMES and count > len(used):
        return _bulk_labels(used, prefix, count)
    out: list[str] = []
    i = 0
    while count > 0:
        i += 1
        if (lab := f"{prefix}{i}") not in used:
            out.append(lab)
            count -= 1
    return out


def _bulk_labels(used, prefix: str, count: int) -> list[str]:
    """`free_labels` for more names than ``used`` has labels: the names
    are built in one comprehension, and only the labels of ``used`` that
    begin with ``prefix`` are skipped.  There are at most that many, so
    that many names past ``count`` leave enough.  (A function of its
    own: a comprehension that reads ``prefix`` makes it a cell variable,
    which slows the loop of `free_labels`.)"""
    taken = {lab for lab in used if lab.startswith(prefix)}
    names = [f"{prefix}{i}" for i in range(1, count + 1 + len(taken))]
    return [lab for lab in names if lab not in taken][:count] if taken else names


def handle_vacua(used, count: int, charge: int) -> list[BaseCase]:
    """The ``count`` identity shadows of pinched handles as one vacuum
    factor of that multiplicity (none when ``count`` is 0), named by the
    first ``_handle`` label not in ``used``.  Each shadow is a rank-1
    vacuum (propagation of vacua), so the copies need no separate
    factors."""
    if not count:
        return []
    (label,) = free_labels(used, "_handle", 1)
    return [
        BaseCase(
            kind=UNTWISTED_VACUUM,
            elements=(IDENTITY,),
            weights=(vacuum_weight(charge),),
            labels=(label,),
            multiplicity=count,
        )
    ]


def handle_base(points):
    """The one base type of ``points``, which the pads of a pinching (its
    handle shadows and ``_aux`` point) need."""
    bases = {p.affine_type.base for p in points}
    if len(bases) != 1:
        raise DomainError(
            "pinching needs a single base type across points, got "
            + ", ".join(sorted(str(t) for t in bases))
        )
    (base,) = bases
    return base


def _gsd2_sides(points, shadow_count: int = 0) -> Gsd2Sides:
    """Split points into the degree-2 branch locus and the split side.

    Branch points are exactly those with order-2 monodromy; bad points
    with trivial monodromy sit over split points of the cover and go to
    the split side, followed by ``shadow_count`` handle shadows (2g for a
    genus-g base) and, when the real split count is odd, one auxiliary
    pad (see `Gsd2Sides`).  Pads need one base type across the points.
    """
    branch, split = [], []
    for p in points:
        order = perm_order(p.monodromy)
        if order == 2:
            branch.append(p.label)
        elif order == 1:
            split.append(p.label)
        else:
            raise DomainError(
                f"pair partition needs monodromies of order 1 or 2, point "
                f"{p.label!r} has order {order}"
            )
    if len(branch) % 2 == 1:
        raise NoCoverError("no C2 cover exists: odd number of branch points")
    real = {p.label: p for p in points}
    pad_type, pads = None, []
    if shadow_count or len(split) % 2:
        pad_type = twisted_type(handle_base(points), 1)
        pads = free_labels(real, "_handle", shadow_count)
        if len(split) % 2:
            pads += free_labels(real, "_aux", 1)
    return Gsd2Sides(tuple(branch), (*split, *pads), real, pad_type)


def _resolve_pairing(labels, pairing, what):
    """The label pairs of one side: adjacent in side order when
    ``pairing`` is None, else the user's list of label pairs, which must
    be a perfect matching of ``labels``."""
    if pairing is None:
        return tuple(zip(labels[::2], labels[1::2]))
    side, seen, out = set(labels), set(), []
    for a, b in pairing:
        for x in (a, b):
            if x not in side:
                raise PairingError(f"pairing names unknown {what} point {x!r}")
            if x in seen:
                raise PairingError(f"pairing repeats {what} point {x!r}")
            seen.add(x)
        out.append((a, b))
    if len(seen) != len(side):
        missing = sorted(side - seen)
        raise PairingError(f"pairing misses {what} points {missing}")
    return tuple(out)


def _first_pinching(labels, pads, points, bundle, pad_key):
    """The first perfect matching, in side order, of one side's rank-1
    pairs under ``bundle``, or None when it has none: the pairs of real
    labels or of a real label and the first pad, by first label, and
    the pads left, which pair two by two in order.

    A pair has rank >= 1 exactly when both labels share one type and
    carry single-vertex weights (v, c) and (v*, c) (`verlinde._table_rank`;
    a vacuum pair is v = 0), so each key (type, v, c) is joined to its
    dual key, and each label pairs with the earliest waiting label of
    its dual key, or else waits.  The ``pads`` after the real ``labels``
    are vacuum labels of ``pad_key``: the first may take a waiting label
    of that key, and the others pair in turn."""
    waiting: dict[tuple, list] = {}  # key -> the indices of its labels waiting for its dual
    pairs, left = [None] * len(labels), 0  # pairs: each pair at its first label's index
    for i, lab in enumerate(labels):
        if len(w := bundle.weight(lab)) != 1:
            return None
        ((v, c),), t = w, points[lab].affine_type
        if q := waiting.get((t, t.involution[v], c)):
            j = q.pop(0)
            pairs[j], left = (labels[j], lab), left - 1
        else:
            waiting.setdefault((t, v, c), []).append(i)
            left += 1
    if left:
        key, (j, *_more) = next((key, q) for key, q in waiting.items() if q)
        if left > 1 or not pads or key != pad_key:
            return None
        pairs[j], pads = (labels[j], pads[0]), pads[1:]
    return (*filter(None, pairs),), pads


def pair_partition_gsd2(sides: Gsd2Sides, bundle, charge: int, branch_pairing=None,
                        split_pairing=None):
    """A pinching of the two sides of a C2 datum, as (branch pairs, split
    pairs, trailing pads): label pairs, then the split side's last pad
    labels, which pair two by two in order.  By default each side's
    `_first_pinching` under ``bundle`` at ``charge``, or adjacent pairs
    in side order on both sides when one has none.  An explicit pairing
    is a list of label pairs, a perfect matching of its side, pads
    included; a side given none beside it takes adjacent pairs.  Only
    the first pinching leaves trailing pads, so that 2g pads take no
    tuple each."""
    if branch_pairing is None and split_pairing is None:
        real = len(sides.points) - len(sides.branch)
        branch = _first_pinching(sides.branch, (), sides.points, bundle, None)
        split = _first_pinching(sides.split[:real], sides.split[real:], sides.points,
                                bundle, (sides.pad_type, 0, charge))
        if branch is not None and split is not None:
            return branch[0], *split
    return (_resolve_pairing(sides.branch, branch_pairing, "branch"),
            _resolve_pairing(sides.split, split_pairing, "split"), ())


# ---------------------------------------------------------------------------
# vertex bookkeeping for paired points
# ---------------------------------------------------------------------------


def pq_sets(y_n, y_m, involution) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """P = common vertices, Q = vertices of the first facet whose image
    under ``involution`` (a tuple of vertex images) lies in the second."""
    yn, ym = set(y_n), set(y_m)
    p = tuple(sorted(yn & ym))
    q = tuple(sorted(i for i in yn if involution[i] in ym))
    return p, q


def pq_sets_for_points(pn: PointDatum, pm: PointDatum):
    if pn.affine_type != pm.affine_type:
        raise DomainError(
            f"paired points {pn.label!r} and {pm.label!r} have different types "
            f"({pn.affine_type} vs {pm.affine_type})"
        )
    return pq_sets(pn.facet, pm.facet, pn.affine_type.involution)


# ---------------------------------------------------------------------------
# gsd = 3: cyclic degenerations
# ---------------------------------------------------------------------------


def degenerate_gsd3(d, bundle, charge: int) -> DecompositionWitness:
    """Decompose a C3 datum into twisted pairs, elliptic triples and
    untwisted vacua.

    |R3+| = |R3-| mod 3 is required; k = |R3+| mod 3 inverse pairs are
    extracted first (scenarios a/b/c for k = 0/1/2), then each residual
    same-sign block splits into equal triples.  Each point carries its
    weight in ``bundle``.  Handles of a positive genus base pinch into 2g
    trivial vacuum shadows of ``charge``, one factor of multiplicity 2g.
    """
    if d.gamma.kind != "C3":
        raise DomainError(f"gsd-3 degeneration needs Galois group C3, got {d.gamma.kind}")
    # a C3 datum's monodromies are e, C3_PLUS and its inverse
    plus = [p for p in d.points if p.monodromy == C3_PLUS]
    minus = [p for p in d.points if p.monodromy == _C3_MINUS]
    if len(plus) % 3 != len(minus) % 3:
        raise NoCoverError("no such cover exists: |R3+| and |R3-| disagree modulo 3")
    k = len(plus) % 3
    w = DecompositionWitness()
    w.steps.append({"op": "gsd3-partition", "scenario": "abc"[k],
                    "plus": len(plus), "minus": len(minus)})
    w.factors += [point_factor(TWISTED_PAIR, pair, bundle) for pair in zip(plus[:k], minus[:k])]
    w.factors += [point_factor(ELLIPTIC_TRIPLE, side[i : i + 3], bundle)
                  for side in (plus[k:], minus[k:]) for i in range(0, len(side), 3)]
    w.factors += [point_factor(UNTWISTED_VACUUM, (p,), bundle)
                  for p in d.points if p.monodromy == IDENTITY]
    w.factors += handle_vacua({p.label for p in d.points}, 2 * d.base_genus, charge)
    if d.base_genus:
        w.steps.append({"op": "pinch-handles", "count": d.base_genus})
    return w


# ---------------------------------------------------------------------------
# gsd = 6: the S3 rewriting engine
# ---------------------------------------------------------------------------


def _pair_transpositions(seq: list, steps: list):
    """Move the transpositions of ``seq`` (the nontrivial (label, value)
    entries, in input order) to the front two at a time, recording the
    braid moves in ``steps``.

    While more than two transpositions remain, the first one with an
    equal one later (it is among the first three) and the first such
    later one are moved to the front and split off; the last two are
    moved to the front as they are.  Returns (pairs, last, cycles):
    the split-off pairs, the last two transpositions (or none), and the
    3-cycles with their values after all the moves, in input order.

    Two moves of one transposition s leave the entries before the first
    mover unchanged (conjugated twice by s) and conjugate those between
    the movers once, so the rewrite only tracks that span:

    * A 3-cycle is inverted by every span it lies in.  One flip at each
      end of a span and a running parity give every 3-cycle's final
      value in one pass at the end.
    * The transpositions are kept as ``proc[head:]``, the ones a span
      has reached, whose values are those stored in ``val`` conjugated
      by ``g``, followed by the untouched ones from ``nxt`` on.  A span
      that ends in the untouched part covers all of ``proc`` after the
      first mover, which one update of ``g`` conjugates.  A span that
      ends inside ``proc`` is conjugated entry by entry.

    The transpositions a span has reached always read r, ..., r followed
    by entries of the two values other than r (each kind of step keeps
    that shape), so a span ending inside ``proc`` is either a run of one
    value, which the next pairs consume two at a time, or lies among the
    three entries just taken into ``proc``.  Every entry joins ``proc``
    once and is conjugated entry by entry at most once before it is
    split off, so the rewrite takes time linear in the vector, as do the
    recorded steps.
    """
    trans = [i for i, (_lab, v) in enumerate(seq) if v in _TRANSPOSITIONS]
    val = [seq[i][1] for i in trans]
    proc: list[int] = []  # indices into ``trans``
    head = nxt = 0
    g = IDENTITY
    in_proc = dict.fromkeys(_TRANSPOSITIONS, 0)  # by stored value
    untouched = dict.fromkeys(_TRANSPOSITIONS, 0)
    for v in val:
        untouched[v] += 1
    flips = [0] * (len(seq) + 1)
    pairs = []
    front = 0  # the absolute position of the next split-off pair

    def move(t: int, rank: int, to: int, s: Perm) -> str:
        """Record the Hurwitz braid move of transposition ``t`` (value s,
        ``rank`` remaining transpositions before it) leftward to ``to``:
        (x_to, ..., x_{pos-1}, s) -> (s, s^-1 x_to s, ..., s^-1 x_{pos-1} s).
        Every passed entry is conjugated by the same s^-1 = s, so one
        ``move`` step records it; a move of distance 0 records nothing."""
        label = seq[trans[t]][0]
        # before it: trans[t] - t 3-cycles and ``rank`` transpositions
        pos = front + trans[t] - t + rank
        if pos != to:
            steps.append({"op": "move", "mover": label, "from": pos, "to": to,
                          "conjugator": element_name(s)})
        return label

    def conjugate_stored(lo: int, hi: int, h: Perm) -> None:
        for q in range(lo, hi):
            old = val[proc[q]]
            val[proc[q]] = new = conjugate(h, old)
            in_proc[old] -= 1
            in_proc[new] += 1

    while len(proc) - head + len(trans) - nxt > 2:
        while len(proc) - head < 3:
            v = conjugate(inverse(g), val[nxt])
            untouched[val[nxt]] -= 1
            in_proc[v] += 1
            val[nxt] = v
            proc.append(nxt)
            nxt += 1
        for i in range(3):  # the ones before it have no equal one later
            sv = val[proc[head + i]]
            s = conjugate(g, sv)
            if in_proc[sv] + untouched[s] >= 2:
                break
        a = head + i
        ta = proc[a]
        in_proc[sv] -= 1
        if in_proc[sv]:
            k = a + 1
            while val[proc[k]] != sv:
                k += 1
            tb, rank_b = proc[k], k - head
            in_proc[sv] -= 1
            conjugate_stored(a + 1, k, compose(inverse(g), compose(s, g)))
            # close up over the two movers' slots
            proc[head + 2 : k + 1] = proc[head:a] + proc[a + 1 : k]
            head += 2
        else:
            k = nxt
            while val[k] != s:
                k += 1
            tb, rank_b = k, len(proc) - head + k - nxt
            g_new = compose(s, g)
            # the ones before the first mover keep their values
            conjugate_stored(head, a, compose(inverse(g_new), g))
            proc[head + 1 : a + 1] = proc[head:a]
            head += 1
            g = g_new
            g_inv = inverse(g)
            for t in range(nxt, k):
                untouched[val[t]] -= 1
                val[t] = conjugate(g_inv, conjugate(s, val[t]))
                in_proc[val[t]] += 1
                proc.append(t)
            untouched[s] -= 1
            nxt = k + 1
        pairs.append(((move(ta, i, front, s), s), (move(tb, rank_b, front + 1, s), s)))
        flips[trans[ta] + 1] ^= 1
        flips[trans[tb]] ^= 1
        front += 2

    rest = [(t, conjugate(g, val[t])) for t in proc[head:]]
    rest += [(t, val[t]) for t in range(nxt, len(trans))]
    last = [(move(t, rank, front + rank, v), v) for rank, (t, v) in enumerate(rest)]
    if rest:
        flips[trans[rest[0][0]] + 1] ^= 1
        flips[trans[rest[1][0]]] ^= 1
    cycles = []
    parity = 0
    for i, (lab, v) in enumerate(seq):
        parity ^= flips[i]
        if v not in _TRANSPOSITIONS:
            cycles.append((lab, inverse(v) if parity else v))
    return pairs, last, cycles


def _canonicalize(kind: str, values: tuple[Perm, ...]):
    """Find the entrywise conjugator onto the canonical literal."""
    target = CASE3_LITERAL if kind == S3_CASE3 else CASE4_LITERAL
    for delta in ELEMENTS:
        if tuple(conjugate(delta, v) for v in values) == target:
            return delta
    raise InternalInconsistencyError(
        f"no conjugator normalizes {values} to the {kind} literal"
    )


def s3_reduce(elements, labels=None, charge: int = 1, weight_map=None) -> DecompositionWitness:
    """Rewrite an identity-product S3 vector into base-case factors.

    The vector is consumed left to right: identities split off as
    vacuum factors; while more than two transpositions remain, the
    first equal pair (positions scanned lexicographically) is moved to
    the front and split off as an equal pair; a final distinct pair
    turns into the exceptional three- or four-point case depending on
    whether the inverse of its product is available among the 3-cycles;
    leftover 3-cycles pair up inverse-first, then in equal triples.
    Only the exceptional factors are conjugated to a literal normal
    form, with the conjugator recorded.

    Each maximal run of consecutive equal factors (same kind, elements
    and weights) other than the exceptional ones is one labelled run
    (see `BaseCase`), so it is built, checked, ranked and framed once;
    the JSON still lists one entry per copy.
    """
    values = tuple(map(tuple, elements))
    if labels is None:
        labels = tuple(f"p{i + 1}" for i in range(len(values)))
    labels = tuple(map(str, labels))
    if len(labels) != len(values):
        raise DomainError("labels do not match the monodromy vector")
    if product(values) != IDENTITY:
        raise DomainError("monodromies do not multiply to the identity")

    w = DecompositionWitness()

    last = None  # the weight checked last: a weight shared with it is checked

    def wt_of(lab: str) -> Weight:
        """The weight of ``lab``, its pairs checked to be integers: runs
        compare weights by value, and ``True == 1``."""
        nonlocal last
        if weight_map is not None and lab in weight_map:
            weight = tuple(weight_map[lab])
            if weight is not last:
                _check_integers(lab, weight)
                last = weight
            return weight
        return vacuum_weight(charge)

    def factor(kind: str, entries) -> BaseCase:
        """The exceptional ``kind`` factor of (label, value) entries: it
        holds its literal and the conjugator onto it."""
        labs, els = zip(*entries)
        return BaseCase(kind, CASE3_LITERAL if kind == S3_CASE3 else CASE4_LITERAL,
                        tuple(map(wt_of, labs)), labs, conjugator=_canonicalize(kind, els),
                        original=els)

    def runs(kind: str, groups) -> list[BaseCase]:
        """The ``kind`` factors of groups of (label, value) entries: each
        maximal run of consecutive groups with equal values and weights
        is one labelled run, its copies' labels in order."""
        out: list[tuple] = []  # (values, weights, labels) of each run
        for group in groups:
            labs, els = zip(*group)
            weights = tuple(map(wt_of, labs))
            if out and out[-1][0] == els and out[-1][1] == weights:
                out[-1][2].extend(labs)
            else:
                out.append((els, weights, [*labs]))
        return [BaseCase(kind, els, weights, tuple(labs), multiplicity=len(labs) // len(els))
                for els, weights, labs in out]

    # the (label, value) pairs as zip makes them: a comprehension that
    # rebuilds them, or a `compress` over bound comparisons, is slower
    seq = [e for e in zip(labels, values) if e[1] != IDENTITY]
    vacua = runs(UNTWISTED_VACUUM, [(e,) for e in zip(labels, values) if e[1] == IDENTITY])
    nontrivial = tuple([v for _l, v in seq])
    # a vector that already is one S3 factor's payload stays whole
    if len(nontrivial) <= _MAX_FACTOR_POINTS:
        lit = next((k for k in (S3_CASE1, S3_CASE2, S3_CASE3, S3_CASE4)
                    if _shape_error(k, nontrivial) is None), None)
        if lit is not None:
            whole = [factor(lit, seq)] if lit in (S3_CASE3, S3_CASE4) else runs(lit, [seq])
            w.factors = [*whole, *vacua]
            return w

    pairs, final, rest = _pair_transpositions(seq, w.steps)
    if final and final[0][1] == final[1][1]:
        pairs.append(final)
        final = []
    case1 = runs(S3_CASE1, pairs)
    exceptional: list[BaseCase] = []
    if final:
        # one 3-cycle inverse to the pair's product completes it to
        # Case3, else two equal to the product to Case4
        c0 = compose(final[0][1], final[1][1])
        c0_inv = inverse(c0)
        picks = [i for i, (_l, v) in enumerate(rest) if v == c0_inv][:1]
        kind = S3_CASE3 if picks else S3_CASE4
        picks = picks or [i for i, (_l, v) in enumerate(rest) if v == c0][:2]
        entries = [*final, *(rest[i] for i in picks)]
        for i in reversed(picks):
            rest.pop(i)
        exceptional = [factor(kind, entries)]
        w.steps.append({"op": "canonicalize", "kind": kind,
                        "conjugator": element_name(exceptional[0].conjugator)})

    plus = [e for e in rest if e[1] == C3_PLUS]
    minus = [e for e in rest if e[1] == _C3_MINUS]
    npair = min(len(plus), len(minus))
    longer = plus[npair:] or minus[npair:]
    if len(longer) % 3 != 0:  # pragma: no cover - forced by product e
        raise InternalInconsistencyError("unbalanced 3-cycle residue")
    triples = [longer[i : i + 3] for i in range(0, len(longer), 3)]
    case2 = runs(S3_CASE2, [*zip(plus, minus), *triples])

    w.factors = case1 + exceptional + case2 + vacua
    return w
