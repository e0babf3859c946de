"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (plain
Gaussian elimination over Fraction, greedy Weyl-word descent, exhaustive
product loops) rather than by calling into parapic internals, so a bug
in the package cannot hide in its own oracle.  Three exceptions take one
local fact each from the package: ``least_c2_candidate`` takes each
pair's vertex sets and checks the sides, the search and the order built
on them, ``c2_pair_witness`` takes each pair's rank and checks the
witness built around it, and ``least_pinching_from_scratch`` takes the
pairing engine's first perfect matching (itself checked against
``perfect_matchings``, so its pins and repairs are too) and checks the
kept matching the package's self-reduction carries instead.
``c2_candidate`` checks nothing: it reads a search certificate back
into the shape of ``least_c2_candidate``.
"""
from __future__ import annotations

import functools
import itertools
import json
from fractions import Fraction
from math import gcd

from parapic.covers import IDENTITY
from parapic.dynkin import twisted_type
from parapic.errors import DomainError, UnknownRankError
from parapic.factorization import BaseCase, pq_sets_for_points
from parapic.pairing import first_perfect_matching, neighbours
from parapic.picard import PointDatum
from parapic.verlinde import base_case_rank


def rational_rank(rows) -> int:
    """Rank of a rational matrix by row reduction."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = m[row][col]
        m[row] = [x / inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def left_null_space(rows):
    """Basis of {x : x A = 0} for an integer matrix, as Fraction rows."""
    n = len(rows)
    ncols = len(rows[0])
    # left null space of A = null space of A^T
    at = [[Fraction(rows[r][c]) for r in range(n)] for c in range(ncols)]
    pivots = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, len(at)) if at[r][col] != 0), None)
        if piv is None:
            continue
        at[row], at[piv] = at[piv], at[row]
        inv = at[row][col]
        at[row] = [x / inv for x in at[row]]
        for r in range(len(at)):
            if r != row and at[r][col] != 0:
                f = at[r][col]
                at[r] = [a - f * b for a, b in zip(at[r], at[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -at[r][fc]
        basis.append(v)
    return basis


def primitive_positive_left_null(rows):
    """The unique primitive positive integer left null covector.

    Raises AssertionError unless the left null space is exactly
    one-dimensional with a strictly sign-definite generator.
    """
    basis = left_null_space(rows)
    assert len(basis) == 1, f"left null space has dimension {len(basis)}"
    v = basis[0]
    denlcm = 1
    for x in v:
        denlcm = denlcm * x.denominator // gcd(denlcm, x.denominator)
    ints = [int(x * denlcm) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    assert all(x > 0 for x in ints), f"null covector not positive: {ints}"
    return tuple(ints)


def weyl_longest_involution(cartan) -> dict[int, int]:
    """The diagram involution induced by minus the longest Weyl element.

    Input is a *finite* Cartan matrix (rows/cols indexed 0..l-1).  The
    longest element is found by greedy descent from rho in the
    fundamental-weight coordinates: while some coordinate is positive,
    apply that simple reflection.  The recorded word is then applied to
    each simple root; -w0(alpha_i) is again simple and the induced index
    map is returned.
    """
    l = len(cartan)
    lam = [1] * l
    word = []
    guard = 0
    while True:
        i = next((k for k in range(l) if lam[k] > 0), None)
        if i is None:
            break
        c = lam[i]
        lam = [lam[k] - c * cartan[k][i] for k in range(l)]
        word.append(i)
        guard += 1
        assert guard <= 4 * l * l + 16, "descent did not terminate"
    cols = [[cartan[k][j] for k in range(l)] for j in range(l)]
    out = {}
    for i in range(l):
        x = list(cols[i])
        for j in word:
            c = x[j]
            x = [x[k] - c * cartan[k][j] for k in range(l)]
        neg = [-v for v in x]
        matches = [j for j in range(l) if cols[j] == neg]
        assert len(matches) == 1, f"-w0(alpha_{i}) is not a simple root"
        out[i] = matches[0]
    return out


def a_series_reversal_involution(l: int) -> dict[int, int]:
    """Sanity anchor: conjugation by the order-reversing permutation.

    In the symmetric group on l+1 letters the longest element is the
    full reversal; conjugating the adjacent transposition s_i by it
    gives s_{l+1-i}.  Computed here with explicit permutation
    arithmetic, 0-based output over 0..l-1.
    """
    n = l + 1

    def comp(p, q):
        return tuple(p[q[i]] for i in range(n))

    gens = []
    for i in range(l):
        t = list(range(n))
        t[i], t[i + 1] = t[i + 1], t[i]
        gens.append(tuple(t))
    w0 = tuple(range(n - 1, -1, -1))
    out = {}
    for i, g in enumerate(gens):
        c = comp(comp(w0, g), w0)  # w0 is an involution
        out[i] = gens.index(c)
    return out


def brute_identity_tuples(elements, class_reps, connected_only: bool = False):
    """Exhaustive product check over conjugacy-class pools.

    ``elements`` is the full list of group elements as 1-based image
    tuples; ``class_reps`` one representative per slot.  Returns the
    list of tuples whose ordered product (later entries applied first)
    is the identity, optionally keeping only tuples whose entries
    multiplicatively generate the whole element set.
    """
    elements = tuple(elements)
    deg = len(elements[0])
    ident = tuple(range(1, deg + 1))

    def comp(p, q):
        return tuple(p[q[i] - 1] for i in range(deg))

    def inv(p):
        out = [0] * deg
        for i, v in enumerate(p):
            out[v - 1] = i + 1
        return tuple(out)

    def cls(rep):
        return sorted({comp(comp(g, rep), inv(g)) for g in elements})

    def closure(seed):
        gen = set(seed) | {ident}
        changed = True
        while changed:
            changed = False
            for a in list(gen):
                for b in list(gen):
                    c = comp(a, b)
                    if c not in gen:
                        gen.add(c)
                        changed = True
        return gen

    pools = [cls(r) for r in class_reps]
    hits = []
    for cand in itertools.product(*pools):
        acc = ident
        for p in cand:
            acc = comp(acc, p)
        if acc != ident:
            continue
        if connected_only and len(closure(cand)) != len(elements):
            continue
        hits.append(cand)
    return hits


def charge_difference_kernel_rank(d) -> int:
    """Rank of ker(charge-difference map) on the direct-sum lattice.

    Basis vectors are (point, facet vertex) pairs; row i is the
    functional charge(point i) - charge(point i+1).  The kernel lattice
    rank equals the rational kernel dimension.
    """
    cols = []
    for idx, p in enumerate(d.points):
        labels = p.affine_type.dual_labels
        for v in sorted(p.facet):
            cols.append((idx, labels[v]))
    n = len(d.points)
    rows = []
    for i in range(n - 1):
        row = []
        for idx, lab in cols:
            if idx == i:
                row.append(lab)
            elif idx == i + 1:
                row.append(-lab)
            else:
                row.append(0)
        rows.append(row)
    if not rows:
        return len(cols)
    return len(cols) - rational_rank(rows)


def perfect_matchings(items):
    """All perfect matchings of an even-length list, lazily.

    The first item pairs with each later item in turn and the rest is
    matched recursively, so all (2k-1)!! matchings are walked.
    """
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for j in range(len(rest)):
        pair = (first, rest[j])
        remaining = rest[:j] + rest[j + 1 :]
        for tail in perfect_matchings(remaining):
            yield (pair,) + tail


def c2_sides(d):
    """The branch side and the split side of a C2 datum, or None when it
    has an odd branch count, or mixed base types and a pad to place.

    Each handle pinches to two vacuum points of the untwisted common base
    type with facet {0}, named by the free ``_handle`` labels and listed
    after the real split points; an odd split side then gets one such
    point named by the first free ``_aux`` label.  With mixed base types
    no pad has a common type, so a positive genus or an odd split side
    leaves no pinching.
    """
    used = {p.label for p in d.points}

    def vacua(prefix, count):
        out, i = [], 0
        while len(out) < count:
            i += 1
            if f"{prefix}{i}" not in used:
                out.append(PointDatum(f"{prefix}{i}", twisted_type(base, 1),
                                      frozenset({0})))
        return out

    bases = {p.affine_type.base for p in d.points}
    base = next(iter(bases)) if len(bases) == 1 else None
    if d.base_genus and base is None:
        return None
    branch = [p for p in d.points if p.monodromy != IDENTITY]
    split = [p for p in d.points if p.monodromy == IDENTITY]
    split += vacua("_handle", 2 * d.base_genus)
    if len(branch) % 2 or (len(split) % 2 and base is None):
        return None
    return branch, split + vacua("_aux", len(split) % 2)


def least_c2_candidate(d):
    """The least pairing candidate of a C2 datum, or None when no pairing
    is admissible: the minimal lcm of the chosen dual labels over every
    perfect matching of both sides and every vertex choice, and the least
    candidate of that charge by (bundle JSON, pairing JSON).

    Returns (charge, weights, kwargs) as the package's C2 search returns
    them.  Each pair's vertex sets come from the package; the sides
    (`c2_sides`), the walk and the order are this function's own.  The
    walk pairs the first remaining point with every other one and every
    vertex choice, memoized on the multiset of the remaining points'
    (shape, fixed object), so points of one shape are walked once.  The
    least candidate is then fixed one choice at a time: each point's
    object, then each pair, the least one the walk can still complete.
    """
    sides = c2_sides(d)
    if sides is None:
        return None
    real = {p.label for p in d.points}
    shape_of = [{} for _ in sides]  # (type, facet) -> shape index, per side
    reps = [[] for _ in sides]  # a point of each shape
    for side, shapes, rep in zip(sides, shape_of, reps):
        for p in side:
            if shapes.setdefault((p.affine_type, p.facet), len(rep)) == len(rep):
                rep.append(p)

    def choices(split, x, y):
        """(vertex at x, vertex at y, dual label) of each choice of the pair."""
        try:
            p_set, q_set = pq_sets_for_points(x, y)
        except DomainError:
            return []
        inv, labels = x.affine_type.involution, x.affine_type.dual_labels
        return [(v, inv[v] if split else v, labels[v]) for v in (q_set if split else p_set)]

    table = [{(i, j): choices(split, x, y) for i, x in enumerate(rep) for j, y in enumerate(rep)}
             for split, rep in enumerate(reps)]
    memo = {}

    def reach(split, charge, state):
        """The lcms of every perfect matching of ``state``, a sorted tuple
        of (shape, fixed object or ()), whose labels divide ``charge``
        (any label when it is None) and whose choices give the fixed
        objects."""
        key = (split, charge, state)
        if key not in memo:
            out = {1} if not state else set()
            if state:
                (k, ok), rest = state[0], state[1:]
                for idx in range(len(rest)):
                    if idx and rest[idx] == rest[idx - 1]:
                        continue
                    k2, ok2 = rest[idx]
                    tail = rest[:idx] + rest[idx + 1:]
                    for vx, vy, a in table[split][k, k2]:
                        if charge is not None and (
                                charge % a or ok not in ((), (vx, charge // a))
                                or ok2 not in ((), (vy, charge // a))):
                            continue
                        out.update(x * a // gcd(x, a) for x in reach(split, charge, tail))
            memo[key] = out
        return memo[key]

    fixed = {}

    def state(split, points):
        return tuple(sorted((shape_of[split][p.affine_type, p.facet], fixed.get(p.label, ()))
                            for p in points))

    def lcms(*sets):
        out = {1}
        for values in sets:
            out = {x * y // gcd(x, y) for x in out for y in values}
        return out

    whole = [reach(split, None, state(split, side)) for split, side in enumerate(sides)]
    if not all(whole):
        return None
    charge = min(lcms(*whole))

    def completes(*sets):
        return charge in lcms(*sets)

    def fixable(p, obj):
        fixed[p.label] = obj
        if completes(*(reach(s, charge, state(s, side)) for s, side in enumerate(sides))):
            return True
        del fixed[p.label]
        return False

    points = {p.label: p for p in d.points}
    for lab in sorted(real):
        p = points[lab]
        labels = p.affine_type.dual_labels
        objs = [(v, charge // labels[v]) for v in p.facet if charge % labels[v] == 0]
        next(o for o in sorted(objs, key=lambda o: json.dumps({str(o[0]): o[1]}))
             if fixable(p, o))
    pairings = []
    for split, side in enumerate(sides):
        other = reach(1 - split, charge, state(1 - split, sides[1 - split]))
        left, pairs, chosen = list(side), [], {1}
        while left:
            x, rest = left[0], left[1:]
            for y in sorted(rest, key=lambda q: json.dumps(q.label)):
                tail = [q for q in rest if q is not y]
                ox, oy = fixed.get(x.label, ()), fixed.get(y.label, ())
                labels = {a for vx, vy, a in choices(split, x, y)
                          if charge % a == 0 and ox in ((), (vx, charge // a))
                          and oy in ((), (vy, charge // a))}
                if completes(chosen, labels, reach(split, charge, state(split, tail)), other):
                    break
            else:
                raise AssertionError(f"no partner completes {x.label!r}")
            chosen = lcms(chosen, labels)
            pairs.append((x.label, y.label))
            left = tail
        pairings.append(pairs)
    weights = {lab: dict([obj]) for lab, obj in fixed.items()}
    return charge, weights, {"branch_pairing": pairings[0], "split_pairing": pairings[1]}


def c2_pair_witness(d, bundle, charge, branch_pairing=None, split_pairing=None):
    """The schema-2 witness of a C2 pair partition and its rank bound,
    built pair by pair: one ``TwistedPair`` entry per pinched pair.

    The sides are `c2_sides`; a pairing is adjacent in side order unless
    given as label pairs.  A pad (a handle shadow or the ``_aux`` point)
    carries the vacuum weight of ``charge``.  The bound is the product of
    the pairs' ranks, None when one is unknown.
    """
    branch, split = c2_sides(d)
    points = {p.label: p for p in branch + split}
    real = {p.label for p in d.points}

    def pairs(side, pairing):
        if pairing is None:
            return [(side[i].label, side[i + 1].label) for i in range(0, len(side), 2)]
        return [tuple(pair) for pair in pairing]

    def weight(lab):
        return bundle.weight(lab) if lab in real else ((0, charge),)

    factors, bound = [], 1
    for x, y in pairs(branch, branch_pairing) + pairs(split, split_pairing):
        px, py = points[x], points[y]
        factors.append({
            "kind": "TwistedPair",
            "elements": [s3_name(px.monodromy), s3_name(py.monodromy)],
            "labels": [x, y],
            "weights": [{str(v): c for v, c in weight(lab)} for lab in (x, y)],
        })
        if bound is not None:
            try:
                bound *= base_case_rank(BaseCase(
                    kind="TwistedPair", elements=(px.monodromy, py.monodromy),
                    weights=(weight(x), weight(y)), labels=(x, y),
                    types=(px.affine_type, py.affine_type))).value
            except UnknownRankError:
                bound = None
    steps = []
    if d.base_genus:
        steps.append({"op": "pinch-handles", "count": d.base_genus})
    if sum(p.monodromy == IDENTITY for p in d.points) % 2:
        # an odd real split side ends in its _aux pad
        steps.append({"op": "pad-split-side", "labels": [split[-1].label]})
    return {"factors": factors, "steps": steps}, bound


def c2_candidate(cert):
    """A C2 search certificate in the shape of `least_c2_candidate`:
    (charge, {label: {vertex: coefficient}}, pairing kwargs), each side's
    pairing read back from the witness's pair factors, a labelled pad run
    pair by pair."""
    pairings = {"branch_pairing": [], "split_pairing": []}
    for f in cert.witness.factors:
        side = "split_pairing" if f.elements[0] == IDENTITY else "branch_pairing"
        pairings[side] += zip(f.labels[::2], f.labels[1::2])
    return cert.charge, {lab: dict(w) for lab, w in cert.bundle.entries}, pairings


def least_pinching_lcm(sides):
    """The least, over every perfect matching of every side and every
    choice of one label per pair, of the lcm of the chosen labels.

    ``sides`` holds one (size, labels) per side, where ``labels(i, j)``
    is the set of labels pair (i, j), i < j, offers (empty when the pair
    cannot be used).  Returns None when some side has no matching whose
    every pair offers a label.
    """
    per_side = []
    for size, labels in sides:
        choice_lists = [
            [labels(i, j) for i, j in m]
            for m in perfect_matchings(list(range(size)))
        ]
        per_side.append([c for c in choice_lists if all(c)])
    values = set()
    for combo in itertools.product(*per_side):
        # the lcms reachable by choosing one label per pair
        reach = {1}
        for offered in (s for side in combo for s in side):
            reach = {v * a // gcd(v, a) for v in reach for a in offered}
        values |= reach
    return min(values, default=None)


def least_pinching_from_scratch(side, table, real):
    """The least candidate of one C2 side, as (weights, pairing), with
    every matching test solved from scratch.

    ``table`` maps each usable pair (i, j), i < j, to its options, as the
    ((vertex, coefficient) at i, (vertex, coefficient) at j) they give,
    and has a perfect matching.  Each real label in sorted order keeps
    the least object, by its JSON, that leaves a perfect matching once
    the pairs at that label keep only the options giving it; then the
    pairing is the first perfect matching that tries partners in label
    JSON order.
    """
    table = dict(table)
    for i in sorted((i for i, lab in enumerate(side) if lab in real), key=side.__getitem__):
        at = [(e, e.index(i)) for e in table if i in e]
        choices = sorted({o[k] for e, k in at for o in table[e]},
                         key=lambda o: json.dumps({str(o[0]): o[1]}))
        for obj in choices:
            trial = dict(table)
            for e, k in at:
                if opts := [o for o in table[e] if o[k] == obj]:
                    trial[e] = opts
                else:
                    del trial[e]
            if first_perfect_matching(neighbours(len(side), trial)) is not None:
                break
        table = trial
    weights = {}
    for (i, j), opts in table.items():
        (vx, cx), (vy, cy) = opts[0]
        for lab, v, c in ((side[i], vx, cx), (side[j], vy, cy)):
            if lab in real:
                weights[lab] = {v: c}
    texts = list(map(json.dumps, side))
    pairs = first_perfect_matching(neighbours(len(side), table), key=texts.__getitem__)
    return ({lab: weights[lab] for lab in sorted(weights)},
            [(side[i], side[j]) for i, j in pairs])


# ---------------------------------------------------------------------------
# S3 arithmetic and the s3_reduce trail, from scratch


#: the six permutations of {1,2,3} as image tuples (p(1), p(2), p(3))
S3_TUPLES = tuple(itertools.permutations((1, 2, 3)))


def s3_mul(p, q):
    """p after q on image tuples of {1,2,3} (q acts first)."""
    return tuple(p[q[i] - 1] for i in range(3))


def s3_inv(p):
    out = [0, 0, 0]
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def s3_order(p):
    q, n = tuple(p), 1
    while q != (1, 2, 3):
        q, n = s3_mul(p, q), n + 1
    return n


def s3_conj(g, x):
    """g x g^-1."""
    return s3_mul(s3_mul(g, x), s3_inv(g))


def s3_closed(prefix):
    """``prefix`` followed by the inverse of its ordered product, so the
    whole vector multiplies to the identity."""
    acc = (1, 2, 3)
    for p in prefix:
        acc = s3_mul(acc, p)
    return tuple(prefix) + (s3_inv(acc),)


def s3_vacuum_column_rank(values):
    """The level-1 S3 character sum prod_i S^{g_i}_00 / S_00^(s-2) of a
    vector whose ordered product is e and which generates S3, or None for
    any other vector.

    The vacuum-column entries are S_00 = 1/2 at the identity, 2^(-1/2) at
    a transposition and 1 at a 3-cycle.  The sum is carried exactly, as a
    Fraction q times sqrt(2)^h, and must come out a nonnegative integer.
    """
    acc = (1, 2, 3)
    for p in values:
        acc = s3_mul(acc, p)
    group = {(1, 2, 3)}
    while True:
        grown = group | {s3_mul(x, p) for x in group for p in values}
        if grown == group:
            break
        group = grown
    if acc != (1, 2, 3) or len(group) != 6:
        return None
    q, h = Fraction(1), 0
    for p in values:
        order = s3_order(p)
        if order == 1:
            q /= 2
        elif order == 2:
            q, h = q / 2, h + 1
    q /= Fraction(1, 2) ** (len(values) - 2)
    q *= 2 ** (h // 2)  # sqrt(2)^h = 2^(h // 2) sqrt(2)^(h % 2)
    if h % 2 or q.denominator != 1 or q < 0:
        raise AssertionError(f"the character sum of {values} is not an integer")
    return int(q)


def s3_name(p):
    """Cycle notation: each cycle starts at its least point, e for the identity."""
    cycles, seen = [], set()
    for start in (1, 2, 3):
        if start in seen or p[start - 1] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(str(x))
            x = p[x - 1]
        cycles.append("(" + "".join(cyc) + ")")
    return "".join(cycles) or "e"


def replay_s3_trail(labels, values, steps):
    """Apply the ``move`` steps of an S3 rewrite trail to a labelled vector.

    The nontrivial entries are laid out in input order.  A step
    (mover, from, to, conjugator) requires the mover to sit at index
    ``from``, with 0 <= ``to`` < ``from``, and ``conjugator`` to name the
    mover's inverse c.  The mover is carried to index ``to``; the entries
    it passes, at [to, from), shift right by one and are conjugated,
    x -> c x c^-1.  Factors split off by the rewrite stay where they
    are, at the front.

    The values ride along as one byte each (their index in
    ``S3_TUPLES``), so a move is one slice assignment of the passed bytes
    run through the conjugation table of c by ``bytes.translate``: a trail
    whose moves pass n entries each replays in about n byte copies per
    move.

    Returns (value by label after the replay, moves) with one
    (mover, from, to) per step.  Raises AssertionError on the first step
    that does not replay.
    """
    seq = [lab for lab, v in zip(labels, values) if tuple(v) != (1, 2, 3)]
    value = {lab: tuple(v) for lab, v in zip(labels, values)}
    code = bytearray(S3_TUPLES.index(value[lab]) for lab in seq)
    moves = []
    for step in steps:
        if step["op"] != "move":
            continue
        m, i, j = step["mover"], step["from"], step["to"]
        assert type(i) is int and type(j) is int, f"non-integer position: {step}"
        assert 0 <= j < i < len(seq) and seq[i] == m, f"{m} is not at {i}: {step}"
        c = s3_inv(S3_TUPLES[code[i]])
        assert step["conjugator"] == s3_name(c), f"wrong conjugator: {step}"
        table = bytes(S3_TUPLES.index(s3_conj(c, x)) for x in S3_TUPLES)
        mover = code[i]
        code[j + 1 : i + 1] = code[j:i].translate(table + bytes(256 - len(table)))
        code[j] = mover
        seq[j : i + 1] = [m] + seq[j:i]
        moves.append((m, i, j))
    for lab, k in zip(seq, code):
        value[lab] = S3_TUPLES[k]
    return value, moves


def s3_move_distances(order, movers):
    """How far each mover travels when, one after another, the k-th
    mover is carried from its current place in ``order`` to index k."""
    seq = list(order)
    out = []
    for k, m in enumerate(movers):
        i = seq.index(m)
        out.append(i - k)
        seq.insert(k, seq.pop(i))
    return out


# ---------------------------------------------------------------------------
# c_Delta from the Cartan matrices


def c_delta_from_cartan(d) -> int:
    """c_Delta of ``d``: the lcm over bad points of the gcd of the dual
    labels over the facet, each type's labels read from
    ``primitive_positive_left_null`` of its Cartan matrix."""
    out = 1
    for p in d.points:
        if p.is_bad:
            labels = _null_covector(p.affine_type.cartan)
            g = 0
            for v in p.facet:
                g = gcd(g, labels[v])
            out = out * g // gcd(out, g)
    return out


#: one elimination per Cartan matrix
_null_covector = functools.lru_cache(maxsize=None)(primitive_positive_left_null)


# ---------------------------------------------------------------------------
# the c_Delta constructor bundle, by scanning multiples and backtracking


def cdelta_weights(d):
    """Per-point {vertex: coefficient} of the c_Delta constructor bundle.

    c_Delta is the lcm over bad points of the gcd of their facet labels.
    The charge is the first of its 200 first multiples that a dynamic
    program over each point's facet labels finds representable at every
    point.  A point takes its smallest vertex whose label divides the
    charge, else the first combination a depth-first search finds with
    the vertices in increasing order, each coefficient from its largest
    value down.
    """
    base = 1
    for p in d.points:
        if p.is_bad:
            labels = p.affine_type.dual_labels
            g = 0
            for v in p.facet:
                g = gcd(g, labels[v])
            base = base * g // gcd(base, g)

    def representable(target, labels):
        ok = [True] + [False] * target
        for n in range(1, target + 1):
            ok[n] = any(n >= a and ok[n - a] for a in labels)
        return ok[target]

    def combination(verts, labels, rem):
        if rem == 0:
            return {}
        if not verts:
            return None
        for n in range(rem // labels[verts[0]], -1, -1):
            rest = combination(verts[1:], labels, rem - n * labels[verts[0]])
            if rest is not None:
                return {verts[0]: n, **rest} if n else rest
        return None

    for k in range(1, 201):
        charge = base * k
        if not all(representable(charge, {p.affine_type.dual_labels[v] for v in p.facet})
                   for p in d.points):
            continue
        weights = {}
        for p in d.points:
            labels = p.affine_type.dual_labels
            verts = sorted(p.facet)
            single = [v for v in verts if charge % labels[v] == 0]
            if single:
                weights[p.label] = {single[0]: charge // labels[single[0]]}
            else:
                weights[p.label] = combination(verts, labels, charge)
        return weights
    raise AssertionError("no representable multiple of c_Delta among the first 200")


# ---------------------------------------------------------------------------
# the report JSON, built as a dict tree and written by json.dumps


def factor_copies(factors) -> list:
    """The factors with each labelled run (more labels than points) split
    into its copies: one factor of multiplicity 1 per copy, with that
    copy's labels, in order.  Any other factor, a copy run included, is
    kept as it is."""
    out = []
    for f in factors:
        k = len(f.elements)
        if len(f.labels) > k:
            out += [f._replace(labels=f.labels[i:i + k], multiplicity=1)
                    for i in range(0, len(f.labels), k)]
        else:
            out.append(f)
    return out


def factor_entry(f) -> dict:
    """The schema-2 entry of one factor that is not a labelled run, from
    its fields; it carries ``multiplicity`` when that is not 1."""
    d = {
        "kind": f.kind,
        "labels": list(f.labels),
        "elements": [s3_name(p) for p in f.elements],
        "weights": [{str(v): c for v, c in w} for w in f.weights],
    }
    if f.conjugator is not None:
        d["conjugator"] = s3_name(f.conjugator)
        d["original"] = [s3_name(p) for p in f.original or ()]
    if f.multiplicity != 1:
        d["multiplicity"] = f.multiplicity
    return d


def witness_dict(w) -> dict:
    """A witness's fields as the dict tree its JSON writes: one entry per
    copy of a labelled run."""
    return {"factors": [factor_entry(f) for f in factor_copies(w.factors)], "steps": w.steps}


def certificate_dict(c) -> dict:
    """A certificate's fields as the dict tree its JSON writes."""
    return {
        "verdict": c.verdict,
        "charge": c.charge,
        "rank_bound": c.rank_bound,
        "route": c.route,
        "bundle": {lab: dict(pairs) for lab, pairs in c.bundle.entries},
        "witness": None if c.witness is None else witness_dict(c.witness),
    }


def report_dict(r) -> dict:
    """A `compute_cG` report's fields as the dict tree its JSON writes."""
    return {
        "lower": r.lower,
        "certified_charge": r.certified_charge,
        "exact": r.exact,
        "certificate": None if r.certificate is None else certificate_dict(r.certificate),
    }


def report_json(r) -> str:
    """A `compute_cG` report's JSON: its dict tree through
    ``json.dumps(..., sort_keys=True)``."""
    return json.dumps(report_dict(r), sort_keys=True)
