"""Picard lattices of products of partial affine flag varieties.

A marked point carries an affine type, a facet Y (nonempty vertex
subset), a local monodromy and a bad-point flag.  A weight bundle assigns
integer coefficients n_i, i in Y_x, to each point; its central charge at
a point is sum n_i * l_i over the dual labels l.  The diagonal sublattice
consists of bundles whose charges agree at every point.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from json.encoder import c_make_encoder as _c_encoder
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd, lcm
from typing import Mapping

from . import covers, dynkin
from .errors import (
    DomainError,
    InternalInconsistencyError,
    ParseError,
)
from .values import Value, setfield


_encoder = json.JSONEncoder(sort_keys=True)
_int_text = int.__repr__


if _c_encoder is None:  # no C accelerator: the encoder's pure-Python path
    _encode = _encoder.encode
else:
    def _encode(value) -> str:
        """``json.dumps(value, sort_keys=True)``, the encoder behind
        `_json_value`: the C encoder `JSONEncoder.encode` builds, with
        fresh markers for circular references, built without its Python
        frames (about half a microsecond of the call)."""
        return "".join(_c_encoder({}, _encoder.default, _json_str, None, ": ", ", ",
                                  True, False, True)(value, 0))


def _json_value(value) -> str:
    """``json.dumps(value, sort_keys=True)``.  An exact ``int``, ``None``
    and an exact ``str`` skip the encoder, which costs about a microsecond
    a call: ``int.__repr__`` (which still raises ValueError past the
    digit limit), ``"null"`` and the encoder's own string escaper.  Any
    other value, ``bool`` and ``int`` subclasses included, goes through it."""
    cls = type(value)
    if cls is int:
        return _int_text(value)
    if value is None:
        return "null"
    if cls is str:
        return _json_str(value)
    return _encode(value)


#: the text after a label in a bundle's JSON: ``": "`` and the point's weight
#: as ``json.dumps(dict(pairs), sort_keys=True)`` writes it (vertex keys
#: sorted as ints); bundles repeat few weights
_weight_tail = lru_cache(maxsize=1024)(lambda pairs: ": " + _json_value(dict(pairs)))


def _is_int(x) -> bool:
    """A true integer: ``bool`` is an ``int`` subclass but not a number here."""
    return type(x) is int or (isinstance(x, int) and not isinstance(x, bool))


class PointDatum(Value):
    """A marked point.  Besides its fields it keeps ``_label_gcd``, the
    gcd of the dual labels over its facet, which `c_delta` reads; the
    parse's shape cache copies it to every point it relabels."""

    _fields = ("label", "affine_type", "facet", "monodromy", "is_bad")

    def __init__(self, label: str, affine_type: dynkin.AffineType, facet: frozenset[int],
                 monodromy: covers.Perm = covers.IDENTITY, is_bad: bool = False):
        facet = frozenset(facet)
        setfield(self, "label", label)
        setfield(self, "affine_type", affine_type)
        setfield(self, "facet", facet)
        setfield(self, "monodromy", monodromy)
        setfield(self, "is_bad", is_bad)
        if not facet:
            raise DomainError(f"point {label}: facet must be nonempty")
        verts = affine_type.vertex_set
        if not facet <= verts:
            bad = sorted(facet - verts)
            raise DomainError(
                f"point {label}: facet vertices {bad} not in {affine_type}"
            )
        order = covers.perm_order(monodromy)
        if order != affine_type.twist:
            raise DomainError(
                f"point {label}: monodromy order {order} does not match "
                f"twist {affine_type.twist} of {affine_type}"
            )
        if not is_bad:
            if monodromy != covers.IDENTITY:
                raise DomainError(
                    f"point {label}: a good point must have trivial monodromy"
                )
            if 0 not in facet:
                raise DomainError(
                    f"point {label}: a good point's facet must contain o"
                )
        labels = affine_type.dual_labels
        setfield(self, "_label_gcd", gcd(*(labels[i] for i in facet)))


class GroupDatum(Value):
    _fields = ("base_genus", "gamma", "points")

    def __init__(self, base_genus: int, gamma: covers.FiniteGroup,
                 points: tuple[PointDatum, ...]):
        points = tuple(points)
        setfield(self, "base_genus", base_genus)
        setfield(self, "gamma", gamma)
        setfield(self, "points", points)
        if base_genus < 0:
            raise DomainError("base genus must be nonnegative")
        # a comprehension reads a field about twice as fast as ``map(attrgetter(...))``
        if len(set([p.label for p in points])) != len(points):
            raise DomainError("point labels must be unique")
        monodromies = [p.monodromy for p in points]
        if not gamma.element_set.issuperset(monodromies):  # the points name the first offender
            p = next(p for p in points if p.monodromy not in gamma.element_set)
            raise DomainError(
                f"point {p.label}: monodromy {covers.element_name(p.monodromy)} "
                f"is not in {gamma}"
            )
        if base_genus == 0:
            acc = covers.product(monodromies)
            if acc != covers.IDENTITY:
                raise DomainError(
                    "genus-0 datum: ordered product of monodromies must be e, "
                    f"got {covers.element_name(acc)}"
                )


def _check_integers(label, pairs) -> None:
    """Reject a weight whose (vertex, coefficient) pairs are not integers."""
    for v, n in pairs:
        if not (_is_int(v) and _is_int(n)):
            raise DomainError(
                f"point {label}: vertex {v!r} and coefficient {n!r} must be integers"
            )


class WeightBundle(Value):
    """Per-point coefficient maps; absent vertices mean coefficient 0.

    ``entries`` is the whole value (equality, hashing, order), one per
    label; a label index built once per instance makes ``weight`` a
    lookup.  ``_checked`` is None, or (datum, charge) on a bundle that
    `vacuum_bundle` built already checked for that datum (by identity).
    """

    _fields = ("entries",)
    _checked: tuple | None = None

    def __init__(self, entries: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]):
        index = dict(entries)
        if len(index) != len(entries):
            labels = [lab for lab, _ in entries]
            twice = next(lab for lab in labels if labels.count(lab) > 1)
            raise DomainError(f"bundle gives point {twice!r} more than one weight")
        last = None  # a weight shared with the entry before is checked
        for lab, w in entries:
            if w is not last:  # by identity: ((0, True),) == ((0, 1),)
                _check_integers(lab, w)
                last = w
        setfield(self, "entries", entries)
        setfield(self, "_index", index)

    @staticmethod
    def from_dict(weights: Mapping[str, Mapping[int, int]]) -> "WeightBundle":
        """Build from per-point {vertex: coefficient} maps; vertices and
        coefficients must be integers (not bools), zero entries drop, and
        no two keys may have the same ``str`` (the label)."""
        for lab, m in weights.items():
            _check_integers(lab, m.items())
        entries = tuple(
            sorted(
                (str(lab), tuple(sorted((v, n) for v, n in m.items() if n != 0)))
                for lab, m in weights.items()
            )
        )
        return WeightBundle(entries)

    def weight(self, label: str) -> tuple[tuple[int, int], ...]:
        """The stored (vertex, coefficient) pairs of ``label``: sorted by
        vertex, zeros dropped, () for a label the bundle omits."""
        return self._index.get(label, ())

    def _json(self) -> str:
        """The bundle as its certificate writes it: labels sorted (each
        label has one entry, so the entries sort by label), each with its
        weight object.  A run of entries with equal weights (every entry
        of a vacuum bundle) looks its weight's text up once."""
        parts, last = [], None
        for lab, pairs in sorted(self.entries):
            if pairs != last:
                tail = _weight_tail(last := pairs)
            parts.append(_json_str(lab) + tail)
        return "{" + ", ".join(parts) + "}"

    @property
    def dominant(self) -> bool:
        """Every coefficient is nonnegative."""
        return all(n >= 0 for _, pairs in self.entries for _, n in pairs)


def validate_bundle(d: GroupDatum, b: WeightBundle) -> dict[str, int]:
    """Check that ``b`` names points of ``d`` and vertices of their
    facets only; returns the central charge at each point of ``d`` by
    label (0 at a point ``b`` omits)."""
    known = {p.label: p for p in d.points}
    charges = dict.fromkeys(known, 0)
    for lab, pairs in b.entries:
        if lab not in known:
            raise DomainError(f"bundle names unknown point {lab!r}")
        charges[lab] = central_charge(known[lab], pairs)
    return charges


def central_charge(p: PointDatum, weight) -> int:
    """sum n * l_v over the (vertex v, coefficient n) pairs of
    ``weight``, each v a vertex of p's facet."""
    labels = p.affine_type.dual_labels
    total = 0
    for v, n in weight:
        if v not in p.facet:
            raise DomainError(
                f"point {p.label}: coefficient at vertex {v} outside facet "
                f"{sorted(p.facet)}"
            )
        total += n * labels[v]
    return total


def is_pic_delta(d: GroupDatum, b: WeightBundle):
    """(True, common charge) when all central charges agree, else
    (False, None)."""
    charges = list(validate_bundle(d, b).values())
    if len(set(charges)) <= 1:
        return True, (charges[0] if charges else 0)
    return False, None


def c_delta(d: GroupDatum) -> int:
    """lcm over bad points of the gcd of dual labels over the facet: one
    lcm over the distinct gcds the points keep."""
    return lcm(*{p._label_gcd for p in d.points if p.is_bad})


def pic_delta_rank(d: GroupDatum) -> int:
    if not d.points:
        raise DomainError("datum has no points")
    return sum(len(p.facet) for p in d.points) - (len(d.points) - 1)


def vacuum_bundle(d: GroupDatum, charge: int = 1) -> WeightBundle:
    """The bundle with coefficient ``charge`` at the special vertex of
    every point (defined only when every facet contains o).  The entries
    are those `WeightBundle.from_dict` makes, built directly.

    Every type has dual label 1 at o (`dynkin._verify`), so for a
    positive ``int`` charge the bundle is dominant with central charge
    ``charge`` at every point, which is all `descent.certify_descent`
    checks: it is built with ``_checked`` set to (``d``, ``charge``)."""
    if not _is_int(charge):
        raise DomainError(f"vacuum charge {charge!r} must be an integer")
    for p in d.points:
        if 0 not in p.facet:
            raise DomainError(
                f"point {p.label}: facet does not contain the special vertex"
            )
    weight = ((0, charge),) if charge else ()
    b = WeightBundle(tuple([(lab, weight) for lab in sorted([p.label for p in d.points])]))
    if type(charge) is int and charge > 0 and d.points:  # the charge a full check returns
        setfield(b, "_checked", (d, charge))
    return b


def _suffix_reach(labels: list[int], limit: int) -> list[int]:
    """For each i, the totals 0..limit that nonnegative combinations of
    ``labels[i:]`` reach, as a bitmask (bit t set when t is reached); the
    last entry, for no labels, holds 0 alone."""
    full = (2 << limit) - 1
    out = [1]
    for a in reversed(labels):
        reach, step = out[-1], a
        while step <= limit:
            # after the shifts a, 2a, ..., 2^k a: every multiple below 2^(k+1) a
            reach = (reach | reach << step) & full
            step <<= 1
        out.append(reach)
    out.reverse()
    return out


def cdelta_bundle(d: GroupDatum) -> WeightBundle:
    """A dominant diagonal bundle whose charge is the least multiple of
    c_delta representable as a nonnegative facet-label combination at
    every point (it equals c_delta itself whenever each facet has a
    label dividing it).  Single-vertex supports are preferred, smallest
    qualifying vertex first; otherwise the vertices are taken in
    increasing order, each with the largest coefficient that leaves a
    remainder the later vertices can still reach.

    A point with a label dividing c_delta reaches every multiple of it.
    Each other point reaches every multiple of the gcd g of its labels
    from the square of its largest label on (Schur's bound on the
    Frobenius number), so the first multiple of lcm(c_delta, every g)
    past those squares bounds the charge, and one reach table per such
    point up to that bound decides it.  The entries are those
    `WeightBundle.from_dict` makes, built directly: each weight lists its
    vertices in increasing order, and no coefficient is zero.
    """
    base = c_delta(d)
    points = []
    hard = []
    for p in d.points:
        verts = sorted(p.facet)
        labels = [p.affine_type.dual_labels[v] for v in verts]
        points.append((p, verts, labels))
        if all(base % a for a in labels):
            hard.append(labels)
    charge = base
    if hard:
        step = lcm(base, *(gcd(*labels) for labels in hard))
        top = max(max(labels) ** 2 for labels in hard)
        # no further than the 200th multiple of c_delta
        limit = min(step * -(-top // step), 200 * base)
        common = (2 << limit) - 1
        for labels in hard:
            common &= _suffix_reach(labels, limit)[0]
        charge = next((c for c in range(base, limit + 1, base) if common >> c & 1), 0)
        if not charge:
            raise InternalInconsistencyError("no representable multiple of c_delta found")
    entries = []
    for p, verts, labels in points:
        single = next(((v, a) for v, a in zip(verts, labels) if charge % a == 0), None)
        if single is not None:
            v, a = single
            entries.append((p.label, ((v, charge // a),)))
            continue
        reach = _suffix_reach(labels, charge)
        coeffs, rem = [], charge
        for v, a, rest in zip(verts, labels, reach[1:]):
            n = rem // a
            while not rest >> (rem - n * a) & 1:
                n -= 1
            if n:
                coeffs.append((v, n))
                rem -= n * a
        entries.append((p.label, tuple(coeffs)))
    return WeightBundle(tuple(sorted(entries)))


# ---------------------------------------------------------------------------
# JSON schema (versioned: "schema": 1)

SCHEMA_VERSION = 1
#: the schema of the CLI's ``--json`` payloads
OUTPUT_SCHEMA = 2


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _require_str(obj: dict, key: str, where: str) -> str:
    value = _require(obj, key, where)
    if not isinstance(value, str):
        raise ParseError(f"{where}: {key} must be a string, got {value!r}")
    return value


def _check_schema(obj: dict, where: str) -> None:
    # the integer itself: true and 1.0 compare equal to 1
    schema = _require(obj, "schema", where)
    if not _is_int(schema) or schema != SCHEMA_VERSION:
        raise ParseError(f"{where}: unsupported schema {schema!r}")


#: the field dict of a checked point per shape key, so that a point of a
#: repeated shape is a copy of it under its own label; emptied when it
#: reaches the bound
_point_shapes: dict[tuple, dict] = {}
_MAX_POINT_SHAPES = 1024
_INT_ONLY = frozenset({int})


def _shape_key(raw) -> tuple | None:
    """The fields a point's checks read (all but the label) when each has
    the type of its valid values, so that equal keys mean equal fields
    (``true`` and ``1`` never share one); None when one has not."""
    if type(raw) is not dict:
        return None
    t, facet, mono = raw.get("type"), raw.get("facet"), raw.get("monodromy", "e")
    bad = raw.get("bad")  # None only when absent: a null flag fails the test
    if (type(t) is str and type(mono) is str and type(facet) is list
            and (type(bad) is bool or "bad" not in raw)
            and _INT_ONLY.issuperset(map(type, facet))):
        return t, tuple(facet), mono, bad
    return None


def _checked_point(raw, where: str) -> PointDatum:
    """The point ``raw`` describes, through every check; a failed check is
    a ParseError that names ``where``."""
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object")
    label = _require_str(raw, "label", where)
    name = _require_str(raw, "type", where)
    try:
        at = dynkin.parse_affine_type(name)
    except ParseError as e:
        raise ParseError(f"{where}: {e}") from e
    facet = _require(raw, "facet", where)
    if not isinstance(facet, list) or not all(map(_is_int, facet)):
        raise ParseError(f"{where}: facet must be a list of integers")
    if len(set(facet)) < len(facet):
        raise ParseError(f"{where}: facet {facet} repeats a vertex")
    mono = raw.get("monodromy", "e")
    if not isinstance(mono, str):
        raise ParseError(f"{where}: cannot parse permutation {mono!r}: "
                         "a monodromy is a string")
    try:
        monodromy = covers.parse_element(mono)
    except ParseError as e:
        raise ParseError(f"{where}: {e}") from e
    bad = raw.get("bad", monodromy != covers.IDENTITY)
    if not isinstance(bad, bool):
        raise ParseError(f"{where}: bad must be a boolean")
    try:
        return PointDatum(label=label, affine_type=at, facet=frozenset(facet),
                          monodromy=monodromy, is_bad=bad)
    except DomainError as e:
        raise ParseError(f"{where}: {e}") from e


def datum_from_json(obj) -> GroupDatum:
    """The datum of a JSON object.  Each point is a new `PointDatum`
    holding a copy of a field dict under its own label: the memo's dict
    of its shape when the point has one and a ``str`` label (the checks
    never read the label), else a copy of the fields of the point the
    full check builds (`_checked_point`), which the memo then keeps for
    its shape.  A copied dict reads as fast as a point's own fields; the
    dict ``vars`` makes for a point reads about four times as slowly, so
    no point keeps that one."""
    if not isinstance(obj, dict):
        raise ParseError("datum: expected a JSON object")
    _check_schema(obj, "datum")
    genus = _require(obj, "genus", "datum")
    if not _is_int(genus) or genus < 0:
        raise ParseError("datum: genus must be a nonnegative integer")
    gamma = covers.group_from_name(_require_str(obj, "group", "datum"))
    points = []
    raw_points = _require(obj, "points", "datum")
    if not isinstance(raw_points, list):
        raise ParseError("datum: points must be a list")
    for raw in raw_points:
        key = _shape_key(raw)
        fields = _point_shapes.get(key)
        if fields is None or type(label := raw.get("label")) is not str:
            fields = dict(vars(_checked_point(raw, f"points[{len(points)}]")))
            label = fields["label"]
            if key is not None:
                if len(_point_shapes) >= _MAX_POINT_SHAPES:
                    _point_shapes.clear()
                _point_shapes[key] = fields
        (fields := fields.copy())["label"] = label
        p = object.__new__(PointDatum)
        setfield(p, "__dict__", fields)
        points.append(p)
    try:
        return GroupDatum(base_genus=genus, gamma=gamma, points=tuple(points))
    except DomainError as e:
        raise ParseError(f"datum: {e}") from e


def bundle_to_json(b: WeightBundle) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "weights": {
            lab: {str(v): n for v, n in pairs} for lab, pairs in b.entries
        },
    }


#: the vertex keys ``bundle_to_json`` writes, ``str(n)`` of an int n:
#: ASCII digits, an optional leading minus, no leading zeros
_VERTEX_KEY = re.compile(r"0|-?[1-9][0-9]*")


def bundle_from_json(obj) -> WeightBundle:
    """A bundle file's weights, or the bundle object of the certificate
    in a ``cg --json`` or ``descend --json`` payload (`OUTPUT_SCHEMA`)."""
    if not isinstance(obj, dict):
        raise ParseError("bundle: expected a JSON object")
    if _is_int(schema := obj.get("schema")) and schema == OUTPUT_SCHEMA:
        cert = obj.get("certificate", obj)  # a cg payload holds its certificate
        if not isinstance(cert, dict) or "bundle" not in cert:
            raise ParseError("bundle: the payload holds no certificate bundle")
        raw = cert["bundle"]
    else:
        _check_schema(obj, "bundle")
        raw = _require(obj, "weights", "bundle")
    if not isinstance(raw, dict):
        raise ParseError("bundle: weights must be an object")
    weights: dict[str, dict[int, int]] = {}
    for lab, m in raw.items():
        if not isinstance(m, dict):
            raise ParseError(f"bundle: weights[{lab!r}] must be an object")
        coeffs = {}
        for v, n in m.items():
            if not _is_int(n):
                raise ParseError(
                    f"bundle: weights[{lab!r}][{v!r}] must be an integer, "
                    f"got {n!r}"
                )
            try:
                vertex = int(v) if _VERTEX_KEY.fullmatch(v) else None
            except (TypeError, ValueError):  # not a string, or too many digits
                vertex = None
            if vertex is None:
                raise ParseError(
                    f"bundle: weights[{lab!r}] has vertex key {v!r}, expected "
                    "a decimal integer such as '0' or '12'"
                )
            coeffs[vertex] = n
        weights[str(lab)] = coeffs
    return WeightBundle.from_dict(weights)


def _load_json(path: str):
    """Parse a JSON file; undecodable bytes, nesting too deep for the
    parser and a key given twice in one object (of which ``json`` would
    keep the last value) are malformed input like any other."""

    def unique(pairs):
        if len(obj := dict(pairs)) < len(pairs):
            seen: set[str] = set()
            key = next(k for k, _v in pairs if k in seen or seen.add(k))
            raise ParseError(f"{path}: key {key!r} is given twice in one object")
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique)
        except (ValueError, RecursionError) as e:  # JSONDecodeError, UnicodeDecodeError
            raise ParseError(f"{path}: invalid JSON ({e})") from e


def load_datum(path: str) -> GroupDatum:
    return datum_from_json(_load_json(path))


def load_bundle(path: str) -> WeightBundle:
    return bundle_from_json(_load_json(path))
