"""Per-datum checks of a ``cg`` report that do not trust the code under test.

The divisor bound, dominance and charge-lattice membership are
recomputed here from the datum JSON and dual labels derived afresh from
each type's Cartan matrix (the primitive positive left null covector).
The certificate is then replayed through ``certify_descent`` with the
pairings its witness records, and must come back byte for byte.
"""
from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from parapic.descent import certify_descent
from parapic.dynkin import parse_affine_type
from parapic.picard import WeightBundle

_LABELS: dict[str, tuple[int, ...]] = {}


def null_covector(rows) -> tuple[int, ...]:
    """The primitive positive integer x with x A = 0, for an affine
    Cartan matrix A (corank one)."""
    n = len(rows)
    # solve A^T x = 0 by reduction to row echelon form
    m = [[Fraction(rows[r][c]) for r in range(n)] for c in range(n)]
    pivots: list[int] = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ValueError(f"Cartan matrix has corank {len(free)}, expected 1")
    x = [Fraction(0)] * n
    x[free[0]] = Fraction(1)
    for r, c in enumerate(pivots):
        x[c] = -m[r][free[0]]
    denom = lcm(*(v.denominator for v in x))
    ints = [int(v * denom) for v in x]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    if ints[0] < 0:
        ints = [-v for v in ints]
    if any(v <= 0 for v in ints):
        raise ValueError(f"null covector is not positive: {ints}")
    return tuple(ints)


def dual_labels(type_name: str) -> tuple[int, ...]:
    if type_name not in _LABELS:
        _LABELS[type_name] = null_covector(parse_affine_type(type_name).cartan)
    return _LABELS[type_name]


def c_delta(datum: dict) -> int:
    """lcm over bad points of the gcd of dual labels over the facet."""
    out = 1
    for p in datum["points"]:
        if p["bad"]:
            labels = dual_labels(p["type"])
            out = lcm(out, gcd(*(labels[v] for v in p["facet"])))
    return out


def _order(name: str) -> int:
    if name == "e":
        return 1
    return 3 if len(name) == 5 else 2


def _pairings(cert: dict) -> dict:
    """The pairings a C2 pair-partition witness was built from."""
    factors = cert["witness"]["factors"]
    if any(f["kind"] != "TwistedPair" for f in factors):
        return {}
    branch, split = [], []
    for f in factors:
        pair = tuple(f["labels"])
        (branch if _order(f["elements"][0]) == 2 else split).append(pair)
    return {"branch_pairing": branch, "split_pairing": split}


def _check_bundle(datum: dict, cert: dict, errors: list) -> None:
    """Dominant, supported on the facets, one common charge."""
    weights = cert["bundle"]
    points = {p["label"]: p for p in datum["points"]}
    unknown = sorted(set(weights) - set(points))
    if unknown:
        errors.append(f"bundle names unknown points {unknown}")
    for label, p in points.items():
        labels = dual_labels(p["type"])
        charge = 0
        for v, n in weights.get(label, {}).items():
            v = int(v)
            if type(n) is not int or n < 0:
                errors.append(f"{label}: coefficient {n!r} is not dominant")
            if v not in p["facet"]:
                errors.append(f"{label}: vertex {v} outside facet {p['facet']}")
                continue
            charge += n * labels[v]
        if charge != cert["charge"]:
            errors.append(f"{label}: charge {charge} != certificate {cert['charge']}")


def _check_witness(datum: dict, cert: dict, errors: list) -> None:
    """Each real point is consumed exactly once; for S3 the conjugacy
    class multiset of the nontrivial monodromies is conserved."""
    factors = cert["witness"]["factors"]
    real = Counter(p["label"] for p in datum["points"])
    used = Counter(lab for f in factors for lab in f["labels"] if lab in real)
    if used != real:
        errors.append("witness does not consume every point exactly once")
    if datum["group"] != "S3":
        return
    mono = {p["label"]: p["monodromy"] for p in datum["points"]}
    got, want = Counter(), Counter()
    for f in factors:
        for lab, el in zip(f["labels"], f.get("original") or f["elements"]):
            if lab in mono and _order(el) != _order(mono[lab]):
                errors.append(f"{lab}: class of {el} differs from {mono[lab]}")
            if el != "e":
                got[_order(el)] += 1
    for name in mono.values():
        if name != "e":
            want[_order(name)] += 1
    if datum["genus"] >= 1 and (want[2], want[3]) == (0, 1):
        # a lone 3-cycle is completed by two copies absorbed into a handle
        want[3] += 2
    if got != want:
        errors.append(f"S3 class multiset {dict(got)} != datum {dict(want)}")


def check_report(datum: dict, d, out: str, require_exact_one: bool) -> list[str]:
    """Failures of one ``cg --json`` payload; empty when it is right."""
    errors: list[str] = []
    rep = json.loads(out)
    lower = c_delta(datum)
    if rep["lower"] != lower:
        errors.append(f"lower {rep['lower']} != c_delta {lower}")
    certified, cert = rep["certified_charge"], rep["certificate"]
    if require_exact_one and rep["exact"] != 1:
        errors.append(f"exact {rep['exact']} on an Iwahori datum")
    if certified is None:
        if cert is not None or rep["exact"] is not None:
            errors.append("no certified charge but a certificate or exact value")
        return errors
    if certified % lower:
        errors.append(f"lower {lower} does not divide certified {certified}")
    if rep["exact"] not in (None, lower) or (rep["exact"] is None) == (certified == lower):
        errors.append(f"exact {rep['exact']} inconsistent with {lower} | {certified}")
    if cert["verdict"] != "Descends" or cert["charge"] != certified:
        errors.append("certificate is not a Descends verdict at the certified charge")
    _check_bundle(datum, cert, errors)
    _check_witness(datum, cert, errors)
    if errors:
        return errors
    bundle = WeightBundle.from_dict(
        {lab: {int(v): n for v, n in m.items()} for lab, m in cert["bundle"].items()}
    )
    replay = certify_descent(d, bundle, **_pairings(cert)).to_json()
    if f'"certificate": {replay}' not in out:
        errors.append("certificate does not replay byte for byte")
    return errors
