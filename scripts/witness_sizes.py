"""Witness size and time, side by side, for S3 vectors and high-genus data.

For seeded identity-product S3 vectors of n = 100, 400 and 1600 points,
and for the worst case of the rewrite at the same sizes (3-cycles first,
then pairs of equal transpositions, so every braid move passes the whole
run of 3-cycles), this runs `parapic reduce s3 --json`; for genus-0 S3
data of n = 100, 400 and 1600 Iwahori points (the seeded vectors, as
`D4`, `D4~2` and `D4~3` points), for Trivial, C3 and S3 data at base
genus 10^3 and 10^5, and for a C2 datum (two `D4~2` branch points and
one `D4` split point, all Iwahori) at genus 10^3, 10^4 and 10^5, it
runs `parapic cg --json`.  The C2 witness holds its 2g
handle shadows as one labelled run, but schema 2 still writes one
`TwistedPair` per shadow pair, so the C2 rows' output grows with the
genus.  On the S3 rows `held` counts runs: `s3_reduce` keeps each
maximal run of consecutive equal factors (same kind, elements and
weights) as one labelled run, which the JSON lists copy by copy, so
`held` is at most `factors` there.  Each row gives the trail steps, the factors the JSON lists, the
factors the witness holds in memory (`held`), the bytes of the JSON line,
on `cg` rows the median time of five `datum_from_json(json.loads(text))`
calls on the datum file's text (`parse ms`), the median time of five
in-process writes of that payload from the record in memory (`emit ms`),
and the median wall time of five in-process runs of the verb (`ms`:
parsing, the rewrite or certificate search, and emission; no
interpreter start-up).

    python scripts/witness_sizes.py
"""
from __future__ import annotations

import io
import json
import os
import random
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout

from parapic import compute_cG, datum_from_json, load_datum, parse_tuple, s3_reduce
from parapic.covers import ELEMENTS, element_name, inverse, perm_order, product
from parapic.cli import SCHEMA, _reduce_s3_json, main

RUNS = 5


def median_time(fn) -> float:
    """The median wall time of ``RUNS`` calls of ``fn``."""
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_verb(argv) -> tuple[str, float]:
    """The stdout line of one `parapic` verb and its median wall time."""
    buf = io.StringIO()

    def run():
        buf.seek(0)
        buf.truncate()
        with redirect_stdout(buf):
            if (code := main(argv)) != 0:
                sys.exit(f"parapic {' '.join(argv[:2])} exited {code}")

    seconds = median_time(run)
    return buf.getvalue(), seconds


def s3_vector(n: int) -> str:
    r = random.Random(f"witness-sizes:{n}")
    values = [r.choice(ELEMENTS) for _ in range(n - 1)]
    values.append(inverse(product(values)))
    return ",".join(element_name(p) for p in values)


def s3_cycles_first(n: int) -> str:
    """About n/2 equal 3-cycles (a multiple of 3), then pairs of equal
    transpositions up to n entries (n even)."""
    r = random.Random(f"witness-sizes:cycles-first:{n}")
    cycles = n // 2 - (n // 2) % 3
    values = [ELEMENTS[4]] * cycles
    while len(values) < n:
        values += [r.choice(ELEMENTS[1:4])] * 2
    return ",".join(element_name(p) for p in values)


def s3_datum(n: int) -> dict:
    """The genus-0 S3 datum of the seeded vector of n points, each an
    Iwahori point of the `D4` type its monodromy's order twists."""
    types = {1: ("D4", [0, 1, 2, 3, 4]), 2: ("D4~2", [0, 1, 2, 3]), 3: ("D4~3", [0, 1, 2])}
    points = []
    for i, p in enumerate(parse_tuple(s3_vector(n))):
        t, facet = types[perm_order(p)]
        points.append({"label": f"p{i + 1}", "type": t, "facet": facet,
                       "monodromy": element_name(p), "bad": perm_order(p) > 1})
    return {"schema": 1, "genus": 0, "group": "S3", "points": points}


def datum(group: str, genus: int) -> dict:
    points = {
        "Trivial": [("D4", [0, 1, 2, 3, 4], "e")],
        "C3": [("D4~3", [0, 1, 2], "(123)")] * 3,
        "S3": [("D4~2", [0, 1, 2, 3], "(23)")] * 2,
        "C2": [("D4~2", [0, 1, 2, 3], "(12)")] * 2 + [("D4", [0, 1, 2, 3, 4], "e")],
    }[group]
    return {"schema": 1, "genus": genus, "group": group, "points": [
        {"label": f"p{i + 1}", "type": t, "facet": f, "monodromy": m}
        for i, (t, f, m) in enumerate(points)
    ]}


def row(name: str, out: str, witness: dict, held: int, parse: float | None, emit: float,
        seconds: float) -> None:
    parsed = "-" if parse is None else f"{parse * 1000:.3f}"
    print(f"{name:<27} {len(witness['steps']):>6} {len(witness['factors']):>8}"
          f" {held:>6} {len(out.encode()):>9} {parsed:>9} {emit * 1000:>9.3f}"
          f" {seconds * 1000:>9.2f}")


def report() -> None:
    print(f"{'input':<27} {'steps':>6} {'factors':>8} {'held':>6} {'bytes':>9}"
          f" {'parse ms':>9} {'emit ms':>9} {'ms':>9}")
    for name, vector in (("S3 vector", s3_vector), ("S3 3-cycles first", s3_cycles_first)):
        for n in (100, 400, 1600):
            tup = vector(n)
            out, t = run_verb(["reduce", "s3", tup, "--json"])
            w = s3_reduce(parse_tuple(tup))
            emit = median_time(lambda: _reduce_s3_json(w, SCHEMA))
            row(f"{name} n={n}", out, json.loads(out), len(w.factors), None, emit, t)
    data = [(f"S3 datum n={n}", s3_datum(n)) for n in (100, 400, 1600)]
    data += [(f"{group} genus 10^{exp}", datum(group, 10**exp))
             for group, exps in (("Trivial", (3, 5)), ("C3", (3, 5)), ("S3", (3, 5)),
                                 ("C2", (3, 4, 5)))
             for exp in exps]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "datum.json")
        for name, obj in data:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            out, t = run_verb(["cg", "--datum", path, "--json"])
            witness = json.loads(out)["certificate"]["witness"]
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            parse = median_time(lambda: datum_from_json(json.loads(text)))
            rep = compute_cG(load_datum(path))
            emit = median_time(lambda: rep.to_json(SCHEMA))
            row(name, out, witness, len(rep.certificate.witness.factors), parse, emit, t)


if __name__ == "__main__":
    report()
