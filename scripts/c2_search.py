"""Where the C2 pairing search spends its work, by matching tests.

Runs `compute_cG` over a seeded corpus of C2 data shaped
like the benchmark's c2-search workload (`datagen.c2_search_datum`: 2 to
10 branch points, 0 to 3 split points, genus 0 or 1, small facets) and
buckets the data by how many perfect-matching tests the staging and the
search make.  Each row gives the data in the bucket, the divisors of L
the search tested, the matching tests (existence tests, repairs of a
kept matching and canonical pairings alike), the augmenting-path
(blossom) searches they ran, the Descends certificates the search
returned, the total `compute_cG` time, the data the staging rejected
(no pinching: nothing built or certified), the first candidates
certified and the pinch tables built (one per side; the staging builds
the branch side's only when the split side passes).  Times come from a
second pass with nothing wrapped; the counts, which repeat exactly,
from a first pass that wraps the three matching tests, the blossom
search, the search's per-charge table filter (whose charges are the
divisors tested), the pinch-table builder, the staging, the search and
`certify_descent` (which only first candidates go through).

    python scripts/c2_search.py [--data N] [--seed S]
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import datagen  # noqa: E402
from parapic import descent, pairing  # noqa: E402

BUCKETS = ((0, 0), (1, 2), (3, 10), (11, 40), (41, 10**9))


def bucket_of(tests: int) -> tuple[int, int]:
    return next(b for b in BUCKETS if b[0] <= tests <= b[1])


#: the matching tests `descent` calls, by the names it imports them as; a
#: pin is a test only when it searches (its matched edge did not stand)
TESTS = ("perfect_matching", "pin", "first_perfect_matching")


def counted_pass(data) -> list[Counter]:
    """Per datum: divisors tested, matching tests, blossom searches,
    Descends certificates of the search, whether the staging rejected it,
    first candidates certified and pinch tables built."""
    at_charge, certify, stage = descent._at_charge, descent.certify_descent, descent._c2_stage
    search, options = descent._c2_search, descent._pinch_options
    tests, augment = {name: getattr(descent, name) for name in TESTS}, pairing._augment
    counts: Counter = Counter()
    charges: set[int] = set()

    def cut(table, charge):
        charges.add(charge)
        return at_charge(table, charge)

    def tested(name, fn):
        def call(*args, **kwargs):
            before = counts["augments"]
            out = fn(*args, **kwargs)
            counts["tests"] += name != "pin" or counts["augments"] > before
            return out
        return call

    def tabled(shapes):
        counts["tables"] += 1
        return options(shapes)

    def augmented(*args):
        counts["augments"] += 1
        return augment(*args)

    def certified(d, b):
        counts["first"] += 1
        return certify(d, b)

    def searched(*args):
        cert = search(*args)
        counts["certified"] += cert is not None and cert.verdict == descent.DESCENDS
        return cert

    def staged(d):
        out = stage(d)
        counts["rejected"] += out is None
        return out

    out = []
    for name, fn in tests.items():
        setattr(descent, name, tested(name, fn))
    pairing._augment, descent._at_charge = augmented, cut
    descent.certify_descent, descent._c2_stage = certified, staged
    descent._c2_search, descent._pinch_options = searched, tabled
    try:
        for d in data:
            counts.clear()
            charges.clear()
            descent.compute_cG(d)
            out.append(Counter(tests=counts["tests"], augments=counts["augments"],
                               divisors=len(charges), certified=counts["certified"],
                               rejected=counts["rejected"], first=counts["first"],
                               tables=counts["tables"]))
    finally:
        for name, fn in tests.items():
            setattr(descent, name, fn)
        pairing._augment, descent._at_charge = augment, at_charge
        descent.certify_descent, descent._c2_stage = certify, stage
        descent._c2_search, descent._pinch_options = search, options
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--data", type=int, default=3000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    r = random.Random(f"c2-search:{args.seed}")
    data = [datagen.c2_search_datum(r) for _ in range(args.data)]
    counts = counted_pass(data)
    rows = {b: Counter() for b in BUCKETS}
    for d, c in zip(data, counts):
        t0 = time.perf_counter()
        descent.compute_cG(d)
        row = rows[bucket_of(c["tests"])]
        row.update(c)
        row["data"] += 1
        row["ms"] += (time.perf_counter() - t0) * 1e3
    print(f"{args.data} seeded c2-search-shaped data (seed {args.seed})")
    print(f"{'tests':>9} {'data':>6} {'divisors':>8} {'tests':>8} {'augments':>8} "
          f"{'certified':>9} {'time ms':>8} {'ms/datum':>9} {'rejected':>8} {'first':>6} "
          f"{'tables':>6}")
    for (lo, hi), row in rows.items():
        span = f"{lo}" if lo == hi else f"{lo}+" if hi == BUCKETS[-1][1] else f"{lo}-{hi}"
        per = row["ms"] / row["data"] if row["data"] else 0.0
        print(f"{span:>9} {row['data']:>6} {row['divisors']:>8} {row['tests']:>8} "
              f"{row['augments']:>8} {row['certified']:>9} {row['ms']:>8.0f} {per:>9.3f} "
              f"{row['rejected']:>8} {row['first']:>6} {row['tables']:>6}")
    total = sum(rows.values(), Counter())
    print(f"{'all':>9} {total['data']:>6} {total['divisors']:>8} {total['tests']:>8} "
          f"{total['augments']:>8} {total['certified']:>9} {total['ms']:>8.0f} {'':>9} "
          f"{total['rejected']:>8} {total['first']:>6} {total['tables']:>6}")


if __name__ == "__main__":
    main()
