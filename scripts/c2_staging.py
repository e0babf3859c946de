"""Where the C2 pairing search spends its work, by candidate count.

Runs `compute_cG` (budget 64) over a seeded corpus of C2 data shaped
like the benchmark's c2-search workload (`datagen.c2_search_datum`: 2 to
10 branch points, 0 to 3 split points, genus 0 or 1, small facets) and
buckets the data by how many pairing candidates they stage (at most 512,
eight per unit of budget).  Each row gives the data in the bucket, the
candidates staged, the sort keys built (keys are built only for the
charges the search reaches), the candidates tried (certified) and the
total `compute_cG` time.  Times come from a second pass with nothing
wrapped; the counts from a first pass that wraps the staging helpers.

    python scripts/c2_staging.py [--data N] [--seed S]
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
from parapic import descent  # noqa: E402

BUCKETS = ((0, 0), (1, 7), (8, 63), (64, 511), (512, 512))
BUDGET = 64


def bucket_of(staged: int) -> tuple[int, int]:
    return next(b for b in BUCKETS if b[0] <= staged <= b[1])


def counted_pass(data) -> list[Counter]:
    """Per datum: candidates staged, keys built and candidates tried."""
    blocks_of, level_of, certify = (descent._gsd2_blocks, descent._level_candidates,
                                    descent.certify_descent)
    counts: Counter = Counter()

    def blocks(sides, budget):
        out = blocks_of(sides, budget)
        counts["staged"] += sum(count for _bh, _sh, count, _charges in out)
        return out

    def level(sides, blocks, real, charge):
        counts["keys"] += sum(charges.count(charge) for *_b, charges in blocks)
        yield from level_of(sides, blocks, real, charge)

    def tried(d, b, **kwargs):
        counts["tried"] += bool(kwargs)  # pairing candidates name their pairings
        return certify(d, b, **kwargs)

    out = []
    descent._gsd2_blocks, descent._level_candidates = blocks, level
    descent.certify_descent = tried
    try:
        for d in data:
            counts.clear()
            descent.compute_cG(d, budget=BUDGET)
            out.append(Counter(counts))
    finally:
        descent._gsd2_blocks, descent._level_candidates = blocks_of, level_of
        descent.certify_descent = certify
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--data", type=int, default=3000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    r = random.Random(f"c2-staging:{args.seed}")
    data = [datagen.c2_search_datum(r) for _ in range(args.data)]
    counts = counted_pass(data)
    rows = {b: Counter() for b in BUCKETS}
    for d, c in zip(data, counts):
        t0 = time.perf_counter()
        descent.compute_cG(d, budget=BUDGET)
        row = rows[bucket_of(c["staged"])]
        row.update(c)
        row["data"] += 1
        row["ms"] += (time.perf_counter() - t0) * 1e3
    print(f"{args.data} seeded c2-search-shaped data (seed {args.seed}), budget {BUDGET}")
    print(f"{'staged':>9} {'data':>6} {'staged':>8} {'keys':>8} {'tried':>6} "
          f"{'time ms':>8} {'ms/datum':>9}")
    for (lo, hi), row in rows.items():
        span = f"{lo}" if lo == hi else f"{lo}-{hi}"
        per = row["ms"] / row["data"] if row["data"] else 0.0
        print(f"{span:>9} {row['data']:>6} {row['staged']:>8} {row['keys']:>8} "
              f"{row['tried']:>6} {row['ms']:>8.0f} {per:>9.3f}")
    total = sum(rows.values(), Counter())
    print(f"{'all':>9} {total['data']:>6} {total['staged']:>8} {total['keys']:>8} "
          f"{total['tried']:>6} {total['ms']:>8.0f}")


if __name__ == "__main__":
    main()
