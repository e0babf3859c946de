"""Two checkouts of parapic timed against each other in one process.

Copies the ``src/parapic`` package of each checkout into a temporary
directory under its own name (``parapic_a`` for BASE, ``parapic_b`` for
CHANGE), imports both, and feeds the same data to each: every datum of
a seeded ``perfbench/corpus.py`` stream goes through
``datum_from_json -> compute_cG -> CGReport.to_json``, as in the
benchmark.  A first pass warms both trees' memos and checks that they
write byte-identical reports; the script exits 1 at the first datum
where they differ.  Each timed round then runs both trees over the
data chunk by chunk, alternating which tree goes first in each chunk,
so a stretch in which the machine runs slower or faster falls on both.
Prints the median and quartiles of the paired ratios (BASE time over
CHANGE time per round: above 1 means CHANGE is faster) and each tree's
median round time.

    python scripts/ab_trees.py BASE CHANGE [--workload big-witness] [--seed 1]
                               [--data 300] [--rounds 40] [--chunk 10]

BASE and CHANGE are checkout roots (each holding ``src/parapic``), for
instance a ``git archive`` of the parent commit and the working tree.
The corpus comes from this checkout's ``perfbench/corpus.py``, which
the script only imports.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
from itertools import islice
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402


def load_tree(checkout: str, name: str, into: Path):
    """The ``datum_from_json`` -> report-text function of the package in
    ``checkout``, imported from a copy named ``name`` under ``into``."""
    src = Path(checkout) / "src" / "parapic"
    if not (src / "__init__.py").is_file():
        sys.exit(f"{checkout}: no src/parapic package")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    pkg = importlib.import_module(name)
    parse, compute = pkg.datum_from_json, pkg.compute_cG
    return lambda obj: compute(parse(obj)).to_json()


def timed(run, chunk) -> float:
    t0 = perf_counter()
    for obj in chunk:
        run(obj)
    return perf_counter() - t0


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="checkout root of the base tree")
    ap.add_argument("change", help="checkout root of the changed tree")
    ap.add_argument("--workload", choices=sorted(corpus.WORKLOADS), default="big-witness")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--data", type=int, default=300, help="data per round (default 300)")
    ap.add_argument("--rounds", type=int, default=40, help="timed rounds (default 40)")
    ap.add_argument("--chunk", type=int, default=10, help="data per alternation (default 10)")
    args = ap.parse_args(argv)
    for flag in ("data", "rounds", "chunk"):
        if getattr(args, flag) < 1:
            ap.error(f"--{flag} must be positive")
    data = list(islice(corpus.stream(args.workload, args.seed), args.data))
    chunks = [data[i : i + args.chunk] for i in range(0, len(data), args.chunk)]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = [load_tree(args.base, "parapic_a", Path(tmp)),
                 load_tree(args.change, "parapic_b", Path(tmp))]
        for i, obj in enumerate(data):
            a, b = (run(obj) for run in trees)
            if a != b:
                print(f"datum {i}: the reports differ\n  base   {a[:200]}\n  change {b[:200]}")
                return 1
        ratios, rounds = [], ([], [])
        for r in range(args.rounds):
            gc.collect()
            spent = [0.0, 0.0]
            for k, chunk in enumerate(chunks):
                for t in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                    spent[t] += timed(trees[t], chunk)
            ratios.append(spent[0] / spent[1])
            rounds[0].append(spent[0])
            rounds[1].append(spent[1])
    q1, med, q3 = quartiles(ratios)
    print(f"{args.workload} seed {args.seed}: {len(data)} data, {args.rounds} rounds, "
          f"chunks of {args.chunk}; every report byte-identical")
    print(f"base / change time per round: median {med:.3f}  Q1 {q1:.3f}  Q3 {q3:.3f}")
    print(f"median round: base {statistics.median(rounds[0]):.4f} s, "
          f"change {statistics.median(rounds[1]):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
