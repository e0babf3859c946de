"""One sha256 over the package's outputs on the benchmark corpora.

For each workload (c2-search: the first 3,000 data, iwahori-sweep: 1,500,
big-witness: 600) and each of the benchmark seeds 1, 2 and 3, this feeds
every datum through `compute_cG` and hashes the report's JSON, then, when
the report has a certificate, the JSON of `certify_descent` on the datum
and the certificate's bundle.  Last it hashes what `parapic dynkin info`
prints, without and with `--json`, for every type of `all_affine_types`.
It prints the hex digest and the number of certified reports, so two
checkouts that write the same bytes print the same line.

    python scripts/report_digest.py [--limit N]

``--limit N`` caps the data of each workload and seed.  The corpora
come from ``perfbench/corpus.py``, which this script only imports.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import sys
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402
from parapic import certify_descent, compute_cG, datum_from_json  # noqa: E402
from parapic.cli import main  # noqa: E402
from parapic.dynkin import all_affine_types  # noqa: E402

#: workload -> data per seed, in hashing order
WORKLOADS = (("c2-search", 3000), ("iwahori-sweep", 1500), ("big-witness", 600))
SEEDS = (1, 2, 3)


def digest(limit: int | None = None) -> tuple[str, int]:
    h, certified = hashlib.sha256(), 0
    for workload, size in WORKLOADS:
        for seed in SEEDS:
            n = size if limit is None else min(size, limit)
            for obj in islice(corpus.stream(workload, seed), n):
                d = datum_from_json(obj)
                report = compute_cG(d)
                h.update(report.to_json().encode())
                cert = report.certificate
                if cert is not None:
                    certified += 1
                    h.update(certify_descent(d, cert.bundle).to_json().encode())
    for t in all_affine_types():
        for extra in ([], ["--json"]):
            out = io.StringIO()
            with redirect_stdout(out):
                main(["dynkin", "info", str(t), *extra])
            h.update(out.getvalue().encode())
    return h.hexdigest(), certified


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--limit", type=int, default=None,
                   help="at most N data per workload and seed")
    args = p.parse_args()
    sha, certified = digest(args.limit)
    print(sha, certified)
