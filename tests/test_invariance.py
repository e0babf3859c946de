"""The bracket depends on the moduli problem, not on how a run presents
it.  Here: not on the interpreter's string hash seed, which orders every
set and dict of labels the package might iterate."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import parapic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(parapic.__file__).resolve().parents[1]

#: the sha256 of the reports of the first data of each benchmark
#: workload at seed 1, one line each
DIGEST = """
import hashlib
from itertools import islice

import corpus
from parapic.descent import compute_cG
from parapic.picard import datum_from_json

h = hashlib.sha256()
for workload, count in (("c2-search", 300), ("iwahori-sweep", 300), ("big-witness", 20)):
    for datum in islice(corpus.stream(workload, 1), count):
        h.update(compute_cG(datum_from_json(datum)).to_json().encode() + b"\\n")
print(h.hexdigest())
"""


def test_reports_do_not_depend_on_the_hash_seed():
    path = os.pathsep.join(filter(None, [str(SRC), str(PERFBENCH), os.environ.get("PYTHONPATH")]))
    runs = [subprocess.Popen([sys.executable, "-c", DIGEST], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    digests = []
    for run in runs:
        out, err = run.communicate(timeout=60)
        assert run.returncode == 0, err
        digests.append(out.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
