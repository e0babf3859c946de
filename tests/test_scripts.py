"""The example scripts under ``scripts/`` still run.

Most use the package's public names only, so a trim of that API that
breaks one of them fails here.  ``c2_search`` rebinds the C2 staging and search,
its matching tests, its pinch-table builder and its per-charge table
filter in ``parapic.descent`` and the blossom search in
``parapic.pairing`` by name and call signature, so it runs here on a
small corpus, and
``startup`` launches two processes of each kind.
``report_digest`` runs on three data per corpus, and ``ab_trees`` times
this checkout against itself on a few data.  ``witness_sizes`` times
high genera and is left out.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import parapic

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = Path(parapic.__file__).resolve().parents[1]


def run_script(script, *args) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(SCRIPTS / f"{script}.py"), *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    return done.stdout


@pytest.mark.parametrize("script", ["charge_walkthrough", "iwahori_sweep", "rank_table"])
def test_script_runs(script):
    run_script(script)


def test_c2_search_counts_a_small_corpus():
    out = run_script("c2_search", "--data", "40")
    # the last row totals data, divisors tested, matching tests, blossom
    # searches and the search's Descends certificates; each certificate
    # comes from one tested divisor, and the first ones need two
    # existence tests
    last = out.splitlines()[-1].split()
    data, divisors, tests, augments, certified = map(int, last[1:6])
    assert data == 40
    assert tests >= 2 * certified and divisors >= certified > 0 and augments > 0
    # every count but the time repeats exactly
    again = run_script("c2_search", "--data", "40").splitlines()[-1].split()
    assert again[:6] + again[7:] == last[:6] + last[7:]


def test_startup_times_fresh_processes_and_lists_module_self_times():
    out = run_script("startup", "--runs", "2")
    assert "median of 2 fresh processes" in out
    seconds = float(out.splitlines()[1].split()[1])
    assert 0 < seconds < 10
    assert "parapic.picard" in out and "import parapic.cli" in out


def test_report_digest_repeats_its_line():
    out = run_script("report_digest", "--limit", "3")
    cg, descend, certified = out.split()
    assert len(cg) == len(descend) == 64 and cg != descend and int(certified) >= 0
    assert run_script("report_digest", "--limit", "3") == out


def test_ab_trees_times_a_checkout_against_itself():
    root = str(SCRIPTS.parent)
    out = run_script("ab_trees", root, root, "--data", "6", "--rounds", "2", "--chunk", "3")
    head, ratios, rounds = out.splitlines()
    assert head == ("big-witness seed 1: 6 data, 2 rounds, chunks of 3; "
                    "every report byte-identical")
    # "base / change time per round: median M  Q1 A  Q3 B"
    _, med, _, q1, _, q3 = ratios.split(":")[1].split()
    assert 0 < float(q1) <= float(med) <= float(q3)
    assert rounds.startswith("median round: base ")
