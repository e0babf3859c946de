"""The quick example scripts under ``scripts/`` still run.

They use the package's public names only, so a trim of that API that
breaks one of them fails here.  The two slower scripts (``c2_staging``,
``witness_sizes``) time the engine and are left out.
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


@pytest.mark.parametrize("script", ["charge_walkthrough", "iwahori_sweep", "rank_table"])
def test_script_runs(script):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(SCRIPTS / f"{script}.py")],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout
