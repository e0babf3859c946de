"""Start-up of one `parapic cg --json` process, and where its import time goes.

Launches N fresh interpreters (``python -I``), each answering the
README's two-point C2 datum (written to a temporary file) with
``parapic cg --json``, and launches a bare interpreter (``-c pass``)
just before each one.  Each launch is scaled by a nominal bare start-up
of 0.05 s over the bare launch next to it, so a machine that starts
every process slowly for a while does not read as a slower package.
Prints the median normalized and raw times, the median bare launch, and
then the self time of each package module under ``-X importtime``
(median of N more launches that only import the command line), largest
first, and the cumulative time of that import.

    python scripts/startup.py [--runs N]
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import parapic

SRC = str(Path(parapic.__file__).resolve().parents[1])

#: the README's datum and the bracket `cg --json` reports for it
README_DATUM = {
    "schema": 1, "genus": 0, "group": "C2",
    "points": [{"label": f"x{i}", "type": "A2~2", "facet": [1], "monodromy": "(12)",
                "bad": True} for i in (1, 2)],
}
README_ANSWER = {"lower": 2, "certified_charge": 2, "exact": 2}
#: nominal start-up of a bare interpreter (``python3 -I -c pass``)
BARE_START_S = 0.05

CG = ("import sys; sys.path.insert(0, sys.argv[1]); from parapic.cli import main; "
      "sys.exit(main(['cg', '--datum', sys.argv[2], '--json']))")
IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import parapic.cli"


def launch(code: str, *args: str, flags=()) -> tuple[float, subprocess.CompletedProcess]:
    cmd = [sys.executable, "-I", *flags, "-c", code, *args]
    t0 = perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    return perf_counter() - t0, done


def timed_launches(runs: int, datum: str) -> tuple[list[float], list[float], list[float]]:
    """(normalized, raw, bare) seconds of ``runs`` `cg --json` launches."""
    norm, raw, bare = [], [], []
    for _ in range(runs):
        b, _ = launch("pass")
        t, done = launch(CG, SRC, datum)
        if done.returncode != 0:
            sys.exit(f"cg --json exited {done.returncode}: {done.stderr.strip()[-300:]}")
        got = {k: json.loads(done.stdout).get(k) for k in README_ANSWER}
        if got != README_ANSWER:
            sys.exit(f"cg --json reported {got}, expected {README_ANSWER}")
        norm.append(t * BARE_START_S / b)
        raw.append(t)
        bare.append(b)
    return norm, raw, bare


def import_times(runs: int) -> tuple[dict[str, float], float]:
    """Median self time in seconds of each package module over ``runs``
    imports of the command line, and the median cumulative time of that
    import (the modules it pulls in included)."""
    times: dict[str, list[float]] = {}
    whole = []
    for _ in range(runs):
        _, done = launch(IMPORT, SRC, flags=("-X", "importtime"))
        for line in done.stderr.splitlines():
            # "import time: <self us> | <cumulative us> | <indented name>"
            if line.startswith("import time:") and "|" in line:
                own, cum, name = (f.strip() for f in line[len("import time:"):].split("|"))
                if name.startswith("parapic") and own.isdigit():
                    times.setdefault(name, []).append(int(own) / 1e6)
                    if name == "parapic.cli":
                        whole.append(int(cum) / 1e6)
    if not whole:
        sys.exit(f"-X importtime listed no parapic.cli: {done.stderr.strip()[-300:]}")
    return {name: statistics.median(ts) for name, ts in times.items()}, statistics.median(whole)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=21, help="launches of each kind (default 21)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        datum = Path(tmp) / "datum.json"
        datum.write_text(json.dumps(README_DATUM))
        norm, raw, bare = timed_launches(args.runs, str(datum))
    med = statistics.median
    print(f"parapic cg --json on the README datum, median of {args.runs} fresh processes")
    print(f"  start-up    {med(norm):.4f} s  (normalized: bare interpreter = {BARE_START_S} s)")
    print(f"  raw         {med(raw):.4f} s")
    print(f"  bare        {med(bare):.4f} s")
    selfs, whole = import_times(args.runs)
    print(f"package modules under -X importtime, self time (median of {args.runs})")
    for name, t in sorted(selfs.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {name:24s} {t * 1e3:6.1f} ms")
    print(f"  {'total':24s} {sum(selfs.values()) * 1e3:6.1f} ms")
    print(f"  {'import parapic.cli':24s} {whole * 1e3:6.1f} ms  (cumulative: what it imports too)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
