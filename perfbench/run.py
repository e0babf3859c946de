"""parapic benchmark: seeded corpora through ``compute_cG``.

Run from the repository root:

    python3 perfbench/run.py --workload c2-search --seed 1 --seconds 20 --trace 0
    python3 perfbench/smoke.py    # short check that every metric is printed

Each datum takes the path a corpus user takes: datum JSON ->
``picard.datum_from_json`` -> ``descent.compute_cG`` ->
``CGReport.to_json``, one at a time in a closed loop (one caller, the
next datum sent when the previous report is out).  Every report is
checked by ``checks.check_report``; the checks run outside the timed
region.

``--trace 0`` runs data until ``--seconds`` of timed work are done (and
at least 100, so p90 has ten samples beyond it) and prints the
end-to-end metrics.  Times are normalized against a reference loop (see
``clock.py``); the raw figures are printed too.  ``setup_s`` is the
median of fresh ``parapic cg --json`` processes launched at even steps
through the run, each normalized by a bare interpreter launched next to
it.  ``attempted`` counts data and those launches.

``--trace 1`` runs a fixed-size corpus twice, first plain and then with
every layer wrapped (see ``spans.py``), and prints the per-layer
metrics; the corpus size does not depend on ``--seconds``, so its counts
repeat exactly for a given seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it list
every metric with its unit and sample count, including those kept out
of the result line (``error_frac``, which is ``failed / attempted``, and
the per-layer times that are 0 by construction on some workload).  A
fuller record (run metadata, failures, per-span self times, the spans
themselves) goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

import clock
import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
README_DATUM = BENCH / "readme_datum.json"

#: the README datum's bracket, as ``parapic cg --json`` must report it
README_ANSWER = {"lower": 2, "certified_charge": 2, "exact": 2}

#: nominal start-up time of a bare interpreter (``python3 -I -c pass``)
BARE_START_S = 0.05
#: p90 needs at least ten samples beyond it
MIN_SAMPLES = 100
SETUP_LAUNCHES = 11
TABLE_BUILDS = 5
PARSER_BUILDS = 21

#: per workload: warm-up data, fixed traced-corpus size, exact == 1 required
WORKLOADS = {
    "iwahori-sweep": {"warmup": 300, "trace_n": 12000, "exact_one": True},
    "c2-search": {"warmup": 30, "trace_n": 250, "exact_one": False},
    "big-witness": {"warmup": 4, "trace_n": 48, "exact_one": False},
}

#: per-layer times that are 0 by construction on some workload (no
#: cdelta candidate on Iwahori data, no S3 datum in c2-search); their
#: call counts go in the result line and the times are printed above it
ZERO_PRONE_TIMES = {
    "picard.cdelta_bundle_s": "picard.cdelta_bundle",
    "covers.class_adjust_s": "covers.class_adjust",
    "factorization.s3_reduce_s": "factorization.s3_reduce",
}


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).exists():
        return (git / name).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "parapic").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up: fresh processes running the README datum
# ---------------------------------------------------------------------------

PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1])\n"
    "from parapic import dynkin\n"
    "from parapic.cli import main\n"
    "dynkin.all_affine_types()\n"
    "sys.exit(main(['cg', '--datum', sys.argv[2], '--json']))\n"
)


def _launch(code: str, *args: str) -> tuple[float, subprocess.CompletedProcess]:
    cmd = [sys.executable, "-I", "-c", code, *args]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    return perf_counter() - t0, proc


def setup_launch() -> tuple[float, float, str | None]:
    """(normalized, raw) wall time of one fresh process that imports the
    package, builds the type tables and runs the README datum, and the
    failure if its answer is wrong.

    Process start-up slows more than the reference loop of ``clock`` on
    a contended machine, so the launch is normalized by a bare
    interpreter launched just before it: the raw time is scaled by
    ``BARE_START_S`` over the bare launch's time.
    """
    bare, _ = _launch("pass")
    elapsed, proc = _launch(PROBE, str(SRC), str(README_DATUM))
    norm = elapsed * BARE_START_S / bare
    if proc.returncode != 0:
        return norm, elapsed, f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return norm, elapsed, "setup probe printed no JSON"
    got = {k: report.get(k) for k in README_ANSWER}
    if got != README_ANSWER:
        return norm, elapsed, f"setup probe reported {got}"
    return norm, elapsed, None


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Pass:
    """Outcome of one pass over a corpus."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # normalized, see clock.py
        self.raw: list[float] = []
        self.exact = 0
        self.certified = 0
        self.out_bytes = 0
        self.digest = hashlib.sha256()  # of every report, in order
        self.failures: list[str] = []
        self.failed = 0


def run_pass(corpus, *, budget_s=None, min_n=0, check=None, recorder=None,
             between=None) -> Pass:
    """Feed datum JSON texts through the library path one at a time.

    Stops once ``budget_s`` seconds of timed work and ``min_n`` data are
    done, or when the corpus runs out.  ``check(obj, d, out)`` returns a
    list of failures; with a ``recorder`` each stage gets a span.
    ``between(seconds)`` is called after each datum with the timed work
    so far, outside the timed region.
    """
    from parapic import descent, picard

    res = Pass()
    times = clock.Normalizer()
    total = 0.0
    for i, (obj, text) in enumerate(corpus):
        if budget_s is not None and total >= budget_s and i >= min_n:
            break
        t0 = perf_counter()
        try:
            if recorder is None:
                d = picard.datum_from_json(json.loads(text))
                rep = descent.compute_cG(d)
                out = rep.to_json()
            else:
                with recorder.span("datum"):
                    with recorder.span("picard.parse"):
                        d = picard.datum_from_json(json.loads(text))
                    with recorder.span("descent.compute_cG"):
                        rep = descent.compute_cG(d)
                    with recorder.span("cli.emit"):
                        out = rep.to_json()
        except Exception as e:  # an unexpected exception is a failed datum
            res.failed += 1
            times.add(perf_counter() - t0)
            res.failures.append(f"datum {i}: {type(e).__name__}: {e}")
            continue
        elapsed = perf_counter() - t0
        times.add(elapsed)
        total += elapsed
        res.exact += rep.exact is not None
        res.certified += rep.certified_charge is not None
        del rep
        payload = out.encode()
        res.out_bytes += len(payload)
        res.digest.update(payload + b"\n")
        if check is None:
            continue
        try:
            errors = check(obj, d, out)
        except Exception as e:
            errors = [f"check raised {type(e).__name__}: {e}"]
        if errors:
            res.failed += 1
            res.failures.append(f"datum {i}: " + "; ".join(errors[:3]))
        if between is not None:
            between(total)
    res.latencies = times.normalized()
    res.raw = times.raw
    return res


def corpus_of(workload: str, seed: int, salt: str = ""):
    for obj in corpus.stream(workload, seed, salt):
        yield obj, json.dumps(obj)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(workload, seed, seconds, check, *, min_samples, setup_launches):
    setup_launch()  # writes bytecode caches; not timed
    launches = []
    # spread over the run, so one slow stretch of the machine does not
    # set the median
    marks = [seconds * (i + 0.5) / setup_launches for i in range(setup_launches)]

    def launch_due(total):
        while marks and total >= marks[0]:
            marks.pop(0)
            launches.append(setup_launch())

    run_pass(islice(corpus_of(workload, seed, "warmup"), WORKLOADS[workload]["warmup"]),
             check=check)
    res = run_pass(corpus_of(workload, seed), budget_s=seconds, min_n=min_samples,
                   check=check, between=launch_due)
    launch_due(float("inf"))
    setup = [norm for norm, _raw, _err in launches]
    setup_errors = [err for _norm, _raw, err in launches if err]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = sorted(res.latencies)
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "throughput_per_s": (n / sum(lat), "1/s", n),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3, "ms", n),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms", n),
        "exact_frac": (res.exact / n, "ratio", n),
        "certified_frac": (res.certified / n, "ratio", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    attempted = n + len(setup)
    failed = res.failed + len(setup_errors)
    raw = sorted(res.raw)
    shown = dict(
        metrics,
        error_frac=(failed / attempted, "ratio", attempted),
        raw_setup_s=(statistics.median(raw for _n, raw, _e in launches), "s", len(setup)),
        raw_throughput_per_s=(n / sum(raw), "1/s", n),
        raw_latency_p50_ms=(percentile(raw, 0.5) * 1e3, "ms", n),
        raw_latency_p90_ms=(percentile(raw, 0.9) * 1e3, "ms", n),
    )
    extra = {"corpus_size": n, "failures": setup_errors + res.failures}
    return metrics, shown, attempted, failed, extra


def median_time(fn, reps: int) -> float:
    return statistics.median(clock.normalized_time(fn)[0] for _ in range(reps))


def cold_table_build() -> float:
    from parapic import dynkin

    def build():
        dynkin.twisted_type.cache_clear()
        dynkin.all_affine_types()

    return median_time(build, TABLE_BUILDS)


def traced(workload, seed, check, *, trace_n):
    import spans
    from parapic import cli

    table_s = cold_table_build()
    parser_s = median_time(cli.build_parser, PARSER_BUILDS)
    data = list(islice(corpus_of(workload, seed), trace_n))
    run_pass(islice(corpus_of(workload, seed, "warmup"), WORKLOADS[workload]["warmup"]),
             check=check)
    plain = run_pass(data, check=check)
    rec = spans.Recorder()
    with rec.installed():
        traced_pass = run_pass(data, recorder=rec)
    failures = plain.failures + traced_pass.failures
    failed = plain.failed + traced_pass.failed
    if traced_pass.digest.digest() != plain.digest.digest():
        failures.append("traced reports differ from untraced reports")
        failed += 1

    c = rec.counts
    self_t = rec.self_times()
    wall = rec.root_wall()
    self_sum = sum(self_t.values())
    if abs(self_sum - wall) > 1e-6 * wall + 1e-9:
        failures.append(f"span self times sum to {self_sum}, wall is {wall}")
        failed += 1
    # span times in the same normalized seconds as the end-to-end metrics
    scale = sum(traced_pass.latencies) / sum(traced_pass.raw)
    total = {k: v * scale for k, v in rec.totals().items()}
    self_t = {k: v * scale for k, v in self_t.items()}
    certify = c["descent.certify_descent.calls"]
    rank_calls = c["verlinde.rank_lower_bound.calls"]
    n = len(data)
    metrics = {
        "dynkin.table_build_s": (table_s, "s", TABLE_BUILDS),
        "cli.build_parser_s": (parser_s, "s", PARSER_BUILDS),
        "cli.emit_s": (total.get("cli.emit", 0.0), "s", n),
        "cli.out_bytes": (traced_pass.out_bytes, "bytes", n),
        "picard.parse_s": (total.get("picard.parse", 0.0), "s", n),
        "picard.is_pic_delta_calls": (c["picard.is_pic_delta.calls"], "count", n),
        "picard.cdelta_bundle_calls": (c["picard.cdelta_bundle.calls"], "count", n),
        "picard.bundle_to_json_calls": (c["picard.bundle_to_json.calls"], "count", n),
        "covers.compose_calls": (c["covers.compose"], "count", n),
        "covers.class_adjust_calls": (c["covers.class_adjust.calls"], "count", n),
        "factorization.s3_reduce_calls": (c["factorization.s3_reduce.calls"], "count", n),
        "factorization.trail_steps": (c["factorization.trail_steps"], "count", n),
        "factorization.factors": (c["factorization.factors"], "count", n),
        "factorization.pair_partition_s": (total.get("factorization.pair_partition", 0.0), "s", n),
        "factorization.pq_sets_calls": (c["factorization.pq_sets"], "count", n),
        "verlinde.rank_lookups": (c["verlinde.base_case_rank"], "count", n),
        "verlinde.unknown_frac": (
            c["verlinde.rank_lower_bound.raised.BoundUnavailableError"] / max(rank_calls, 1),
            "ratio", rank_calls),
        "descent.certify_calls": (certify, "count", n),
        "descent.certify_s": (total.get("descent.certify_descent", 0.0), "s", certify),
        "descent.descends_ratio": (c["descent.certify_descent.Descends"] / max(certify, 1),
                                   "ratio", certify),
        "descent.domain_errors": (
            sum(v for k, v in c.items() if k.startswith("descent.certify_descent.raised.")),
            "count", certify),
        "descent.search_self_s": (self_t.get("descent.compute_cG", 0.0), "s", n),
        "trace_overhead_frac": (sum(traced_pass.latencies) / sum(plain.latencies) - 1,
                                "ratio", n),
    }
    shown = dict(metrics)
    for name, span in ZERO_PRONE_TIMES.items():
        shown[name] = (total.get(span, 0.0), "s", n)
    shown["trace.wall_s"] = (wall * scale, "s", n)
    shown["trace.self_sum_s"] = (self_sum * scale, "s", len(rec.spans))
    extra = {
        "corpus_size": n,
        "failures": failures,
        "self_s": dict(sorted(self_t.items())),
        "counts": dict(sorted(c.items())),
        "not_in_result_line": {
            name: "0 by construction on some workload; see the matching _calls count"
            for name in ZERO_PRONE_TIMES
        },
    }
    RESULTS.mkdir(exist_ok=True)
    rec.dump(RESULTS / f"{workload}-seed{seed}-spans.jsonl")
    return metrics, shown, 2 * n, failed, extra


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, *, min_samples=MIN_SAMPLES, setup_launches=SETUP_LAUNCHES,
         trace_n=None) -> int:
    args = parse_args(argv)
    if not (SRC / "parapic" / "__init__.py").is_file():
        print(f"error: no parapic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    exact_one = WORKLOADS[args.workload]["exact_one"]

    def check(obj, d, out):
        return checks.check_report(obj, d, out, exact_one)

    if args.trace:
        n = trace_n or WORKLOADS[args.workload]["trace_n"]
        metrics, shown, attempted, failed, extra = traced(
            args.workload, args.seed, check, trace_n=n)
    else:
        metrics, shown, attempted, failed, extra = end_to_end(
            args.workload, args.seed, args.seconds, check,
            min_samples=min_samples, setup_launches=setup_launches)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "corpus_size": extra.pop("corpus_size"),
        "loop": "closed, 1 caller",
    }
    for name, (value, unit, samples) in shown.items():
        print(f"{name:34s} {value:>16.6g} {unit:6s} n={samples}")
    if args.trace:
        print("not in the result line (0 by construction on some workload; "
              "their _calls counts are): " + ", ".join(ZERO_PRONE_TIMES))
    for line in extra["failures"][:10]:
        print(f"FAILED {line}")
    print(json.dumps({"meta": meta}, sort_keys=True))

    RESULTS.mkdir(exist_ok=True)
    record = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in shown.items()},
        **extra,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _s) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
