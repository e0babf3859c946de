"""Smoke check of the benchmark on short corpora.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with a few data each,
and asserts that every metric is printed with its unit, that the result
line carries exactly the metrics ``BENCHMARK.json`` declares, and that
no datum failed (``error_frac == 0``).  It is not part of the test suite.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

END_TO_END = {
    "setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "error_frac": "ratio", "exact_frac": "ratio",
    "certified_frac": "ratio", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "dynkin.table_build_s": "s", "cli.build_parser_s": "s", "cli.emit_s": "s",
    "cli.out_bytes": "bytes", "picard.parse_s": "s",
    "picard.is_pic_delta_calls": "count", "picard.cdelta_bundle_s": "s",
    "picard.bundle_to_json_calls": "count", "covers.compose_calls": "count",
    "covers.class_adjust_s": "s", "factorization.s3_reduce_s": "s",
    "factorization.trail_steps": "count", "factorization.factors": "count",
    "factorization.pair_partition_s": "s", "verlinde.rank_lookups": "count",
    "verlinde.unknown_frac": "ratio", "descent.certify_calls": "count",
    "descent.certify_s": "s", "descent.descends_ratio": "ratio",
    "descent.domain_errors": "count", "descent.search_self_s": "s",
    "trace_overhead_frac": "ratio",
}
SIZES = {"iwahori-sweep": 60, "c2-search": 16, "big-witness": 4}


def run_once(workload: str, trace: int) -> tuple[dict, dict]:
    """Printed metric units, and the result line, of one short run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "0.01",
             "--trace", str(trace)],
            min_samples=SIZES[workload], setup_launches=1, trace_n=SIZES[workload],
        )
    assert code == 0, f"{workload} trace {trace}: exit {code}"
    lines = buf.getvalue().strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("n="):
            printed[parts[0]] = parts[2]
    return printed, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in run.WORKLOADS:
        for trace, named in ((0, END_TO_END), (1, PER_LAYER)):
            printed, result = run_once(workload, trace)
            for name, unit in named.items():
                assert printed.get(name) == unit, f"{workload}: {name} not printed in {unit}"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared[trace], f"{workload}: result line {got}"
            assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
            if trace == 0:
                record = json.loads(
                    (run.RESULTS / f"{workload}-seed7-trace0.json").read_text())
                assert record["metrics"]["error_frac"]["value"] == 0
            print(f"ok {workload} trace {trace}: {len(printed)} metrics printed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
