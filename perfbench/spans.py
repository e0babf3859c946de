"""In-memory span recorder and the layer wrappers of the traced run.

A span is ``[name, parent index, start, end]``, with parent -1 for the
root span of a datum and times from ``perf_counter``; the dump writes
span i on line i.  Counters are bumped at the same boundaries.

Layers are traced from outside the package: each public function is
wrapped and the wrapper is bound under the name the calling module
imported it as (``descent.s3_reduce``, ``verlinde.base_case_rank``,
...), so no file of the package changes.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from parapic import covers, descent, factorization, verlinde
from parapic.errors import BoundUnavailableError, DomainError

#: (module, attribute, span name); the module is the caller's binding
SPANNED = (
    (descent, "c_delta", "picard.c_delta"),
    (descent, "is_pic_delta", "picard.is_pic_delta"),
    (descent, "validate_bundle", "picard.validate_bundle"),
    (descent, "vacuum_bundle", "picard.vacuum_bundle"),
    (descent, "cdelta_bundle", "picard.cdelta_bundle"),
    (descent, "bundle_to_json", "picard.bundle_to_json"),
    (descent, "class_preserving_identity_tuple", "covers.class_adjust"),
    (descent, "s3_reduce", "factorization.s3_reduce"),
    (descent, "pair_partition_gsd2", "factorization.pair_partition"),
    (descent, "degenerate_gsd3", "factorization.degenerate_gsd3"),
    (descent, "rank_lower_bound", "verlinde.rank_lower_bound"),
    (descent, "certify_descent", "descent.certify_descent"),
)

#: (module, attribute, counter name): hot calls that get a count only
COUNTED = (
    (covers, "compose", "covers.compose"),
    (factorization, "compose", "covers.compose"),
    (verlinde, "compose", "covers.compose"),
    (descent, "pq_sets_for_points", "factorization.pq_sets"),
    (verlinde, "base_case_rank", "verlinde.base_case_rank"),
)


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, self.stack[-1] if self.stack else -1, perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = perf_counter()
        self.stack.pop()

    def _spanned(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except (BoundUnavailableError, DomainError) as e:
                counts[f"{name}.raised.{type(e).__name__}"] += 1
                raise
            finally:
                self._close(rec)
            self._observe(name, out)
            return out

        return wrapper

    def _observe(self, name: str, out) -> None:
        if name == "descent.certify_descent":
            self.counts[f"{name}.{out.verdict}"] += 1
            if out.witness is not None:
                self.counts["factorization.factors"] += len(out.witness.factors)
                self.counts["factorization.trail_steps"] += len(out.witness.steps)

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Bind the wrappers into the calling modules for the block."""
        saved = []
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod, attr, name in table:
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, make(name, fn))
        try:
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _parent, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _parent, start, end in self.spans:
            out[name] += end - start
        return dict(out)

    def root_wall(self) -> float:
        return sum(end - start for _n, parent, start, end in self.spans if parent < 0)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps([name, parent, start, end]) + "\n")
