"""Timing against a reference loop, for a machine whose speed drifts.

On a shared two-core machine the same code runs up to about 1.5x
faster or slower for stretches of 5-20 s, as other tenants come and go.
The benchmark therefore samples a fixed pure-Python reference loop every
``CHUNK_S`` seconds of timed work, and scales each time measured between
two samples by ``REFERENCE_S`` over their mean.  The result reads as
seconds on a machine where the reference loop takes ``REFERENCE_S``;
raw times are kept next to it.

The loop mixes small tuple and dict work (cache-resident, like most of
the package's interpreter work) with random reads of a 32k-entry table
(cache-missing, like its larger witnesses): a purely cache-resident loop
slows less than the package when the machine is contended, a purely
cache-missing one more.
"""
from __future__ import annotations

from array import array
from time import perf_counter

#: nominal duration of one reference loop
REFERENCE_S = 400e-6
#: timed work between two reference samples
CHUNK_S = 0.025
_SMALL_STEPS = 1050
_TABLE_STEPS = 450
_TABLE = {i: (i, i + 1) for i in range(1 << 15)}


def _reference_work() -> int:
    acc: dict = {}
    t = (1, 2, 3)
    for i in range(_SMALL_STEPS):
        t = (t[1], t[2], t[0])
        acc[t] = acc.get(t, 0) + i
    out = []
    k = 1
    for i in range(_TABLE_STEPS):
        k = (k * 1103 + 12345) & 0x7FFF
        out.append(_TABLE[k] + (i,))
    return len(acc) + len(out)


def reference_sample() -> float:
    """Current duration of the reference loop (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - t0)
    return best


class Normalizer:
    """Collects raw durations in chunks closed by reference samples.

    Durations are kept in flat arrays, so the harness's own memory grows
    by 16 bytes per datum and hardly moves the peak-RSS metric.
    """

    def __init__(self) -> None:
        self.raw = array("d")
        self.scale = array("d")
        self._work = 0.0
        self._ref = reference_sample()

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._work += seconds
        if self._work >= CHUNK_S:
            self.close()

    def close(self) -> None:
        """End the current chunk; its durations get their scale."""
        pending = len(self.raw) - len(self.scale)
        if not pending:
            return
        ref = reference_sample()
        factor = 2 * REFERENCE_S / (self._ref + ref)
        self.scale.extend([factor] * pending)
        self._work = 0.0
        self._ref = ref

    def normalized(self) -> array:
        self.close()
        return array("d", (r * f for r, f in zip(self.raw, self.scale)))


def normalized_time(fn) -> tuple[float, float]:
    """(normalized, raw) duration of one call of ``fn``."""
    before = reference_sample()
    t0 = perf_counter()
    fn()
    raw = perf_counter() - t0
    after = reference_sample()
    return raw * 2 * REFERENCE_S / (before + after), raw
