"""Host-speed calibration and the small statistics the benchmark reports.

A shared 2-core VM drifts in speed over tens of seconds: the same query
loop has run anywhere from 4,000 to 6,900 points/s across 12-second runs
while taking a near-constant multiple of a fixed reference loop run
next to it.  So every timed repetition is bracketed by
:func:`calibration_pass` runs, and a time is reported as

    raw seconds x REF_CALIB_MS / measured calibration ms,

which keeps seconds as the unit (seconds on a host whose calibration
pass takes ``REF_CALIB_MS``) while cancelling drift that slows the
calibration loop and the program alike.

The loop mixes the three kinds of work this program spends its time on,
in roughly equal parts, so that it slows down together with them:

* interpreter work: dict/list updates, attribute lookups, small-JSON
  round trips -- the HTTP request path, the batcher's per-ticket
  bookkeeping and the frontier's per-node Python;
* many small numpy calls on tens of rows -- per-node separator and
  correction overhead, where call dispatch dominates arithmetic;
* vectorised numpy over a few thousand rows -- distance evaluation,
  ``argpartition`` and ``lexsort``, the shape of the batched query and
  candidate-merge kernels.

It uses only numpy and the standard library, never ``repro``, so a
change to the program cannot change the yardstick.
"""

from __future__ import annotations

import gc
import json
import math
import time
from typing import Callable, List, Sequence, Tuple, TypeVar

import numpy as np

#: Calibration-pass time (best of ``PASSES``, ms) on the reference host
#: (2-core x86-64 VM, Python 3.11, numpy 2.4).  Calibrated times read as
#: seconds on a host whose pass takes exactly this long.
REF_CALIB_MS = 6.0

#: Passes per bracket; the bracket reports the fastest, which filters a
#: preemption landing inside one pass.
PASSES = 2

_RNG = np.random.default_rng(20240917)
_BULK = _RNG.random((4096, 2))
_BULK_KEYS = _RNG.integers(0, 1 << 20, size=4096)
_SMALL = _RNG.random((24, 3))
_REQUEST = json.dumps({"point": [0.123456789, 0.987654321], "k": 2})

T = TypeVar("T")


def calibration_pass() -> float:
    """One fixed unit of mixed interpreter and numpy work; returns seconds."""
    t0 = time.perf_counter()
    # interpreter work
    table: dict = {}
    for i in range(2000):
        key = i & 127
        table[key] = table.get(key, 0) + i
    rows: List[Tuple[int, float]] = []
    for _ in range(125):
        doc = json.loads(_REQUEST)
        rows.append((doc["k"], doc["point"][0]))
        json.dumps({"ids": [1, 2], "sq_dists": doc["point"]})
    # many small numpy calls
    for _ in range(110):
        centre = _SMALL.mean(axis=0)
        sq = ((_SMALL - centre) ** 2).sum(axis=1)
        np.argsort(sq, kind="stable")
    # vectorised numpy
    for j in range(3):
        diff = _BULK - _BULK[j]
        sq = np.einsum("ij,ij->i", diff, diff)
        np.argpartition(sq, 8)
        np.lexsort((_BULK_KEYS, sq))
    return time.perf_counter() - t0


class Calibrator:
    """Runs calibration brackets and keeps every measurement (ms)."""

    def __init__(self) -> None:
        self.samples_ms: List[float] = []

    def measure(self) -> float:
        ms = min(calibration_pass() for _ in range(PASSES)) * 1e3
        self.samples_ms.append(ms)
        return ms

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float, Tuple[float, float]]:
        """Run ``fn`` as one repetition: ``gc.collect()``, a calibration
        bracket on each side, the call timed in between.

        Returns ``(result, raw_seconds, (calib_before_ms, calib_after_ms))``.
        """
        gc.collect()
        before = self.measure()
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        after = self.measure()
        return out, raw, (before, after)


def factor(calib_ms: float) -> float:
    """Multiplier taking a raw time to reference-host time."""
    return REF_CALIB_MS / calib_ms


class Samples:
    """Raw values of one quantity, each with its calibration bracket."""

    def __init__(self, rate: bool = False) -> None:
        self.rate = rate  # rates scale inversely to times
        self.raw: List[float] = []
        self.brackets: List[Tuple[float, float]] = []

    def add(self, raw: float, bracket: Tuple[float, float]) -> None:
        self.raw.append(raw)
        self.brackets.append(bracket)

    def __len__(self) -> int:
        return len(self.raw)

    def calib(self) -> List[float]:
        return [0.5 * (a + b) for a, b in self.brackets]

    def scaled(self) -> List[float]:
        if self.rate:
            return [r / factor(c) for r, c in zip(self.raw, self.calib())]
        return [r * factor(c) for r, c in zip(self.raw, self.calib())]


def midmean(values: Sequence[float]) -> float:
    """Mean of the middle half (interquartile mean); the median below 4."""
    vals = sorted(values)
    if len(vals) < 4:
        return median(vals)
    q = len(vals) // 4
    mid = vals[q:len(vals) - q]
    return sum(mid) / len(mid)


def median(values: Sequence[float]) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no values")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100])."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100.0 * len(vals)))
    return vals[min(rank, len(vals)) - 1]
