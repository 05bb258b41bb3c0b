"""Host-speed normalization: a fixed reference kernel timed between operations.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed pure-Python loop varies by about +-25% between half-second
segments, and by up to 2x between runs minutes apart, in CPU time as
well as in wall time.  A run's raw host seconds therefore say more
about its neighbours than about the program.

:class:`Speedometer` times :func:`reference_kernel` -- a fixed mix of
interpreter work (dict, tuple and attribute traffic) and small float32
numpy products, the two kinds of work a scheduling decision does --
between the program's operations; a sample taken inside one (between
two estimator forwards) is subtracted from its time.  An operation's
*scaled* time is its host time multiplied by
``REFERENCE_NOMINAL_S / reference time``, with the reference time
averaged over the sample taken just before the operation, any taken
between the operations it overlaps, and the one taken just after it.
The host's speed changes within a second, so only samples next to
the operation track it; a wider average tracked 1.5x worse.  Scaled
seconds are the seconds the operation would take on a host where the
reference kernel takes exactly :data:`REFERENCE_NOMINAL_S`.  The kernel is the
benchmark's own code, so a change to the program never moves it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List, Tuple

import numpy as np

#: Seconds the reference kernel is scaled to: a round figure near the
#: 16-18 ms it takes on a quiet 2-core Intel Xeon host.
REFERENCE_NOMINAL_S = 0.02

_MATRIX = np.random.default_rng(0).standard_normal((24, 24)).astype(np.float32) / 8.0
_LOOP = 100_000
_PRODUCTS = 2_500


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_kernel() -> float:
    """A fixed amount of interpreter and small-GEMM work; returns a checksum."""
    table = {}
    total = 0
    for step in range(_LOOP):
        cell = table.get(step & 255)
        if cell is None:
            cell = table[step & 255] = _Cell(step & 255, 0)
        cell.value += step % 7
        total += len((cell.key, step))
    vector = _MATRIX[0]
    for _ in range(_PRODUCTS):
        vector = np.tanh(_MATRIX @ vector)
    return float(total) + float(vector.sum())


def _now() -> float:
    return time.perf_counter()  # repro: lint-ignore[RPR002] -- the reference kernel's host time is the measurement


class Speedometer:
    """Reference-kernel samples over one run, and the scale they imply."""

    def __init__(self) -> None:
        #: (time the sample ended, reference seconds), in time order.
        self.samples: List[Tuple[float, float]] = []
        reference_kernel()  # untimed: the first call warms numpy's dispatch

    def sample(self) -> float:
        """Time the reference kernel once, now; returns its host seconds.

        The collector is off meanwhile, so the kernel's time never
        includes a collection of the program's own objects.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = _now()
            reference_kernel()
            ended = _now()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((ended, ended - started))
        return ended - started

    def scale(self, start: float, end: float, around: int = 1) -> float:
        """Scaled seconds per host second over ``[start, end]``.

        Averages the last ``around`` samples ending by ``start``, every
        sample inside the interval and the first ``around`` ending
        after ``end``.
        """
        if not self.samples:
            raise ValueError("no reference samples were taken")
        ends = [at for at, _seconds in self.samples]
        first = max(0, bisect.bisect_right(ends, start) - around)
        last = min(len(ends) - 1, bisect.bisect_left(ends, end) + around - 1)
        window = [seconds for _at, seconds in self.samples[first : last + 1]]
        return REFERENCE_NOMINAL_S / (sum(window) / len(window))

    def scaled(self, seconds: float, start: float, end: float, around: int = 1) -> float:
        """``seconds`` of host time spent within ``[start, end]``, scaled."""
        return seconds * self.scale(start, end, around)

    def median_s(self) -> float:
        """Median reference time of the run, in host seconds."""
        return statistics.median(seconds for _at, seconds in self.samples)
