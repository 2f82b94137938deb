"""Timing of calls into the package, with a calibration reference between them.

On a shared host the speed of one process drifts by tens of percent, at
times 2x, within minutes, as other tenants come and go.  Raw times of ten
runs then spread far past any useful bound.  So between timed calls, at most
once a second, the clock also times a fixed reference computation: a Python
dict loop and a numpy sort, the two kinds of work the package does.  A call's
time divided by the mean of the reference times just before and just after
it is the call's time in *calibration units* (``cal``).  Host drift slows
the call and the reference together, so the ratio keeps much less of it.
The reference is benchmark code, the same on both sides of any comparison,
so a change to the package moves a time in ``cal`` by the same factor as in
seconds.  Where a time must be given in seconds, it is given in *reference
seconds*: scaled by the run's median reference time to :data:`NOMINAL_S`,
the reference's time on the host the benchmark was built on.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# About the median time of one reference computation on the host the
# benchmark was built on (2 vCPUs, Intel Xeon, Python 3.11, numpy 2.4).
NOMINAL_S = 0.035


class Calibration:
    """The reference computation and its timings ("points")."""

    REPS = 3
    EVERY_S = 1.0

    def __init__(self) -> None:
        self._keys = np.random.default_rng(0).integers(0, 1 << 62, 1 << 19)
        self.points: list[float] = []
        self._last = -float("inf")

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.EVERY_S

    def measure(self) -> None:
        """Add a point: the median of a few timings of the reference."""
        samples = []
        for _ in range(self.REPS):
            t0 = time.perf_counter()
            acc: dict[int, int] = {}
            for i in range(100_000):
                acc[i & 1023] = acc.get(i & 1023, 0) + i
            np.sort(self._keys)
            np.sort(self._keys)
            samples.append(time.perf_counter() - t0)
        self.points.append(statistics.median(samples))
        self._last = time.perf_counter()

    def around(self, point: int) -> float:
        """Reference seconds for a call made after ``point`` and before the next."""
        return (self.points[point] + self.points[point + 1]) / 2


class Clock:
    """Times package calls one at a time, each inside its own span.

    ``calls`` collects ``(seconds, point)`` for every call since the last
    :meth:`take`; ``point`` is the calibration point taken before the call.
    The calibration runs outside both the timing and the span.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.cal = Calibration()
        self.calls: list[tuple[float, int]] = []

    def __call__(self, name: str, fn, *args, **attrs):
        """``fn(*args)`` timed under span ``name``; returns (result, seconds, span)."""
        if self.cal.due():
            with self.tracer.span("calibrate"):
                self.cal.measure()
        with self.tracer.span(name, **attrs) as sp:
            t0 = time.perf_counter()
            out = fn(*args)
            took = time.perf_counter() - t0
        self.calls.append((took, len(self.cal.points) - 1))
        return out, took, sp

    def take(self) -> list[tuple[float, int]]:
        calls, self.calls = self.calls, []
        return calls

    def finish(self) -> None:
        """Close the last interval; every point then has a successor."""
        with self.tracer.span("calibrate"):
            self.cal.measure()

    def cal_seconds(self, seconds: float, point: int) -> float:
        return seconds / self.cal.around(point)

    def ref_seconds(self, seconds: float) -> float:
        """``seconds`` scaled from this run's median reference time to NOMINAL_S."""
        return seconds / statistics.median(self.cal.points) * NOMINAL_S
