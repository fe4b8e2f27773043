"""Host-speed-adjusted timing.

The hosts this benchmark runs on (small shared virtual machines) change
speed by up to 2x within seconds: the same cold solve takes 0.26 s, then
0.51 s a few seconds later.  Raw wall times therefore spread more between
runs than any change worth measuring.  Every timed block is bracketed by a
short fixed probe (Python dict and float work plus small NumPy operations,
like the program's own inner loops), and its wall time is scaled by
``PROBE_REFERENCE_S / probe time``: the seconds the block would have taken
on a host where the probe takes exactly ``PROBE_REFERENCE_S``.

The probe is the benchmark's own code, so a change to the program moves the
adjusted time exactly as it moves the raw one; only the host's speed is
divided out.  Runs report the median factor, so raw figures can be
recovered (raw = adjusted / factor).
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time

import numpy

#: The probe time adjusted seconds are expressed against (the probe took
#: 0.8-1.5 ms on the 2-vCPU host the benchmark was defined on).
PROBE_REFERENCE_S = 0.001


def _probe_work() -> float:
    table = {}
    total = 0.0
    for index in range(6000):
        table[index & 127] = total
        total += index * 0.5
    vector = numpy.arange(64.0)
    for _ in range(150):
        vector = vector * 1.0001 + 1.0
    return total + float(vector[0])


def probe_seconds() -> float:
    """Fastest of three probe runs (the fastest filters interruptions)."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - started)
    return best


class Timing:
    """One timed block: raw wall seconds, the host-speed factor, and both."""

    raw: float = 0.0
    factor: float = 1.0

    @property
    def seconds(self) -> float:
        return self.raw * self.factor


class Clock:
    """Times blocks in adjusted seconds; probes run between blocks, untimed.

    ``probe`` returns the seconds a fixed piece of the benchmark's own work
    takes now, ``reference`` what it took on the host the benchmark was
    defined on.  The default probe is CPU work in this process; serve-mix,
    whose requests are served by a daemon in another process, probes with
    HTTP round trips to a reference server instead (``echo.py``).
    """

    def __init__(self, probe=probe_seconds, reference: float = PROBE_REFERENCE_S) -> None:
        self.probe = probe
        self.reference = reference
        self._last_probe = probe()
        self.factors: list[float] = []

    @contextlib.contextmanager
    def timed(self):
        timing = Timing()
        started = time.perf_counter()
        try:
            yield timing
        finally:
            timing.raw = time.perf_counter() - started
            probe = self.probe()
            timing.factor = self.reference / ((self._last_probe + probe) / 2.0)
            self._last_probe = probe
            self.factors.append(timing.factor)

    def median_factor(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0
