"""A fixed calibration loop that tells how fast the machine runs right now.

On a host whose cores are shared, the same pass can run 1.7x slower from one
minute to the next.  The loop below does not touch siegel; it runs every
``INTERVAL_S`` of wall time during a run, inside the timed calls as well, and
each call's time, less the loops inside it, is divided by the mean time of
the loops during and around it over ``NOMINAL_S``.  Times then read as on a
machine where the loop takes ``NOMINAL_S``; a change to siegel moves them, a
change in how busy the host is moves them much less.

The loop mixes the three kinds of work the workloads do: small-matrix numpy
linear algebra (reduction, Iwasawa coordinates), copies of dicts of a few
thousand rational exponents (the symbolic volumes) and vectorised numpy over
arrays of 10^5 floats (Monte Carlo).
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

#: Time of one loop on the 2-vCPU host the benchmark was defined on, idle.
NOMINAL_S = 0.003
#: Wall time between two loops.
INTERVAL_S = 0.05

_rng = np.random.default_rng(20160412)
_MATS = [_rng.standard_normal((n, n)) for n in range(2, 9) for _ in range(4)]
_VEC = _rng.standard_normal(100_000)
_EXPONENTS = {i: Fraction(i % 7 - 3, 2) for i in range(2, 2002)}
_DELTA = {i: Fraction(1, 3) for i in range(900, 920)}


def loop() -> float:
    acc = 0.0
    for m in _MATS:
        _, r = np.linalg.qr(m)
        acc += float(np.abs(r).max()) + float(np.linalg.det(m))
    d = _EXPONENTS
    for _ in range(12):
        d = dict(d)
        for k, v in _DELTA.items():
            d[k] = d.get(k, 0) + v
    acc += math.fsum(float(v) for v in d.values())
    acc += float(np.exp(-_VEC * _VEC).sum())
    return acc


class Calibration:
    """Loop samples over one run: (start, end) in ``perf_counter`` time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:  # a tick that arrives during a loop is dropped
            return
        self._busy = True
        t0 = perf_counter()
        loop()
        self.samples.append((t0, perf_counter()))
        self._busy = False

    @contextlib.contextmanager
    def ticking(self):
        """Sample every INTERVAL_S of wall time, inside timed calls too, from
        a SIGALRM handler; the loop's time is taken out of the calls."""
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    def scaled(self, calls: list[tuple[float, float]]) -> list[float]:
        """Calibrated time of each (start, end) call: its length less the
        samples inside it, times NOMINAL_S over the mean of those samples and
        of the last one before and the first one after it.  Needs a sample
        before the first call and after the last."""
        starts = [s for s, _ in self.samples]
        ends = [e for _, e in self.samples]
        out = []
        for t0, t1 in calls:
            lo = bisect.bisect_right(ends, t0) - 1
            hi = bisect.bisect_left(starts, t1)
            around = [e - s for s, e in self.samples[lo:hi + 1]]
            inside = math.fsum(around[1:-1])
            out.append((t1 - t0 - inside) * NOMINAL_S / statistics.fmean(around))
        return out

    def factor(self) -> float:
        """Median sample over NOMINAL_S: how much slower than nominal the
        machine ran."""
        return statistics.median(e - s for s, e in self.samples) / NOMINAL_S
