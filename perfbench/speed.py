"""Machine-speed gauge: a fixed kernel timed between queries.

The shared 2-core host this benchmark was built on changes speed by up to
1.8x for stretches of one to sixty seconds (another tenant's load on the
same hardware), in process CPU time as much as in wall time.  Averaging
over a 20 s run cannot hide a stretch that long, so raw query times spread
by 20-40% from run to run.  The gauge measures the machine's speed while
the queries run: between queries it times a fixed pure-Python kernel that
does not touch expbouquet, for ``SHARE`` of the run, and each query's wall
time is scaled by ``REF_S`` over the mean kernel time around that query.
The scaled time is the query's time at the reference speed, the speed at
which the kernel takes ``REF_S``; a change to expbouquet moves the query
times and leaves the kernel alone.
"""

from __future__ import annotations

import bisect
import itertools
import time
from fractions import Fraction

# the kernel's share of kernel plus query time
SHARE = 0.1
# kernel calls per top-up; the first warms the caches after a query and is not kept
BATCH = 6
# kernel samples from this many seconds before a query's start to as many
# after its end give its speed; the window widens until it holds MIN_SAMPLES
WINDOW_S = 1.0
MIN_SAMPLES = 50
# kernel time at the reference speed: about its mean over 20 s on the
# host above, run back to back in one process
REF_S = 1.25e-3


def kernel() -> float:
    """Fixed interpreter work like the library's: rational and float arithmetic."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i * i)
    x = 0.0
    for i in range(3000):
        x += (i * 0.5) ** 0.5
    return float(s) + x


class Gauge:
    """Kernel samples (start, seconds) taken between queries, in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.busy = 0.0
        self._sums = [0.0]

    def top_up(self, query_s: float) -> None:
        """Run kernel batches until the kernel holds SHARE of kernel plus ``query_s``."""
        while self.busy < query_s * SHARE / (1.0 - SHARE):
            t_batch = time.perf_counter()
            kernel()
            for _ in range(BATCH - 1):
                t0 = time.perf_counter()
                kernel()
                self.starts.append(t0)
                self.times.append(time.perf_counter() - t0)
            self.busy += time.perf_counter() - t_batch

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the mean kernel time around the interval [t0, t1]."""
        if len(self._sums) != len(self.times) + 1:
            self._sums = [0.0, *itertools.accumulate(self.times)]
        if not self.times:
            raise ValueError("no kernel samples")
        w = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.starts, t0 - w)
            hi = bisect.bisect_right(self.starts, t1 + w)
            if hi - lo >= min(MIN_SAMPLES, len(self.times)):
                return REF_S * (hi - lo) / (self._sums[hi] - self._sums[lo])
            w *= 2.0

    def mean_s(self) -> float:
        return sum(self.times) / len(self.times)
