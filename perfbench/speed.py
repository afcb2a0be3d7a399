"""Machine-speed normalisation of the end-to-end times.

On a shared machine other tenants slow every instruction by up to a half
for seconds to minutes at a time, so the same run of the same code reads
20-30% apart within minutes.  A fixed reference kernel, made of the kinds
of work the library does (frozenset disjointness tests, tuple hashing, a
five-dimensional numpy boolean broadcast) and sharing no code with it, is
timed between operations throughout a run.  Each operation's time is then
scaled by REFERENCE_S over the median kernel time of the samples around
it: the result is the time on a machine where the kernel takes
REFERENCE_S, about what it takes on an idle 2-core machine here.  A change
to the library cannot move the kernel, so normalised times compare across
commits like raw ones, with the neighbours' share taken out.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.0015
INTERVAL_S = 0.2  # at most one sample per interval, taken between operations
AROUND = 2  # samples taken on each side of an interval

_PATHS = [frozenset(range(i, i + 7)) for i in range(70)]
_GRID = (np.arange(13)[:, None] * np.arange(13)[None, :]) % 3 == 0


def kernel() -> int:
    disjoint = 0
    for i, p in enumerate(_PATHS):
        for q in _PATHS[i + 1 :]:
            disjoint += p.isdisjoint(q)
    quads = {(i % 37, i % 41, i % 43, i % 47) for i in range(3000)}
    g = _GRID
    cube = g[:, :, None, None, None] & g[None, :, :, None, None] & g[None, None, :, :, None]
    return disjoint + len(quads) + int((cube | g[None, None, None, :, :]).sum())


class Speed:
    """Kernel samples over a run, and the scale factor for any interval of it."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        kernel()  # first use of the numpy paths, untimed

    def sample(self) -> None:
        # The collector would time the program's heap instead of the machine.
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.starts.append(start)
        self.seconds.append(end - start)

    def sample_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] > INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time around [start, end]."""
        lo = max(0, bisect.bisect_left(self.starts, start) - AROUND)
        hi = bisect.bisect_right(self.starts, end) + AROUND
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])
