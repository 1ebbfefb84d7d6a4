"""Host speed, measured with a fixed reference kernel.

The machines this benchmark runs on are shared: the same code runs up to
1.6x slower from one few-second phase to the next, because other tenants
load the physical cores (CPU time rises with wall time, so the slowdown is
not descheduling).  A run of the benchmark therefore times, between its
operations, a reference kernel that belongs to the benchmark and never
changes, and scales its time metrics to a host on which the kernel takes
:data:`NOMINAL_S`::

    reported seconds = measured seconds * NOMINAL_S / median(kernel time)

An operation's time is scaled by the kernel runs within :data:`NEAR_S`
of it, so a slow phase of a few seconds is corrected where it happened;
rates and set-up use all of a window's or set-up's kernel runs, and
rates are scaled by the inverse.  The kernel's time is the CPU time of
its thread, so it measures the speed of the core it ran on and not the
share of it the scheduler gave: the benchmark pins itself and its
worker processes to one core, and the kernel may run while a worker is
busy on the same core.  The kernel mixes what the program
spends its time on: interpreted loops over ints, a heap, a dict and
small numpy calls.  A change to the program moves the reported numbers
as it moves the wall times; a change of host speed moves the kernel too
and mostly cancels (``README.md`` gives what is left).
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time

import numpy as np

#: Kernel seconds on the reference host: a fixed scale, near the kernel's
#: median on the 2-vCPU host the benchmark was built on.
NOMINAL_S = 0.025
#: A timed loop probes once per this many wall seconds ...
PROBE_EVERY_S = 0.5
#: ... but at most this many times in a row, after a long operation.
MAX_BURST = 4
#: An operation is scaled by the kernel runs at most this many seconds
#: before its start or after its end.
NEAR_S = 1.0


def kernel() -> float:
    """The reference work; returns a value so that none of it is dead."""
    heap: list[int] = []
    counts: dict[int, int] = {}
    acc = 0
    for i in range(12000):
        heapq.heappush(heap, (i * 7919) % 10007)
        counts[i % 997] = counts.get(i % 997, 0) + i
        acc += i * i
    while heap:
        acc += heapq.heappop(heap)
    a = np.arange(12000, dtype=np.float64)
    for _ in range(120):
        a = np.sqrt(a + 1.0)
        a.sort()
    return acc + float(a[-1]) + len(counts)


class HostSpeed:
    """Kernel timings taken during one run."""

    def __init__(self):
        #: CPU seconds of each kernel run ...
        self.samples: list[float] = []
        #: ... and the ``perf_counter`` time it ended.
        self.times: list[float] = []
        self._last = float("-inf")

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            c0 = time.thread_time()
            kernel()
            c1 = time.thread_time()
            self._last = time.perf_counter()
            self.samples.append(c1 - c0)
            self.times.append(self._last)

    def maybe_probe(self) -> None:
        """Probe once per :data:`PROBE_EVERY_S` passed since the last probe."""
        due = min(MAX_BURST, (time.perf_counter() - self._last) / PROBE_EVERY_S)
        if due >= 1.0:
            self.probe(int(due))

    def scale(self) -> float:
        """Factor that converts measured seconds to reference seconds."""
        return NOMINAL_S / statistics.median(self.samples)

    def scale_at(self, start: float, end: float) -> float:
        """:meth:`scale` from the kernel runs near ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start - NEAR_S)
        hi = bisect.bisect_right(self.times, end + NEAR_S)
        if lo == hi:
            return self.scale()
        return NOMINAL_S / statistics.median(self.samples[lo:hi])
