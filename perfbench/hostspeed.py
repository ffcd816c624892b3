"""Host-speed calibration for the lenspec benchmark's timings.

The benchmark's host is shared, and its speed drifts: the same fixed block
of Python runs up to 30% slower in spells that last from seconds to
minutes.  That drift is wider than any bound a timing could be given, so
the end-to-end timings are rescaled to one reference host speed.

``HostClock`` runs a fixed calibration block (pure-Python dict work, 6 to
14 ms) from a ``SIGALRM`` handler every ``PERIOD_S`` seconds while a pass
runs, so samples come from inside long items too.  Each sample says how
slow the host is at that moment: its duration over the block's
``ref_s``.  A stretch of program time between two samples counts divided
by the slowdown there, which is the median of the samples around it.
The calibration's own time is left out of every program time.

The host does not slow all code alike: a neighbour that contends for the
memory caches slows code with a large working set more than code that
stays in the core's own caches.  So there are two blocks, and each
workload uses the one whose slowdown tracked its own best
(``workloads.CALIBRATION``).
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left
from time import perf_counter

PERIOD_S = 0.3
SMOOTH = 2          # samples on each side in the median slowdown


class SmallBlock:
    """Updates of a 1,024-key dict, which stays in the core's caches."""

    # Seconds one block takes on the reference host: a 2-core Intel Xeon
    # in its fast spells, Python 3.11.  It only fixes the scale of the
    # rescaled times, which then read as seconds on that host.
    ref_s = 0.008

    def __call__(self):
        d = {}
        acc = 0
        for i in range(30000):
            k = (i * 40503) & 1023
            d[k] = d.get(k, 0) + i
            acc += len(d) ^ k
        return acc


class MixedBlock:
    """Lookups in a 131,072-key dict (about 14 MB, beyond the core's own
    caches) interleaved with updates of a 1,024-key one."""

    ref_s = 0.0075

    def __init__(self):
        self.table = {_key(i): i for i in range(1 << 17)}

    def __call__(self):
        table, d = self.table, {}
        acc = 0
        for i in range(12000):
            j = (i * 40503) & 0x1FFFF
            acc += table[_key(j)]
            d[j & 1023] = d.get(j & 1023, 0) + i
        return acc


def _key(i):
    return (i * 2654435761) & 0xFFFFFFF


BLOCKS = {"small": SmallBlock, "mixed": MixedBlock}


class HostClock:
    def __init__(self, block):
        t0 = perf_counter()
        self.block = BLOCKS[block]()
        self.samples = []      # (start, end) of each calibration block
        # seconds spent on calibration, building the block included
        self.spent = perf_counter() - t0
        self.factors = None    # smoothed slowdown per sample, set by stop

    def sample(self, n=1):
        # the cyclic collector is held off, so that a collection of the
        # program's heap is not timed as host slowness
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                t0 = perf_counter()
                self.block()
                t1 = perf_counter()
                self.samples.append((t0, t1))
                self.spent += t1 - t0
        finally:
            if enabled:
                gc.enable()

    def median_slowdown(self):
        """Median slowdown of all samples so far."""
        durations = [t1 - t0 for t0, t1 in self.samples]
        return statistics.median(durations) / self.block.ref_s

    def start(self):
        """Sample every ``PERIOD_S`` seconds until ``stop``."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample(3)
        self.factors = [self.slowdown(i) for i in range(len(self.samples))]

    def spent_between(self, a, b):
        """Calibration seconds between ``perf_counter`` values a and b."""
        return sum(min(b, t1) - max(a, t0) for t0, t1 in self.samples
                   if t1 > a and t0 < b)

    def now(self):
        """``perf_counter`` minus the calibration time spent so far."""
        while True:     # a sample may land between the two reads
            spent = self.spent
            t = perf_counter()
            if self.spent == spent:
                return t - spent

    def slowdown(self, i):
        """Median slowdown of the samples within ``SMOOTH`` of sample ``i``."""
        window = self.samples[max(0, i - SMOOTH):i + SMOOTH + 1]
        durations = [t1 - t0 for t0, t1 in window]
        return statistics.median(durations) / self.block.ref_s

    def rescale(self, a, b):
        """Program time in [a, b], ``perf_counter`` values, at reference speed.

        The gap before sample ``i`` is divided by the mean slowdown of
        samples ``i - 1`` and ``i``; calibration blocks count nothing.
        Call after ``stop``.
        """
        s, factors = self.samples, self.factors
        total = 0.0
        i = bisect_left(s, (a,))
        lo = a if i == 0 else max(a, s[i - 1][1])
        while lo < b:
            hi = min(b, s[i][0]) if i < len(s) else b
            if hi > lo:
                near = factors[max(0, i - 1):i + 1]
                total += (hi - lo) / statistics.fmean(near)
            if i >= len(s):
                break
            lo = max(lo, s[i][1])
            i += 1
        return total
