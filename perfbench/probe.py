"""How fast the machine runs Python during a run.

On a shared machine the speed of the same Python code drifts by 10-25%
over minutes and by as much from one second to the next, and the drift
moves everything running at the time together.  While a run is open, a
SIGALRM handler runs a fixed kernel every INTERVAL seconds of wall time
and records when it ran and how long it took.  The mean of those samples
over REFERENCE_S is the slowdown: over the whole run for the rate, over
the samples near it for an op's latency and for the set-up time.  Times
divided by it read as seconds on a machine where the kernel takes
REFERENCE_S.  The kernel shares no code with the program, so a faster
program shows in full.  On five runs of identical sweep work this cut
the spread between runs (interquartile range over median) of ops_per_s
from 0.17 to 0.02 and of op_p90_s from 0.34 to 0.05.  The median of the
samples did worse than the mean.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL = 0.1
# About the kernel's mean time on a 2-core x86 VM, Python 3.11.7.
REFERENCE_S = 0.0004


def kernel():
    """Integer arithmetic and small-dict updates, like the program's own."""
    d = {}
    x = 1
    for i in range(1200):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        k = x & 255
        d[k] = d.get(k, 0) + i
    return len(d)


class SpeedProbe:
    """Context manager that samples the kernel's time while it is open."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.samples = []
        self._old = None

    def _sample(self, signum, frame):
        # A garbage collection the program has due must not land in a sample.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            kernel()
            self.samples.append((t, time.perf_counter() - t))
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def slowdown(self, start=None, end=None, pad=0.5):
        """Mean kernel time over REFERENCE_S: over the whole run, or over
        the samples within `pad` seconds of [start, end] when there are
        at least three.  1.0 without samples."""
        window = [d for t, d in self.samples
                  if start is not None and start - pad <= t <= end + pad]
        if len(window) < 3:
            window = [d for _, d in self.samples]
        if not window:
            return 1.0
        return statistics.fmean(window) / REFERENCE_S
