"""Host speed reference for the hyperq benchmark.

On a shared host the speed of a core changes by tens of percent, both from
one second to the next and over minutes, so two runs of the same job list
can differ by more than any useful regression bound.  The benchmark
therefore times a fixed kernel while the jobs run and reports their times
scaled to the nominal host:

    scaled seconds = measured seconds * NOMINAL_S / mean reference seconds

On an unloaded host the scale is close to 1.  The kernel uses only the
standard library, so no change to hyperq can move it, and it does the kind
of work hyperq's pure-Python paths do: ``Fraction`` additions with growing
denominators and multiply-shifts of 3000-bit integers.
"""

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# The kernel's time on the unloaded 2-core host the bounds in BENCHMARK.json
# were set on (Python 3.11.7).  A fixed unit, never re-measured.
NOMINAL_S = 0.0021

_BIG = 3 ** 1900


def _kernel():
    f = Fraction(0)
    x = _BIG
    for i in range(1, 150):
        f += Fraction(1, i)
        x = (x * _BIG) >> 3000
    return f, x


def reference_seconds():
    """One timing of the kernel, about 2 ms on the nominal host.

    The cyclic garbage collector is off while it runs: a collection's cost
    grows with everything else the process holds, and the reference must
    not depend on what the measured program keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        _kernel()
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def scale(samples):
    """Factor from measured to nominal-host seconds for reference ``samples``
    taken while the measured work ran; the mean, because time adds up."""
    return NOMINAL_S / (sum(samples) / len(samples))


class Sampler:
    """Samples the reference on entry, on exit, and every ``period`` seconds
    in between from a SIGALRM handler, so that a job lasting seconds is
    sampled while it runs, on the core it runs on.  The handler's own time
    is recorded so that it can be taken out of the jobs it interrupted.
    """

    def __init__(self, period):
        self.period = period
        self.samples = []  # (start, reference seconds, seconds in the handler)
        self._previous = None

    def sample(self, *_):
        t0 = perf_counter()
        ref = reference_seconds()
        self.samples.append((t0, ref, perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def job(self, start, end):
        """(seconds not spent sampling, scale) for work that ran from
        ``start`` to ``end``, scaled by the samples taken during it and the
        nearest one on either side."""
        stamps = [s[0] for s in self.samples]
        first = bisect_right(stamps, start)
        last = bisect_left(stamps, end)
        inside = self.samples[first:last]
        around = self.samples[max(first - 1, 0):last + 1]
        seconds = end - start - sum(s[2] for s in inside)
        return seconds, scale([s[1] for s in around])
