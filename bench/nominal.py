"""Nominal seconds: measured time scaled by the host's speed at that moment.

On a small shared host the speed of plain Python code moves by about 1.5x
with the load of other tenants, in phases of several seconds, and CPU time
moves the same way.  A raw time then says as much about the neighbours as
about the program: ten runs of one workload spread by 15-40% (quartile
distance over median), and two sets of ten runs disagreed by up to 38%.

So the benchmark runs `reference()`, a fixed piece of Fraction arithmetic
like the program's, right before and right after every measured interval,
and reports

    nominal seconds = measured seconds * REFERENCE_S / mean(reference before, reference after)

the time the interval would have taken on a host where the reference takes
REFERENCE_S.  The raw times are kept in the run record.  The reference does
not call the program, so no change to the program can move it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

#: Duration of `reference()` that defines one nominal second (about its
#: fastest on a 2-vCPU Xeon KVM guest with Python 3.11).
REFERENCE_S = 0.005


def reference():
    """Fraction sums and a Fraction Gauss-Jordan elimination, the program's staple arithmetic.

    Of the kernels tried (Fraction sums, Fraction row reduction, integer
    gcds, hashing tuples into a set), the Fraction ones followed the
    program's slowdowns most closely.
    """
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(i % 5 + 1, i)
    for shift in range(3):
        rows = [[Fraction((3 * i + 7 * j + shift) % 11 - 5, 1 + (i + j) % 3) for j in range(8)] for i in range(6)]
        for c in range(6):
            pivot = next((r for r in range(c, 6) if rows[r][c]), None)
            if pivot is None:
                continue
            rows[c], rows[pivot] = rows[pivot], rows[c]
            inv = 1 / rows[c][c]
            rows[c] = [x * inv for x in rows[c]]
            for r in range(6):
                if r != c and rows[r][c]:
                    factor = rows[r][c]
                    rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
        total += rows[0][-1]
    return total


def scale(samples) -> float:
    """Factor from measured to nominal seconds, given reference durations taken around an interval."""
    return REFERENCE_S * len(samples) / sum(samples)


class Sampler:
    """Runs the reference from a SIGALRM handler every `interval` seconds.

    A request that runs for seconds gets reference samples from its middle
    too, not only from its ends.  `paused` adds up the time spent in the
    handler, which the caller subtracts from what it measures.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples = []
        self.paused = 0.0
        self._busy = False
        self._previous = None

    def sample(self) -> float:
        """Run the reference now and return its duration; the handler stays out meanwhile."""
        self._busy = True
        start = time.perf_counter()
        reference()
        duration = time.perf_counter() - start
        self._busy = False
        return duration

    def take(self) -> list:
        """Hand over and clear the samples the handler took."""
        samples, self.samples = self.samples, []
        return samples

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference()
        duration = time.perf_counter() - start
        self.samples.append(duration)
        self.paused += duration
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
