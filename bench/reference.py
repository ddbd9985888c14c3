"""A fixed piece of reference work that gauges how fast the machine runs.

The host the benchmark runs on may share its cores: the same pure-Python
loop can take 1.5x longer for seconds or for minutes at a time.  A `Gauge`
therefore runs a short burst of this reference work before and after every
timed invocation, and every `period` seconds during it, and scales the
invocation's time to a fixed reference speed: measured time x NOMINAL_S /
(mean burst time around and during it).

The work imitates what `projmet` spends its time on, without calling it:
Cauchy products of truncated bivariate Taylor tables, in exact `Fraction`
and in `float` arithmetic, held in small objects.  It is fixed: nothing in
it depends on the seed, the workload or the `projmet` sources, so a change
to `projmet` cannot change it.  The garbage collector is paused during a
burst, so that the heap a workload leaves behind does not slow it.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

ORDER = 5

# The time one burst takes at the reference speed (about its median time on
# a shared 2-vCPU Intel Xeon host running CPython 3.11).
NOMINAL_S = 0.0025


class _Table:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        a, b = self.c, other.c
        out = [[0] * (ORDER + 1 - i) for i in range(ORDER + 1)]
        for i in range(ORDER + 1):
            ai = a[i]
            for j in range(ORDER + 1 - i):
                aij = ai[j]
                for k in range(ORDER + 1 - i - j):
                    bk = b[k]
                    row = out[i + k]
                    for m in range(ORDER + 1 - i - j - k):
                        row[j + m] += aij * bk[m]
        return _Table(out)


def _table(kind, shift):
    return _Table([[kind(1 + (3 * i + 5 * j + shift) % 7,
                         2 + (i + 2 * j + shift) % 5)
                    for j in range(ORDER + 1 - i)] for i in range(ORDER + 1)])


def _float(num, den):
    return num / den


_EXACT = [_table(Fraction, s) for s in range(3)]
_FLOAT = [_table(_float, s) for s in range(3)]


def _work():
    a, b, c = _EXACT
    (a * b) * c
    a, b, c = _FLOAT
    for _ in range(12):
        (a * b) * c


def burst():
    """Run the reference work once; return the seconds it took."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Reference bursts taken on demand and, once started, from a timer
    signal every `period` seconds; `scaled` turns a timed interval into
    seconds at the reference speed."""

    def __init__(self, period):
        self.period = period
        self.bursts = []           # (start, end) of every burst
        self._busy = False

    def sample(self):
        """Take one burst now; return its index."""
        if self._busy:
            return len(self.bursts) - 1
        self._busy = True
        try:
            start = perf_counter()
            burst()
            self.bursts.append((start, perf_counter()))
        finally:
            self._busy = False
        return len(self.bursts) - 1

    def start(self):
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, first, start, end):
        """The interval start..end less the bursts taken inside it, as
        (wall seconds, seconds at the reference speed).  The speed is the
        mean of the bursts from index `first` on: one taken just before
        `start`, those inside, and one taken just after `end`."""
        around = self.bursts[first:]
        net = (end - start) - sum(b - a for a, b in around
                                  if a >= start and b <= end)
        mean = sum(b - a for a, b in around) / len(around)
        return net, net * NOMINAL_S / mean
