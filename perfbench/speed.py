"""The host's speed, sampled while the timed operations run.

On a shared host the same pure-Python work can take twice as long from one
second to the next, because other tenants load the CPU it runs on.  The same
`loop-a4wr2` search took from 12.7 to 20.5 s within ten minutes on such a
host, and a run of a few searches cannot average this out.

``Speedometer`` measures the drift instead of averaging it.  A timer signal
interrupts the timed phase every ``INTERVAL_S`` seconds and times one call of
``kernel``, fixed pure-Python work that uses nothing of the ingleton
package, so a change to the package cannot change it.  ``normalized`` turns
the wall time of an interval into the time it would have taken at the
reference speed: the wall time minus the time spent in the ticks, scaled by
the mean speed measured during it.  A change that makes the package do more
or less work moves the normalized time as much as the wall time; a change of
the host's load moves only the wall time.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.02
# Seconds of one ``kernel`` call at the reference speed: an unloaded core of
# the 2-core host (CPython 3.11.7) the bounds in BENCHMARK.json were set on.
# A normalized time reads as seconds at that speed.
REFERENCE_S = 0.0001


def kernel() -> int:
    """Fixed interpreter work in two parts of about equal time: arithmetic on
    small ints and bitsets with a dict and a list, and making small tuples,
    lists and dicts.  Other tenants of the host slow these two kinds of work
    by different amounts, and the package does both."""
    table = {}
    bits = 0
    acc = 0
    row = list(range(16))
    for i in range(200):
        key = i & 31
        table[key] = table.get(key, 0) + i
        bits |= 1 << (i % 97)
        bits ^= bits >> 5
        acc += row[i & 15] * 3 & 0xFFFF
    made = {}
    for i in range(75):
        t = tuple(range(i & 7, (i & 7) + 6))
        made[t] = [x * 2 for x in t]
    return acc + len(table) + len(made) + (bits & 0xFF)


class Speedometer:
    """Samples the speed of the host while active (``with`` block).

    Each tick runs ``kernel`` twice, so that the timed second call finds the
    caches warm, and records (tick start, tick end, seconds of the timed call).
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        start = perf_counter()
        kernel()
        t0 = perf_counter()
        kernel()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.kernel_s.append(end - t0)

    def normalized(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would have taken at the reference
        speed, leaving out the ticks inside it.  An interval too short to hold
        a tick takes the speed of the tick nearest to it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if hi > lo:
            busy = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
            speed = sum(REFERENCE_S / self.kernel_s[i] for i in range(lo, hi)) / (hi - lo)
        elif self.starts:
            nearest = min((i for i in (lo - 1, lo) if 0 <= i < len(self.starts)),
                          key=lambda i: min(abs(self.starts[i] - t0), abs(self.starts[i] - t1)))
            busy = 0.0
            speed = REFERENCE_S / self.kernel_s[nearest]
        else:
            raise ValueError("no speed sample taken yet")
        return (t1 - t0 - busy) * speed

    def mean_speed(self) -> float:
        """Mean speed over every tick, as a share of the reference speed."""
        return sum(REFERENCE_S / k for k in self.kernel_s) / len(self.kernel_s)

    def busy_s(self) -> float:
        """Seconds spent in ticks."""
        return sum(end - start for start, end in zip(self.starts, self.ends))
