"""Machine speed reference for scaling measured times.

On a shared host the same computation can run 25% to 60% slower for
seconds at a time, far more than the changes the benchmark must
resolve.  So while requests run, a timer interrupts every
``INTERVAL_S`` and times a fixed pure-Python loop that no change to the
program can touch.  Each request's time, minus the time spent in those
interruptions, is scaled by ``NOMINAL_NS`` over the mean loop time
during it: the time it would have taken with the machine at nominal
speed.  Raw times are reported alongside.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.1

# The loop's median time on the machine the benchmark was tuned on
# (Intel Xeon, 2 vCPUs, CPython 3.11) when undisturbed, so scaled times
# read close to raw ones there.
NOMINAL_NS = 480_000


def _loop() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(4000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 7
    return acc + len(table)


def reference_ns() -> int:
    """Median of three timings of the reference loop: the speed the
    program sees, without a stray pause."""

    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        _loop()
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[1]


class SpeedTrack:
    """Reference timings along the run, taken on a timer.

    Use as a context manager around the timed requests.  ``spent_ns``
    is the running total of time taken by the timer's own work, so an
    interval's own time is its length minus the growth of ``spent_ns``.
    """

    def __init__(self):
        self.times: list[int] = []
        self.refs: list[int] = []
        self.spent_ns = 0
        self._previous = None
        self._in_mark = False

    def mark(self) -> None:
        t0 = time.perf_counter_ns()
        self.refs.append(reference_ns())
        t1 = time.perf_counter_ns()
        self.times.append(t1)
        self.spent_ns += t1 - t0

    def _on_timer(self, signum, frame) -> None:
        if not self._in_mark:
            self._in_mark = True
            self.mark()
            self._in_mark = False

    def __enter__(self) -> "SpeedTrack":
        self.mark()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.mark()

    def scale(self, t0: int, t1: int) -> float:
        """Factor for an interval: nominal over the mean of the marks
        inside it and the nearest one on either side."""

        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = min(bisect.bisect_left(self.times, t1) + 1, len(self.times))
        near = self.refs[lo:hi]
        return NOMINAL_NS * len(near) / sum(near)
