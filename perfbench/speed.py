"""Host speed probes: express CPU time at a fixed reference speed.

On a shared host the same work takes a different amount of CPU time from
one moment to the next.  On a 2-vCPU cloud container the same simulations
took from 1.0 to 1.7 times their fastest CPU time, in phases lasting from
a tenth of a second to tens of seconds, with no steal time and the process
never descheduled: another tenant's load on the shared core slows every
instruction.  A fixed reference computation slows down by about the same
factor, so while the benchmark measures, a profiling timer runs one every
``PERIOD_S`` CPU seconds, and the CPU time between two probes is rescaled
by ``REFERENCE_S`` over their mean duration.  Every timing the benchmark
reports is thus in seconds at the speed at which one probe takes
``REFERENCE_S``.  Probe time itself is left out of every timing.

All clocks here are the calling thread's CPU clock: the benchmark does
all its work in one thread, and while a process CPU timer is armed the
kernel updates the process CPU clock only once per tick.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

#: CPU seconds one probe takes at the reference speed (about the fastest
#: the probe ran on a 2-vCPU x86-64 cloud container under CPython 3.11,
#: where it took from 0.5 to 1.0 ms within a second).
REFERENCE_S = 0.5e-3

#: Loop trips of one probe.
PROBE_TRIPS = 2500

#: CPU seconds between two timer-driven probes.
PERIOD_S = 0.01


def reference_work(trips: int = PROBE_TRIPS) -> int:
    """The fixed computation a probe times: interpreter-bound, like the
    scheduler's own Python code (arithmetic, dict and list traffic)."""
    acc = 0
    table: dict[int, int] = {}
    items: list[int] = []
    for i in range(trips):
        acc = (acc + i * i) % 1_000_003
        table[i & 63] = acc
        items.append(acc & 255)
        if len(items) > 32:
            items.pop(0)
    return acc + sum(items) + len(table)


class HostSpeed:
    """A log of probes on one clock, and timings rescaled by it."""

    def __init__(self, clock=time.thread_time) -> None:
        self.clock = clock
        #: Start, end and duration of each probe, in order.
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def probe(self, *_) -> None:
        """Time one reference computation (also the timer's handler)."""
        if self._busy:      # the timer fired during a probe
            return
        self._busy = True
        t0 = self.clock()
        reference_work()
        t1 = self.clock()
        self._busy = False
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    @contextlib.contextmanager
    def sampling(self, period: float = PERIOD_S):
        """Probe now, every ``period`` CPU seconds inside, and at the end."""
        previous = signal.signal(signal.SIGPROF, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_PROF, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)
            self.probe()

    def scaled(self, a: float, b: float) -> float:
        """CPU seconds of ``[a, b)`` outside probes, at reference speed.

        Each stretch between two probes is multiplied by ``REFERENCE_S``
        over the mean duration of those two probes; a stretch before the
        first probe or after the last uses that probe alone.
        """
        n = len(self.starts)
        if not n:
            raise ValueError("no probe recorded")
        durs = self.durations
        total = 0.0
        # Stretch j runs from the end of probe j-1 to the start of probe j.
        for j in range(bisect.bisect_right(self.ends, a), n + 1):
            lo = a if j == 0 else max(a, self.ends[j - 1])
            hi = b if j == n else min(b, self.starts[j])
            if hi > lo:
                around = durs[max(j - 1, 0):j + 1]
                total += (hi - lo) * REFERENCE_S * len(around) / sum(around)
            if j == n or self.starts[j] >= b:
                break
        return total

    def probe_time(self, a: float, b: float) -> float:
        """CPU seconds spent in probes that started inside ``[a, b)``."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return sum(self.durations[lo:hi])
