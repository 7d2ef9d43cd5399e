"""Host-speed sampling: the times the benchmark reports are scaled to one speed.

On a shared host, other work on a hardware sibling of the benchmark's
vCPU slows interpreted code by up to 2x, in phases of milliseconds to
minutes, so two runs of the same code can differ by more than any change
worth catching.  `Sampler` times a short fixed probe (pure
Python, nothing from femtonet) from a SIGALRM handler every INTERVAL_S
seconds, in the measuring thread itself, so the probes see the speed the
ops run at.  A wall interval then converts to reference-speed seconds: its
wall time less the probes that ran inside it, times the mean of
REF_S / probe time over the probes inside it and the nearest one on each
side.  femtonet changes move op times and leave the probe alone, so the
scaled times still show them; the raw wall times are reported beside them.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
import time

REF_S = 6.5e-5  # probe time on an uncontended 2-vCPU Xeon host, CPython 3.11
INTERVAL_S = 0.01
SLOWEST = 2.5  # a probe slower than SLOWEST * REF_S was interrupted; cap it


class _Event:
    __slots__ = ("t", "arrival")

    def __init__(self, t: float, arrival: bool):
        self.t = t
        self.arrival = arrival

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def _probe() -> float:
    """Sixty events of a three-server loss system: heap, random draws,
    slotted objects and dict counters, like the interpreted code measured.
    Of the probes tried, this one tracked the op times best under sibling
    loads of interpreted code, numpy and random memory access."""
    rng = random.Random(5)
    events = [_Event(rng.expovariate(1.0), True)]
    counts = {"arrived": 0, "lost": 0, "left": 0}
    busy = 0
    t = 0.0
    for _ in range(60):
        event = heapq.heappop(events)
        t = event.t
        if event.arrival:
            counts["arrived"] += 1
            if busy < 3:
                busy += 1
                heapq.heappush(events, _Event(t + rng.expovariate(0.4), False))
            else:
                counts["lost"] += 1
            heapq.heappush(events, _Event(t + rng.expovariate(1.0), True))
        else:
            busy -= 1
            counts["left"] += 1
    return t


class Sampler:
    def __init__(self):
        self.at: list[float] = []  # perf_counter() at each probe start
        self.took: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0: float, t1: float) -> float:
        """Mean host speed over [t0, t1], 1.0 at the reference speed."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_left(self.at, t1)
        window = self.took[max(0, i - 1):j + 1]
        if not window:
            return 1.0
        return statistics.fmean(REF_S / min(took, SLOWEST * REF_S) for took in window)

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the wall interval [t0, t1]."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_left(self.at, t1)
        return (t1 - t0 - sum(self.took[i:j])) * self.speed(t0, t1)
