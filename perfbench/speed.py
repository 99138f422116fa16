"""A reference clock that runs at the speed of an uncontended core.

On a shared virtual machine the same CPU-bound loop can take from 1x to more
than 2.5x its fastest time, and the rate changes every few seconds.  It is not
steal time: process CPU time swings as much as wall time, so it comes from
the host (other tenants on the core's sibling thread, frequency changes).  A
run of a few tens of seconds cannot average that out, so raw wall times of two
runs of the same code differ by a quarter.

:class:`SpeedProbe` measures the machine's current speed while the work runs:
a timer signal interrupts the process every ``PERIOD_S`` and times a fixed
piece of pure-Python work (the probe): ``Fraction`` arithmetic and dict
inserts and lookups, the mix goverify's exact linear algebra spends its time
in.  Such a probe follows goverify's own slow-downs more closely than a bare
integer loop does, which the contention slows less.

:meth:`SpeedProbe.reference` maps a ``time.monotonic()`` reading to a
reference clock that stands still while a probe runs and between probes
advances at ``REFERENCE_PROBE_S / probe time``: a stretch of wall time
on a core half as fast counts half.  A duration on this clock is the work's
time on a core that runs the probe in ``REFERENCE_PROBE_S``.  Probes take
about 3% of the process, excluded from every duration.
"""

import bisect
import gc
import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
# The probe's time on an uncontended core of a 2-core x86_64 VM (Intel Xeon,
# 2.0 GHz), CPython 3.11: the fast mode of its distribution there.
REFERENCE_PROBE_S = 0.0018
_LOOKUPS = random.Random(1).sample(range(8000), 2500)


def _probe_work() -> int:
    third, total = Fraction(1, 3), Fraction(0)
    for i in range(300):
        total += third * Fraction(i % 7 + 1, i % 5 + 2)
    table = {i: i for i in range(6000)}
    return sum(table.get(key, 0) for key in _LOOKUPS) + total.denominator


class SpeedProbe:
    """Periodic speed probes of one process; single-threaded, SIGALRM-based."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end) of each probe
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._cum: list[float] = []  # reference time at each probe's start
        self._rates: list[float] = []  # reference rate of the gap before each probe

    def _probe(self, signum, frame) -> None:
        # a garbage collection of the process's own objects is not machine speed
        collecting = gc.isenabled()
        gc.disable()
        start = time.monotonic()
        _probe_work()
        self.probes.append((start, time.monotonic()))
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, 0.001, PERIOD_S)

    def stop(self) -> None:
        """Stop probing and fix the reference clock; call before :meth:`reference`."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.probes:
            self._probe(None, None)
        self._starts = [s for s, _ in self.probes]
        self._ends = [e for _, e in self.probes]
        durations = [e - s for s, e in self.probes]
        # a probe hit by an interrupt reads slow: smooth over its neighbours
        smooth = [statistics.median(durations[max(0, i - 1):i + 2])
                  for i in range(len(durations))]
        rates = [REFERENCE_PROBE_S / d for d in smooth]
        self._rates = [rates[0]] + [(a + b) / 2 for a, b in zip(rates, rates[1:])] + [rates[-1]]
        self._cum = [0.0]
        for i in range(1, len(self.probes)):
            gap = self._starts[i] - self._ends[i - 1]
            self._cum.append(self._cum[-1] + gap * self._rates[i])

    def reference(self, t: float) -> float:
        """Reference-clock reading at monotonic time ``t``."""
        i = bisect.bisect_right(self._starts, t)  # probes that started by t
        if i == 0:
            return (t - self._starts[0]) * self._rates[0]
        if t < self._ends[i - 1]:
            return self._cum[i - 1]
        return self._cum[i - 1] + (t - self._ends[i - 1]) * self._rates[i]

    def elapsed(self, start: float, end: float) -> float:
        """Reference seconds of the work between two monotonic readings."""
        return self.reference(end) - self.reference(start)

    def wall(self, start: float, end: float) -> float:
        """Wall seconds between two monotonic readings, probes excluded."""
        probed = sum(max(0.0, min(e, end) - max(s, start)) for s, e in self.probes)
        return end - start - probed

    def slowdown(self) -> float:
        """Median probe time over the reference: 1.0 on an uncontended core."""
        return statistics.median(e - s for s, e in self.probes) / REFERENCE_PROBE_S
