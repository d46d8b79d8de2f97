"""Machine-speed probes, so timings on shared hardware can be compared.

On a shared machine the speed of one core changes from moment to moment
(on a shared 2-vCPU virtual machine it switches, every few hundred
milliseconds, between two speeds about 1.8x apart). A probe times a fixed
piece of exact-rational work of the same kind as dpdelta's: Fraction
additions with gcd reductions.

`SpeedMeter.time` runs one operation with a probe before it, a probe after
it, and a probe every TICK_S while it runs, taken from a SIGALRM handler in
the same thread. The time spent in those probes is subtracted from the
operation, and the rest is scaled by the mean of REFERENCE_S / probe over
all its probes: the result reads as the operation's time on a machine on
which one probe takes REFERENCE_S.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import Callable, TypeVar

REFERENCE_S = 0.0005
TICK_S = 0.025
_TERMS = 160

T = TypeVar("T")


def probe() -> float:
    """Seconds taken by the fixed probe workload."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, _TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


class SpeedMeter:
    """Times operations and brings them to reference speed; one per process."""

    def __init__(self):
        self.probes: list[float] = []
        self._ticks: list[float] = []
        self._tick_time = 0.0
        self._last = probe()

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._ticks.append(probe())
        self._tick_time += time.perf_counter() - start

    def time(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """(fn's result, its seconds, the factor that brings them to reference speed)."""
        self._ticks = []
        self._tick_time = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        work = elapsed - self._tick_time
        after = probe()
        samples = [self._last, *self._ticks, after]
        self._last = after
        self.probes.extend(samples[1:])
        return result, work, sum(REFERENCE_S / p for p in samples) / len(samples)
