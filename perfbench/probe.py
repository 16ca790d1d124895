"""Fixed-work probe of the host's speed, and a sampler that runs it during
the measured commands.

The machine is shared, and its speed for this kind of code flips between a
fast and a slow state (about 1.6x apart) every few seconds, so raw pass times
vary by 10-20% from run to run.  A probe timed next to a command tracks the
state only at the command's edges; the sampler instead interrupts the
measured process every ``INTERVAL_S`` seconds (SIGALRM) and times one probe
there, so the speed is sampled during the command itself.  A command's time
is its wall time minus the time spent in the sampler, rescaled by
``REFERENCE_S`` over the mean probe time sampled during it: the seconds it
would take at the reference speed.  Set-up launches are rescaled the same
way, by a sampler running inside the launched interpreter.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# About the median duration of probe() on the reference host (2 vCPUs,
# CPython 3.11.7).  Changing it rescales every recorded figure; keep it fixed.
REFERENCE_S = 0.0003
INTERVAL_S = 0.05
# A command too short to be sampled this many times is rescaled by the
# samples taken just before it.
MIN_SAMPLES = 3


def _mulmod(a: int, b: int) -> int:
    return a * b % 65521


def probe() -> float:
    """Time a fixed piece of exact arithmetic: about half over Q, half
    modulo a prime through small function calls, the two kinds of work the
    program spends its time on."""
    start = time.perf_counter()
    acc = Fraction(1)
    for i in range(1, 30):
        acc = acc * Fraction(i % 7 + 1, i % 5 + 1) + 1
    x = 1
    for i in range(1, 400):
        x = _mulmod(x, i) + 1
    return time.perf_counter() - start


def rescale(seconds: float, probes) -> float:
    """seconds at the reference speed, given probe times taken meanwhile."""
    return seconds * REFERENCE_S * len(probes) / sum(probes)


class Sampler:
    """Runs probe() from a SIGALRM handler at a fixed interval.

    ``samples`` holds (end time, probe duration) pairs; ``spent`` is the
    total time spent in the handler, to be taken off the measured time.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        duration = probe()
        self.samples.append((start + duration, duration))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def window(self, start: float, end: float) -> list:
        """Probe times sampled in [start, end], or the last MIN_SAMPLES
        before end when fewer fell inside."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) >= MIN_SAMPLES:
            return inside
        return [d for t, d in self.samples if t <= end][-MIN_SAMPLES:]
