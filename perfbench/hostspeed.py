"""Host-speed sampling, so timings on a shared host compare across runs.

On a shared 2-core VM the same pass runs up to twice as slow during phases
of contention lasting from seconds to minutes, so raw medians drift between
runs by more than any bound worth gating on. While a ``HostSpeed`` is
active, a real-time interval timer interrupts the program every
``TICK_S`` and runs a fixed kernel of small numpy calls and interpreter
work, the kind of work every workload is made of. An interval's factor is
``TICK_REF_S`` over the mean kernel time inside it; a time multiplied by its
factor reads as seconds on a host where one kernel run takes ``TICK_REF_S``.
``clock`` leaves out the time spent in the sampler itself.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

TICK_S = 0.05
TICK_LOOPS = 250
# about the kernel's time on an uncontended 2-core Xeon VM at 2.0 GHz
TICK_REF_S = 0.0012


class HostSpeed:
    """Context manager that samples the kernel while it is active.

    Uses SIGALRM, so it must be entered in the main thread.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.spent = 0.0
        self._a = np.linspace(-0.1, 0.1, 160).reshape(16, 10)
        self._x = np.linspace(0.0, 1.0, 80).reshape(10, 8)
        self._previous = None

    def sample(self) -> float:
        start = perf_counter()
        total = 0.0
        for i in range(TICK_LOOPS):
            h = np.tanh(self._a @ self._x)
            total += float(h.sum())
            entry = {"i": i, "v": [i, total]}
            total += len(entry)
        took = perf_counter() - start
        self.durations.append(took)
        self.spent += took
        return took

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self) -> float:
        """Seconds, not counting time spent sampling."""
        return perf_counter() - self.spent

    def mark(self) -> int:
        """Start of an interval, for ``factor``."""
        return len(self.durations)

    def factor(self, since: int) -> float:
        """Scale factor for the interval that began at mark ``since``."""
        ticks = self.durations[since:] or [self.sample()]
        return TICK_REF_S / statistics.mean(ticks)
