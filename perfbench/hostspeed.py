"""Host-speed sampling, to scale the benchmark's times to a reference host speed.

The benchmark runs on a few vCPUs of a shared host.  How fast such a vCPU
runs pure Python changes with what the other tenants of the same physical
cores do: on the 2-vCPU Intel Xeon VM where the benchmark was written, one
and the same `oscillator` job took from 5.4 to 9.7 s within four minutes,
and CPU time followed wall time.  Medians inside a run do not remove a change
that lasts longer than the run.

So a timed run samples the host's speed while it runs.  A timer signal every
``PERIOD_S`` runs a fixed pure-Python kernel (dict lookups, calls, float
arithmetic, no container objects of its own) twice and keeps the time of the
second run.  The first run brings the kernel back into the caches that the
program has filled since the last sample, so the time depends little on
what the program was doing.  The ratio ``REF_KERNEL_S / time`` is the
host's speed at that moment relative to the reference host.  A measured
interval, multiplied by the mean ratio over the samples taken in it, becomes
the time the same work takes at the reference speed.  The kernel lives here
and not in hopfdeform, so a change to the program moves the scaled times and
not the scale.

``clock`` leaves out the time spent in the kernel, so the samples add
nothing to the measured intervals.  The samples take under 1% of the run.
"""
from __future__ import annotations

import contextlib
import signal
import time

PERIOD_S = 0.01
# kernel time on the reference host, a 2-vCPU Intel Xeon VM with Python 3.11.7:
# its times cluster near 20 and 37 us, and this is the faster of the two
REF_KERNEL_S = 20e-6
# an interval with fewer samples than this is scaled by the last MIN_SAMPLES
MIN_SAMPLES = 50

_TABLE = {i: float(i % 7) for i in range(256)}


def _half(x: float) -> float:
    return x * 0.5


def kernel() -> float:
    table = _TABLE
    acc = 0.0
    for i in range(300):
        acc += _half(table[i & 255])
    return acc


class HostSpeed:
    """Samples the host's speed every ``PERIOD_S`` while it is entered."""

    def __init__(self):
        self.ratios: list[float] = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.ratios.append(REF_KERNEL_S / (t2 - t1))
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> HostSpeed:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    @contextlib.contextmanager
    def paused(self):
        """No samples inside: for intervals this process spends waiting."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def clock(self) -> float:
        """``perf_counter`` without the time spent sampling."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.ratios)

    def factor(self, mark: int) -> float:
        """Mean speed ratio over the samples taken since ``mark``.

        With fewer than ``MIN_SAMPLES`` of them, the last ``MIN_SAMPLES``
        samples are used, so a short interval is scaled by the host's speed
        around it.
        """
        end = len(self.ratios)
        start = max(0, min(mark, end - MIN_SAMPLES))
        if start == end:
            return 1.0
        return sum(self.ratios[start:end]) / (end - start)
