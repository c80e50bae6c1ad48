"""Machine-speed probe, so that timings read the same on a busier host.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-50% over seconds as other tenants come and go.  Every
:data:`INTERVAL_S` seconds of wall time, a timer signal interrupts the
workload and times :func:`reference`, a fixed piece of pure-Python work.
A timing taken over a window is then scaled by ``NOMINAL_S / mean`` of
the reference's times in that window (the slowest 5% dropped): it reads
what the window would have taken on the host at its nominal speed.  The
probe's own time is subtracted first (:meth:`SpeedProbe.clock`), so a
timing never includes the reference.

Python runs the handler between bytecodes, so a long call into C (a big
numpy draw) delays the next sample until it returns; the samples then
bunch up, but each still reads the speed of that moment.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Seconds of wall time between two samples.
INTERVAL_S = 0.02

#: Mean seconds of one :func:`reference` call, made from the timer
#: signal during a workload, on a quiet 2-core x86-64 VM; the scale the
#: normalised timings are in.
NOMINAL_S = 3.0e-4

#: Share of the slowest samples in a window left out of its mean: a
#: sample the host preempted outright says little about the window.
TRIM = 0.05

_WORDS = [f"w{(i * 7919) % 1009}" for i in range(600)]


def reference() -> int:
    """Fixed interpreter work: arithmetic, a dict and a sort."""
    total = 0
    for i in range(1500):
        total += i * i % 7
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    return total + len(sorted(_WORDS)) + len(counts)


class SpeedProbe:
    """Samples :func:`reference` on a wall-clock timer while running.

    Sample times are on :meth:`clock`, like every timing taken with it."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []  # on clock(), ascending
        self.times: list[float] = []  # seconds of each sample
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.starts.append(t0 - self.spent)
        self.times.append(dt)
        self.spent += dt

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> float:
        """Wall seconds minus the probe's own time so far."""
        return time.perf_counter() - self.spent

    def factor(self, t0: float, t1: float) -> float:
        """``NOMINAL_S`` over the trimmed mean reference time in the
        window ``[t0, t1]`` of :meth:`clock`; 1.0 with no sample."""
        inside = sorted(self.times[bisect.bisect_left(self.starts, t0):
                                   bisect.bisect_right(self.starts, t1)])
        if not inside:
            return 1.0
        kept = inside[:len(inside) - int(len(inside) * TRIM)]
        return NOMINAL_S / statistics.fmean(kept)
