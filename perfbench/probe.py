"""Clocks for the timed work: plain process CPU time, or CPU time scaled by
a speed probe that runs through the work.

On a shared host the same work takes different CPU time from one minute to
the next: other tenants share the processor's caches and cores, and CPU
time counts those stalls. SpeedProbe runs a fixed reference computation
(numpy element-wise work and a small matrix product, the two kinds of work
the program does) from a SIGPROF timer every PERIOD_S CPU seconds. A timed
interval then reports its CPU time without the probes' own time, scaled by
REFERENCE_S over the probes' mean time in that same interval: the seconds
the work would take at the speed the probe reads REFERENCE_S. Work done
before the timer starts (the set-up) is scaled by probes run right after it.

    clock = SpeedProbe(); clock.start()
    mark = clock.mark()
    ...work...
    seconds = clock.since(mark)
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.5  # CPU seconds between probes
REFERENCE_S = 0.020  # CPU seconds of one probe at the reference speed


class CpuClock:
    """Process CPU seconds (user + system), unscaled."""

    probes = 0

    def sample(self, n: int) -> float:
        return 1.0

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def mark(self) -> tuple[float, float, int]:
        return time.process_time(), 0.0, 0

    def since(self, mark: tuple[float, float, int]) -> float:
        return time.process_time() - mark[0]

    def speed(self, mark: tuple[float, float, int]) -> float:
        return 1.0


class SpeedProbe(CpuClock):
    def __init__(self):
        self._arrays = None  # made at the first probe, not in the set-up
        self.probe_s = 0.0  # CPU seconds spent in probes so far
        self.probes = 0

    def _prepare(self) -> None:
        if self._arrays is None:
            rng = np.random.default_rng(20160719)
            self._arrays = (rng.standard_normal(250_000), rng.standard_normal(250_000),
                            rng.standard_normal((160, 160)) / 16.0)
            self.reference()  # first touch, untimed

    def reference(self) -> float:
        a, b, m = self._arrays
        acc = 0.0
        for _ in range(12):
            c = a * b + a
            acc += float((c > 0.0).sum()) + float(np.sort(c[:16_000])[8_000])
        x = m
        for _ in range(24):
            x = np.tanh(x @ m)
        return acc + float(x[0, 0])

    def _tick(self, signum, frame) -> None:
        t0 = time.process_time()
        self.reference()
        self.probe_s += time.process_time() - t0
        self.probes += 1

    def sample(self, n: int) -> float:
        """Run n probes back to back now; returns the speed they read."""
        self._prepare()
        mark = self.mark()
        for _ in range(n):
            self._tick(None, None)
        return self.speed(mark)

    def start(self) -> None:
        self._prepare()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        return time.process_time(), self.probe_s, self.probes

    def speed(self, mark: tuple[float, float, int]) -> float:
        """REFERENCE_S over the mean probe time since mark (1.0 without probes)."""
        n = self.probes - mark[2]
        return REFERENCE_S / ((self.probe_s - mark[1]) / n) if n else 1.0

    def since(self, mark: tuple[float, float, int]) -> float:
        cpu0, probe0, _ = mark
        work = time.process_time() - cpu0 - (self.probe_s - probe0)
        return work * self.speed(mark)
