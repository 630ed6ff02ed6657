"""Host-speed probe: scales measured host seconds to a reference host speed.

On a shared host the speed at which this process executes swings by up to
1.8x over seconds to minutes as other tenants load the machine, which
swamps the differences the benchmark exists to show. So while a phase runs,
a CPU-time interval timer interrupts the process every 10 ms and the signal
handler times one of two fixed probes, in turn: a pure-Python loop, and a
numpy convolution like the statistics layer's (only in phases that start
with numpy already imported by tcsim; the benchmark never imports it itself,
so set-up time stays tcsim's).
Interpreted code and numpy code slow down by different factors under the
same load, so the speed scale of a phase is the geometric mean of the two
probes' speeds (from trimmed means of their times) relative to their
reference times. The phase's host
seconds, minus the probes' own time, are multiplied by that scale.

The probes belong to the benchmark, not to tcsim, so a change to tcsim
moves the scaled time as it moves the work done.
"""

from __future__ import annotations

import math
import signal
import statistics
import sys
import time

INTERVAL_S = 0.01
# each probe's time on an uncontended core of the machine the baseline was
# recorded on, so that scaled seconds read close to wall seconds there
REFERENCE_S = {"python": 165e-6, "numpy": 215e-6}


def _python_probe():
    s = 0
    for i in range(2500):
        s += i * i % 7
    return s


def _trimmed_mean(values: list[float]) -> float:
    """Mean of the middle 80%: robust to a probe that a context switch
    stretched, yet still weighs the slow stretches a median would ignore."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


class SpeedProbe:
    """Times the probes every INTERVAL_S of process CPU time between
    ``start`` and ``stop``."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self._previous = None
        self._turn = 0
        self._np = None
        self._arrays = None

    def _numpy_probe(self):
        np = self._np
        if self._arrays is None:
            t = (np.arange(301) - 150) / 30.0
            self._arrays = (np.cos(np.arange(4096) * 0.01), np.exp(-0.5 * t * t))
        return np.convolve(*self._arrays, mode="same")

    def _handler(self, signum, frame):
        self._turn += 1
        kind = "numpy" if self._np is not None and self._turn % 2 else "python"
        t0 = time.perf_counter()
        if kind == "numpy":
            self._numpy_probe()
        else:
            _python_probe()
        self.durations[kind].append(time.perf_counter() - t0)

    def start(self):
        self.durations = {kind: [] for kind in REFERENCE_S}
        self._np = sys.modules.get("numpy")
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Returns (seconds spent in probes, speed scale). The scale is 1
        when the phase was too short to be probed."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        speeds = [REFERENCE_S[kind] / _trimmed_mean(d)
                  for kind, d in self.durations.items() if d]
        probe_s = sum(sum(d) for d in self.durations.values())
        return probe_s, math.prod(speeds) ** (1 / len(speeds)) if speeds else 1.0


def scaled(seconds: float, probe: tuple[float, float]) -> float:
    """Host seconds of a probed phase at the reference speed."""
    probe_s, scale = probe
    return (seconds - probe_s) * scale
