"""Program time measured at a fixed reference host speed.

The benchmark's reference host is a shared 2-vCPU machine whose speed for
one process changes by up to 2x between regimes lasting from seconds to
minutes, with CPU time equal to wall time (no steal).  The regimes also
change speed by different factors for different kinds of work.  A median
over one run cannot remove a regime that covers the whole run, so raw wall
times of ten 30-second runs spread by 22-35 % of their median.

``RefClock`` runs a fixed calibration kernel (a probe) at most every
``PROBE_EVERY_S`` seconds, at ``simulation.step`` boundaries and around each
timed command, and divides every stretch of program time between two probes
by the median time of the five probes around it.  Multiplied by the probe's
reference time this gives reference seconds: the time the stretch would take
on a host where the probe takes its reference time.  The probe's own time is
excluded from every measured stretch.  The probe depends on Python and numpy
only, so a change to the package does not change it.

A probe is made of parts, one per kind of work the package does (``PARTS``).
Each workload's probe holds the parts whose slow-downs track its own: a
part that a regime slows by more than it slows the workload over-corrects.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

perf = time.perf_counter

PROBE_EVERY_S = 0.05  # least program time between two probes at step boundaries
NEIGHBOURS = 2  # probes on each side that enter a stretch's median

_rng = np.random.default_rng(0)
_FFT_IN = _rng.standard_normal((16, 64, 16)) + 0j
_STREAM_IN = _rng.standard_normal((32, 128, 32)) + 0j  # 2 MiB: with temporaries, past L2


def _python() -> None:
    x = 0
    for i in range(20000):
        x += i * i


def _fft() -> None:
    for _ in range(8):
        np.fft.fftn(_FFT_IN)


def _tiny() -> None:
    s = np.ones(8)
    for _ in range(1500):
        s = s * 1.0001 + 0.0


def _stream() -> None:
    c = _STREAM_IN * 1.5 + _STREAM_IN
    c *= _STREAM_IN


# part -> (kernel, its time on the reference host in its fastest regime)
PARTS = {
    "python": (_python, 1.2e-3),  # pure-Python integer loop
    "fft": (_fft, 1.8e-3),  # eight 16x64x16 complex FFTs
    "tiny": (_tiny, 2.0e-3),  # numpy calls on 8-element arrays
    "stream": (_stream, 0.8e-3),  # complex arithmetic on 32x128x32 arrays
}
ALL_PARTS = tuple(PARTS)


def reference_seconds_just_ended(seconds: float) -> float:
    """Reference seconds of a stretch of program time that has just ended.

    For a stretch that no probe could precede, such as the import of numpy
    itself: five probes run now and their median scales it.
    """
    clock = RefClock()
    for _ in range(5):
        clock.probe()
    return seconds * clock.reference / statistics.median(clock.durations)


class RefClock:
    """Probes the host speed and converts perf_counter intervals to reference seconds."""

    def __init__(self, parts: tuple[str, ...] = ALL_PARTS):
        self.kernels = [PARTS[name][0] for name in parts]
        self.reference = sum(PARTS[name][1] for name in parts)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        t0 = perf()
        for kernel in self.kernels:
            kernel()
        t1 = perf()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def maybe_probe(self) -> None:
        """Probe when at least PROBE_EVERY_S of program time has passed since the last probe."""
        if not self.ends or perf() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def _scale(self, i: int) -> float:
        window = self.durations[max(i - NEIGHBOURS, 0): i + NEIGHBOURS + 1]
        return self.reference / statistics.median(window)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the program time in [t0, t1].

        A probe must end at or before t0 and one must start at or after t1.
        Each stretch between probes is scaled by the probes around it.
        """
        first = bisect.bisect_right(self.ends, t0) - 1  # last probe before t0
        last = bisect.bisect_left(self.starts, t1)  # first probe after t1
        if first < 0 or last >= len(self.starts):
            raise ValueError("reference_seconds needs a probe before t0 and one after t1")
        total, start = 0.0, t0
        for i in range(first + 1, last):
            total += (self.starts[i] - start) * self._scale(i - 1)
            start = self.ends[i]
        return total + (t1 - start) * self._scale(last - 1)
