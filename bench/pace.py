"""Host-speed scaling: a fixed probe sampled on a timer while a time is taken.

The machines this benchmark runs on are shared, and their speed drifts:
the same pass runs 1.0x to 1.6x its fastest time, in spells of a few
seconds to over half a minute, so a run of a few passes cannot average
the drift away.  While a pass (or a set-up) is timed, a timer signal
interrupts the process every few milliseconds and times a fixed probe.
The mean probe time over the timed span is the host's slowness during
that span, and

    scaled time = (measured time - time in the handler)
                  * reference probe time / mean probe time

is the time the span would have taken on the reference host, where the
probe takes its reference time.  Between passes at different host speeds
this cut the spread of pass times from 5-17% to 2-5%, and that of
set-up times from 13-16% to 5-11% (coefficients of variation on the
reference host).  The probe is part of the benchmark, never of the
program: a change to the program moves the scaled time, not the probe.

The handler runs between two bytecodes of the process, like any Python
signal handler.  It touches no state of the program: no random numbers,
no caches, no objects the program can see.
"""

from __future__ import annotations

import signal
from time import perf_counter

PASS_INTERVAL_S = 0.01
SETUP_INTERVAL_S = 0.005
# Each probe's mean time inside the handler on the reference host (Intel
# Xeon 2.0 GHz, Python 3.11, numpy 2.4) while it ran at its fast speed.
# They only set the scale of the reported times.
PASS_REFERENCE_S = 2.5e-4
SETUP_REFERENCE_S = 8.0e-5

_matrix = _vector = None


def python_probe() -> int:
    """Interpreter work only, for spans that start before numpy is
    imported."""
    s = 0
    for i in range(1000):
        s += i * i % 7
    return s


def pass_probe() -> float:
    """Interpreter work and 30 matrix-vector products of size 48: the two
    kinds of work the program does, which the host slows down together."""
    global _matrix, _vector
    if _matrix is None:
        import numpy as np

        _matrix = np.full((48, 48), 1.0 / 48) + np.eye(48)
        _vector = np.linspace(0.5, 1.5, 48)
    v = _vector
    for _ in range(30):
        v = _matrix @ v
        v = v / v.sum()
    return python_probe() + float(v[0])


class Pace:
    """Samples `probe` every `interval_s` seconds inside a `with` block.

        with Pace(pass_probe, PASS_REFERENCE_S) as pace:
            t0 = perf_counter(); work(); wall = perf_counter() - t0
        seconds = pace.scaled(wall)
    """

    def __init__(self, probe=pass_probe, reference_s: float = PASS_REFERENCE_S,
                 interval_s: float = PASS_INTERVAL_S) -> None:
        self.probe = probe
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.probe()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += perf_counter() - t0

    def __enter__(self) -> "Pace":
        self.probe()  # warm up, outside the timed span
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter() less the time spent in the handler so far."""
        return perf_counter() - self.handler_s

    def measured(self, wall: float) -> float:
        """`wall` less the time spent in the handler."""
        return wall - self.handler_s

    def scaled(self, wall: float) -> float:
        """`wall` seconds timed inside the block, at the reference speed."""
        samples = self.samples
        if not samples:  # shorter than the timer: probe once now
            t0 = perf_counter()
            self.probe()
            samples = [perf_counter() - t0]
        return self.measured(wall) * self.reference_s / (sum(samples) / len(samples))
