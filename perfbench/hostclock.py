"""A clock that reads time scaled to a fixed reference host speed.

The benchmark runs on shared machines whose speed drifts by a quarter or
more within seconds, for the benchmark's own code and a plain Python loop
alike.  Raw wall time of a 20-second run then moves more between runs than
the changes the benchmark must resolve.  So the clock interrupts the
measured work every INTERVAL_S (a SIGALRM interval timer; the handler runs
between bytecodes of the main thread) to run a short fixed calibration
slice: Fraction arithmetic, dict and tuple work, like the engine's inner
loop.  Time after a slice runs at ``REFERENCE_S / slice duration`` times
real time, and the clock stands still while a slice runs.  A reading is
thus the time the work would take on a host where the slice takes
REFERENCE_S, about what one slice takes on a 2-core Xeon VM.  Tuned there:
calibrating every 50 ms cut the spread of identical 2.2 s passes from 17%
to 3% (interquartile range over median), against 7% when calibrating every
0.55 s.  The slices cost about 5% of the run.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0025
INTERVAL_S = 0.05


def calibration_slice(n: int = 800) -> Fraction:
    acc = Fraction(0)
    counts: dict = {}
    for i in range(n):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        acc += Fraction(i % 7, i % 5 + 1)
    return acc


class HostClock:
    """Call it for the current scaled time; ``close`` stops the timer."""

    def __init__(self):
        # (scaled time, perf_counter, factor) at the last calibration; one
        # tuple, so a reading never mixes two calibrations
        self._state = (0.0, perf_counter(), 1.0)
        self._busy = False
        self.factors: list[float] = []
        calibration_slice()  # warm-up: first run in a fresh process is slower
        self.calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def __call__(self) -> float:
        scaled, real, factor = self._state
        return scaled + (perf_counter() - real) * factor

    def calibrate(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            now = self()
            start = perf_counter()
            calibration_slice()
            end = perf_counter()
            factor = REFERENCE_S / (end - start)
            self.factors.append(factor)
            self._state = (now, end, factor)
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.calibrate()

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
