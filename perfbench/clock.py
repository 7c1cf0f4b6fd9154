"""Stage timing that discounts other tenants' load on a shared machine.

On a shared machine the same work can take 1.0x to 1.8x its fastest time,
in stretches of seconds to minutes, as other tenants contend for the
physical core.  A `Clock` therefore samples a fixed reference loop while
a timed region runs: a SIGALRM timer runs it every SAMPLE_EVERY_S, and
once more after the region ends.  The loop's own time is left out of the
region.  A region then reads

    wall time * REFERENCE_S / (median reference loop in the region),

that is, seconds on a machine where the reference loop takes REFERENCE_S,
the fastest it ran on the machine the first baseline was measured on.
Work the program adds or removes shows in full; a slowdown that hits the
reference loop as hard as the program cancels.  A fixed REFERENCE_S,
rather than the fastest loop of each run, keeps runs that never saw a
quiet moment comparable with runs that did.  An unscaled clock (`Clock(scaled=False)`) reads plain wall time and starts
no timer.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

REFERENCE_S = 1.7e-4  # fastest reference loop seen on the baseline machine (see README)
SAMPLE_EVERY_S = 0.01

_VECTOR = np.linspace(0.0, 1.0, 64)
_MATRIX = np.outer(_VECTOR, _VECTOR)


def reference_loop() -> float:
    """Seconds one run of the reference loop takes.  It mixes integer
    arithmetic, small dicts and sorting, and small numpy operations, as
    the program does; each of these slows differently under contention."""
    start = perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    table = {(i, i % 7): str(i) for i in range(100)}
    sorted(table.items(), key=lambda kv: kv[1])
    for j in range(30):
        _MATRIX[:, j].dot(_VECTOR)
        _MATRIX[j] * 2.0
    return perf_counter() - start


@dataclass
class Region:
    wall: float  # seconds, the reference loop's own time left out
    seconds: float  # wall, scaled to the reference speed when the clock scales


class Clock:
    def __init__(self, scaled: bool = True):
        self.scaled = scaled
        self._busy = False

    @contextmanager
    def region(self):
        """Time the block; the yielded Region is filled in when it ends."""
        assert not self._busy, "timed regions do not nest"
        region = Region(0.0, 0.0)
        samples: list[float] = []
        if self.scaled:
            previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(reference_loop()))
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._busy = True
        start = perf_counter()
        try:
            yield region
        finally:
            if self.scaled:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = perf_counter() - start  # after any sample still pending
            self._busy = False
            if self.scaled:
                signal.signal(signal.SIGALRM, previous)
                region.wall = elapsed - sum(samples)
                samples.append(reference_loop())
                region.seconds = region.wall * REFERENCE_S / statistics.median(samples)
            else:
                region.wall = region.seconds = elapsed
