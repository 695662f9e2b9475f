"""A fixed reference task that reads how fast the machine runs right now.

On a shared virtual machine the speed of one CPU changes by itself, within
a second, and a program's CPU time changes with its wall time.  ``Sampler``
runs a short reference task from a timer signal every ``INTERVAL_S`` while
the measured work goes on, in the same process, so the samples see the same
machine as the work around them.  The work's time is its wall time, minus
the time spent in the samples, divided by the speed factor: how much slower
the reference ran than on the machine where ``UNIT_S`` was measured.  That
is the time the work would have taken on that machine.

The task mixes what asnkit spends its time on: Python dictionaries keyed by
tuples of strings, string formatting, list sorting, a numpy sort and a
scipy special function.  It shares no code with asnkit, so a change to the
program cannot move it.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np
from scipy.special import zeta

#: Median time of one ``unit`` on the calibration machine (see README.md).
UNIT_S = 0.012

#: Seconds between two samples while work is measured.
INTERVAL_S = 0.2

_GRID = np.linspace(1.5, 3.5, 1200)


def unit() -> int:
    """One fixed piece of reference work."""
    table: dict[tuple[str, str], list[int]] = {}
    for i in range(12000):
        table.setdefault((f"l{i % 2000}", "NV"[i % 2]), []).append(i * i % 97)
    rows = sorted(",".join(map(str, v)) for v in table.values())
    values = np.random.default_rng(7).random(60000)
    values.sort()
    tail = float(zeta(_GRID, 3.0).sum())
    return len(rows) + int(values[0] < tail)


class Sampler:
    """Times ``unit`` from a ``SIGALRM`` timer while the ``with`` body runs.

    A Python signal handler runs between bytecodes, so a sample waits for a
    long C call to return; it never splits one.  At least two samples are
    taken, the missing ones at exit.  ``wall`` covers the whole block.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.units = 0
        self.wall = 0.0

    def _sample(self, *_) -> None:
        # With the collector on, the unit's allocations would start
        # collections that walk the measured work's heap and bill it here.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        unit()
        self.spent += time.perf_counter() - start
        self.units += 1
        if collecting:
            gc.enable()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        while self.units < 2:
            self._sample()
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Slowdown over the calibration machine while the block ran."""
        return self.spent / (self.units * UNIT_S)

    def seconds(self) -> float:
        """The block's own time, less the samples, at calibration speed."""
        return (self.wall - self.spent) / self.factor()
