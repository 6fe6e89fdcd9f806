"""Machine-speed calibration for host timings.

The benchmark shares its machine with other tenants, and their load slows
everything it runs, for stretches as long as a whole run.  Neither a
best-of nor a median over one run removes a slowdown that lasts the whole
run.  So each timed unit is divided by the time of a fixed kernel run
next to it (the faster of the runs just before and just after), then
scaled back to seconds by the kernel's reference time.  The kernel does
the engine's kind of work: it builds and probes a dict of tuple keys and
runs a numpy sort, on fixed inputs.  It never changes.  ``REFERENCE_S``
turns the ratios into seconds on a machine where the kernel takes that
long.  A faster program lowers the ratio; a busier machine raises both
sides of it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Kernel time on the reference machine (2.1 GHz Xeon vCPU).
REFERENCE_S = 0.012


class Calibration:
    """Times the fixed kernel; inputs are built once, independent of
    the workload seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20181)
        self._build = list(zip(rng.integers(0, 25_000, 30_000).tolist(),
                               rng.integers(0, 7, 30_000).tolist()))
        self._probe = list(zip(rng.integers(0, 25_000, 15_000).tolist(),
                               rng.integers(0, 7, 15_000).tolist()))
        self._column = rng.random(50_000)

    def _kernel(self) -> int:
        table = {}
        for i, key in enumerate(self._build):
            table.setdefault(key, []).append(i)
        matches = 0
        for key in self._probe:
            matches += len(table.get(key, ()))
        np.argsort(self._column)
        return matches

    def time(self) -> float:
        start = perf_counter()
        self._kernel()
        return perf_counter() - start


class Timer:
    """Host time of repeated units, per unit key, at reference speed."""

    def __init__(self) -> None:
        self._calibration = Calibration()
        self._previous = self._calibration.time()
        self.scaled: dict = {}  # key -> seconds at reference speed
        self.raw: dict = {}  # key -> measured seconds

    def observe(self, key, elapsed: float) -> None:
        following = self._calibration.time()
        speed = min(self._previous, following)
        self._previous = following
        self.scaled.setdefault(key, []).append(elapsed / speed * REFERENCE_S)
        self.raw.setdefault(key, []).append(elapsed)

    def total(self, raw: bool = False) -> float:
        """Sum over unit keys of each unit's median repetition."""
        samples = self.raw if raw else self.scaled
        return sum(statistics.median(v) for v in samples.values())
