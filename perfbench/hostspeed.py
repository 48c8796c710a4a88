"""How fast the host runs Python right now, for normalising times.

The machines this benchmark runs on are shared: the same pass measured
1.7x slower a few minutes apart, with CPU time equal to wall time, so
neither clock alone separates a change of the program from a change of
the host.  :func:`calibrate` times a fixed pure-Python kernel that uses
nothing from the program (integer arithmetic, dict and list updates, a
sort); ``child.py`` runs it before and after every timed call and
divides the call's time by the host's slowness at that moment.  A
normalised time is in *reference seconds*: what the call would have
taken on a host where the kernel takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.002
"""Kernel time that defines the reference host speed (about what one
kernel takes on the 2-CPU machine the baseline was recorded on)."""

REPEATS = 5
"""Kernel runs per calibration; their median is the calibration."""


def kernel() -> int:
    """A fixed amount of interpreter work of the kinds the flow does."""
    table: dict[int, int] = {}
    pairs = []
    acc = 0
    for i in range(3000):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 13
        pairs.append((key, i))
    pairs.sort()
    return acc + len(table) + len(frozenset(pairs[::7]))


def calibrate() -> float:
    """Median seconds of :data:`REPEATS` kernel runs, measured now."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalised(seconds: float, before: float, after: float) -> float:
    """*seconds* measured between calibrations *before* and *after*, in
    reference seconds."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
