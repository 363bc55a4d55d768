"""The reference kernel: a yardstick for time on a machine whose speed drifts.

The benchmark runs on shared hosts whose speed changes by up to 70 % for
minutes at a time, for every program on them alike.  Before each item the
worker times a few passes of a fixed kernel that never touches the library;
it does the kind of work the library does (``Fraction`` and float
arithmetic, dict and tuple traffic in the interpreter), so it slows down
with the machine and with nothing else.  An item's time divided by the kernel's time around it is
the item's length in kernel passes, which a slow spell leaves alone while a
change to the library moves it as much as its time.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

PASSES = 2   # passes timed before each item; the fastest one counts
WINDOW = 3   # an item is measured against the kernel around it, this many items each side


def kernel() -> float:
    """One pass of the fixed work; its wall time in seconds."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict[tuple[int, int], Fraction] = {}
    x = 0.5
    for i in range(1, 240):
        acc += Fraction(i, i + 3) * Fraction(5, 7)
        table[(i, i % 7)] = acc
        for j in range(12):
            x = x * 0.999 + (i ^ j) * 1e-3
    total = sum(table[(k, k % 7)].numerator % 11 for k in range(1, 240, 3))
    if total < 0 or x != x:  # uses the results, so no pass can be skipped
        raise AssertionError
    return time.perf_counter() - start


def gauge_ms() -> float:
    """The kernel's time now, in ms: the fastest of ``PASSES`` passes."""
    return min(kernel() for _ in range(PASSES)) * 1e3


def in_kernels(item_ms: list[float], kernel_ms: list[float]) -> list[float]:
    """Each item's time over the median kernel time of its window, in one batch.

    ``kernel_ms[i]`` was gauged just before item ``i`` ran.
    """
    n = len(item_ms)
    return [t / statistics.median(kernel_ms[max(0, i - WINDOW):min(n, i + WINDOW + 1)])
            for i, t in enumerate(item_ms)]
