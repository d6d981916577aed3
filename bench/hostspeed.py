"""The host's speed, measured by a fixed reference loop between timed ops.

The benchmark host is shared with other machines' work, and the speed it
gives one process drifts: the same fixed loop takes up to twice as long in
one stretch of seconds as in another.  A wall time alone would move with
that drift, so every time the benchmark reports is scaled by the host's
speed at the moment it was measured: a time `t` measured while the
reference loop took `r` seconds is reported as `t * NOMINAL_S / r`, the
time it would take on a host that runs the loop in NOMINAL_S.

The loop is stdlib-only Python of the kind the program runs (Fraction
arithmetic, tuple-keyed dict updates) and calls no program code, so a
change to the program cannot move it.  The garbage collector is off while
it runs, so the size of the program's heap cannot move it either.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# seconds the loop takes on the reference host; reported times are scaled to it
NOMINAL_S = 0.004
# a run samples the loop again once this many seconds have passed since the last sample
EVERY_S = 0.2


def _loop() -> Fraction:
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(600):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + 1
        if x.denominator > 10**6:
            x = Fraction(x.numerator % 1000, 7)
        key = (i % 97, i % 3)
        acc[key] = acc.get(key, 0) + i
    return x


def reference() -> float:
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_now() -> float:
    """NOMINAL_S over the median of three reference samples taken now."""
    return NOMINAL_S / statistics.median(reference() for _ in range(3))


class Sampler:
    """Reference samples taken between the ops of a timed loop."""

    def __init__(self):
        self.at: list[int] = []  # index of the op each sample preceded
        self.ref_s: list[float] = []
        self.last = float("-inf")

    def take(self, op_index: int) -> None:
        self.at.append(op_index)
        self.ref_s.append(reference())
        self.last = perf_counter()

    def due(self, op_index: int) -> None:
        if perf_counter() - self.last >= EVERY_S:
            self.take(op_index)

    def scales(self, n: int) -> list[float]:
        """Per op, NOMINAL_S over the mean of the samples just before and just
        after it.  Needs a sample before op 0 and one after op n - 1."""
        out = []
        for i in range(n):
            before = self.ref_s[bisect_right(self.at, i) - 1]
            after = self.ref_s[bisect_left(self.at, i + 1)]
            out.append(2 * NOMINAL_S / (before + after))
        return out
