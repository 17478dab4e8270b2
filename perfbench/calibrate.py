"""Host speed, read from a fixed pure-Python loop.

The effective speed of a small shared VM drifts with its neighbours' load:
on the 2-vCPU VM this benchmark was sized on, the same 60 s run read 36 or
57 scan rows/s a few minutes apart, and set-up time moved with it.  Longer
runs do not average that out.  So the benchmark times this loop next to the
program's work and reports the program's times scaled to a host on which
the loop takes ``REFERENCE_NS``; the times as measured are printed beside
them.

The loop is stdlib ``Fraction`` arithmetic, the code most of the program's
time is spent in (``Scalar`` is built on it), and it runs with the cyclic
garbage collector off, so the program's own heap does not change its time.
It is benchmark code: a change to the program cannot make it faster.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The loop's time on the reference host (the VM above, in its slower state).
REFERENCE_NS = 1_500_000


def loop_ns() -> int:
    """Nanoseconds for one pass of the fixed loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter_ns()
        acc = Fraction(0)
        for i in range(1, 120):
            acc += Fraction(i, 7) * Fraction(3, i + 1) - Fraction(1, i)
        return time.perf_counter_ns() - begin
    finally:
        if enabled:
            gc.enable()


def slowdown(loops: list) -> float:
    """The host's slowdown against the reference over a run: the median of
    ``loops`` (ns).  Unweighted: weighting each by the request before it
    let the few loops after multi-second requests set the figure."""
    return statistics.median(loops) / REFERENCE_NS
