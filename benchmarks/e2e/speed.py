"""The box's speed, probed beside every timed step.

This box has speed *states*: the same code runs at 1x, 1.35x or 1.65x of its
quiet time for 5-30 s at a stretch (a shared core and a shared memory
system), so a run of any affordable length lands in an arbitrary mix of them
and no statistic over its passes removes that.  What does: a fixed kernel of
the benchmark's own, timed right before each step of a workload, and the
step's wall time scaled by how slow the kernel just ran.

The kernel walks a pseudo-random cycle through a 4 MB list -- one dependent
load per interpreter iteration, no allocation (so the garbage collector never
fires in it).  It slows down in step with the library's pure-Python object
code; a pure arithmetic loop does not (it misses the memory system's share
of the slowdown and leaves about twice the spread).

Every second of a pass is therefore a **box-normalised second**: wall
seconds times ``REFERENCE_S / probe seconds``.  ``REFERENCE_S`` is about the
kernel's time on this box when it is quiet, so a quiet run reads close to
wall-clock; the per-layer ``bench.speed_factor`` is the median scale applied.

The probe reads the state of the caches as much as the speed of the core:
between two steps of a workload its list has always been evicted, so the
readings compare.  Right after start-up, or after several probes in a row,
the list is still cached and the kernel runs twice as fast -- which is why
set-up times are not normalised.
"""

from __future__ import annotations

import time

clock = time.perf_counter

#: Length of the cycle (a power of two: the LCG below then visits every slot).
SIZE = 1 << 19
#: Loads per probe (about 4 ms here).
STEPS = 16_000
#: What one probe takes on this box when nothing else runs on it.
REFERENCE_S = 0.25e-6 * STEPS

_cycle = [(index * 1664525 + 1013904223) & (SIZE - 1) for index in range(SIZE)]
_position = 0


def factor() -> float:
    """Probe the box now: what to multiply the next wall seconds by."""
    global _position
    index = _position
    cycle = _cycle
    start = clock()
    for _ in range(STEPS):
        index = cycle[index]
    taken = clock() - start
    _position = index
    return REFERENCE_S / taken


class Stopwatch:
    """Box-normalised seconds of a sequence of steps.

    ``with watch: ...`` probes the box, times the block and adds its
    normalised seconds to ``seconds``.  ``seconds`` only advances inside
    steps, so the difference of two readings is the normalised time the
    steps between them took.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        #: Plain wall seconds of the same steps (for the tracer's shares).
        self.wall_s = 0.0
        #: Every scale applied, in order.
        self.factors: list = []
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self.factors.append(factor())
        self._start = clock()
        return self

    def __exit__(self, *exc_info) -> None:
        wall = clock() - self._start
        self.wall_s += wall
        self.seconds += wall * self.factors[-1]

