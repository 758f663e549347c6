"""A fixed reference computation that gauges the host's current speed.

On a shared host the speed of a process moves in steps from one tenth
of a second to the next (co-tenants on sibling hardware threads,
frequency changes), by up to a factor of two, and every phase of a
workload slows down together.  :func:`gauge` times a computation that
never changes.  The benchmark runs it right before and right after each
span of work it times and scales the span by :data:`NOMINAL_S` over
their mean (:func:`scale`), so that every time reads as CPU time at one
fixed reference speed.  A change to the program cannot move the
reference; a change of host speed moves both alike.

The computation mixes what the program spends its time on: interpreted
loops with dict and attribute access and small function calls, small
numpy calls dominated by call overhead, a few vectorized complex
operations, a copy too large for the private caches, and a walk in
random order over Python objects spread across several megabytes, as
pickling, unpickling and querying make.  Co-tenants contend for the
shared cache and memory too, and the walk moves with that contention
where the compute parts do not.  The computation allocates no
containers, and the collector is paused while it runs, so the heap a
workload leaves behind does not change it.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

#: One reference run at the reference speed, in CPU seconds (about the
#: usual figure on a 2-vCPU Xeon VM).
NOMINAL_S = 0.008


class _Cell:
    __slots__ = ("load", "mcs")

    def __init__(self, load: int) -> None:
        self.load = load
        self.mcs = load % 28


def _score(cell: _Cell, weight: int) -> int:
    return (cell.load * weight + cell.mcs) & 0xFFFF


_TABLE = {i: _Cell(i) for i in range(512)}
_SMALL = np.linspace(0.0, 1.0, 48)
_GRID = np.exp(1j * np.linspace(0.0, 6.0, 8192))
_SCRATCH = np.empty(8192, dtype=np.complex128)
_BULK = np.arange(1 << 20, dtype=np.float64)           # 8 MiB
_BULK_COPY = np.empty_like(_BULK)
#: About 9 MiB of tuples, visited in a fixed random order.
_NODES = [(i, 3 * i + 1000) for i in range(80_000)]
_ORDER = random.Random(7).sample(range(len(_NODES)), 12_000)


def _kernel() -> int:
    total = 0
    table = _TABLE
    for i in range(3000):
        cell = table[i & 511]
        total += _score(cell, i & 7)
        if cell.mcs > 20:
            total ^= i
    for _ in range(150):
        total += int(np.argmax(_SMALL * 3.0 - 1.0))
        total += int(np.count_nonzero(_SMALL > 0.5))
    for _ in range(10):
        np.multiply(_GRID, _GRID, out=_SCRATCH)
        total += int(np.abs(_SCRATCH).sum()) & 0xFF
    np.copyto(_BULK_COPY, _BULK)
    nodes = _NODES
    for i in _ORDER:
        total += nodes[i][1]
    return total


def gauge() -> float:
    """CPU time of one run of the reference computation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        _kernel()
        return time.process_time() - started
    finally:
        if enabled:
            gc.enable()


def scale(cpu_s: float, before_s: float, after_s: float) -> float:
    """``cpu_s`` of work as CPU time at the reference speed, given the
    reference runs right before and after it."""
    return cpu_s * 2.0 * NOMINAL_S / (before_s + after_s)
