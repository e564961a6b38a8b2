"""A fixed reference task that measures how fast the host runs right now.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent over seconds to minutes, for reasons outside the
program (other tenants on the same cores).  The untraced run times this
task after every repetition and scales the run's median CPU-bound
seconds by ``REFERENCE_S / (median reference time)``: the figure it
reports is the time a repetition would have taken on a host that runs
the reference in ``REFERENCE_S``.  Raw wall seconds are printed beside
every scaled figure.

The task is owned by the benchmark and uses nothing from ``src/``, so a
change to the program cannot change it.  Only the interpreter-bound
workloads are scaled (``workloads.INTERPRETER_BOUND``).  The task is an
interpreter loop over a heap, a dict and small objects, like the scalar
engine's event dispatch, followed by numpy sorts and scans over a few
hundred thousand floats; on recordings of the two scalar workloads the
mix tracked their speed at least as well as the loop alone.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

__all__ = ["REFERENCE_S", "reference_s"]

#: Seconds the reference takes on an unloaded core of the 2-vCPU Xeon
#: virtual machine on which the benchmark was defined.
REFERENCE_S = 0.085

_ITEMS = 40_000
_FLOATS = (np.arange(300_000) * 0.6180339887) % 1.0


class _Slot:
    __slots__ = ("value", "error")

    def __init__(self, value: float, error: float) -> None:
        self.value = value
        self.error = error

    def widened(self, by: float) -> "_Slot":
        return _Slot(self.value, self.error + by)


def _interpreter_work() -> float:
    heap: list = []
    totals: dict = {}
    slots = [_Slot(0.0, 1e-3) for _ in range(64)]
    now = 0.0
    for i in range(_ITEMS):
        now += 0.37
        heapq.heappush(heap, (now + (i * 0.618) % 1.0, i, i & 63))
        if len(heap) > 32:
            when, _seq, k = heapq.heappop(heap)
            slot = slots[k].widened(1e-5 * when)
            slots[k] = slot
            totals[k] = totals.get(k, 0.0) + slot.error
    return sum(totals.values())


def _array_work() -> float:
    order = np.argsort(_FLOATS, kind="stable")
    scanned = np.cumsum(_FLOATS[order])
    ranked = np.lexsort((scanned, _FLOATS))
    return float(scanned[ranked[:1000]].sum())


def reference_s() -> float:
    """Wall seconds the reference task takes now."""
    began = time.perf_counter()
    _interpreter_work()
    _array_work()
    return time.perf_counter() - began
