"""Host-speed reference: scales host seconds to reference seconds.

On a shared virtual machine the same simulation can take 40% longer for
tens of seconds at a time, because of load from outside the machine.
Medians within a run cannot remove drift that is slower than a run.  So
the benchmark times a fixed reference loop between measured steps and
divides each step's host time by how slow the host was around it: a
*reference second* is the time the step would have taken on a host where
one reference sample takes ``REFERENCE_S`` host seconds.

The reference loop is code of this directory, not of the simulator, so a
change to the simulator cannot move it.  It mimics the simulator's host
profile: a small out-of-order window of freshly allocated slotted objects
with dict and deque traffic, plus a dict-and-list churn over a fixed key
set.  The collector is off while it runs, so its time does not depend on
the size of the simulator's heap.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from typing import List

#: Host seconds one reference sample takes on the host the metrics are
#: scaled to (about the median on the 2-vCPU machine where it was set).
REFERENCE_S = 0.04

_WINDOW_STEPS = 3000
_CHURN_STEPS = 20000


class _Op:
    __slots__ = ("seq", "srcs", "dest", "done")

    def __init__(self, seq: int, srcs, dest: int) -> None:
        self.seq = seq
        self.srcs = srcs
        self.dest = dest
        self.done = False


class _Window:
    """A toy issue window: ops issue once their sources are ready."""

    def __init__(self) -> None:
        self.ready = {}
        self.ops = deque()
        self.retired = 0

    def issuable(self, op: _Op) -> bool:
        return all(self.ready.get(src, 0) <= op.seq for src in op.srcs)

    def step(self, seq: int) -> None:
        self.ops.append(_Op(seq, ((seq * 7) & 63, (seq * 13) & 63),
                            (seq * 5) & 63))
        for op in list(self.ops)[:8]:
            if not op.done and self.issuable(op):
                op.done = True
                self.ready[op.dest] = op.seq + 3
        while self.ops and self.ops[0].done:
            self.ops.popleft()
            self.retired += 1


class _Slot:
    __slots__ = ("tag", "ready", "deps")

    def __init__(self, tag: int, ready: int, deps) -> None:
        self.tag = tag
        self.ready = ready
        self.deps = deps


def _reference_work() -> int:
    window = _Window()
    for seq in range(_WINDOW_STEPS):
        window.step(seq)
    table = {}
    queue = []
    total = window.retired
    for i in range(_CHURN_STEPS):
        key = (i * 2654435761) & 1023
        slot = table.get(key)
        if slot is None:
            slot = table[key] = _Slot(key, i & 7, [key ^ 1, key ^ 2])
        queue.append(slot)
        if len(queue) > 32:
            head = queue.pop(0)
            total += head.ready + len(head.deps)
            head.ready = (head.ready + 1) & 7
    return total


def reference_sample() -> float:
    """Host seconds one run of the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference samples taken between measured steps.

    Call ``scale()`` right after each measured step; it returns the factor
    that turns the step's host seconds into reference seconds, from the
    samples taken just before and just after the step.
    """

    def __init__(self) -> None:
        self._last = reference_sample()
        self.samples: List[float] = [self._last]

    def scale(self) -> float:
        now = reference_sample()
        self.samples.append(now)
        factor = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return factor
