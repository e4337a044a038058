"""How fast is this host *right now*? Two frozen calibration loops.

The reference box's neighbours change the speed of a whole vCPU by up to
1.5x for minutes at a time (measured: one process, twelve minutes, the
same workload swung between 1 130 and 2 020 commits per wall second,
CPU time tracking wall time throughout). No statistic taken inside a
10 s run survives that, so the timed phase follows every slice of the
workload with a ~6 ms reading of the host's speed and reports wall/CPU
numbers *at reference host speed*: slice rate / speed.

The speed is the geometric mean of two loops relative to their
reference rates. The workload is part interpreter work and part waiting
for loads, and a busy neighbour hits the two differently — a single
tight loop over-corrects:

* :meth:`HostSpeed.interpreter_loop` — generators, a heap, tuple-keyed
  dict writes on a working set that fits the core's own caches;
* :meth:`HostSpeed.memory_loop` — a chain of dependent loads from
  pseudo-random slots of an 8 MB array.

Validation (``results/spread_10seeds_noisy_host.txt``): ten seeds per
workload while the host's speed swung by 17-40 % between runs — the
raw rate's spread was 8-25 %, the scaled rate's 5-9 %; on a quiet host
2-4 %, with the medians of the two sets within 1.1 % of each other.

These loops and reference rates are the ruler's zero mark: changing
them re-bases every wall/CPU number.
"""

from __future__ import annotations

import heapq
import math
import time
from array import array

#: Steps per second of each loop that count as speed 1.0: the reference
#: box (2 vCPU Firecracker guest, CPython 3.11) on a typical quiet day.
INTERPRETER_REF = 1.65e6
MEMORY_REF = 6.4e6

CHASE_LEN = 1 << 20


def _chase_array(n: int) -> array:
    """``nxt[i]`` = successor of ``i`` under a full-period LCG mod ``n``
    (``n`` a power of two): one cycle through every slot, no stride a
    prefetcher could learn."""
    return array("q", ((i * 1664525 + 1013904223) % n for i in range(n)))


class HostSpeed:
    """Owns the pointer-chase array; :meth:`read` takes one reading."""

    def __init__(self) -> None:
        self._chase = _chase_array(CHASE_LEN)
        self._at = 0

    def interpreter_loop(self, steps: int = 3000) -> float:
        """Steps per second of a miniature event loop."""
        queue: list = []
        table: dict = {}

        def proc(k):
            x = 0
            for i in range(k):
                x += 1
                table[(k, i & 63)] = (x, i)
                yield 0.001 * (i & 7)

        eid = 0
        for gen in [proc(steps // 20) for _ in range(20)]:
            eid += 1
            heapq.heappush(queue, (0.0, eid, gen))
        began = time.perf_counter()
        done = 0
        while queue:
            now, _, gen = heapq.heappop(queue)
            try:
                delay = gen.send(None)
            except StopIteration:
                continue
            eid += 1
            heapq.heappush(queue, (now + delay, eid, gen))
            done += 1
        return done / (time.perf_counter() - began)

    def memory_loop(self, steps: int = 20000) -> float:
        """Steps per second of the dependent pointer chase."""
        chase, at = self._chase, self._at
        began = time.perf_counter()
        for _ in range(steps):
            at = chase[at]
        elapsed = time.perf_counter() - began
        self._at = at
        return steps / elapsed

    def read(self) -> float:
        """Host speed now; 1.0 is the undisturbed reference box."""
        return math.sqrt(self.interpreter_loop() / INTERPRETER_REF
                         * self.memory_loop() / MEMORY_REF)
