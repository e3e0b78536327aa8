"""Host-speed calibration: a fixed pure-Python kernel timed between items.

The CPU time of identical work drifts by a factor of two within
minutes on a shared host (co-tenants contend for cores and caches),
which swamps the differences a benchmark must resolve.  This kernel --
small objects, dict updates and a heap, the kind of work the
simulator's hot paths do, but none of the program's code -- runs before
the first item and after every item; the mean of the two runs around
an item measures how fast the host was while it ran.  Scaling the
item's times by ``REFERENCE_S / mean`` reports them at one reference
speed.  On a two-core shared host, over 105 repetitions of one 64-PoD
MR-MTP item, this cut the spread of 10-item medians (quartile distance
over median) from 0.37 to 0.08.

A change to the program cannot move the kernel, so scaled times of two
commits stay comparable; the raw times and the kernel's median are
reported beside them.
"""

from __future__ import annotations

import gc
import heapq
import time

#: the kernel's CPU time on the reference host, in seconds
REFERENCE_S = 0.2
_ITERATIONS = 60_000


class _Node:
    __slots__ = ("key", "weight", "link")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.link = None

    def rank(self) -> int:
        return (self.key * 31 + self.weight) % 1009


def _kernel(iterations: int) -> int:
    heap: list = []
    table: dict = {}
    live: list = []
    for i in range(iterations):
        node = _Node(i, i & 7)
        heapq.heappush(heap, (node.rank(), i, node))
        key = ("k", i % 8192)
        table[key] = table.get(key, 0) + node.weight
        live.append(node)
        if len(heap) > 256:
            heapq.heappop(heap)
        if len(live) > 4096:
            live = live[2048:]
    return len(table)


def kernel_seconds() -> float:
    """CPU seconds of one kernel run, after a full collection."""
    gc.collect()
    start = time.process_time()
    _kernel(_ITERATIONS)
    return time.process_time() - start
