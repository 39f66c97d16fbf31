"""A fixed, program-independent yardstick for the machine's current speed.

On a shared machine the speed of pure-Python, allocation-heavy code drifts
by tens of percent over tens of seconds (other tenants contend for caches
and memory bandwidth), and a whole 40-second run can land in a slow or a
fast phase. :func:`reference_s` times a fixed object-churn loop — nodes in
a dict, a random tree, a heap — that imports nothing from the program, so
its duration tracks the machine alone. ``run.py`` times it before and
after every repetition and scales the repetition's wall times by
``NOMINAL_S`` over the mean of those two reference times: seconds at
nominal machine speed.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter

#: what :func:`reference_s` takes at nominal speed; a fixed constant, so
#: normalised times stay comparable between runs and commits
NOMINAL_S = 0.25

NODES = 30_000


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key: int, value: dict):
        self.key = key
        self.value = value
        self.children: list = []


def reference_s() -> float:
    """Run the fixed loop once; returns its wall time in seconds."""
    gc.collect()
    rng = random.Random(7)
    started = perf_counter()
    nodes = {}
    heap = []
    for index in range(NODES):
        node = _Node(index, {"a": index, "b": str(index)})
        nodes[index] = node
        if index:
            nodes[rng.randrange(index)].children.append(node)
        heapq.heappush(heap, (rng.random(), index))
    total = 0
    while heap:
        _, index = heapq.heappop(heap)
        total += len(nodes[index].children)
    elapsed = perf_counter() - started
    if total != NODES - 1:
        raise AssertionError(f"reference loop miscounted: {total}")
    return elapsed
