"""Reference seconds: wall time corrected for how fast the host is now.

The sandboxes this benchmark runs in are 2-core VMs on shared hosts,
and their speed is not constant.  The host flips between a fast and a
30-50 % slower mode about once a second, and the share of time spent in
the slow one drifts from nothing to more than half over minutes: ten-run
medians of plain wall time 25-50 % apart are on record in
``BASELINE.md``.  No statistic over the iterations of a 20 s run
survives a slow stretch longer than the run, and no bound worth having
admits it.

So every timed region is bracketed by two samples of a fixed reference
kernel, and its wall time is divided by how much slower than
:data:`NOMINAL_S` the kernel ran around it.  When the host slows, region
and kernel stretch together and the quotient holds.  The kernel lives
here, outside ``src/``, so no change to the program can move it.
``run.py`` logs the plain wall-clock medians beside the corrected ones
and ``spread.py`` tabulates both, so what the correction does can be
read off ``BASELINE.md``.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from time import perf_counter

#: The kernel sample that counts as nominal speed.  It only fixes the
#: unit: a reference second is a wall second of a host on which a sample
#: takes this long — the sandbox the baseline was recorded on, when it
#: is quiet.
NOMINAL_S = 0.050

#: Nodes in the cycle the kernel walks: about 10 MB of small objects,
#: several times the L2.
NODES = 60_000
#: Steps per pass; a pass starts an empty table and heap, as an
#: iteration of the stack starts an empty world.
STEPS = 4_000
#: Passes per sample: one lap of the cycle.  The sample is their total,
#: long enough (50 ms) to see both modes of a host that is flipping.
PASSES = NODES // STEPS


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.next = None

    def visit(self, table):
        table[self.key] = self.value
        return self.next


class HostSpeed:
    """The reference kernel: a walk along a shuffled cycle of small
    objects that stores each one's (address, port) key in a dict and
    pushes and pops a heap of tuples on the way — the method calls,
    cache-missing loads, hashing and allocation the stack's own lease
    tables, timer queue and caches are made of.  A pointer chase through
    a flat array and a pure arithmetic loop were measured beside it:
    when the host slows the workloads by half, those slow by a third,
    and this one by half."""

    def __init__(self) -> None:
        rng = random.Random(2006)
        nodes = [_Node((rng.randrange(1 << 20), 53), rng.random())
                 for _ in range(NODES)]
        rng.shuffle(nodes)
        for node, following in zip(nodes, nodes[1:] + nodes[:1]):
            node.next = following
        self._node = nodes[0]

    def sample(self) -> float:
        """Seconds the kernel takes right now."""
        node = self._node
        started = perf_counter()
        for _ in range(PASSES):
            table: dict = {}
            heap: list = []
            for step in range(STEPS):
                node = node.visit(table)
                heappush(heap, (node.value, step))
                if step & 1:
                    heappop(heap)
        self._node = node
        return perf_counter() - started


def reference_seconds(wall: float, before: float, after: float) -> float:
    """``wall`` seconds of a region bracketed by two :meth:`HostSpeed.sample`
    readings, in seconds of the nominal host."""
    return wall * NOMINAL_S * 2.0 / (before + after)
