"""A fixed pure-Python event loop that measures the machine's current speed.

The benchmark's host machine is shared, and its speed per instruction moves
in waves of tens of seconds (README.md, "Noise and run length"). run.py
times this loop before and after every timed ``sim.run`` and reports the
simulator's speed in reference seconds, which cancels the waves. The loop
does the same kind of work as nicsim: a heap of timed events, bound-method
callbacks, small objects, deques and dicts. It never imports nicsim, so a
change to the simulator cannot change it.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

# One reference second is the host time of this many events; chosen so that
# a reference second lasts about one host second on the baseline machine.
EVENTS_PER_REF_S = 700_000
N_NODES = 16
QUEUE_TARGET = 64  # events kept pending in the heap
HOPS = 8  # forwards before an item leaves


class Node:
    __slots__ = ("queue", "served", "peer")

    def __init__(self):
        self.queue = deque()
        self.served = 0
        self.peer = None

    def on_arrive(self, t, item, schedule):
        self.queue.append(item)
        if len(self.queue) == 1:
            schedule(t + 3, self.on_done, None)

    def on_done(self, t, _, schedule):
        item = self.queue.popleft()
        self.served += 1
        item["hops"] += 1
        if item["hops"] < HOPS:
            schedule(t + 5 + (item["id"] & 7), self.peer.on_arrive, item)
        if self.queue:
            schedule(t + 3, self.on_done, None)


def run(n_events: int) -> int:
    """Dispatch ``n_events`` events; return how many items nodes served."""
    rng = random.Random(7)
    nodes = [Node() for _ in range(N_NODES)]
    for i, node in enumerate(nodes):
        node.peer = nodes[(i * 5 + 3) % N_NODES]
    heap = []
    seq = 0

    def schedule(t, fn, arg):
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (t, seq, fn, arg))

    items = 0
    for count in range(n_events):
        if len(heap) < QUEUE_TARGET:
            items += 1
            schedule(count, nodes[rng.randrange(N_NODES)].on_arrive, {"id": items, "hops": 0})
        t, _, fn, arg = heapq.heappop(heap)
        fn(t, arg, schedule)
    return sum(node.served for node in nodes)
