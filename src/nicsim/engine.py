"""Deterministic discrete-event core: virtual clock plus an event heap.

Events fire in (timestamp, insertion sequence) order, so equal-time events
run in the order they were scheduled and a fixed seed reproduces the exact
event trace.
"""

from __future__ import annotations

import heapq


class Engine:
    def __init__(self, trace: bool = False):
        self._heap = []
        self._seq = 0
        self.now = 0.0
        self.end_ns = float("inf")
        self.trace = [] if trace else None
        self.events_processed = 0

    def schedule(self, ts_ns: float, fn) -> None:
        if ts_ns < self.now:
            raise ValueError(f"cannot schedule into the past ({ts_ns} < {self.now})")
        heapq.heappush(self._heap, (ts_ns, self._seq, fn))
        self._seq += 1

    def ended(self, ts_ns: float) -> bool:
        return ts_ns >= self.end_ns

    def run_until(self, end_ns: float) -> None:
        """Dispatch every event with timestamp <= end_ns."""
        self.end_ns = end_ns
        heap, pop = self._heap, heapq.heappop
        while heap and heap[0][0] <= end_ns:
            ts, _, fn = pop(heap)
            self.now = ts
            self.events_processed += 1
            fn()
        self.now = max(self.now, end_ns)

    def run_while(self, cond, limit_ns: float) -> bool:
        """Dispatch events while cond() holds; True if cond turned false."""
        self.end_ns = max(self.end_ns, limit_ns)
        while cond():
            if not self._heap or self._heap[0][0] > limit_ns:
                return False
            ts, _, fn = heapq.heappop(self._heap)
            self.now = ts
            self.events_processed += 1
            fn()
        return True

    def pending(self) -> int:
        return len(self._heap)
