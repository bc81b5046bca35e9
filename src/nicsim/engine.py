"""Deterministic discrete-event core: virtual clock plus an event heap.

Events fire in (timestamp, insertion sequence) order, so equal-time events
run in the order they were scheduled and a fixed seed reproduces the exact
event trace.

A heap entry is ``[ts, seq, fn, more]``: one callback, plus ``more``, a list
of the callbacks scheduled at the same timestamp right after it (None when
there are none). ``schedule`` appends to the entry it pushed last while that
entry is still queued and its timestamp matches. Nothing can sort between
two consecutive sequence numbers at one timestamp, so this changes the
number of heap operations, not the firing order. A batched fetch of B
entries thus costs one heap entry per pipeline step instead of B.
``events_processed`` counts callbacks, not heap entries.
"""

from __future__ import annotations

import heapq

_POPPED = float("nan")  # stamped on a dequeued entry; equal to no timestamp


class Engine:
    def __init__(self, trace: bool = False):
        self._heap = []
        self._seq = 0
        # the entry pushed last; starts as a dequeued dummy
        self._tail = [_POPPED, -1, None, None]
        self.now = 0.0
        self.end_ns = float("inf")
        self.trace = [] if trace else None
        self.events_processed = 0

    def schedule(self, ts_ns: float, fn) -> None:
        tail = self._tail
        if ts_ns == tail[0]:
            # tail is still queued, so ts_ns >= now
            more = tail[3]
            if more is None:
                tail[3] = [fn]
            else:
                more.append(fn)
            return
        if ts_ns < self.now:
            raise ValueError(f"cannot schedule into the past ({ts_ns} < {self.now})")
        entry = [ts_ns, self._seq, fn, None]
        heapq.heappush(self._heap, entry)
        self._seq += 1
        self._tail = entry

    def ended(self, ts_ns: float) -> bool:
        return ts_ns >= self.end_ns

    def run_until(self, end_ns: float) -> None:
        """Dispatch every event with timestamp <= end_ns."""
        self.end_ns = end_ns
        heap, pop = self._heap, heapq.heappop
        n = 0  # callbacks dispatched, added to events_processed on the way out
        try:
            while heap and heap[0][0] <= end_ns:
                entry = pop(heap)
                ts, seq, fn, more = entry
                entry[0] = _POPPED
                self.now = ts
                n += 1
                if more is None:
                    fn()
                    continue
                rest = iter(more)
                try:
                    fn()
                    for fn in rest:
                        n += 1
                        fn()
                except BaseException:
                    # an aborted entry keeps its undispatched callbacks queued
                    rest = list(rest)
                    if rest:
                        heapq.heappush(heap, [ts, seq, rest[0], rest[1:] or None])
                    raise
        finally:
            self.events_processed += n
        self.now = max(self.now, end_ns)

    def run_while(self, cond, limit_ns: float) -> bool:
        """Dispatch events while cond() holds; True if cond turned false.

        cond() is checked before every callback, also between the callbacks
        of one heap entry: the rest of an entry goes back on the heap, under
        the entry's own (ts, seq) key, before its first callback runs.
        """
        self.end_ns = max(self.end_ns, limit_ns)
        heap = self._heap
        while cond():
            if not heap or heap[0][0] > limit_ns:
                return False
            entry = heapq.heappop(heap)
            ts, seq, fn, more = entry
            entry[0] = _POPPED
            if more is not None:
                heapq.heappush(heap, [ts, seq, more[0], more[1:] or None])
            self.now = ts
            self.events_processed += 1
            fn()
        return True
