"""Deterministic discrete-event core: virtual clock plus an event heap.

Events fire in (timestamp, insertion sequence) order, so equal-time events
run in the order they were scheduled and a fixed seed reproduces the exact
event trace.

A heap entry is ``[ts, seq, fn, more]``: one callback, plus ``more``, a list
of the callbacks scheduled at the same timestamp right after it (None when
there are none). ``schedule`` appends to the entry it pushed last while that
entry is still queued and its timestamp matches. Nothing can sort between
two consecutive sequence numbers at one timestamp, so this changes the
number of heap operations, not the firing order.

Work the model does once per item, back to back at one timestamp, goes
through a run queue made once per owner, ``runs, fn =
engine.run_queue(handle)``: ``runs`` is a deque of runs (sequences of
items), and when the engine dispatches ``fn`` it calls ``handle(it, n)``
once, ``it`` an iterator over the oldest run and ``n`` its length, where the
model would otherwise dispatch one callback per item. ``handle`` takes the
items in order, so a run behaves exactly like its items scheduled back to
back: whatever item i schedules still comes after item i and before item
i+1's work. ``schedule_batch(ts, fn, runs, items)`` queues the non-empty
sequence ``items`` as a new run, which the run queue owns from then on,
and schedules ``fn`` at ``ts``. The producer builds each run whole: nothing
is added to a run once it is queued.

``fn`` takes ``runs[0]``, so one owner's runs must fall due in the order
they are queued (each at now plus one fixed delay, say). ``fn`` alone
steps, counts and requeues:

- ``handle`` takes every item; an item counts as taken once ``handle``
  pulls it from ``it``, and ``fn`` raises ``ContractViolation`` for a run
  left with items untaken. A handler that raises for an item must take
  that item first: the items not yet taken go back at the head of ``runs``
  and ``fn`` stays queued under the entry's (ts, seq), ahead of the rest of
  that entry, as a raising callback leaves the rest of its entry queued.
- ``run_while`` hands a run over one item at a time (``n`` is 1) and
  checks its condition before each item; the rest of the run stays queued.
- ``fn`` carries ``handle``'s ``__module__`` and ``__qualname__`` (a
  nested function or a bound method has both), so anything that names
  callbacks by them names the run callback after ``handle``.

``events_processed`` counts model events: one per plain callback and one
per run item, not dispatched callbacks or heap entries. A run of B items
therefore counts as the B callbacks it stands for.
"""

from __future__ import annotations

import heapq
from collections import deque

from .errors import ContractViolation

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
        self._stepping = False  # run_while hands runs over one item at a time
        self._unfinished = False  # the run just dispatched has items left

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

    def run_queue(self, handle):
        """A run queue for handle: (runs, fn), runs a deque of runs and fn
        the callback that hands handle an iterator over the oldest run and
        its length (module docstring)."""
        runs = deque()

        def fn():
            run = runs.popleft()
            if self._stepping and len(run) > 1:
                runs.appendleft(run[1:])
                self._unfinished = True  # run_while dispatches fn again
                run = run[:1]
            it = iter(run)
            n = len(run)
            try:
                handle(it, n)
            except BaseException:
                rest = list(it)
                self.events_processed += n - len(rest) - 1  # the dispatch counted one
                if rest:
                    runs.appendleft(rest)
                    self._unfinished = True
                raise
            self.events_processed += n - 1
            for _ in it:
                raise ContractViolation(f"{fn.__qualname__} left items of its run untaken")

        fn.__module__ = handle.__module__
        fn.__qualname__ = handle.__qualname__
        return runs, fn

    def schedule_batch(self, ts_ns: float, fn, runs, items) -> None:
        """Queue the non-empty sequence items as a new run on fn's run
        queue runs, fn due for it at ts_ns (module docstring)."""
        if not items:
            raise ValueError("schedule_batch needs at least one item")
        runs.append(items)
        self.schedule(ts_ns, fn)

    def run_until(self, end_ns: float) -> None:
        """Dispatch every event with timestamp <= end_ns."""
        self.end_ns = end_ns
        heap, pop = self._heap, heapq.heappop
        n = 0  # callbacks dispatched, added to events_processed on the way out
        more = None
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
                fn()
                for fn in rest:
                    n += 1
                    fn()
        except BaseException:
            # an aborted entry keeps its undispatched callbacks queued, led
            # by the raising run callback if its run has items left
            rest = [] if more is None else list(rest)
            if self._unfinished:
                self._unfinished = False
                rest.insert(0, fn)
            if rest:
                heapq.heappush(heap, [ts, seq, rest[0], rest[1:] or None])
            raise
        finally:
            self.events_processed += n
        if end_ns > self.now:
            self.now = end_ns

    def run_while(self, cond, limit_ns: float) -> bool:
        """Dispatch events while cond() holds; True if cond turned false.

        cond() is checked before every callback and every run item, also
        between the callbacks of one heap entry: the rest of an entry goes
        back on the heap, under the entry's own (ts, seq) key, before its
        first callback runs, and a run callback with items left goes back at
        the head of that rest.
        """
        self.end_ns = max(self.end_ns, limit_ns)
        heap = self._heap
        self._stepping = True
        try:
            while cond():
                if not heap or heap[0][0] > limit_ns:
                    return False
                entry = heapq.heappop(heap)
                ts, seq, fn, more = entry
                entry[0] = _POPPED
                rest = None
                if more is not None:
                    rest = [ts, seq, more[0], more[1:] or None]
                    heapq.heappush(heap, rest)
                self.now = ts
                self.events_processed += 1
                try:
                    fn()
                finally:
                    if self._unfinished:
                        self._unfinished = False
                        if rest is None:
                            heapq.heappush(heap, [ts, seq, fn, None])
                        else:  # the key stays, so the heap order holds
                            rest[3] = [rest[2]] + (rest[3] or [])
                            rest[2] = fn
            return True
        finally:
            self._stepping = False
