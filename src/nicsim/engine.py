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

``schedule_batch(ts, fn, items)`` goes one step further for work the model
does once per item, back to back at one timestamp: at ``ts`` it calls
``fn(it)`` once, ``it`` an iterator over ``items``, where the model would
otherwise schedule one callback per item. ``fn`` handles the items in
order, so the batch behaves exactly like its items scheduled back to back:
whatever item i schedules still comes after item i and before item i+1's
work. The contract:

- ``fn`` takes every item; an item counts as taken once ``fn`` pulls it
  from ``it``. A handler that raises for an item must take that item first:
  the items not yet taken then stay queued under the entry's (ts, seq),
  ahead of the rest of that entry, as a raising callback leaves the rest of
  its entry queued.
- ``run_while`` hands a batch over one item at a time, as ``fn(iter((item,)))``,
  and checks its condition before each item.
- ``fn`` must carry ``__module__`` and ``__qualname__`` (a lambda, a nested
  function or a bound method): the batch callback takes both, so anything
  that names callbacks by them names the batch after ``fn``.

``schedule_run(ts, fn, runs, item)`` batches work that arrives one item at
a time: item joins ``runs[-1]``, the run ``fn`` was last scheduled for,
while that run is still the last thing scheduled and is due at ``ts``; else
``[item]`` opens a new run on ``runs`` and ``fn`` is scheduled for it.
``fn`` takes ``runs[0]``, so one owner's runs must fall due in the order
they are scheduled (each at now plus one fixed delay, say). The
engine keeps the entry its last run went into and how many callbacks that
entry held then, so a join is exactly the case in which the item's own
callback would have landed right behind the run's last item. ``fn`` is one
pre-bound callback per owner (no closure per run); when it fires it takes
its items with ``take_run(runs)`` and, if one of them raises, hands the
rest back with ``untaken(runs, rest)``. The contract is ``schedule_batch``'s:
``run_while`` hands a run over one item at a time, and a raising item is
taken first, its untaken successors staying queued.

``events_processed`` counts model events: one per plain callback and one
per batch or run item, not dispatched callbacks or heap entries. A batch of
B items therefore counts as the B callbacks it stands for.
"""

from __future__ import annotations

import heapq
from operator import length_hint

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
        self._stepping = False  # run_while hands batches over one item at a time
        self._unfinished = False  # the batch just dispatched has items left
        # schedule_run's last run: its callback, the entry it went into and
        # how many callbacks that entry held beyond its first one then
        self._run_fn = None
        self._run_entry = None
        self._run_size = 0

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

    def schedule_batch(self, ts_ns: float, fn, items) -> None:
        """At ts_ns call fn(it) once, it an iterator over the non-empty
        sequence items; each item counts as one event (module docstring)."""
        if not items:
            raise ValueError("schedule_batch needs at least one item")
        it = iter(items)

        def batch():
            if self._stepping:
                item = next(it)
                self._unfinished = length_hint(it) > 0
                fn(iter((item,)))
                return
            n = length_hint(it)
            try:
                fn(it)
            except BaseException:
                left = length_hint(it)
                self.events_processed += n - left - 1  # the dispatch counted one
                self._unfinished = left > 0
                raise
            self.events_processed += n - 1
            for _ in it:
                raise ContractViolation(f"{fn.__qualname__} left items of its batch untaken")

        batch.__module__ = fn.__module__
        batch.__qualname__ = fn.__qualname__
        self.schedule(ts_ns, batch)

    def schedule_run(self, ts_ns: float, fn, runs, item) -> None:
        """Queue item for fn() at ts_ns in fn's run queue runs (a deque of
        lists): joined to runs[-1] while fn's last run is the last thing
        scheduled and due at ts_ns, else as a new run (module docstring)."""
        tail = self._tail
        if fn is self._run_fn and tail is self._run_entry and ts_ns == tail[0]:
            more = tail[3]
            if (0 if more is None else len(more)) == self._run_size:
                runs[-1].append(item)
                return
        runs.append([item])
        self.schedule(ts_ns, fn)
        tail = self._tail
        more = tail[3]
        self._run_fn = fn
        self._run_entry = tail
        self._run_size = 0 if more is None else len(more)

    def take_run(self, runs) -> list:
        """For the run callback being dispatched: the items of runs[0] to
        handle now, in order. That is the whole run, unless run_while is
        stepping, which gets its first item alone."""
        run = runs[0]
        if self._stepping and len(run) > 1:
            self._unfinished = True  # run_while dispatches the callback again
            return [run.pop(0)]
        runs.popleft()
        self.events_processed += len(run) - 1  # the dispatch counts one
        return run

    def untaken(self, runs, rest) -> None:
        """A run callback raised: the items it did not take (the iterator
        rest) stay queued, ahead of runs, and fn stays due for them."""
        rest = list(rest)
        if rest:
            self.events_processed -= len(rest)
            runs.appendleft(rest)
            self._unfinished = True

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
            # by the raising batch if it has items left
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

        cond() is checked before every callback and every batch item, also
        between the callbacks of one heap entry: the rest of an entry goes
        back on the heap, under the entry's own (ts, seq) key, before its
        first callback runs, and a batch's remaining items go back at the
        head of that rest.
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
