"""Engine tests: coalesced heap entries, batches and runs against a one-entry-per-event engine."""

import heapq
from collections import defaultdict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicsim.engine import Engine
from nicsim.errors import ContractViolation


class NaiveEngine:
    """Reference: one heap entry per event, keyed (timestamp, sequence)."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0.0
        self.end_ns = float("inf")
        self.events_processed = 0

    def schedule(self, ts_ns, fn):
        if ts_ns < self.now:
            raise ValueError("past")
        heapq.heappush(self._heap, (ts_ns, self._seq, fn))
        self._seq += 1

    def run_queue(self, handle):
        runs = deque()

        def fn():
            run = runs.popleft()
            handle(iter(run), len(run))

        return runs, fn

    def schedule_batch(self, ts_ns, fn, runs, items):
        for item in items:  # one run and one callback per item
            self.schedule_run(ts_ns, fn, runs, item)

    def schedule_run(self, ts_ns, fn, runs, item):
        runs.append([item])  # never joined: one callback per item
        self.schedule(ts_ns, fn)

    def run_until(self, end_ns):
        self.end_ns = end_ns
        while self._heap and self._heap[0][0] <= end_ns:
            ts, _, fn = heapq.heappop(self._heap)
            self.now = ts
            self.events_processed += 1
            fn()
        self.now = max(self.now, end_ns)

    def run_while(self, cond, limit_ns):
        self.end_ns = max(self.end_ns, limit_ns)
        while cond():
            if not self._heap or self._heap[0][0] > limit_ns:
                return False
            ts, _, fn = heapq.heappop(self._heap)
            self.now = ts
            self.events_processed += 1
            fn()
        return True


class Boom(Exception):
    pass


class RunOwner:
    """A schedule_run user: one run queue whose callback hands each item of
    its run to handle(item)."""

    def __init__(self, engine, handle):
        self.engine = engine
        self.handle = handle
        self.runs, self.fire = engine.run_queue(self._take)
        self.dispatched = 0

    def schedule(self, ts_ns, item):
        self.engine.schedule_run(ts_ns, self.fire, self.runs, item)

    def _take(self, it, n):
        self.dispatched += 1
        for item in it:
            self.handle(item)


# offset 0 and repeated values put many events on one timestamp
OFFSETS = (0.0, 0.0, 0.0, 1.0, 1.0, 2.5, 4.0)


@st.composite
def programs(draw):
    """Nodes (parent, offset, raises, how): a node fires, schedules its
    children at now + their offset, then raises if flagged. How it schedules
    them: "plain" one callback each; "batch" those that share an offset as
    one run through schedule_batch on the run queue of that offset, in the
    place of the first of them; "run" each through
    schedule_run of the owner of its offset and parity, so that consecutive
    children of one owner at one timestamp join a run (an owner's runs fall
    due in the order they are scheduled, as schedule_run requires). Parent
    -1 is scheduled up front."""
    n = draw(st.integers(1, 40))
    nodes = [(draw(st.integers(-1, k - 1)), draw(st.sampled_from(OFFSETS)),
              draw(st.integers(0, 11)) == 0,
              draw(st.sampled_from(("plain", "batch", "run")))) for k in range(n)]
    stop_after = draw(st.integers(0, n))
    limit = draw(st.sampled_from((0.0, 1.0, 2.5, 6.0, 1e3)))
    return nodes, stop_after, limit


def execute(engine, program):
    nodes, stop_after, limit = program
    children = defaultdict(list)
    for k, (parent, _, _, _) in enumerate(nodes):
        children[parent].append(k)
    fired = []
    log = []

    owners = {(offset, parity): RunOwner(engine, lambda c: node(c)())
              for offset in OFFSETS for parity in (0, 1)}

    def fire_each(it, n):
        for c in it:
            node(c)()

    batchers = {offset: engine.run_queue(fire_each) for offset in OFFSETS}

    def node(k):
        def fire():
            fired.append((k, engine.now))
            how = nodes[k][3]
            if how == "plain":
                for c in children[k]:
                    engine.schedule(engine.now + nodes[c][1], node(c))
            elif how == "run":
                for c in children[k]:
                    owners[nodes[c][1], c % 2].schedule(engine.now + nodes[c][1], c)
            else:
                by_offset = defaultdict(list)  # in first-seen order
                for c in children[k]:
                    by_offset[nodes[c][1]].append(c)
                for offset, batch in by_offset.items():
                    runs, fn = batchers[offset]
                    engine.schedule_batch(engine.now + offset, fn, runs, batch)
            if nodes[k][2]:
                raise Boom(k)
        return fire

    for k in children[-1]:
        engine.schedule(nodes[k][1], node(k))
    try:
        log.append(engine.run_while(lambda: len(fired) < stop_after, limit))
    except Boom as exc:
        log.append(("raised", exc.args[0]))
    log.append(("after run_while", len(fired), engine.events_processed, engine.now))
    while True:
        try:
            engine.run_until(1e6)
            break
        except Boom as exc:
            log.append(("raised", exc.args[0], engine.now))
    return fired, log, engine.events_processed, engine.now


@settings(max_examples=400, deadline=None, database=None)
@given(programs())
def test_coalesced_engine_fires_like_the_naive_engine(program):
    assert execute(Engine(), program) == execute(NaiveEngine(), program)


def test_same_timestamp_run_shares_one_heap_entry():
    engine = Engine()
    seen = []
    for i in range(32):
        engine.schedule(5.0, lambda i=i: seen.append(i))
    engine.schedule(7.0, lambda: seen.append("late"))
    engine.schedule(5.0, lambda: seen.append("after late"))  # not merged past the 7.0 entry
    assert len(engine._heap) == 3
    engine.run_until(10.0)
    assert seen == list(range(32)) + ["after late", "late"]
    assert engine.events_processed == 34


def test_run_while_stops_inside_an_entry_and_resumes_in_order():
    engine = Engine()
    seen = []
    for i in range(5):
        engine.schedule(1.0, lambda i=i: seen.append(i))
    assert engine.run_while(lambda: len(seen) < 2, 10.0)
    assert seen == [0, 1] and engine.events_processed == 2
    engine.schedule(1.0, lambda: seen.append("new"))  # queued behind the rest
    engine.run_until(10.0)
    assert seen == [0, 1, 2, 3, 4, "new"]
    assert engine.events_processed == 6


def test_raising_callback_keeps_the_rest_of_its_entry():
    engine = Engine()
    seen = []

    def boom():
        raise Boom()

    engine.schedule(1.0, lambda: seen.append("a"))
    engine.schedule(1.0, boom)
    engine.schedule(1.0, lambda: seen.append("c"))
    try:
        engine.run_until(5.0)
    except Boom:
        pass
    assert seen == ["a"]
    engine.run_until(5.0)
    assert seen == ["a", "c"]
    assert engine.events_processed == 3


def test_raising_batch_item_keeps_the_rest_of_its_batch_and_entry():
    engine = Engine()
    seen = []
    lengths = []

    def each(it, n):
        lengths.append(n)
        for i in it:
            seen.append(i)
            if i == 3:
                raise Boom()

    runs, fn = engine.run_queue(each)
    engine.schedule_batch(1.0, fn, runs, [1, 2, 3, 4, 5, 6])
    engine.schedule(1.0, lambda: seen.append("after"))  # same entry, behind the batch
    try:
        engine.run_until(5.0)
    except Boom:
        pass
    assert seen == [1, 2, 3]
    assert engine.events_processed == 3
    assert list(runs) == [[4, 5, 6]]
    engine.schedule(1.0, lambda: seen.append("new"))  # behind the whole old entry
    engine.run_until(5.0)
    assert seen == [1, 2, 3, 4, 5, 6, "after", "new"]
    assert engine.events_processed == 8
    assert lengths == [6, 3]  # the handler is told the length of the run it gets


def test_run_while_stops_between_batch_items_and_resumes_in_order():
    engine = Engine()
    seen = []
    lengths = []

    def each(it, n):
        lengths.append(n)
        for i in it:
            seen.append(i)
            engine.schedule(engine.now, lambda i=i: seen.append(f"from {i}"))

    runs, fn = engine.run_queue(each)
    engine.schedule_batch(1.0, fn, runs, [0, 1, 2, 3])
    engine.schedule(1.0, lambda: seen.append("after"))
    assert engine.run_while(lambda: len(seen) < 2, 10.0)
    # items 2 and 3 wait ahead of the rest of the entry, and "from 0" behind it
    assert seen == [0, 1] and engine.events_processed == 2
    assert engine.run_while(lambda: len(seen) < 3, 10.0)
    assert seen == [0, 1, 2] and engine.events_processed == 3
    engine.run_until(10.0)
    assert seen == [0, 1, 2, 3, "after", "from 0", "from 1", "from 2", "from 3"]
    assert engine.events_processed == 9
    assert lengths == [1, 1, 1, 1]  # run_while hands over runs of one


def test_batch_callback_is_named_after_its_handler():
    engine = Engine()

    def handler(it, n):
        for _ in it:
            pass

    runs, fn = engine.run_queue(handler)
    engine.schedule_batch(1.0, fn, runs, [0, 1])
    batch = engine._heap[0][2]
    assert batch is fn
    assert (batch.__module__, batch.__qualname__) == (handler.__module__, handler.__qualname__)


def test_batch_rejects_no_items_and_a_handler_that_leaves_items():
    engine = Engine()
    runs, fn = engine.run_queue(lambda it, n: next(it))
    with pytest.raises(ValueError):
        engine.schedule_batch(1.0, fn, runs, [])
    engine.schedule_batch(1.0, fn, runs, [0, 1])
    with pytest.raises(ContractViolation, match="left items of its run untaken"):
        engine.run_until(5.0)


def test_run_joins_only_what_nothing_was_scheduled_between():
    engine = Engine()
    seen = []
    owner, other = RunOwner(engine, seen.append), RunOwner(engine, seen.append)
    owner.schedule(1.0, "a")
    owner.schedule(1.0, "b")  # joins: nothing in between
    engine.schedule(1.0, lambda: seen.append("x"))
    owner.schedule(1.0, "c")  # x lies between: a new run
    other.schedule(1.0, "d")  # another owner's callback: a new run
    owner.schedule(1.0, "e")  # d lies between: a new run
    owner.schedule(2.0, "f")  # another timestamp: a new run
    assert list(owner.runs) == [["a", "b"], ["c"], ["e"], ["f"]]
    engine.run_until(5.0)
    assert seen == ["a", "b", "x", "c", "d", "e", "f"]
    assert owner.dispatched == 4 and engine.events_processed == 7


def test_run_does_not_join_a_dispatched_run():
    engine = Engine()
    seen = []
    owner = RunOwner(engine, seen.append)
    owner.schedule(1.0, "a")
    engine.schedule(0.5, lambda: owner.schedule(1.0, "b"))  # a's entry is not the tail
    engine.run_until(0.5)
    owner.schedule(1.0, "c")  # joins b's run
    engine.run_until(1.0)
    assert seen == ["a", "b", "c"] and owner.dispatched == 2
    owner.schedule(1.0, "late")  # the run at 1.0 has been dispatched
    engine.run_until(1.0)
    assert seen == ["a", "b", "c", "late"] and owner.dispatched == 3
    assert engine.events_processed == 5


def test_run_while_steps_through_a_joined_run():
    engine = Engine()
    seen = []
    owner = RunOwner(engine, seen.append)
    for item in range(4):
        owner.schedule(1.0, item)
    assert len(owner.runs) == 1
    engine.schedule(1.0, lambda: seen.append("after"))
    assert engine.run_while(lambda: len(seen) < 1, 10.0)
    assert seen == [0] and engine.events_processed == 1
    assert engine.run_while(lambda: len(seen) < 3, 10.0)
    assert seen == [0, 1, 2] and engine.events_processed == 3
    engine.run_until(10.0)
    assert seen == [0, 1, 2, 3, "after"] and engine.events_processed == 5


def test_raising_run_item_keeps_the_rest_of_its_run_and_entry():
    engine = Engine()
    seen = []

    def handle(item):
        seen.append(item)
        if item == 2:
            raise Boom()

    owner = RunOwner(engine, handle)
    for item in range(1, 6):
        owner.schedule(1.0, item)
    engine.schedule(1.0, lambda: seen.append("after"))
    try:
        engine.run_until(5.0)
    except Boom:
        pass
    assert seen == [1, 2] and engine.events_processed == 2
    assert list(owner.runs) == [[3, 4, 5]]
    owner.schedule(1.0, "new")  # the old entry is no longer the tail: a run of its own
    engine.run_until(5.0)
    assert seen == [1, 2, 3, 4, 5, "after", "new"]
    assert engine.events_processed == 7
