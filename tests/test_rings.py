"""Ring protocol tests.

The centerpiece is an exhaustive state-space exploration of the
acquire/publish/fetch/release protocol on a depth-2 TX ring, checked in
lockstep against an abstract specification machine (slot states FREE ->
ACQ -> PUB -> FETCHED -> FREE plus a publish-order FIFO). The abstract
machine is the oracle; the implementation must agree with it on every
reachable state. Random operation sequences (hypothesis) carry the same
check to depths 4, 8 and 16, through snapshot/restore. A run method moves
a count of entries through the ring's own next slots; a third property
drives two ring pairs in lockstep, one by the run methods and one by the
per-entry calls each run replaces, refusals included.
"""

import random
import threading
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicsim import protocol
from nicsim.errors import ContractViolation
from nicsim.protocol import RpcEntry
from nicsim.rings import CompletionQueue, RingPair, RxRing, TxRing

FREE, ACQ, PUB, FETCHED = "free", "acq", "pub", "fetched"


def _entry_block(rpc_id, conn=1, payload=b"stress"):
    return protocol.encode_entry(
        RpcEntry(kind=0, connection_id=conn, rpc_id=rpc_id, function_id=0, payload=payload)
    )


# --------------------------------------------------------------------------
# exhaustive model check, N=2
# --------------------------------------------------------------------------


class AbstractRing:
    """Specification machine for the slot ownership protocol."""

    def __init__(self, depth):
        self.depth = depth
        self.slots = [FREE] * depth
        self.fifo = []  # publish order of currently-published slots

    def key(self):
        return (tuple(self.slots), tuple(self.fifo))

    def copy(self):
        other = AbstractRing(self.depth)
        other.slots = list(self.slots)
        other.fifo = list(self.fifo)
        return other

    def can_acquire(self):
        return any(s == FREE for s in self.slots)

    def on_acquire(self, idx):
        assert idx is not None and self.slots[idx] == FREE, "acquired a non-free slot"
        self.slots[idx] = ACQ

    def on_publish(self, idx):
        assert self.slots[idx] == ACQ
        self.slots[idx] = PUB
        self.fifo.append(idx)

    def on_fetch(self, indices, asked):
        expected = self.fifo[: min(asked, len(self.fifo))]
        assert indices == expected, f"fetch broke FIFO: {indices} != {expected}"
        for idx in indices:
            assert self.slots[idx] == PUB
            self.slots[idx] = FETCHED
        self.fifo = self.fifo[len(indices):]

    def on_release(self, idx):
        assert self.slots[idx] == FETCHED
        self.slots[idx] = FREE


def _image(snap) -> bytes:
    """A ring's memory image from its snapshot: per slot its flag byte, then
    bytes 1..63 of the last entry written to it."""
    return b"".join(bytes((flag,)) + block[1:]
                    for flag, block in zip(snap["flags"], snap["blocks"]))


def _runs(snap):
    """(acquired, fetched, free) slot runs of a TX snapshot, oldest first."""
    depth = len(snap["flags"])

    def run(start, stop):
        return tuple(n % depth for n in range(start, stop))

    return (run(snap["published"], snap["acquired"]),
            run(snap["released"], snap["fetched"]),
            run(snap["acquired"], snap["released"] + depth))


def _canonical(ring: TxRing):
    snap = ring.snapshot()
    return (_image(snap), *_runs(snap), snap["fetched"] % ring.depth)


def _clone(ring: TxRing) -> TxRing:
    other = TxRing(ring.depth)
    other.restore(ring.snapshot())
    return other


def _check_invariants(ring: TxRing, model: AbstractRing):
    snap = ring.snapshot()
    r, f, p, a = (snap[k] for k in ("released", "fetched", "published", "acquired"))
    assert r <= f <= p <= a <= r + ring.depth, "counters out of order"
    acquired, fetched, free = (set(run) for run in _runs(snap))
    flags = snap["flags"]
    assert not (acquired & fetched), "slot owned by host and NIC at once"
    published = {i for i in range(ring.depth) if flags[i] == 1 and i not in fetched}
    assert not (acquired & published)
    for idx in fetched:
        assert flags[idx] == 1, "fetched slot lost its dirty bit"
    n_free = ring.free_slots()
    assert len(free) == n_free
    assert len(acquired) + len(published) + len(fetched) + n_free == ring.depth, "slot leak"
    # cross-check occupancy classes against the abstract machine
    for idx in range(ring.depth):
        impl = (
            ACQ if idx in acquired else
            FETCHED if idx in fetched else
            PUB if idx in published else FREE
        )
        assert impl == model.slots[idx], f"slot {idx}: impl {impl} != model {model.slots[idx]}"


def _acquired_run(ring: TxRing):
    return _runs(ring.snapshot())[0]


def _fetched_run(ring: TxRing):
    return _runs(ring.snapshot())[1]


def test_exhaustive_state_space_depth2():
    depth = 2
    start = (TxRing(depth), AbstractRing(depth))
    seen = set()
    frontier = [start]
    explored = 0
    while frontier:
        ring, model = frontier.pop()
        key = (_canonical(ring), model.key())
        if key in seen:
            continue
        seen.add(key)
        explored += 1
        _check_invariants(ring, model)

        successors = []

        def try_action(fn):
            r2, m2 = _clone(ring), model.copy()
            fn(r2, m2)
            successors.append((r2, m2))

        # acquire (both the success and the would-block path)
        def do_acquire(r2, m2):
            idx = r2.tx_acquire()
            if m2.can_acquire():
                m2.on_acquire(idx)
            else:
                assert idx is None, "acquire succeeded with no free slot"

        try_action(do_acquire)

        if _acquired_run(ring):
            # one host writer publishes in acquire order
            oldest_acq = _acquired_run(ring)[0]

            def do_publish(r2, m2, slot=oldest_acq):
                r2.tx_publish(slot, _entry_block(slot))
                m2.on_publish(slot)

            try_action(do_publish)

        for batch in (1, 2):
            def do_fetch(r2, m2, batch=batch):
                cursor = r2.snapshot()["fetched"]
                blocks = r2.nic_fetch(batch)
                got = [(cursor + i) % depth for i in range(len(blocks))]
                # each slot holds the entry published into it, whose rpc id is the slot
                assert [protocol.rpc_id_of(block)[0] for block in blocks] == got
                m2.on_fetch(got, batch)

            try_action(do_fetch)

        if _fetched_run(ring):
            # the NIC FSM bookkeeps in fetch order: release the oldest
            oldest = _fetched_run(ring)[0]

            def do_release(r2, m2, slot=oldest):
                r2.nic_release(1)
                m2.on_release(slot)

            try_action(do_release)

        frontier.extend(successors)

    # the enforced-FIFO protocol graph for two slots closes at 30 states
    assert explored == 30


# --------------------------------------------------------------------------
# random operation sequences at depths 4, 8 and 16, against the same oracle
# --------------------------------------------------------------------------

_OPS = st.one_of(
    st.just(("acquire", 0)),
    st.just(("publish", 0)),
    st.tuples(st.just("fill"), st.integers(1, 16)),  # acquire + publish, to reach full rings
    st.tuples(st.just("fetch"), st.integers(1, 17)),
    st.tuples(st.just("release"), st.integers(1, 16)),
    st.tuples(st.just("bad_release"), st.integers(1, 15)),  # that many past the fetched
    # carry on with a fresh ring restored from a snapshot (False), or rewind
    # this ring to the snapshot taken at the previous restore op (True)
    st.tuples(st.just("restore"), st.booleans()),
)


@settings(max_examples=300, deadline=None, database=None)
@given(depth=st.sampled_from([4, 8, 16]), ops=st.lists(_OPS, max_size=80))
def test_random_sequences_match_abstract_ring(depth, ops):
    ring, model = TxRing(depth), AbstractRing(depth)
    rpc_of_slot = {}
    next_rpc = 0
    checkpoint = (ring.snapshot(), model.copy(), {})
    def acquire():
        idx = ring.tx_acquire()
        if model.can_acquire():
            model.on_acquire(idx)
        else:
            assert idx is None, "acquire succeeded with no free slot"

    def publish():
        nonlocal next_rpc
        slot = _acquired_run(ring)[0]
        ring.tx_publish(slot, _entry_block(next_rpc))
        model.on_publish(slot)
        rpc_of_slot[slot] = next_rpc
        next_rpc += 1

    for op, arg in ops:
        if op == "acquire":
            acquire()
        elif op == "publish" and _acquired_run(ring):
            publish()
        elif op == "fill":
            for _ in range(arg):
                acquire()
                if _acquired_run(ring):
                    publish()
        elif op == "fetch":
            cursor = ring.snapshot()["fetched"]
            got = ring.nic_fetch(arg)
            slots = [(cursor + i) % depth for i in range(len(got))]
            model.on_fetch(slots, arg)
            for idx, block in zip(slots, got):
                assert protocol.decode_entry(block).rpc_id == rpc_of_slot[idx]
        elif op == "release" and _fetched_run(ring):
            # the oldest fetched entries, as many as asked or as are fetched
            slots = _fetched_run(ring)[:arg]
            ring.nic_release(len(slots))
            for idx in slots:
                model.on_release(idx)
        elif op == "bad_release":
            # a count past the fetched entries releases them, then raises
            slots = _fetched_run(ring)
            with pytest.raises(ContractViolation, match=f"release of {len(slots) + arg} TX "
                                                        f"entries, {len(slots)} of them fetched"):
                ring.nic_release(len(slots) + arg)
            for idx in slots:
                model.on_release(idx)
        elif op == "restore":
            if arg:  # the live ring's dirty-run cache belongs to the later state
                snap, saved_model, saved_rpcs = checkpoint
                ring.restore(snap)
                model, rpc_of_slot = saved_model.copy(), dict(saved_rpcs)
            else:
                ring = _clone(ring)
            checkpoint = (ring.snapshot(), model.copy(), dict(rpc_of_slot))
        _check_invariants(ring, model)
        # the dirty run at the cursor is exactly the published, unfetched FIFO
        assert ring.dirty_run() == len(model.fifo)
        assert _clone(ring).snapshot() == ring.snapshot()


# --------------------------------------------------------------------------
# capacity, FIFO, accounting
# --------------------------------------------------------------------------


def test_capacity_and_wouldblock():
    ring = TxRing(64)
    slots = [ring.tx_acquire() for _ in range(64)]
    assert None not in slots
    assert len(set(slots)) == 64
    assert ring.tx_acquire() is None
    ring.tx_publish(slots[0], _entry_block(0))
    fetched = ring.nic_fetch(1)
    ring.nic_release(len(fetched))
    assert ring.tx_acquire() == slots[0]


def test_publish_fetch_roundtrip_bytes():
    ring = TxRing(8)
    slot = ring.tx_acquire()
    block = _entry_block(77, payload=b"roundtrip")
    ring.tx_publish(slot, block)
    [got] = ring.nic_fetch(4)
    assert _fetched_run(ring) == (slot,)
    assert got == block  # publish set the flag; encode already had it set


def test_fetch_order_matches_publish_order_random_batches():
    rng = random.Random(7)
    ring = TxRing(64)
    published = []
    fetched = []
    next_id = 0
    while next_id < 1000 or published:
        if next_id < 1000 and rng.random() < 0.6:
            slot = ring.tx_acquire()
            if slot is not None:
                ring.tx_publish(slot, _entry_block(next_id))
                published.append(next_id)
                next_id += 1
                continue
        batch = ring.nic_fetch(rng.randint(1, 8))
        ids = [protocol.decode_entry(b).rpc_id for b in batch]
        fetched.extend(ids)
        ring.nic_release(len(batch))
        for rid in ids:
            published.remove(rid)
    assert fetched == list(range(1000))


def test_steady_state_loop_accounting():
    ring = TxRing(64)
    total = 1_000_000
    done = 0
    while done < total:
        burst = min(32, total - done)
        slots = []
        for i in range(burst):
            slot = ring.tx_acquire()
            assert slot is not None
            ring.tx_publish(slot, _entry_block(done + i))
            slots.append(slot)
        batch = ring.nic_fetch(burst)
        assert len(batch) == burst
        ring.nic_release(len(batch))
        done += burst
    assert ring.outstanding() == 0
    assert ring.free_slots() == 64
    assert ring.dirty_run() == 0


def test_publish_without_acquire_reports_violation():
    ring = TxRing(4)
    with pytest.raises(ContractViolation):
        ring.tx_publish(0, _entry_block(0))


def test_double_release_reports_violation():
    ring = TxRing(4)
    slot = ring.tx_acquire()
    ring.tx_publish(slot, _entry_block(0))
    ring.nic_release(len(ring.nic_fetch(1)))
    before = ring.snapshot()
    with pytest.raises(ContractViolation, match="release of 1 TX entries, 0 of them fetched"):
        ring.nic_release(1)
    assert ring.snapshot() == before


def test_side_ownership_enforced_across_threads():
    ring = TxRing(4)
    slot = ring.tx_acquire()
    ring.tx_publish(slot, _entry_block(1))

    worker_err = []

    def nic_worker():
        try:
            ring.nic_fetch(1)
        except ContractViolation as exc:  # pragma: no cover
            worker_err.append(exc)

    t = threading.Thread(target=nic_worker)
    t.start()
    t.join()
    assert not worker_err
    with pytest.raises(ContractViolation):
        ring.nic_fetch(1)  # NIC side already bound to the worker thread


# --------------------------------------------------------------------------
# snapshot/restore
# --------------------------------------------------------------------------


def test_snapshot_restore_identity():
    rng = random.Random(3)
    ring = TxRing(8)
    for i in range(5):
        slot = ring.tx_acquire()
        ring.tx_publish(slot, _entry_block(i))
    ring.nic_release(len(ring.nic_fetch(2)))
    snap = ring.snapshot()
    other = TxRing(8)
    other.restore(snap)
    assert other.snapshot() == snap
    # restored ring continues identically
    a, b = ring.tx_acquire(), other.tx_acquire()
    assert a == b


@pytest.mark.parametrize("ring_cls", [TxRing, RxRing])
@pytest.mark.parametrize("depth,other_depth", [(8, 4), (4, 8)])
def test_restore_rejects_snapshot_of_another_depth(ring_cls, depth, other_depth):
    ring = ring_cls(depth)
    before = ring.snapshot()
    with pytest.raises(ContractViolation, match=f"depth-{other_depth} .*depth-{depth} ring"):
        ring.restore(ring_cls(other_depth).snapshot())
    # flags of the ring's depth with blocks of another
    mixed = dict(before, blocks=ring_cls(other_depth).snapshot()["blocks"])
    with pytest.raises(ContractViolation, match=f"depth-{depth} .*{other_depth} blocks"):
        ring.restore(mixed)
    assert ring.snapshot() == before  # nothing was written
    if ring_cls is RxRing:
        assert all(ring.rx_deliver(_entry_block(i)) for i in range(depth))
        assert not ring.rx_deliver(_entry_block(depth))


@pytest.mark.parametrize("counters", [
    (1, 0, 0, 0),  # released past fetched
    (0, 1, 0, 1),  # fetched past published
    (0, 0, 2, 1),  # published past acquired
    (0, 0, 0, 5),  # more than depth slots out of the free pool
])
def test_restore_rejects_tx_counters_out_of_order(counters):
    ring = TxRing(4)
    slot = ring.tx_acquire()
    ring.tx_publish(slot, _entry_block(0))
    before = ring.snapshot()
    bad = dict(before, **dict(zip(("released", "fetched", "published", "acquired"), counters)))
    with pytest.raises(ContractViolation, match="out of order for a depth-4 ring"):
        ring.restore(bad)
    assert ring.snapshot() == before
    ring.restore(dict(before, released=3, fetched=4, published=5, acquired=7))  # the bounds hold


@pytest.mark.parametrize("key,cursor", [("poll_cursor", 4), ("free_cursor", -1)])
def test_rx_restore_rejects_a_cursor_outside_the_ring(key, cursor):
    ring = RxRing(4)
    assert ring.rx_deliver(_entry_block(0))
    before = ring.snapshot()
    with pytest.raises(ContractViolation, match=f"{key} {cursor} outside 0..3 for a depth-4 ring"):
        ring.restore(dict(before, **{key: cursor}))
    assert ring.snapshot() == before
    ring.restore(dict(before, free_cursor=3, poll_cursor=0))  # the bounds hold


# --------------------------------------------------------------------------
# RX delivery runs
# --------------------------------------------------------------------------


def _rx_ring_with_held_slots(depth, delivered, polled):
    """A depth-deep RX ring with delivered entries, the first polled of them
    still held by the host."""
    ring = RxRing(depth)
    for i in range(delivered):
        assert ring.rx_deliver(_entry_block(100 + i))
    for _ in range(polled):
        assert ring.rx_poll() is not None
    return ring


def _deliver_each(ring, blocks):
    """rx_deliver per block up to the first full slot: (delivered, raised)."""
    n = 0
    try:
        for block in blocks:
            if not ring.rx_deliver(block):
                break
            n += 1
    except ContractViolation as exc:
        return n, str(exc)
    return n, None


def _deliver_run(ring, blocks):
    try:
        return ring.rx_deliver_run(blocks), None
    except ContractViolation as exc:
        return None, str(exc)


@pytest.mark.parametrize("depth,delivered,polled,count", [
    (8, 0, 0, 5),  # all fit
    (8, 3, 3, 8),  # fill the ring exactly, after the cursor wrapped
    (8, 3, 1, 9),  # the ring fills after 5: the rest are refused
    (4, 4, 0, 2),  # already full: none delivered
    (4, 2, 2, 0),  # an empty run
])
def test_rx_deliver_run_is_a_sequence_of_rx_deliver(depth, delivered, polled, count):
    blocks = [_entry_block(i) for i in range(count)]
    each = _rx_ring_with_held_slots(depth, delivered, polled)
    run = _rx_ring_with_held_slots(depth, delivered, polled)
    n, raised = _deliver_each(each, blocks)
    assert raised is None
    assert run.rx_deliver_run(blocks) == n
    assert run.snapshot() == each.snapshot()


@pytest.mark.parametrize("free_before,raises", [(8, True), (2, True), (1, False)])
def test_rx_deliver_run_raises_mid_run_as_rx_deliver_does(free_before, raises):
    # a 63-byte third block: the two before it are delivered and it raises,
    # full ring or not, unless the ring fills before it is reached
    blocks = [_entry_block(0), bytearray(_entry_block(1)), _entry_block(2)[:63], _entry_block(3)]
    each = _rx_ring_with_held_slots(8, 8 - free_before, 0)
    run = _rx_ring_with_held_slots(8, 8 - free_before, 0)
    n, raised = _deliver_each(each, blocks)
    assert (raised is not None) == raises
    if raises:
        assert _deliver_run(run, blocks) == (None, raised)
        assert raised == "delivery needs 64 bytes, got 63"
    else:
        assert _deliver_run(run, blocks) == (n, None)
    assert run.snapshot() == each.snapshot()
    assert run.rx_deliver(_entry_block(9)) == each.rx_deliver(_entry_block(9))
    assert run.snapshot() == each.snapshot()


def test_rx_deliver_run_checks_the_length_of_a_last_block_that_meets_a_full_slot():
    # rx_deliver checks the length before it finds the slot full
    blocks = [_entry_block(0), _entry_block(1)[:63]]
    each, run = _rx_ring_with_held_slots(4, 3, 0), _rx_ring_with_held_slots(4, 3, 0)
    assert _deliver_each(each, blocks) == (1, "delivery needs 64 bytes, got 63")
    assert _deliver_run(run, blocks) == (None, "delivery needs 64 bytes, got 63")
    assert run.snapshot() == each.snapshot()


# --------------------------------------------------------------------------
# host runs: one ring call for what one call per entry does
# --------------------------------------------------------------------------


def _tx_ring_at(depth, fetched, acquired):
    """A depth-deep TX ring whose first fetched entries went through and were
    released, with acquired slots then taken and not yet published."""
    ring = TxRing(depth)
    for i in range(fetched):
        ring.tx_publish(ring.tx_acquire(), _entry_block(i))
        ring.nic_release(len(ring.nic_fetch(1)))
    for _ in range(acquired):
        assert ring.tx_acquire() is not None
    return ring


@pytest.mark.parametrize("depth,fetched,acquired,count", [
    (8, 0, 0, 5),  # all free
    (8, 6, 2, 6),  # exactly the free slots, across the wrap
    (4, 3, 1, 5),  # three free: two short
    (4, 0, 4, 2),  # full: none
    (4, 2, 0, 0),  # an empty run
])
def test_tx_acquire_run_is_a_sequence_of_tx_acquire(depth, fetched, acquired, count):
    each, run = _tx_ring_at(depth, fetched, acquired), _tx_ring_at(depth, fetched, acquired)
    slots = []
    for _ in range(count):
        slot = each.tx_acquire()
        if slot is None:
            break
        slots.append(slot)
    assert run.tx_acquire_run(count) == len(slots)
    assert run.snapshot() == each.snapshot()


def _publish_each(ring, blocks):
    """tx_publish per block into the next acquired slot, up to the first
    refused: (published, raised)."""
    n = 0
    try:
        for block in blocks:
            ring.tx_publish(ring.snapshot()["published"] % ring.depth, block)
            n += 1
    except ContractViolation as exc:
        return n, str(exc)
    return n, None


# each run publishes four entries into slots 6, 7, 0, 1 of a depth-8 ring,
# the one at `at` (if any) replaced by a bad block, or with only `at` of
# those slots acquired
BAD_PUBLISH = {
    "none": None,
    "short_block": _entry_block(9)[:63],
    "past_acquired": None,
    "bytearray_block": bytearray(_entry_block(9)),  # copied in, not bad
}


@pytest.mark.parametrize("bad", sorted(BAD_PUBLISH))
@pytest.mark.parametrize("at", [0, 1, 3])
def test_tx_publish_run_is_a_sequence_of_tx_publish(bad, at):
    acquired = at if bad == "past_acquired" else 4
    each, run = _tx_ring_at(8, 6, acquired), _tx_ring_at(8, 6, acquired)
    blocks = [_entry_block(20 + slot) for slot in (6, 7, 0, 1)]
    if BAD_PUBLISH[bad] is not None:
        blocks[at] = BAD_PUBLISH[bad]
    n, raised = _publish_each(each, blocks)
    it = iter(blocks)
    try:
        run.tx_publish_run(it)
    except ContractViolation as exc:
        assert str(exc) == raised
        assert len(list(it)) == 3 - at  # the refused block was taken, the rest not
    else:
        assert raised is None and n == 4
    assert run.snapshot() == each.snapshot()
    assert run.dirty_run() == each.dirty_run() == n


def _rx_ring_from(depth, start, delivered):
    """A depth-deep RX ring whose cursors stand at start (every earlier entry
    polled and released) with delivered entries waiting."""
    ring = RxRing(depth)
    for i in range(start):
        assert ring.rx_deliver(_entry_block(i))
        slot, _ = ring.rx_poll()
        ring.rx_release(slot)
    for i in range(delivered):
        assert ring.rx_deliver(_entry_block(100 + i))
    return ring


@pytest.mark.parametrize("depth,start,delivered,count", [
    (8, 0, 5, 4),  # part of what is delivered
    (8, 6, 8, 8),  # the whole ring, across the wrap
    (4, 1, 2, 3),  # more than is delivered: the run ends early
    (4, 2, 0, 2),  # nothing delivered
])
def test_rx_poll_run_and_release_run_are_rx_poll_and_rx_release_each(depth, start,
                                                                      delivered, count):
    each, run = _rx_ring_from(depth, start, delivered), _rx_ring_from(depth, start, delivered)
    before = run.snapshot()
    blocks = []
    for _ in range(count):
        polled = each.rx_poll()
        if polled is None:
            break
        each.rx_release(polled[0])
        blocks.append(polled[1])
    got = run.rx_poll_run(count)
    assert got == blocks
    assert run.snapshot() == before  # read only: rx_release_run takes them
    run.rx_release_run(len(got))
    assert run.snapshot() == each.snapshot()


def test_rx_release_run_refuses_an_entry_not_delivered_after_those_before():
    each, run = _rx_ring_from(4, 3, 2), _rx_ring_from(4, 3, 2)
    for _ in range(2):
        slot, _ = each.rx_poll()
        each.rx_release(slot)
    with pytest.raises(ContractViolation, match="release of RX slot 1, which holds no delivered"):
        run.rx_release_run(3)
    assert run.snapshot() == each.snapshot()


# --------------------------------------------------------------------------
# every by-count run against the per-entry calls it replaces
# --------------------------------------------------------------------------

# a block of a run replaced by one that the ring refuses or copies in
_RUN_BAD = {
    "short": lambda block: block[:63],
    "mutable": bytearray,
    "unset_valid": lambda block: b"\x00" + block[1:],
}
_RUN_OPS = st.one_of(
    st.tuples(st.just("acquire"), st.integers(0, 10)),
    st.tuples(st.just("fill"), st.integers(1, 10)),  # acquire, then publish what was acquired
    st.tuples(st.just("publish"), st.integers(0, 10),
              st.sampled_from([None, *sorted(_RUN_BAD)]), st.integers(0, 9)),
    st.tuples(st.just("fetch"), st.integers(1, 10)),
    st.tuples(st.just("release"), st.integers(0, 10)),
    st.tuples(st.just("deliver"), st.integers(0, 10),
              st.sampled_from([None, *sorted(_RUN_BAD)]), st.integers(0, 9)),
    st.tuples(st.just("poll"), st.integers(0, 10)),
    st.tuples(st.just("rx_release"), st.integers(0, 10)),
    st.tuples(st.just("hold"), st.integers(1, 3)),  # rx_poll on both rings: held slots
    st.tuples(st.just("unhold"), st.integers(0, 3)),  # rx_release of a held slot on both
)


def _acquire_each(ring, count):
    n = 0
    while n < count and ring.tx_acquire() is not None:
        n += 1
    return n


def _fetch_each(ring, max_batch):
    blocks = []
    while len(blocks) < max_batch:
        got = ring.nic_fetch(1)
        if not got:
            break
        blocks += got
    return blocks


def _release_each(ring, count):
    for _ in range(count):
        ring.nic_release(1)


def _poll_each(ring, count):
    """What count rx_poll calls read, on a copy of ring."""
    clone = RxRing(ring.depth)
    clone.restore(ring.snapshot())
    blocks = []
    for _ in range(count):
        polled = clone.rx_poll()
        if polled is None:
            break
        blocks.append(polled[1])
    return blocks


def _rx_release_each(ring, count):
    for _ in range(count):
        polled = ring.rx_poll()
        if polled is None:
            raise ContractViolation("no delivered entry")
        ring.rx_release(polled[0])


def _outcome(call, *args):
    """(return value, refusal or None) of call(*args)."""
    try:
        return call(*args), None
    except ContractViolation as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None, database=None)
@given(depth=st.sampled_from([4, 8]), start=st.integers(0, 7),
       ops=st.lists(_RUN_OPS, max_size=60))
def test_each_run_leaves_the_ring_as_the_per_entry_calls_it_replaces(depth, start, ops):
    # both rings of both pairs start with their cursors at slot start % depth,
    # so that short runs already cross the end of the ring
    at = start % depth
    each, run = RingPair(depth), RingPair(depth)
    for pair in (each, run):
        pair.tx, pair.rx = _tx_ring_at(depth, at, 0), _rx_ring_from(depth, at, 0)
    held = deque()  # RX slots polled on both rings and not yet released
    rpc = 0
    for op, count, *bad in ops:
        blocks = [_entry_block(rpc + i) for i in range(count)]
        rpc += count
        if bad and bad[0] is not None and count:
            at = bad[1] % count
            blocks[at] = _RUN_BAD[bad[0]](blocks[at])
        if op in ("acquire", "fill"):
            k = run.tx.tx_acquire_run(count)
            assert k == _acquire_each(each.tx, count)
            if op == "fill":
                run.tx.tx_publish_run(blocks[:k])
                assert _publish_each(each.tx, blocks[:k]) == (k, None)
        elif op == "publish":
            n, raised = _publish_each(each.tx, blocks)
            assert _outcome(run.tx.tx_publish_run, blocks) == (None, raised)
        elif op == "fetch":
            assert run.tx.nic_fetch(count) == _fetch_each(each.tx, count)
        elif op == "release":
            # the messages differ: the run names its count, a call its one entry
            assert ((_outcome(run.tx.nic_release, count)[1] is None)
                    == (_outcome(_release_each, each.tx, count)[1] is None))
        elif op == "deliver":
            n, raised = _deliver_each(each.rx, blocks)
            assert _outcome(run.rx.rx_deliver_run, blocks) == ((n, None) if raised is None
                                                               else (None, raised))
        elif op == "poll":
            assert run.rx.rx_poll_run(count) == _poll_each(each.rx, count)
        elif op == "rx_release":
            assert ((_outcome(run.rx.rx_release_run, count)[1] is None)
                    == (_outcome(_rx_release_each, each.rx, count)[1] is None))
        elif op == "hold":
            for _ in range(count):
                polled = run.rx.rx_poll()
                assert polled == each.rx.rx_poll()
                if polled is not None:
                    held.append(polled[0])
        elif op == "unhold" and held:
            slot = held[count % len(held)]
            held.remove(slot)
            run.rx.rx_release(slot)
            each.rx.rx_release(slot)
        assert run.tx.snapshot() == each.tx.snapshot(), op
        assert run.rx.snapshot() == each.rx.snapshot(), op


# --------------------------------------------------------------------------
# entries held by reference
# --------------------------------------------------------------------------


def _block(rpc, valid=1):
    return protocol.pack_entry(protocol.KIND_REQUEST, 3, rpc, 0, b"p%d" % rpc, valid)


def _tx_rx_roundtrip(tx_block, rx_block):
    """(entry fetched from a depth-2 TX ring, entry polled from a depth-2 RX
    ring) after each ring is given one block."""
    tx, rx = TxRing(2), RxRing(2)
    tx.tx_publish(tx.tx_acquire(), tx_block)
    assert rx.rx_deliver(rx_block)
    if isinstance(tx_block, bytearray):
        tx_block[:] = bytes(64)  # the caller reuses its buffer
    if isinstance(rx_block, bytearray):
        rx_block[:] = bytes(64)
    [fetched] = tx.nic_fetch(1)
    _, polled = rx.rx_poll()
    return fetched, polled


def test_a_published_entry_is_handed_on_by_reference():
    block = _block(1)
    tx, rx = TxRing(2), RxRing(2)
    tx.tx_publish(tx.tx_acquire(), block)
    [fetched] = tx.nic_fetch(1)
    assert fetched is block
    assert rx.rx_deliver(fetched)
    assert rx.rx_poll()[1] is block


def test_a_mutable_block_is_copied_in():
    fetched, polled = _tx_rx_roundtrip(bytearray(_block(1)), bytearray(_block(2)))
    assert (fetched, polled) == (_block(1), _block(2))
    assert type(fetched) is bytes and type(polled) is bytes


@pytest.mark.parametrize("valid", [0, 2])
def test_an_entry_is_read_with_its_valid_byte_set(valid):
    fetched, polled = _tx_rx_roundtrip(_block(1, valid), _block(2, valid))
    assert (fetched, polled) == (_block(1), _block(2))


def test_rx_deliver_refuses_a_block_of_another_length():
    rx = RxRing(2)
    before = rx.snapshot()
    with pytest.raises(ContractViolation, match="delivery needs 64 bytes, got 63"):
        rx.rx_deliver(_block(1)[:63])
    assert rx.snapshot() == before


# The memory images of a TX and an RX ring after the scripted sequence of
# test_slab_image_matches_the_recorded_one, as the slab-copying rings wrote
# them: each slot's flag byte, then the body of the last entry written to it,
# freed slots included.
TX_IMAGE = (
    "0100030003000000000002000000000070330000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000030002000000000002000000000070320000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
)
RX_IMAGE = (
    "0000030004000000000002000000000070340000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0200030005000000000002000000000070350000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
)


def test_slab_image_matches_the_recorded_one():
    tx = TxRing(2)
    a = tx.tx_acquire()
    tx.tx_publish(a, _block(1))
    b = tx.tx_acquire()
    tx.tx_publish(b, bytearray(_block(2)))
    tx.nic_fetch(2)
    tx.nic_release(1)  # slot a
    tx.tx_publish(tx.tx_acquire(), _block(3, valid=0))
    tx.nic_release(1)  # slot b is free and keeps entry 2's body
    rx = RxRing(2)
    rx.rx_deliver(_block(4))
    rx.rx_deliver(_block(5, valid=2))
    rx.rx_release(rx.rx_poll()[0])  # slot 0 is free and keeps entry 4's body
    rx.rx_poll()  # slot 1 is held
    assert _image(tx.snapshot()).hex() == TX_IMAGE
    assert _image(rx.snapshot()).hex() == RX_IMAGE
    for ring in (tx, rx):
        clone = type(ring)(2)
        clone.restore(ring.snapshot())
        assert clone.snapshot() == ring.snapshot()


# --------------------------------------------------------------------------
# RX ring and completion queue
# --------------------------------------------------------------------------


def test_rx_fifo_and_backpressure():
    rx = RxRing(4)
    for i in range(4):
        assert rx.rx_deliver(_entry_block(i))
    assert not rx.rx_deliver(_entry_block(99))  # full -> backpressure
    slot, block = rx.rx_poll()
    assert protocol.decode_entry(block).rpc_id == 0
    rx.rx_release(slot)
    assert rx.rx_deliver(_entry_block(4))  # resumed after release
    got = []
    while True:
        polled = rx.rx_poll()
        if polled is None:
            break
        slot, block = polled
        got.append(protocol.decode_entry(block).rpc_id)
        rx.rx_release(slot)
    assert got == [1, 2, 3, 4]


def test_rx_roundtrip_many():
    rx = RxRing(64)
    sent = list(range(10_000))
    received = []
    queue = list(sent)
    while queue or True:
        while queue and rx.rx_deliver(_entry_block(queue[0])):
            queue.pop(0)
        polled = rx.rx_poll()
        if polled is None:
            if not queue:
                break
            continue
        slot, block = polled
        received.append(protocol.decode_entry(block).rpc_id)
        rx.rx_release(slot)
    assert received == sent


class RxModel:
    """Reference RX ring: delivered entries wait in a FIFO for the host; the
    NIC writes slot after slot and is refused at a slot that is not free."""

    def __init__(self, depth):
        self.depth = depth
        self.fifo = deque()  # (slot, block) delivered, not yet polled
        self.held = set()  # polled, not yet released
        self.next_slot = 0

    def deliver(self, block) -> bool:
        slot = self.next_slot
        if slot in self.held or any(s == slot for s, _ in self.fifo):
            return False
        self.fifo.append((slot, block))
        self.next_slot = (slot + 1) % self.depth
        return True

    def poll(self):
        if not self.fifo:
            return None
        slot, block = self.fifo.popleft()
        self.held.add(slot)
        return slot, block


_RX_OPS = st.one_of(
    st.tuples(st.just("deliver"), st.integers(1, 9)),  # up to 9 delivers, to overrun a ring
    st.tuples(st.just("poll"), st.integers(1, 9)),
    st.tuples(st.just("release"), st.integers(0, 7)),  # the i-th held slot, oldest first
    st.tuples(st.just("bad_release"), st.integers(0, 7)),
)


@settings(max_examples=300, deadline=None, database=None)
@given(depth=st.sampled_from([4, 8]), ops=st.lists(_RX_OPS, max_size=80))
def test_rx_random_sequences_match_fifo_model(depth, ops):
    rx, model = RxRing(depth), RxModel(depth)
    next_rpc = 0
    for op, arg in ops:
        if op == "deliver":
            for _ in range(arg):
                block = _entry_block(next_rpc)
                accepted = rx.rx_deliver(block)
                assert accepted == model.deliver(block)
                next_rpc += accepted
        elif op == "poll":
            for _ in range(arg):
                assert rx.rx_poll() == model.poll()  # None once the FIFO is empty
        elif op == "release" and model.held:
            slot = sorted(model.held)[arg % len(model.held)]
            rx.rx_release(slot)
            model.held.remove(slot)
        elif op == "bad_release" and arg % depth not in model.held:
            before = rx.snapshot()
            with pytest.raises(ContractViolation):
                rx.rx_release(arg % depth)
            assert rx.snapshot() == before
    # what is left comes out in delivery order, then the ring reads empty;
    # a ring restored from a snapshot drains the same
    expected = [protocol.decode_entry(block).rpc_id for _, block in model.fifo]
    clone = RxRing(depth)
    clone.restore(rx.snapshot())
    for ring in (rx, clone):
        polled = [ring.rx_poll() for _ in range(depth + 1)]
        assert [protocol.decode_entry(p[1]).rpc_id for p in polled if p] == expected
        assert polled[len(expected):] == [None] * (depth + 1 - len(expected))


def test_completion_queue_fifo_and_overflow():
    cq = CompletionQueue(capacity=3)
    for i in range(3):
        cq.cq_push((i, b"x"))
    with pytest.raises(ContractViolation):
        cq.cq_push((3, b"x"))
    assert [r[0] for r in cq.cq_drain()] == [0, 1, 2]
    assert cq.cq_drain() == []
