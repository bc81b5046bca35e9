"""Ring protocol tests.

The centerpiece is an exhaustive state-space exploration of the
acquire/publish/fetch/release protocol on a depth-2 TX ring, checked in
lockstep against an abstract specification machine (slot states FREE ->
ACQ -> PUB -> FETCHED -> FREE, taken in circular order, plus a
publish-order FIFO). The abstract machine is the oracle; the
implementation must agree with it on every reachable state. Every ring
call moves a run by count, so the exhaustive check drives runs of one.
Random operation sequences (hypothesis) carry the same check to depths 4,
8 and 16 with runs of any length, through snapshot/restore. The RX ring
has its own oracle (RxModel), a FIFO of delivered entries, and a third
property drives both rings of a pair by runs against both oracles,
refusals and their messages included.
"""

import random
import threading
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicsim import protocol
from nicsim.errors import ContractViolation
from nicsim.rings import CompletionQueue, RingPair, RxRing, TxRing

FREE, ACQ, PUB, FETCHED = "free", "acq", "pub", "fetched"


def _entry_block(rpc_id, conn=1, payload=b"stress"):
    return protocol.pack_entry(protocol.KIND_REQUEST, conn, rpc_id, 0, payload)


def _rpc(block):
    return protocol.rpc_id_of(block)[0]


def _kept(block) -> bytes:
    """The entry a ring keeps for block: immutable, with valid byte 1."""
    return b"\x01" + bytes(block[1:])


def _outcome(call, *args):
    """(return value, refusal or None) of call(*args)."""
    try:
        return call(*args), None
    except ContractViolation as exc:
        return None, str(exc)


# --------------------------------------------------------------------------
# exhaustive model check, N=2
# --------------------------------------------------------------------------


class AbstractRing:
    """Specification machine for the slot ownership protocol."""

    def __init__(self, depth):
        self.depth = depth
        self.slots = [FREE] * depth
        self.fifo = []  # publish order of currently-published slots
        self.acquired = []  # acquire order of the acquired, unpublished slots
        self.next_slot = 0  # the slot the next acquire takes: acquires go round in order

    def key(self):
        return (tuple(self.slots), tuple(self.fifo))

    def copy(self):
        other = AbstractRing(self.depth)
        other.slots = list(self.slots)
        other.fifo = list(self.fifo)
        other.acquired = list(self.acquired)
        other.next_slot = self.next_slot
        return other

    def free(self):
        return self.slots.count(FREE)

    def n_fetched(self):
        return self.slots.count(FETCHED)

    def on_acquire(self, idx):
        assert idx == self.next_slot and self.slots[idx] == FREE, "acquired a non-free slot"
        self.slots[idx] = ACQ
        self.acquired.append(idx)
        self.next_slot = (idx + 1) % self.depth

    def on_publish(self, idx):
        assert self.slots[idx] == ACQ and idx == self.acquired[0], "publish out of acquire order"
        self.acquired.pop(0)
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


def _clone(ring):
    other = type(ring)(ring.depth)
    other.restore(ring.snapshot())
    return other


def _check_invariants(ring: TxRing, model: AbstractRing):
    snap = ring.snapshot()
    r, f, p, a = (snap[k] for k in ("released", "fetched", "published", "acquired"))
    assert r <= f <= p <= a <= r + ring.depth, "counters out of order"
    acquired, fetched, free = (set(run) for run in _runs(snap))
    flags = snap["flags"]
    assert set(flags) <= {0, 1}, "a TX flag other than 0 or 1"
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
    assert list(_runs(snap)[0]) == model.acquired


def _fetched_run(ring: TxRing):
    return _runs(ring.snapshot())[1]


def _acquire(ring: TxRing, model: AbstractRing, count: int) -> int:
    """tx_acquire_run(count), checked against model: it takes the next free
    slots, as many as asked or as are free."""
    start = ring.snapshot()["acquired"]
    k = ring.tx_acquire_run(count)
    assert k == min(count, model.free())
    for n in range(start, start + k):
        model.on_acquire(n % ring.depth)
    return k


def _publish(ring: TxRing, model: AbstractRing, blocks, entries: dict):
    """tx_publish_run over an iterator of the list blocks, checked against
    model: the blocks publish in order into the acquired slots, up to one
    that is not an entry long or one past the acquired slots, which raises
    once taken from the iterator, the rest left in it. entries maps each
    published slot to the entry it must hold. Returns the number published."""
    n, refusal = 0, None
    for block in blocks:
        if n == len(model.acquired):
            refusal = f"publish into TX slot {model.next_slot}, which is not acquired"
            break
        if len(block) != protocol.ENTRY_SIZE:
            refusal = f"publish needs 64 bytes, got {len(block)}"
            break
        n += 1
    start = ring.snapshot()["published"]
    it = iter(blocks)
    assert _outcome(ring.tx_publish_run, it) == (None, refusal)
    assert len(list(it)) == len(blocks) - n - (refusal is not None)
    for i in range(n):
        slot = (start + i) % ring.depth
        model.on_publish(slot)
        entries[slot] = _kept(blocks[i])
    return n


def _fetch(ring: TxRing, model: AbstractRing, max_batch: int, entries: dict) -> list:
    """nic_fetch(max_batch), checked against model: the oldest published
    entries in publish order, as many as asked or as are published."""
    cursor = ring.snapshot()["fetched"]
    got = ring.nic_fetch(max_batch)
    slots = [(cursor + i) % ring.depth for i in range(len(got))]
    model.on_fetch(slots, max_batch)
    assert got == [entries[slot] for slot in slots]
    return got


def _release(ring: TxRing, model: AbstractRing, count: int) -> None:
    """nic_release(count), checked against model: the oldest fetched
    entries, then a refusal if count is past them."""
    slots = _fetched_run(ring)[:count]
    fetched = model.n_fetched()
    refusal = (None if count <= fetched
               else f"release of {count} TX entries, {fetched} of them fetched")
    assert _outcome(ring.nic_release, count) == (None, refusal)
    for idx in slots:
        model.on_release(idx)


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

        # acquire a run of one (both the success and the would-block path)
        try_action(lambda r2, m2: _acquire(r2, m2, 1))

        if model.acquired:
            # one host writer publishes a run of one into the oldest acquired
            # slot; each slot holds an entry whose rpc id is the slot
            slot = model.acquired[0]
            try_action(lambda r2, m2: _publish(r2, m2, [_entry_block(slot)],
                                               {slot: _entry_block(slot)}))

        for batch in (1, 2):
            def do_fetch(r2, m2, batch=batch):
                cursor = r2.snapshot()["fetched"]
                blocks = r2.nic_fetch(batch)
                got = [(cursor + i) % depth for i in range(len(blocks))]
                assert [_rpc(block) for block in blocks] == got
                m2.on_fetch(got, batch)

            try_action(do_fetch)

        if _fetched_run(ring):
            # the NIC FSM bookkeeps in fetch order: release the oldest
            try_action(lambda r2, m2: _release(r2, m2, 1))

        frontier.extend(successors)

    # the enforced-FIFO protocol graph for two slots closes at 30 states
    assert explored == 30


# --------------------------------------------------------------------------
# random run sequences at depths 4, 8 and 16, against the same oracle
# --------------------------------------------------------------------------

_OPS = st.one_of(
    st.tuples(st.just("acquire"), st.integers(0, 17)),
    st.tuples(st.just("publish"), st.integers(0, 17)),  # past the acquired: refused
    st.tuples(st.just("fill"), st.integers(1, 16)),  # acquire + publish, to reach full rings
    st.tuples(st.just("fetch"), st.integers(1, 17)),
    st.tuples(st.just("release"), st.integers(0, 16)),  # past the fetched: refused
    # carry on with a fresh ring restored from a snapshot (False), or rewind
    # this ring to the snapshot taken at the previous restore op (True)
    st.tuples(st.just("restore"), st.booleans()),
)


@settings(max_examples=300, deadline=None, database=None)
@given(depth=st.sampled_from([4, 8, 16]), ops=st.lists(_OPS, max_size=80))
def test_random_sequences_match_abstract_ring(depth, ops):
    ring, model = TxRing(depth), AbstractRing(depth)
    entries = {}  # slot -> the entry published into it
    next_rpc = 0
    checkpoint = (ring.snapshot(), model.copy(), {})

    def blocks(n):
        nonlocal next_rpc
        next_rpc += n
        return [_entry_block(rpc) for rpc in range(next_rpc - n, next_rpc)]

    for op, arg in ops:
        if op == "acquire":
            _acquire(ring, model, arg)
        elif op == "publish":
            _publish(ring, model, blocks(arg), entries)
        elif op == "fill":
            _publish(ring, model, blocks(_acquire(ring, model, arg)), entries)
        elif op == "fetch":
            _fetch(ring, model, arg, entries)
        elif op == "release":
            _release(ring, model, arg)
        elif op == "restore":
            if arg:
                snap, saved_model, saved_entries = checkpoint
                ring.restore(snap)
                model, entries = saved_model.copy(), dict(saved_entries)
            else:
                ring = _clone(ring)
            checkpoint = (ring.snapshot(), model.copy(), dict(entries))
        _check_invariants(ring, model)
        # the dirty run at the cursor is exactly the published, unfetched FIFO
        assert ring.dirty_run() == len(model.fifo)
        assert _clone(ring).snapshot() == ring.snapshot()


# --------------------------------------------------------------------------
# capacity, FIFO, accounting
# --------------------------------------------------------------------------


def test_capacity_and_wouldblock():
    ring = TxRing(64)
    assert ring.tx_acquire_run(64) == 64
    assert ring.tx_acquire_run(1) == 0
    assert ring.free_slots() == 0
    ring.tx_publish_run([_entry_block(0)])  # into slot 0, the oldest acquired
    fetched = ring.nic_fetch(1)
    ring.nic_release(len(fetched))
    assert ring.tx_acquire_run(2) == 1  # slot 0 again
    assert ring.snapshot()["acquired"] % 64 == 1


def test_publish_fetch_roundtrip_bytes():
    ring = TxRing(8)
    assert ring.tx_acquire_run(1) == 1
    block = _entry_block(77, payload=b"roundtrip")
    ring.tx_publish_run([block])
    [got] = ring.nic_fetch(4)
    assert _fetched_run(ring) == (0,)
    assert got == block  # publish set the flag; pack_entry already had it set


def test_fetch_order_matches_publish_order_random_batches():
    rng = random.Random(7)
    ring = TxRing(64)
    fetched = []
    next_id = 0
    while next_id < 1000 or len(fetched) < 1000:
        if next_id < 1000 and rng.random() < 0.6:
            k = ring.tx_acquire_run(min(rng.randint(1, 5), 1000 - next_id))
            if k:
                ring.tx_publish_run([_entry_block(i) for i in range(next_id, next_id + k)])
                next_id += k
                continue
        batch = ring.nic_fetch(rng.randint(1, 8))
        fetched.extend(_rpc(b) for b in batch)
        ring.nic_release(len(batch))
    assert fetched == list(range(1000))


def test_steady_state_loop_accounting():
    ring = TxRing(64)
    total = 1_000_000
    done = 0
    while done < total:
        burst = min(32, total - done)
        assert ring.tx_acquire_run(burst) == burst
        ring.tx_publish_run([_entry_block(done + i) for i in range(burst)])
        batch = ring.nic_fetch(burst)
        assert len(batch) == burst
        ring.nic_release(len(batch))
        done += burst
    assert ring.outstanding() == 0
    assert ring.free_slots() == 64
    assert ring.dirty_run() == 0


def _tx_ring_at(depth, fetched, acquired):
    """A depth-deep TX ring, its model and its entries, whose first fetched
    entries went through and were released, with acquired slots then taken
    and not yet published."""
    ring, model, entries = TxRing(depth), AbstractRing(depth), {}
    for rpc in range(fetched):
        _publish(ring, model, [_entry_block(rpc)] * _acquire(ring, model, 1), entries)
        _fetch(ring, model, 1, entries)
        _release(ring, model, 1)
    assert _acquire(ring, model, acquired) == acquired
    return ring, model, entries


@pytest.mark.parametrize("depth,fetched,acquired,count", [
    (8, 0, 0, 5),  # all free
    (8, 6, 2, 6),  # exactly the free slots, across the wrap
    (4, 3, 1, 5),  # three free: two short
    (4, 0, 4, 2),  # full: none
    (4, 2, 0, 0),  # an empty run
])
def test_tx_acquire_run_takes_the_free_slots_up_to_count(depth, fetched, acquired, count):
    ring, model, _ = _tx_ring_at(depth, fetched, acquired)
    _acquire(ring, model, count)
    _check_invariants(ring, model)


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
def test_tx_publish_run_stops_at_a_refused_block(bad, at):
    ring, model, entries = _tx_ring_at(8, 6, at if bad == "past_acquired" else 4)
    blocks = [_entry_block(20 + slot) for slot in (6, 7, 0, 1)]
    if BAD_PUBLISH[bad] is not None:
        blocks[at] = BAD_PUBLISH[bad]
    n = _publish(ring, model, blocks, entries)
    assert n == (at if bad in ("short_block", "past_acquired") else 4)
    _check_invariants(ring, model)
    assert ring.dirty_run() == n
    assert _fetch(ring, model, 8, entries) == [_kept(block) for block in blocks[:n]]


def test_publish_without_acquire_reports_violation():
    ring = TxRing(4)
    with pytest.raises(ContractViolation, match="publish into TX slot 0, which is not acquired"):
        ring.tx_publish_run([_entry_block(0)])
    assert ring.snapshot() == TxRing(4).snapshot()


def test_double_release_reports_violation():
    ring = TxRing(4)
    ring.tx_acquire_run(1)
    ring.tx_publish_run([_entry_block(0)])
    ring.nic_release(len(ring.nic_fetch(1)))
    before = ring.snapshot()
    with pytest.raises(ContractViolation, match="release of 1 TX entries, 0 of them fetched"):
        ring.nic_release(1)
    assert ring.snapshot() == before


def test_side_ownership_enforced_across_threads():
    ring = TxRing(4)
    ring.tx_acquire_run(1)
    ring.tx_publish_run([_entry_block(1)])

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


def _negative_count_calls():
    """(ring, bound call, its refusal) for each by-count ring method at -2,
    on rings with entries in every state the call could move."""
    tx = TxRing(4)
    tx.tx_acquire_run(3)
    tx.tx_publish_run([_entry_block(i) for i in range(2)])
    tx.nic_fetch(1)
    rx = RxRing(4)
    rx.rx_deliver_run([_entry_block(i) for i in range(2)])
    return {
        "tx_acquire_run": (tx, tx.tx_acquire_run, "acquire of -2 TX slots"),
        "nic_fetch": (tx, tx.nic_fetch, "max_batch must be >= 1"),
        "nic_release": (tx, tx.nic_release, "release of -2 TX entries"),
        "rx_poll_run": (rx, rx.rx_poll_run, "poll of -2 RX entries"),
        "rx_release_run": (rx, rx.rx_release_run, "release of -2 RX entries"),
    }


@pytest.mark.parametrize("method", sorted(_negative_count_calls()))
def test_a_negative_count_is_refused_and_moves_nothing(method):
    ring, call, refusal = _negative_count_calls()[method]
    before = ring.snapshot()
    assert _outcome(call, -2) == (None, refusal)
    assert ring.snapshot() == before
    if method != "nic_fetch":  # a count of 0 is a run of nothing
        call(0)
        assert ring.snapshot() == before


# --------------------------------------------------------------------------
# snapshot/restore
# --------------------------------------------------------------------------


def test_snapshot_restore_identity():
    ring = TxRing(8)
    ring.tx_acquire_run(5)
    ring.tx_publish_run([_entry_block(i) for i in range(5)])
    ring.nic_release(len(ring.nic_fetch(2)))
    snap = ring.snapshot()
    other = TxRing(8)
    other.restore(snap)
    assert other.snapshot() == snap
    # restored ring continues identically
    assert ring.tx_acquire_run(4) == other.tx_acquire_run(4) == 4
    assert other.snapshot() == ring.snapshot()


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
        assert ring.rx_deliver_run([_entry_block(i) for i in range(depth + 1)]) == depth


@pytest.mark.parametrize("counters", [
    (1, 0, 0, 0),  # released past fetched
    (0, 1, 0, 1),  # fetched past published
    (0, 0, 2, 1),  # published past acquired
    (0, 0, 0, 5),  # more than depth slots out of the free pool
])
def test_restore_rejects_tx_counters_out_of_order(counters):
    ring = TxRing(4)
    ring.tx_acquire_run(1)
    ring.tx_publish_run([_entry_block(0)])
    before = ring.snapshot()
    bad = dict(before, **dict(zip(("released", "fetched", "published", "acquired"), counters)))
    with pytest.raises(ContractViolation, match="out of order for a depth-4 ring"):
        ring.restore(bad)
    assert ring.snapshot() == before
    ring.restore(dict(before, released=3, fetched=4, published=5, acquired=7))  # the bounds hold


@pytest.mark.parametrize("key,cursor", [("poll_cursor", 4), ("free_cursor", -1)])
def test_rx_restore_rejects_a_cursor_outside_the_ring(key, cursor):
    ring = RxRing(4)
    assert ring.rx_deliver_run([_entry_block(0)]) == 1
    before = ring.snapshot()
    with pytest.raises(ContractViolation, match=f"{key} {cursor} outside 0..3 for a depth-4 ring"):
        ring.restore(dict(before, **{key: cursor}))
    assert ring.snapshot() == before
    ring.restore(dict(before, free_cursor=3, poll_cursor=0))  # the bounds hold


# --------------------------------------------------------------------------
# RX runs against the RX oracle
# --------------------------------------------------------------------------


class RxModel:
    """Reference RX ring: delivered entries wait in a FIFO until the host
    frees them; the NIC writes slot after slot and is refused at a slot that
    is not free. The host reads the oldest delivered entries without taking
    them, and frees a count of them."""

    def __init__(self, depth, start=0):
        self.depth = depth
        self.fifo = deque()  # (slot, entry) delivered, not yet freed
        self.next_slot = start % depth  # where the NIC writes next

    def deliver(self, blocks):
        """(delivered, refusal): the blocks in order up to the first full
        slot. A block that is not an entry long is refused, after the ones
        before it, also the one that meets a full slot."""
        n = 0
        for block in blocks:
            if len(block) != protocol.ENTRY_SIZE:
                return n, f"delivery needs 64 bytes, got {len(block)}"
            slot = self.next_slot
            if any(s == slot for s, _ in self.fifo):
                break
            self.fifo.append((slot, _kept(block)))
            self.next_slot = (slot + 1) % self.depth
            n += 1
        return n, None

    def poll(self, count):
        return [entry for _, entry in list(self.fifo)[:count]]

    def release(self, count):
        """The refusal of freeing count entries (None if there is none),
        after the delivered ones before it are freed."""
        for _ in range(count):
            if not self.fifo:
                return f"release of RX slot {self.next_slot}, which holds no delivered entry"
            self.fifo.popleft()
        return None

    def check(self, ring: RxRing):
        """ring holds the delivered entries, and nothing else, at its cursors."""
        snap = ring.snapshot()
        flags = bytearray(self.depth)
        for slot, entry in self.fifo:
            flags[slot] = 1
            assert snap["blocks"][slot] == entry
        assert snap["flags"] == flags
        assert snap["free_cursor"] == self.next_slot
        assert snap["poll_cursor"] == (self.fifo[0][0] if self.fifo else self.next_slot)


def _rx_ring_from(depth, start, delivered):
    """A depth-deep RX ring, and its model, whose cursors stand at start
    (every earlier entry delivered and freed) with delivered entries
    waiting."""
    ring, model = RxRing(depth), RxModel(depth, start)
    for i in range(start):
        assert ring.rx_deliver_run([_entry_block(i)]) == 1
        ring.rx_release_run(1)
    blocks = [_entry_block(100 + i) for i in range(delivered)]
    assert ring.rx_deliver_run(blocks) == model.deliver(blocks)[0] == delivered
    model.check(ring)
    return ring, model


def _deliver(ring: RxRing, model: RxModel, blocks):
    """rx_deliver_run(blocks), checked against model: (delivered, refusal)."""
    n, refusal = model.deliver(blocks)
    assert _outcome(ring.rx_deliver_run, blocks) == ((n, None) if refusal is None
                                                     else (None, refusal))
    model.check(ring)
    return n, refusal


@pytest.mark.parametrize("depth,start,delivered,count", [
    (8, 0, 0, 5),  # all fit
    (8, 3, 0, 8),  # fill the ring exactly, after the cursor wrapped
    (8, 3, 2, 9),  # the ring fills after 6: the rest are refused
    (4, 0, 4, 2),  # already full: none delivered
    (4, 2, 0, 0),  # an empty run
    (4, 3, 0, 1),  # a run of one, at the ring's last slot
    (4, 1, 4, 1),  # a run of one into a full ring
])
def test_rx_deliver_run_writes_up_to_the_first_full_slot(depth, start, delivered, count):
    ring, model = _rx_ring_from(depth, start, delivered)
    _deliver(ring, model, [_entry_block(i) for i in range(count)])


@pytest.mark.parametrize("free_before,raises", [(8, True), (2, True), (1, False)])
def test_rx_deliver_run_raises_mid_run_after_the_blocks_before(free_before, raises):
    # a 63-byte third block: the two before it are delivered and it raises,
    # full ring or not, unless the ring fills before it is reached
    blocks = [_entry_block(0), bytearray(_entry_block(1)), _entry_block(2)[:63], _entry_block(3)]
    ring, model = _rx_ring_from(8, 5, 8 - free_before)
    assert _deliver(ring, model, blocks) == ((2, "delivery needs 64 bytes, got 63") if raises
                                             else (1, None))
    assert _deliver(ring, model, [_entry_block(9)]) == (1 if free_before == 8 else 0, None)


@pytest.mark.parametrize("count", [1, 2])
def test_rx_deliver_run_checks_the_length_of_a_block_that_meets_a_full_slot(count):
    # the block is checked before the slot it would take is found full
    blocks = [_entry_block(0), _entry_block(1)[:63]][-count:]
    ring, model = _rx_ring_from(4, 1, 4 - count + 1)
    assert _outcome(ring.rx_deliver_run, blocks) == (None, "delivery needs 64 bytes, got 63")
    assert model.deliver(blocks) == (count - 1, "delivery needs 64 bytes, got 63")
    model.check(ring)


@pytest.mark.parametrize("depth,start,delivered,count", [
    (8, 0, 5, 4),  # part of what is delivered
    (8, 6, 8, 8),  # the whole ring, across the wrap
    (4, 1, 2, 3),  # more than is delivered: the run ends early
    (4, 2, 0, 2),  # nothing delivered
    (4, 3, 2, 1),  # a run of one
    (4, 2, 0, 1),  # a run of one on an empty ring
    (4, 0, 4, 9),  # more than the depth
])
def test_rx_poll_run_reads_and_release_run_frees_the_delivered_entries(depth, start,
                                                                        delivered, count):
    ring, model = _rx_ring_from(depth, start, delivered)
    before = ring.snapshot()
    got = ring.rx_poll_run(count)
    assert got == model.poll(count)
    assert ring.snapshot() == before  # read only: rx_release_run frees them
    ring.rx_release_run(len(got))
    assert model.release(len(got)) is None
    model.check(ring)


@pytest.mark.parametrize("delivered,count", [(2, 3), (0, 1), (1, 4)])
def test_rx_release_run_refuses_an_entry_not_delivered_after_those_before(delivered, count):
    ring, model = _rx_ring_from(4, 3, delivered)
    refusal = model.release(count)
    assert refusal == f"release of RX slot {(3 + delivered) % 4}, which holds no delivered entry"
    assert _outcome(ring.rx_release_run, count) == (None, refusal)
    model.check(ring)


def test_rx_fifo_and_backpressure():
    rx = RxRing(4)
    assert rx.rx_deliver_run([_entry_block(i) for i in range(4)]) == 4
    assert rx.rx_deliver_run([_entry_block(99)]) == 0  # full -> backpressure
    [block] = rx.rx_poll_run(1)
    assert _rpc(block) == 0
    rx.rx_release_run(1)
    assert rx.rx_deliver_run([_entry_block(4), _entry_block(5)]) == 1  # resumed after release
    got = [_rpc(b) for b in rx.rx_poll_run(8)]
    rx.rx_release_run(len(got))
    assert got == [1, 2, 3, 4]
    assert rx.rx_poll_run(1) == [] and rx.rx_poll_run(4) == []


def test_rx_roundtrip_many():
    rng = random.Random(5)
    rx = RxRing(64)
    sent = list(range(10_000))
    received = []
    queue = [_entry_block(rpc) for rpc in sent]
    while queue or len(received) < len(sent):
        k = rx.rx_deliver_run(queue[:rng.randint(1, 40)])
        del queue[:k]
        blocks = rx.rx_poll_run(rng.randint(1, 40))
        received.extend(_rpc(block) for block in blocks)
        rx.rx_release_run(len(blocks))
    assert received == sent


_RX_OPS = st.one_of(
    st.tuples(st.just("deliver"), st.integers(0, 9)),  # up to 9 in a run, to overrun a ring
    st.tuples(st.just("poll"), st.integers(0, 9)),
    st.tuples(st.just("release"), st.integers(0, 9)),  # past the delivered: refused
    st.tuples(st.just("restore"), st.just(0)),
)


@settings(max_examples=300, deadline=None, database=None)
@given(depth=st.sampled_from([4, 8]), ops=st.lists(_RX_OPS, max_size=80))
def test_rx_random_sequences_match_fifo_model(depth, ops):
    rx, model = RxRing(depth), RxModel(depth)
    next_rpc = 0
    for op, arg in ops:
        if op == "deliver":
            next_rpc += _deliver(rx, model, [_entry_block(next_rpc + i) for i in range(arg)])[0]
        elif op == "poll":
            assert rx.rx_poll_run(arg) == model.poll(arg)
        elif op == "release":
            refusal = model.release(arg)
            assert _outcome(rx.rx_release_run, arg) == (None, refusal)
        elif op == "restore":
            rx = _clone(rx)
        model.check(rx)
    # what is left comes out in delivery order, then the ring reads empty;
    # a ring restored from a snapshot drains the same
    expected = [_rpc(entry) for _, entry in model.fifo]
    for ring in (rx, _clone(rx)):
        got = ring.rx_poll_run(depth + 1)
        assert [_rpc(block) for block in got] == expected
        ring.rx_release_run(len(got))
        assert ring.rx_poll_run(depth) == []


# --------------------------------------------------------------------------
# both rings of a pair by runs, against both oracles
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
)


@settings(max_examples=300, deadline=None, database=None)
@given(depth=st.sampled_from([4, 8]), start=st.integers(0, 7),
       ops=st.lists(_RUN_OPS, max_size=60))
def test_every_run_matches_the_oracles(depth, start, ops):
    # both rings start with their cursors at slot start % depth, so that
    # short runs already cross the end of the ring
    at = start % depth
    pair, tx_model, entries = RingPair(depth), AbstractRing(depth), {}
    for rpc in range(at):  # the TX ring's first entries go through and are released
        _publish(pair.tx, tx_model, [_entry_block(rpc)] * _acquire(pair.tx, tx_model, 1), entries)
        _fetch(pair.tx, tx_model, 1, entries)
        _release(pair.tx, tx_model, 1)
    pair.rx, rx_model = _rx_ring_from(depth, at, 0)
    rpc = 0
    for op, count, *bad in ops:
        blocks = [_entry_block(rpc + i) for i in range(count)]
        rpc += count
        if bad and bad[0] is not None and count:
            i = bad[1] % count
            blocks[i] = _RUN_BAD[bad[0]](blocks[i])
        if op == "acquire":
            _acquire(pair.tx, tx_model, count)
        elif op == "fill":
            _publish(pair.tx, tx_model, blocks[:_acquire(pair.tx, tx_model, count)], entries)
        elif op == "publish":
            _publish(pair.tx, tx_model, blocks, entries)
        elif op == "fetch":
            _fetch(pair.tx, tx_model, count, entries)
        elif op == "release":
            _release(pair.tx, tx_model, count)
        elif op == "deliver":
            _deliver(pair.rx, rx_model, blocks)
        elif op == "poll":
            assert pair.rx.rx_poll_run(count) == rx_model.poll(count)
        elif op == "rx_release":
            refusal = rx_model.release(count)
            assert _outcome(pair.rx.rx_release_run, count) == (None, refusal)
        _check_invariants(pair.tx, tx_model)
        rx_model.check(pair.rx)


# --------------------------------------------------------------------------
# entries held by reference
# --------------------------------------------------------------------------


def _block(rpc, valid=1):
    return protocol.pack_entry(protocol.KIND_REQUEST, 3, rpc, 0, b"p%d" % rpc, valid)


def _tx_rx_roundtrip(tx_block, rx_block):
    """(entry fetched from a depth-2 TX ring, entry polled from a depth-2 RX
    ring) after each ring is given one block."""
    tx, rx = TxRing(2), RxRing(2)
    tx.tx_acquire_run(1)
    tx.tx_publish_run([tx_block])
    assert rx.rx_deliver_run([rx_block]) == 1
    if isinstance(tx_block, bytearray):
        tx_block[:] = bytes(64)  # the caller reuses its buffer
    if isinstance(rx_block, bytearray):
        rx_block[:] = bytes(64)
    [fetched] = tx.nic_fetch(1)
    [polled] = rx.rx_poll_run(1)
    return fetched, polled


def test_a_published_entry_is_handed_on_by_reference():
    block = _block(1)
    tx, rx = TxRing(2), RxRing(2)
    tx.tx_acquire_run(1)
    tx.tx_publish_run([block])
    [fetched] = tx.nic_fetch(1)
    assert fetched is block
    assert rx.rx_deliver_run([fetched]) == 1
    assert rx.rx_poll_run(1)[0] is block


def test_a_mutable_block_is_copied_in():
    fetched, polled = _tx_rx_roundtrip(bytearray(_block(1)), bytearray(_block(2)))
    assert (fetched, polled) == (_block(1), _block(2))
    assert type(fetched) is bytes and type(polled) is bytes


@pytest.mark.parametrize("valid", [0, 2])
def test_an_entry_is_read_with_its_valid_byte_set(valid):
    fetched, polled = _tx_rx_roundtrip(_block(1, valid), _block(2, valid))
    assert (fetched, polled) == (_block(1), _block(2))


def test_rx_deliver_run_refuses_a_block_of_another_length():
    rx = RxRing(2)
    before = rx.snapshot()
    with pytest.raises(ContractViolation, match="delivery needs 64 bytes, got 63"):
        rx.rx_deliver_run([_block(1)[:63]])
    assert rx.snapshot() == before


# The memory images of a TX and an RX ring after the scripted sequence of
# test_slab_image_matches_the_recorded_one: each slot's flag byte, then the
# body of the last entry written to it, freed slots included.
TX_IMAGE = (
    "0100030003000000000002000000000070330000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000030002000000000002000000000070320000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
)
RX_IMAGE = (
    "0000030004000000000002000000000070340000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0100030005000000000002000000000070350000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
)


def test_slab_image_matches_the_recorded_one():
    tx = TxRing(2)
    assert tx.tx_acquire_run(1) == 1
    tx.tx_publish_run([_block(1)])
    assert tx.tx_acquire_run(1) == 1
    tx.tx_publish_run([bytearray(_block(2))])
    tx.nic_fetch(2)
    tx.nic_release(1)  # slot a
    tx.tx_acquire_run(1)
    tx.tx_publish_run([_block(3, valid=0)])
    tx.nic_release(1)  # slot b is free and keeps entry 2's body
    rx = RxRing(2)
    rx.rx_deliver_run([_block(4)])
    rx.rx_deliver_run([_block(5, valid=2)])
    rx.rx_poll_run(1)
    rx.rx_release_run(1)  # slot 0 is free and keeps entry 4's body
    rx.rx_poll_run(1)  # slot 1 is read and stays delivered
    assert _image(tx.snapshot()).hex() == TX_IMAGE
    assert _image(rx.snapshot()).hex() == RX_IMAGE
    for ring in (tx, rx):
        assert _clone(ring).snapshot() == ring.snapshot()


# --------------------------------------------------------------------------
# completion queue
# --------------------------------------------------------------------------


def test_completion_queue_fifo_and_overflow():
    cq = CompletionQueue(capacity=3)
    for i in range(3):
        cq.cq_push((i, b"x"))
    with pytest.raises(ContractViolation):
        cq.cq_push((3, b"x"))
    assert [r[0] for r in cq.cq_drain()] == [0, 1, 2]
    assert cq.cq_drain() == []
