"""Per-connection TX/RX rings with the dirty-bit publication contract.

Design notes:
- Strict SPSC per side: the host side (TX acquire/publish, RX
  poll/release) and the NIC side (TX fetch/release, RX deliver) are each
  owned by exactly one thread, enforced at first use. The simulated
  backend drives both sides from the single event-loop thread, which
  trivially satisfies it.
- No locks. Each slot's valid byte is the publication point: the writer
  stores the entry first and flips the flag last, the reader inspects the
  flag before reading the entry. Under CPython each of those is a single
  atomic bytecode operation, so a reader that observes flag=1 observes the
  full entry; a run stores its entries with one slice assignment and then
  its flags with another.
- A ring holds each slot's entry by reference, never by copy: one list
  of immutable 64-byte ``bytes`` blocks and one ``bytearray`` of valid
  bytes per ring. A block that is not ``bytes`` with byte 0 equal to 1 is
  copied to one on the way in (the codec's blocks already are), so a
  reader always sees valid byte 1 and a caller's later change to its
  buffer cannot reach the ring.
- ``TxRing.dirty_run`` is a difference of counters, published minus
  fetched, with no scan: publishes follow the circular order, so every
  published slot past the fetch cursor is dirty. ``tx_publish_run`` sets
  the flags before it advances ``_published``, so a NIC thread that reads
  the counter finds every counted flag set.
- Every ring call moves a run, by count; there is no per-entry API. A
  run's slots are the ring's own next ones in the circular order (the
  counters or cursors say which), so no slot number crosses the interface:
  ``TxRing.tx_acquire_run`` returns how many slots it took,
  ``tx_publish_run`` publishes blocks into the next acquired slots,
  ``nic_fetch`` returns the blocks of the fetched run and ``nic_release``
  frees a count of them; ``RxRing.rx_deliver_run`` writes blocks up to the
  first full slot, ``rx_poll_run`` reads a pickup run and
  ``rx_release_run`` frees a count of it. Each call checks side ownership
  once, and a negative count is refused (a count of 0 does nothing).
  ``_lead`` finds where a run of flags ends with one scan in C
  (``bytearray.count``, then ``lstrip`` where the run stops short), and
  ``_read`` and ``_write`` move its entries and flags with one slice
  assignment each, split in two where the run crosses the end of the
  ring; ``_entries`` makes the per-block checks of the blocks a run takes
  in. A run of one entry, the only kind an unbatched NIC or an open loop
  makes, is published, fetched, released, delivered, polled or freed by
  index on both rings, which costs a fraction of a slice or a scan.
- Flags are only 0 or 1 on both rings. A run read by ``rx_poll_run``
  stays delivered until ``rx_release_run`` frees it, so a host that stops
  partway (an entry raised) frees the entries it took and leaves the rest,
  the raising one first, delivered at the poll cursor.
- The TX ring's bookkeeping is four monotonic counters, two written by
  each side; the RX ring's is one cursor per side.
- snapshot() returns a ring's state itself (flags, blocks, counters or
  cursors) and restore() copies it back: an exact round trip.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import islice

from . import protocol
from .errors import ContractViolation

DEFAULT_DEPTH = 64  # slots per ring; 64 x 64B = one 4KB page per direction
COMPLETION_QUEUE_CAPACITY = 4096

_SLOT = protocol.ENTRY_SIZE
_ZERO_BLOCK = bytes(_SLOT)  # the body of every slot not yet written
# one flag byte, repeated to set or clear a run of flags: a bytearray, which
# bytearray slice assignment takes without a copy (it copies bytes first)
_SET, _CLEAR = bytearray(b"\x01"), bytearray(b"\x00")
_END = object()  # what next() gives for an iterator with no block left


def _require_pow2(depth: int) -> int:
    if depth < 1 or depth & (depth - 1):
        raise ValueError(f"ring depth must be a power of two, got {depth}")
    return depth


def _as_entry(block) -> bytes:
    """An immutable copy of a 64-byte block with its valid byte set to 1."""
    return b"\x01" + block[1:]


def _entries(blocks, verb: str):
    """The blocks of the iterable blocks as the ring keeps them (_as_entry),
    taken up to the first that is not one entry long, and the refusal of
    that one (None if none is)."""
    out = []
    for block in blocks:
        if len(block) != _SLOT:
            return out, ContractViolation(f"{verb} needs {_SLOT} bytes, got {len(block)}")
        if block.__class__ is not bytes or block[0] != 1:
            block = _as_entry(block)
        out.append(block)
    return out, None


def _lead(flags: bytearray, idx: int, count: int, byte: bytes) -> int:
    """How many of the count (at most the depth) flags from slot idx on,
    circularly, equal byte before the first that does not: one scan in C."""
    depth = len(flags)
    end = idx + count
    if end <= depth:
        if flags.count(byte, idx, end) == count:
            return count
        return count - len(flags[idx:end].lstrip(byte))
    k = depth - idx
    left = len(flags[idx:].lstrip(byte))
    if left:
        return k - left
    end -= depth
    return k + end - len(flags[:end].lstrip(byte))


def _read(seq, idx: int, count: int):
    """The count items of seq from slot idx on, circularly, as one slice."""
    end = idx + count
    if end <= len(seq):
        return seq[idx:end]
    return seq[idx:] + seq[:end - len(seq)]


def _write(seq, idx: int, items) -> None:
    """Store the sequence items into seq from slot idx on, circularly."""
    depth = len(seq)
    end = idx + len(items)
    if end <= depth:
        seq[idx:end] = items
    else:
        cut = depth - idx
        seq[idx:] = items[:cut]
        seq[:end - depth] = items[cut:]


def _check_depth(ring, state: dict, name: str) -> None:
    """Refuse a snapshot whose flags or blocks do not cover one slot each."""
    n_flags, n_blocks = len(state["flags"]), len(state["blocks"])
    if n_flags != ring.depth or n_blocks != ring.depth:
        raise ContractViolation(
            f"snapshot of a depth-{n_flags} {name} ring ({n_blocks} blocks) "
            f"restored into a depth-{ring.depth} ring"
        )


_get_ident = threading.get_ident


def _claim_side(ring, attr: str, name: str) -> None:
    """Slow path of the side-ownership check: bind the side to the calling
    thread on first use, or reject a second thread."""
    if getattr(ring, attr) is not None:
        raise ContractViolation(f"{name} side used from two threads")
    setattr(ring, attr, _get_ident())


class TxRing:
    """Host-to-NIC ring: slot entries and flags plus four counters.

    Slot lifecycle: free -> acquired -> published(dirty) -> fetched -> free.
    Each step follows one circular order, so counter n stands for slot
    n % depth: the acquired slots are [_published, _acquired), the fetched
    ones [_released, _fetched), and the host acquires while fewer than
    depth slots lie in [_released, _acquired). A slot's flag is 1 from its
    publish to its release and 0 otherwise.
    """

    def __init__(self, depth: int = DEFAULT_DEPTH):
        self.depth = _require_pow2(depth)
        self._blocks = [_ZERO_BLOCK] * self.depth  # each slot's last entry
        self._flags = bytearray(self.depth)  # each slot's valid byte
        self._acquired = self._published = 0  # written by the host side only
        self._fetched = self._released = 0  # by the NIC side only; the host reads _released
        self._host_thread = None  # owning thread of each side, bound on first use
        self._nic_thread = None

    # -- host side -------------------------------------------------------

    def tx_acquire_run(self, count: int) -> int:
        """Take up to count free slots for the host to publish into: how
        many were taken, fewer than count when the ring runs out of free
        slots."""
        if self._host_thread != _get_ident():
            _claim_side(self, "_host_thread", "TxRing host")
        n = self._acquired
        free = self.depth - (n - self._released)
        if count > free:
            count = free
        elif count < 0:
            raise ContractViolation(f"acquire of {count} TX slots")
        self._acquired = n + count
        return count

    def tx_publish_run(self, blocks) -> None:
        """Write each block of the iterable blocks into the next acquired
        slot, in order, and flip the slots' flags after their entries. A
        block that is not one entry long, or one past the acquired slots,
        raises once taken from blocks, after the blocks before it are
        published. The caller's flag byte is ignored: the ring keeps a
        block that is ``bytes`` with byte 0 equal to 1 itself, and such a
        copy of any other."""
        if self._host_thread != _get_ident():
            _claim_side(self, "_host_thread", "TxRing host")
        n, depth = self._published, self.depth
        room = self._acquired - n
        it = iter(blocks)
        run, refused = _entries(islice(it, room), "publish")
        k = len(run)
        if k == room and refused is None and next(it, _END) is not _END:
            refused = ContractViolation(f"publish into TX slot {(n + room) % depth}, "
                                        f"which is not acquired")
        if k:
            idx = n % depth
            if k == 1:  # by index, cheaper than the slices on a run of one
                self._blocks[idx] = run[0]
                self._flags[idx] = 1  # publication point
            else:
                _write(self._blocks, idx, run)
                _write(self._flags, idx, _SET * k)
            self._published = n + k  # after the flags it counts (dirty_run)
        if refused is not None:
            raise refused

    def free_slots(self) -> int:
        return self.depth - (self._acquired - self._released)

    # -- NIC side --------------------------------------------------------

    def dirty_run(self) -> int:
        """Length of the consecutive dirty run at the fetch cursor: the
        published slots not yet fetched."""
        if self._nic_thread != _get_ident():
            _claim_side(self, "_nic_thread", "TxRing nic")
        return self._published - self._fetched

    def nic_fetch(self, max_batch: int) -> list:
        """Fetch up to max_batch consecutive dirty entries at the fetch
        cursor, up to the first slot that is not dirty: their 64-byte
        blocks as published, in publish order; empty when nothing is dirty."""
        if self._nic_thread != _get_ident():
            _claim_side(self, "_nic_thread", "TxRing nic")
        if max_batch < 1:
            raise ContractViolation("max_batch must be >= 1")
        fetched, depth = self._fetched, self.depth
        n = depth - (fetched - self._released)
        if max_batch < n:
            n = max_batch
        idx = fetched % depth
        if n == 1:  # by index, cheaper than the scan and slice on a run of one
            if self._flags[idx] != 1:
                return []
            self._fetched = fetched + 1
            return [self._blocks[idx]]
        n = _lead(self._flags, idx, n, b"\x01")
        self._fetched = fetched + n
        return _read(self._blocks, idx, n)

    def nic_release(self, count: int) -> None:
        """Reset the flags of the count oldest fetched entries and hand
        their slots back to the host (the NIC frees the batch it just
        forwarded). A count past the fetched entries raises, after those
        are released."""
        if self._nic_thread != _get_ident():
            _claim_side(self, "_nic_thread", "TxRing nic")
        n = self._released
        k = self._fetched - n
        if count < k:
            if count < 0:
                raise ContractViolation(f"release of {count} TX entries")
            k = count
        if k > 0:
            # the flags are cleared before the host can see the slots
            idx = n % self.depth
            if k == 1:  # by index, cheaper than a slice on a run of one
                self._flags[idx] = 0
            else:
                _write(self._flags, idx, _CLEAR * k)
            self._released = n + k  # hand the slots to the host side
        if count > k:
            raise ContractViolation(f"release of {count} TX entries, {k} of them fetched")

    # -- diagnostics -----------------------------------------------------

    def outstanding(self) -> int:
        """Slots out of the free pool: mid-copy, published or fetched."""
        return self.depth - self.free_slots()

    def snapshot(self) -> dict:
        return {
            "flags": bytes(self._flags),
            "blocks": tuple(self._blocks),
            "acquired": self._acquired,
            "published": self._published,
            "fetched": self._fetched,
            "released": self._released,
        }

    def restore(self, state: dict) -> None:
        _check_depth(self, state, "TX")
        a, p, f, r = (state[k] for k in ("acquired", "published", "fetched", "released"))
        if not r <= f <= p <= a <= r + self.depth:
            raise ContractViolation(f"snapshot counters (released {r}, fetched {f}, published "
                                    f"{p}, acquired {a}) out of order for a depth-{self.depth} ring")
        self._flags, self._blocks = bytearray(state["flags"]), list(state["blocks"])
        self._acquired, self._published, self._fetched, self._released = a, p, f, r


class RxRing:
    """NIC-to-host ring. The NIC writes arrivals in order to the next free
    slot; a dirty slot at the write cursor means the host has not caught up
    and the NIC must stall (backpressure, never drop).

    Each slot's flag byte is its state: 0 free, 1 delivered. The NIC writes
    free slots at its cursor and the host reads and frees delivered ones at
    its own, both in the circular order, so the delivered slots are the run
    from the poll cursor to the free cursor. A pickup reads a run and then
    frees a count of it: until it frees an entry, that entry stays delivered
    at the poll cursor. Entries are held by reference, as in TxRing.
    """

    def __init__(self, depth: int = DEFAULT_DEPTH):
        self.depth = _require_pow2(depth)
        self._blocks = [_ZERO_BLOCK] * self.depth  # each slot's last entry
        self._flags = bytearray(self.depth)  # each slot's state byte
        self.nic_free_cursor = 0
        self.host_poll_cursor = 0
        self._host_thread = None  # owning thread of each side, bound on first use
        self._nic_thread = None

    def rx_deliver_run(self, blocks) -> int:
        """NIC side: write each of the sequence blocks, in order, into the
        next free slot, up to the first full one, and flip the slots' flags
        after their entries; the number delivered. The entries are kept as
        TxRing.tx_publish_run keeps them. A block that is not one entry long
        raises, after the blocks before it, also when it is the one that
        meets a full slot."""
        if self._nic_thread != _get_ident():
            _claim_side(self, "_nic_thread", "RxRing nic")
        flags, depth = self._flags, self.depth
        idx = self.nic_free_cursor
        n = len(blocks)
        if n == 1:  # by index, cheaper than the scan and slices on a run of one
            block = blocks[0]  # checked as _entries checks it, inline: cheaper than its call
            if len(block) != _SLOT:
                raise ContractViolation(f"delivery needs {_SLOT} bytes, got {len(block)}")
            if flags[idx] != 0:
                return 0  # backpressure: the ring is full
            if block.__class__ is not bytes or block[0] != 1:
                block = _as_entry(block)
            self._blocks[idx] = block
            flags[idx] = 1
            self.nic_free_cursor = (idx + 1) % depth
            return 1
        free = _lead(flags, idx, n if n < depth else depth, b"\x00")
        run, refused = _entries(blocks[:free + 1], "delivery")
        del run[free:]
        k = len(run)
        if k:
            _write(self._blocks, idx, run)
            _write(flags, idx, _SET * k)
            self.nic_free_cursor = (idx + k) % depth
        if refused is not None:
            raise refused
        return k

    def rx_poll_run(self, count: int) -> list:
        """Host side: the blocks of the next count delivered entries at the
        poll cursor, in order; fewer where the delivered run ends. The ring
        is left as it is: the entries stay delivered, and the cursor stays,
        until rx_release_run frees them."""
        if self._host_thread != _get_ident():
            _claim_side(self, "_host_thread", "RxRing host")
        idx = self.host_poll_cursor
        if count == 1:  # by index, cheaper than the scan and slice on a run of one
            if self._flags[idx] != 1:
                return []
            return [self._blocks[idx]]
        if count > self.depth:
            count = self.depth  # each entry once
        elif count < 0:
            raise ContractViolation(f"poll of {count} RX entries")
        return _read(self._blocks, idx, _lead(self._flags, idx, count, b"\x01"))

    def rx_release_run(self, count: int) -> None:
        """Host side: free the slots of the next count delivered entries for
        the NIC and move the poll cursor past them. An entry that is not
        delivered raises, after the entries before it."""
        if self._host_thread != _get_ident():
            _claim_side(self, "_host_thread", "RxRing host")
        flags, depth = self._flags, self.depth
        idx = self.host_poll_cursor
        if count == 1 and flags[idx] == 1:  # by index, cheaper than the scan and slice
            flags[idx] = 0
            self.host_poll_cursor = (idx + 1) % depth
            return
        if count < 0:
            raise ContractViolation(f"release of {count} RX entries")
        k = _lead(flags, idx, count if count < depth else depth, b"\x01")
        _write(flags, idx, _CLEAR * k)
        idx = self.host_poll_cursor = (idx + k) % depth
        if k < count:
            raise ContractViolation(f"release of RX slot {idx}, which holds no "
                                    f"delivered entry")

    def snapshot(self) -> dict:
        return {
            "flags": bytes(self._flags),
            "blocks": tuple(self._blocks),
            "free_cursor": self.nic_free_cursor,
            "poll_cursor": self.host_poll_cursor,
        }

    def restore(self, state: dict) -> None:
        _check_depth(self, state, "RX")
        for key in ("free_cursor", "poll_cursor"):
            cursor = state[key]
            if not (isinstance(cursor, int) and 0 <= cursor < self.depth):
                raise ContractViolation(f"snapshot {key} {cursor} outside 0..{self.depth - 1} "
                                        f"for a depth-{self.depth} ring")
        self._flags, self._blocks = bytearray(state["flags"]), list(state["blocks"])
        self.nic_free_cursor = state["free_cursor"]
        self.host_poll_cursor = state["poll_cursor"]


class CompletionQueue:
    """FIFO of decoded responses delivered to an async application."""

    def __init__(self, capacity: int = COMPLETION_QUEUE_CAPACITY):
        self.capacity = capacity
        self._q = deque()

    def cq_push(self, response) -> None:
        if len(self._q) >= self.capacity:
            raise ContractViolation("completion queue overflow")
        self._q.append(response)

    def cq_drain(self):
        out = list(self._q)
        self._q.clear()
        return out

    def cq_drain_last(self):
        """Drain the queue and return only its newest entry (None if empty)."""
        q = self._q
        if not q:
            return None
        last = q[-1]
        q.clear()
        return last

    def __len__(self) -> int:
        return len(self._q)


class RingPair:
    """The TX/RX rings provisioned for one connection (one queue pair)."""

    def __init__(self, depth: int = DEFAULT_DEPTH):
        self.tx = TxRing(depth)
        self.rx = RxRing(depth)
