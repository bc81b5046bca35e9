"""Per-connection TX/RX rings with the dirty-bit publication contract.

Design notes:
- Strict SPSC per side: the host side (acquire/publish, completion-ring
  read, RX poll/release) and the NIC side (fetch/release, RX deliver) are
  each owned by exactly one thread, enforced at first use. The simulated
  backend drives both sides from the single event-loop thread, which
  trivially satisfies the constraint.
- No locks. Each slot's valid byte is the publication point: the writer
  stores the entry first and flips the flag last, the reader inspects the
  flag before reading the entry. Under CPython each of those is a single
  atomic bytecode operation, so a reader that observes flag=1 observes the
  full entry.
- A ring holds each slot's entry by reference, never by copy: one list
  of immutable 64-byte ``bytes`` blocks and one ``bytearray`` of valid
  bytes per ring. A write stores the block's reference and then the flag;
  a read checks the flag and returns the stored block itself. A block
  that is not ``bytes`` with byte 0 equal to 1 is normalised to one on
  the way in (a rare path; the codec's blocks already are), so a reader
  gets exactly the bytes a copy-out of the memory image would give (its
  flag byte, 1, then the body), and a caller that mutates its buffer
  afterwards cannot change the ring. The publication contract above
  (entry first, flag last, one writer per side) is unchanged.
- ``TxRing.dirty_run`` resumes from the last dirty slot it saw: it caches
  the dirty run at the fetch cursor and scans only past it. The cache is
  exact because only the host sets a flag ahead of the cursor and the NIC
  clears flags only behind it; ``nic_fetch`` lowers it by the entries it
  took, and ``restore`` resets it to 0.
- Completion ring and cursors use monotonically increasing counters, each
  written by one side only.
- Ring state is fully described by the ``slab`` memory image (each
  slot's flag byte, then bytes 1..63 of the last block written to it;
  freed slots keep their stale body) plus cursors; snapshot() and
  restore() give an exact round trip (used for determinism checks).
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


def _require_pow2(depth: int) -> int:
    if depth < 1 or depth & (depth - 1):
        raise ValueError(f"ring depth must be a power of two, got {depth}")
    return depth


def _as_entry(block) -> bytes:
    """An immutable copy of a 64-byte block with its valid byte set to 1."""
    return b"\x01" + block[1:]


def _image(flags: bytearray, blocks: list) -> bytes:
    """The memory image of a ring: per slot its flag byte, then bytes 1..63
    of its last block."""
    return b"".join(bytes((flag,)) + block[1:] for flag, block in zip(flags, blocks))


def _from_image(image: bytes) -> tuple[bytearray, list]:
    """The flags and blocks that _image maps to a given memory image."""
    blocks = [_as_entry(image[base:base + _SLOT]) for base in range(0, len(image), _SLOT)]
    return bytearray(image[::_SLOT]), blocks


_get_ident = threading.get_ident


def _claim_side(ring, attr: str, name: str) -> None:
    """Slow path of the side-ownership check: bind the side to the calling
    thread on first use, or reject a second thread."""
    if getattr(ring, attr) is not None:
        raise ContractViolation(f"{name} side used from two threads")
    setattr(ring, attr, _get_ident())


class TxRing:
    """Host-to-NIC ring: slot entries and flags + completion ring for freed
    indices.

    Slot lifecycle: free -> acquired -> published(dirty) -> fetched -> free.
    The host may write a slot only if it was never used or its index came
    back through the completion ring; the NIC fetches only dirty slots.
    Fetches follow the circular cursor and releases free the oldest fetched
    entries, so the fetched-but-unreleased slots are always the
    len(_fetched) slots just behind the cursor.
    """

    def __init__(self, depth: int = DEFAULT_DEPTH):
        self.depth = _require_pow2(depth)
        self._blocks = [_ZERO_BLOCK] * self.depth  # each slot's last entry
        self._flags = bytearray(self.depth)  # each slot's valid byte
        # completion ring: NIC writes freed indices, host consumes them.
        # Starts pre-populated in ring order so the host's allocation order
        # always matches the NIC's circular fetch cursor.
        self._comp = list(range(self.depth))
        self._comp_wr = self.depth  # advanced by the NIC side only
        self._comp_rd = 0  # advanced by the host side only
        self.nic_fetch_cursor = 0
        self._dirty_seen = 0  # dirty run at the cursor that dirty_run already scanned
        self._acquired: deque[int] = deque()  # acquire order; published as a FIFO prefix
        self._fetched: deque[int] = deque()  # fetch order; released as a FIFO prefix
        self._host_thread = None  # owning thread of each side, bound on first use
        self._nic_thread = None

    # -- host side -------------------------------------------------------

    def tx_acquire(self):
        """Take ownership of a free slot; None when all slots outstanding."""
        if self._host_thread != _get_ident():
            _claim_side(self, "_host_thread", "TxRing host")
        if self._comp_rd >= self._comp_wr:
            return None
        idx = self._comp[self._comp_rd % self.depth]
        self._comp_rd += 1
        self._acquired.append(idx)
        return idx

    def tx_publish(self, slot: int, block: bytes) -> None:
        """Write an encoded entry into an acquired slot and flip its flag.

        Publishes follow acquire order (one writer, one entry at a time),
        which keeps publish order aligned with the NIC's circular cursor.
        The flag byte is stored last; the caller's flag byte is ignored:
        the ring keeps the block itself when it is ``bytes`` with byte 0
        equal to 1, and such a copy of it otherwise.
        """
        if self._host_thread != _get_ident():
            _claim_side(self, "_host_thread", "TxRing host")
        acquired = self._acquired
        if not acquired or acquired[0] != slot:
            raise ContractViolation(
                f"publish of slot {slot} out of acquire order "
                f"(oldest acquired: {list(islice(acquired, 1))})"
            )
        if len(block) != _SLOT:
            raise ContractViolation(f"publish needs {_SLOT} bytes, got {len(block)}")
        if block.__class__ is not bytes or block[0] != 1:
            block = _as_entry(block)
        self._blocks[slot] = block
        acquired.popleft()
        self._flags[slot] = 1  # publication point

    def free_slots(self) -> int:
        return self._comp_wr - self._comp_rd

    # -- NIC side --------------------------------------------------------

    def dirty_run(self) -> int:
        """Length of the consecutive dirty run at the fetch cursor.

        Resumes the scan after the run seen by the previous call, less the
        slots nic_fetch has taken since (restore forgets it), so each dirty
        slot is scanned once; the scan stops short of fetched slots.
        """
        if self._nic_thread != _get_ident():
            _claim_side(self, "_nic_thread", "TxRing nic")
        flags, cursor, depth = self._flags, self.nic_fetch_cursor, self.depth
        n = self._dirty_seen
        limit = depth - len(self._fetched)
        while n < limit and flags[(cursor + n) % depth] == 1:
            n += 1
        self._dirty_seen = n
        return n

    def nic_fetch(self, max_batch: int):
        """Fetch up to max_batch consecutive dirty entries, in publish order.

        Returns a list of (slot index, 64-byte entry as published); empty
        when nothing is dirty.
        """
        if self._nic_thread != _get_ident():
            _claim_side(self, "_nic_thread", "TxRing nic")
        if max_batch < 1:
            raise ContractViolation("max_batch must be >= 1")
        flags, blocks, depth, fetched = self._flags, self._blocks, self.depth, self._fetched
        idx = self.nic_fetch_cursor
        out = []
        n = depth - len(fetched)
        if max_batch < n:
            n = max_batch
        while n > 0:
            if flags[idx] != 1:
                break
            out.append((idx, blocks[idx]))
            fetched.append(idx)
            idx = (idx + 1) % depth
            n -= 1
        self.nic_fetch_cursor = idx
        seen = self._dirty_seen - len(out)
        self._dirty_seen = seen if seen > 0 else 0
        return out

    def nic_release(self, slots) -> None:
        """Reset flags and hand the indices back through the completion ring.

        Bookkeeping follows fetch order: the released slots (a sequence) must
        be the oldest fetched entries (the NIC frees the batch it just
        forwarded).
        """
        if self._nic_thread != _get_ident():
            _claim_side(self, "_nic_thread", "TxRing nic")
        fetched = self._fetched
        if not (len(slots) == 1 and fetched and slots[0] == fetched[0]):
            # anything but the exact oldest fetched slot: check the whole set
            slots = list(slots)
            prefix = list(islice(fetched, len(slots)))
            # fetched slots are distinct, so distinct slots with the same set
            # are the prefix in another order
            distinct = set(slots)
            if slots != prefix and (len(distinct) != len(slots) or distinct != set(prefix)):
                raise ContractViolation(
                    f"release {slots} is not the oldest fetched prefix {prefix}"
                )
        flags, comp, depth = self._flags, self._comp, self.depth
        wr = self._comp_wr
        for _ in slots:  # completion ring keeps circular order
            idx = fetched.popleft()
            flags[idx] = 0
            comp[wr % depth] = idx
            wr += 1
        self._comp_wr = wr  # publish the freed indices to the host side

    # -- diagnostics -----------------------------------------------------

    @property
    def slab(self) -> bytes:
        """The ring's memory image: per slot its flag byte, then bytes 1..63
        of the last entry written to it."""
        return _image(self._flags, self._blocks)

    def outstanding(self) -> int:
        """Slots out of the free pool: mid-copy, published or fetched."""
        return self.depth - self.free_slots()

    def snapshot(self) -> dict:
        return {
            "slab": self.slab.hex(),
            "comp": list(self._comp),
            "comp_wr": self._comp_wr,
            "comp_rd": self._comp_rd,
            "fetch_cursor": self.nic_fetch_cursor,
            "acquired": list(self._acquired),
            "fetched": list(self._fetched),
        }

    def restore(self, state: dict) -> None:
        slab = bytes.fromhex(state["slab"])
        if len(slab) != _SLOT * self.depth or len(state["comp"]) != self.depth:
            raise ContractViolation(
                f"snapshot of a depth-{len(state['comp'])} TX ring "
                f"({len(slab)} slab bytes) restored into a depth-{self.depth} ring"
            )
        self._flags, self._blocks = _from_image(slab)
        self._dirty_seen = 0
        self._comp = list(state["comp"])
        self._comp_wr = state["comp_wr"]
        self._comp_rd = state["comp_rd"]
        self.nic_fetch_cursor = state["fetch_cursor"]
        self._acquired = deque(state["acquired"])
        self._fetched = deque(state["fetched"])


class RxRing:
    """NIC-to-host ring. The NIC writes arrivals in order to the next free
    slot; a dirty slot at the write cursor means the host has not caught up
    and the NIC must stall (backpressure, never drop).

    Each slot's flag byte is its state: 0 free, 1 delivered, 2 polled by
    the host and not yet released. The NIC writes only free slots and the
    host polls only delivered ones, so a poll cursor that laps onto a slot
    the host still holds reads an empty ring, not the same entry twice.
    Entries are held by reference, as in TxRing.
    """

    def __init__(self, depth: int = DEFAULT_DEPTH):
        self.depth = _require_pow2(depth)
        self._blocks = [_ZERO_BLOCK] * self.depth  # each slot's last entry
        self._flags = bytearray(self.depth)  # each slot's state byte
        self.nic_free_cursor = 0
        self.host_poll_cursor = 0
        self._host_thread = None  # owning thread of each side, bound on first use
        self._nic_thread = None

    def rx_deliver(self, block: bytes) -> bool:
        """NIC side: write one entry; False signals backpressure (ring full).

        The ring keeps the block as tx_publish does.
        """
        if self._nic_thread != _get_ident():
            _claim_side(self, "_nic_thread", "RxRing nic")
        if len(block) != _SLOT:
            raise ContractViolation(f"delivery needs {_SLOT} bytes, got {len(block)}")
        idx = self.nic_free_cursor
        flags = self._flags
        if flags[idx] != 0:
            return False
        if block.__class__ is not bytes or block[0] != 1:
            block = _as_entry(block)
        self._blocks[idx] = block
        flags[idx] = 1
        self.nic_free_cursor = (idx + 1) % self.depth
        return True

    def rx_poll(self):
        """Host side: next delivered entry as (slot, bytes), or None."""
        if self._host_thread != _get_ident():
            _claim_side(self, "_host_thread", "RxRing host")
        idx = self.host_poll_cursor
        flags = self._flags
        if flags[idx] != 1:
            return None
        block = self._blocks[idx]
        flags[idx] = 2  # held until rx_release
        self.host_poll_cursor = (idx + 1) % self.depth
        return idx, block

    def rx_release(self, slot: int) -> None:
        """Host side: mark a polled slot free for the NIC again."""
        if self._host_thread != _get_ident():
            _claim_side(self, "_host_thread", "RxRing host")
        flags = self._flags
        if flags[slot] != 2:
            raise ContractViolation(f"release of RX slot {slot}, which the host "
                                    f"has not polled")
        flags[slot] = 0

    @property
    def slab(self) -> bytes:
        """The ring's memory image, laid out as TxRing.slab."""
        return _image(self._flags, self._blocks)

    def snapshot(self) -> dict:
        return {
            "slab": self.slab.hex(),
            "free_cursor": self.nic_free_cursor,
            "poll_cursor": self.host_poll_cursor,
        }

    def restore(self, state: dict) -> None:
        slab = bytes.fromhex(state["slab"])
        if len(slab) != _SLOT * self.depth:
            raise ContractViolation(
                f"snapshot of a depth-{len(slab) // _SLOT} RX ring restored into "
                f"a depth-{self.depth} ring"
            )
        self._flags, self._blocks = _from_image(slab)
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
