"""Real-threads backend: the same ring logic driven by OS threads.

Used to validate the publication contract and end-to-end conservation
under actual concurrency; wall-clock numbers from this backend are
reported but never gated on (the virtual-time engine is authoritative
for performance).

Thread layout honors the one-thread-per-ring-side rule: a host thread
owns the host side of every ring (client issue/poll plus server serve),
and a NIC thread owns the NIC side of every ring plus the loop-back wire
queues.

Payloads carry a CRC32 over their first 44 bytes in the last 4 bytes, so
a torn read anywhere in the pipeline is detected at the checkpoints.
"""

from __future__ import annotations

import struct
import sys
import threading
import time
import zlib
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from . import protocol
from .protocol import pack_entry, unpack_entry
from .rings import RingPair


_PAD = bytes(range(32))


def checksummed_payload(rpc_id: int, stamp: int) -> bytes:
    body = struct.pack("<IQ32s", rpc_id & 0xFFFFFFFF, stamp & 0xFFFFFFFFFFFFFFFF, _PAD)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def payload_intact(payload: bytes) -> bool:
    if len(payload) != 48:
        return False
    (crc,) = struct.unpack("<I", payload[44:])
    return crc == (zlib.crc32(payload[:44]) & 0xFFFFFFFF)


@contextmanager
def _fast_thread_switching():
    # spinning peers starve each other at the default 5 ms GIL slice
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


@dataclass
class StressStats:
    completed: int
    corrupted: int
    duplicates: int
    out_of_order: int
    wall_seconds: float

    @property
    def clean(self) -> bool:
        return self.corrupted == 0 and self.duplicates == 0 and self.out_of_order == 0


def run_spsc_stress(n_entries: int = 1_000_000, depth: int = 512, batch: int = 64) -> StressStats:
    """One producer publishes checksummed entries, one consumer fetches and
    releases them on another thread. Checks order and integrity."""
    pair = RingPair(depth)
    tx = pair.tx
    stats = StressStats(0, 0, 0, 0, 0.0)
    start = time.perf_counter()

    def producer():
        published = 0
        while published < n_entries:
            slot = tx.tx_acquire()
            if slot is None:
                time.sleep(0)
                continue
            tx.tx_publish(slot, pack_entry(protocol.KIND_REQUEST, 1, published, 0,
                                           checksummed_payload(published, 0xABCDEF)))
            published += 1

    def consumer():
        expected = 0
        while expected < n_entries:
            fetched = tx.nic_fetch(batch)
            if not fetched:
                time.sleep(0)
                continue
            for block in fetched:
                _kind, _conn, rpc, _fn, payload = unpack_entry(block)
                if not payload_intact(payload):
                    stats.corrupted += 1
                if rpc != expected:
                    stats.out_of_order += 1
                expected += 1
                stats.completed += 1
            tx.nic_release(len(fetched))

    threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
    with _fast_thread_switching():
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    stats.wall_seconds = time.perf_counter() - start
    return stats


class _EchoRig:
    """Two NICs on a loop-back wire, one connection, echo server."""

    def __init__(self, depth: int, batch: int):
        self.batch = batch
        self.client = RingPair(depth)  # client-side rings (NIC A)
        self.server = RingPair(depth)  # server-side rings (NIC B)
        self.wire_ab: deque = deque()
        self.wire_ba: deque = deque()
        self.done = threading.Event()


def run_echo_stress(n_rpcs: int = 1_000_000, depth: int = 1024, batch: int = 128,
                    window: int = 896) -> StressStats:
    """Closed-loop echo across both rings of both endpoints.

    The host thread issues up to `window` outstanding requests, serves the
    echo handler, and verifies every completion; the NIC thread moves
    entries TX ring -> wire -> RX ring for both directions.
    """
    rig = _EchoRig(depth, batch)
    stats = StressStats(0, 0, 0, 0, 0.0)
    start = time.perf_counter()

    def nic_thread():
        client_tx, server_rx = rig.client.tx, rig.server.rx
        server_tx, client_rx = rig.server.tx, rig.client.rx
        ab, ba = rig.wire_ab, rig.wire_ba
        while not rig.done.is_set():
            moved = False
            fetched = client_tx.nic_fetch(rig.batch)
            if fetched:
                ab.extend(fetched)
                client_tx.nic_release(len(fetched))
                moved = True
            while ab and server_rx.rx_deliver(ab[0]):
                ab.popleft()
                moved = True
            fetched = server_tx.nic_fetch(rig.batch)
            if fetched:
                ba.extend(fetched)
                server_tx.nic_release(len(fetched))
                moved = True
            while ba and client_rx.rx_deliver(ba[0]):
                ba.popleft()
                moved = True
            if not moved:
                time.sleep(0)

    def host_thread():
        issued = 0
        completed = 0
        seen = bytearray(n_rpcs)
        expected_next = 0
        client_tx, client_rx = rig.client.tx, rig.client.rx
        server_rx, server_tx = rig.server.rx, rig.server.tx
        pending_responses: deque = deque()
        last_progress = time.perf_counter()
        while completed < n_rpcs:
            if time.perf_counter() - last_progress > 60.0:
                break  # stalled pipeline: report the shortfall instead of hanging
            progress = False
            # client: keep the window full
            while issued < n_rpcs and issued - completed < window:
                slot = client_tx.tx_acquire()
                if slot is None:
                    break
                client_tx.tx_publish(slot, pack_entry(protocol.KIND_REQUEST, 1, issued, 0,
                                                      checksummed_payload(issued, 0x51)))
                issued += 1
                progress = True
            # server: drain requests, echo them back
            while True:
                polled = server_rx.rx_poll()
                if polled is None:
                    break
                slot, block = polled
                _kind, _conn, rpc, _fn, payload = unpack_entry(block)
                if not payload_intact(payload):
                    stats.corrupted += 1
                pending_responses.append((rpc, payload))
                server_rx.rx_release(slot)
                progress = True
            while pending_responses:
                slot = server_tx.tx_acquire()
                if slot is None:
                    break
                rpc, payload = pending_responses.popleft()
                server_tx.tx_publish(slot, pack_entry(protocol.KIND_RESPONSE, 1, rpc, 0, payload))
                progress = True
            # client: consume completions
            while True:
                polled = client_rx.rx_poll()
                if polled is None:
                    break
                slot, block = polled
                _kind, _conn, rid, _fn, payload = unpack_entry(block)
                if not payload_intact(payload):
                    stats.corrupted += 1
                if rid >= n_rpcs or seen[rid]:
                    stats.duplicates += 1
                else:
                    seen[rid] = 1
                if rid != expected_next:
                    stats.out_of_order += 1
                expected_next = rid + 1
                completed += 1
                client_rx.rx_release(slot)
                progress = True
            if progress:
                last_progress = time.perf_counter()
            else:
                time.sleep(0)
        stats.completed = completed
        if not all(seen):
            stats.duplicates += 1  # a missing id implies loss; flag loudly
        rig.done.set()

    threads = [threading.Thread(target=nic_thread), threading.Thread(target=host_thread)]
    with _fast_thread_switching():
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    stats.wall_seconds = time.perf_counter() - start
    return stats
