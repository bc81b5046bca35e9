"""Real-threads backend: the same ring logic driven by OS threads.

Used to validate the publication contract and end-to-end conservation
under actual concurrency; wall-clock numbers from this backend are
reported but never gated on (the virtual-time engine is authoritative
for performance).

Thread layout honors the one-thread-per-ring-side rule: a host thread
owns the host side of every ring (client issue/poll plus server serve),
and a NIC thread owns the NIC side of every ring plus the loop-back wire
queues. Both threads make the ring calls the simulator makes, each a run
of entries by count (rings.py).

Payloads carry a CRC32 over their first 44 bytes in the last 4 bytes, so
a torn read anywhere in the pipeline is detected at the checkpoints.
"""

from __future__ import annotations

import struct
import sys
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

from . import protocol
from .protocol import pack_entry, unpack_entry
from .rings import RingPair


_PAD = bytes(range(32))
STALL_S = 60.0  # seconds without a completion after which a stress run stops short


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


def _run_threads(stats: StressStats, *loops) -> None:
    """Run each loop(stop) on a thread of its own until every one returns.
    Every loop watches stop. It is set when a loop raises, and the first
    such error is raised here once all threads have joined; and when
    stats.completed has not grown for STALL_S seconds, so that a stalled
    pipeline reports its shortfall instead of hanging."""
    stop = threading.Event()
    errors = []

    def guarded(loop):
        try:
            loop(stop)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=guarded, args=(loop,)) for loop in loops]
    with _fast_thread_switching():
        for t in threads:
            t.start()
        last, since = stats.completed, time.perf_counter()
        for t in threads:
            while t.is_alive():
                t.join(0.1)
                now = time.perf_counter()
                if stats.completed != last:
                    last, since = stats.completed, now
                elif now - since > STALL_S:
                    stop.set()
    if errors:
        raise errors[0]


def run_spsc_stress(n_entries: int = 1_000_000, depth: int = 512, batch: int = 64) -> StressStats:
    """One producer publishes checksummed entries in runs of up to batch,
    one consumer fetches and releases them in runs of up to batch on
    another thread. Checks order and integrity."""
    tx = RingPair(depth).tx
    stats = StressStats(0, 0, 0, 0, 0.0)
    start = time.perf_counter()

    def producer(stop):
        published = 0
        while published < n_entries and not stop.is_set():
            k = tx.tx_acquire_run(min(batch, n_entries - published))
            if not k:
                time.sleep(0)
                continue
            tx.tx_publish_run([pack_entry(protocol.KIND_REQUEST, 1, rpc, 0,
                                          checksummed_payload(rpc, 0xABCDEF))
                               for rpc in range(published, published + k)])
            published += k

    def consumer(stop):
        expected = 0
        while expected < n_entries and not stop.is_set():
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

    _run_threads(stats, producer, consumer)
    stats.wall_seconds = time.perf_counter() - start
    return stats


def run_echo_stress(n_rpcs: int = 1_000_000, depth: int = 1024, batch: int = 128,
                    window: int = 896) -> StressStats:
    """Closed-loop echo across both rings of both endpoints.

    The host thread issues up to `window` outstanding requests, serves the
    echo handler, and verifies every completion; the NIC thread moves
    entries TX ring -> wire -> RX ring for both directions. Every ring call
    moves a run of up to `batch` entries: the host publishes, picks up and
    answers in runs, and the NIC fetches and delivers in runs.
    """
    client, server = RingPair(depth), RingPair(depth)  # the rings of NIC A and of NIC B
    stats = StressStats(0, 0, 0, 0, 0.0)
    start = time.perf_counter()

    def nic_thread(stop):
        wires = ((client.tx, server.rx, []), (server.tx, client.rx, []))  # loop-back queues
        while not stop.is_set():
            moved = False
            for tx, rx, wire in wires:
                fetched = tx.nic_fetch(batch)
                if fetched:
                    wire.extend(fetched)
                    tx.nic_release(len(fetched))
                    moved = True
                if wire:
                    k = rx.rx_deliver_run(wire[:batch])
                    if k:
                        del wire[:k]
                        moved = True
            if not moved:
                time.sleep(0)

    def host_thread(stop):
        issued = 0
        completed = 0
        seen = bytearray(n_rpcs)
        expected_next = 0
        responses = []  # (rpc, payload) echoes waiting for a server TX slot
        while completed < n_rpcs and not stop.is_set():
            progress = False
            # client: keep the window full
            k = client.tx.tx_acquire_run(min(batch, window - (issued - completed),
                                             n_rpcs - issued))
            if k:
                client.tx.tx_publish_run([pack_entry(protocol.KIND_REQUEST, 1, rpc, 0,
                                                     checksummed_payload(rpc, 0x51))
                                          for rpc in range(issued, issued + k)])
                issued += k
                progress = True
            # server: take a run of requests, echo them back
            blocks = server.rx.rx_poll_run(batch)
            for block in blocks:
                _kind, _conn, rpc, _fn, payload = unpack_entry(block)
                if not payload_intact(payload):
                    stats.corrupted += 1
                responses.append((rpc, payload))
            if blocks:
                server.rx.rx_release_run(len(blocks))
                progress = True
            k = server.tx.tx_acquire_run(min(batch, len(responses)))
            if k:
                server.tx.tx_publish_run([pack_entry(protocol.KIND_RESPONSE, 1, rpc, 0, payload)
                                          for rpc, payload in responses[:k]])
                del responses[:k]
                progress = True
            # client: consume a run of completions
            blocks = client.rx.rx_poll_run(batch)
            for block in blocks:
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
            if blocks:
                client.rx.rx_release_run(len(blocks))
                stats.completed = completed
                progress = True
            if not progress:
                time.sleep(0)
        if not all(seen):
            stats.duplicates += 1  # a missing id implies loss; flag loudly
        stop.set()

    _run_threads(stats, nic_thread, host_thread)
    stats.wall_seconds = time.perf_counter() - start
    return stats
