"""Application-facing RPC endpoints over the emulated NICs.

Each connection end on a host is one _ConnHost: the connection's ring
pair, its publish path (with the entries blocked on a full TX ring) and its
pickup path, which hands each picked-up entry to the end's owner. A client
endpoint owns the client end of one connection and issues requests through
it; a server endpoint owns one end per connection attached to its NIC and
answers each request through a function-id handler table. Both threading
models share the datapath; a synchronous endpoint simply never has more
than one call in flight and hands the response straight back to the
blocked caller instead of a completion queue. The response payload copy to
the application is paid either way; what the sync model drops is the
completion-queue and TX-bookkeeping machinery, which is off the critical
path.

Entries travel through the host path as packed 64-byte blocks: a request
is packed straight from the call's arguments, a pickup unpacks a block
into locals, and the server packs its response from those same locals
(protocol.pack_entry/unpack_entry). No decoded entry object is built.
"""

from __future__ import annotations

from collections import deque

from . import interconnect as ic
from . import protocol
from .errors import (
    ContractViolation,
    DuplicateHandler,
    PayloadTooLarge,
    ResourceExhausted,
    RpcCallError,
    UnknownDestination,
)
from .protocol import ConnectionRecord, pack_entry, unpack_entry
from .rings import CompletionQueue, RingPair

ECHO_FN = 0

ERR_UNKNOWN_FN = b"EBADFN"
ERR_REPLY_TOO_BIG = b"E2BIG"


class _ConnHost:
    """One connection end on a host: its rings, publish path and pickup path.

    take(kind, conn, rpc, fn, payload) gets each picked-up entry: the client
    endpoint completes a call with it, the server answers it. on_rx_visible
    and on_tx_free are the NIC's deliver_cb and tx_free_cb for the
    connection. Both ends are this one class, not a subclass each, so that
    every attribute and call site on the hot path sees one type (CPython
    specialises those sites per type).
    """

    def __init__(self, engine, nic, conn_id: int, rings: RingPair, take):
        self.engine = engine
        self.nic = nic
        self.connection_id = conn_id
        self.rings = rings
        self.tx, self.rx = rings.tx, rings.rx  # the hot path's shortcuts into rings
        self._take = take
        self._blocked = deque()  # (block, rpc) waiting for a free TX slot

    # -- publish path ---------------------------------------------------------

    def _submit(self, block: bytes, rpc: int) -> None:
        """Publish a packed entry, or queue it until a TX slot frees up.

        rpc is the entry's rpc id, for trace records.
        """
        slot = self.tx.tx_acquire()
        if slot is None:
            self._blocked.append((block, rpc))
        else:
            self._publish(slot, block, rpc)

    def _publish(self, slot: int, block: bytes, rpc: int) -> None:
        engine, nic = self.engine, self.nic
        now = engine.now
        trace = engine.trace
        if nic.config.tx_mode == ic.MODE_MMIO:
            # the AVX store into device I/O space is itself the publication
            if trace is not None:
                trace.append(ic.Transaction(now, f"host{nic.nic_id}", ic.KIND_MMIO_STORE, 1,
                                            self.connection_id, rpc, critical=True))
            self.tx.tx_publish(slot, block)
            nic.on_tx_publish(self.connection_id)
        else:
            if trace is not None:
                trace.append(ic.Transaction(now, f"host{nic.nic_id}", ic.KIND_HOST_MEMCPY, 1,
                                            self.connection_id, rpc, critical=True))
            engine.schedule(now + nic.params.t_memcpy, lambda: self._finish_publish(slot, block))

    def _finish_publish(self, slot: int, block: bytes) -> None:
        self.tx.tx_publish(slot, block)
        self.nic.on_tx_publish(self.connection_id)

    def on_tx_free(self, conn_id: int, ts: float) -> None:
        blocked = self._blocked
        while blocked:
            slot = self.tx.tx_acquire()
            if slot is None:
                return
            block, rpc = blocked.popleft()
            self._publish(slot, block, rpc)

    # -- pickup path ----------------------------------------------------------

    def on_rx_visible(self, conn_id: int, ts: float, n: int) -> None:
        """n entries became host-visible at ts: copy each one out, in one
        pickup callback per delivery."""
        trace = self.engine.trace
        if trace is not None:
            issuer = f"host{self.nic.nic_id}"
            for _ in range(n):
                trace.append(ic.Transaction(ts, issuer, ic.KIND_HOST_MEMCPY, 1, conn_id))
        if n == 1:
            self.engine.schedule(ts + self.nic.params.t_memcpy, self._pickup)
        else:
            self.engine.schedule_batch(ts + self.nic.params.t_memcpy, self._pickups, range(n))

    def _pickups(self, it) -> None:
        pickup = self._pickup
        for _ in it:
            pickup()

    def _pickup(self) -> None:
        rx = self.rx
        polled = rx.rx_poll()
        if polled is None:
            raise ContractViolation(
                f"delivery event without a dirty RX slot on connection {self.connection_id}"
            )
        slot, block = polled
        kind, conn, rpc, fn, payload = unpack_entry(block)
        rx.rx_release(slot)
        self.nic.on_rx_slot_freed(self.connection_id)
        self._take(kind, conn, rpc, fn, payload)


class ClientEndpoint:
    """One connection's application side on the client NIC; conn is its
    end of the connection."""

    def __init__(self, engine, nic, conn_id: int, rings: RingPair, threading_model: str):
        self.engine = engine
        self.connection_id = conn_id
        self.conn = _ConnHost(engine, nic, conn_id, rings, self._take)
        self.record = ConnectionRecord(conn_id)
        self.threading_model = threading_model
        self.cq = CompletionQueue() if threading_model == "async" else None
        self.pending: dict[int, float] = {}  # rpc_id -> issue timestamp
        self.abandoned: set[int] = set()  # timed-out rpc ids whose response is still due
        self.blocked_on: int | None = None  # sync: rpc id the caller waits for
        self.on_complete = None  # harness hook: (rpc, issue, complete, payload, kind)
        self.issued = 0
        self.completed = 0
        self.abandoned_total = 0  # calls ever abandoned, late response dropped or not

    def start_call(self, function_id: int, payload: bytes, issue_ts: float | None = None) -> int:
        """Issue one RPC; blocks virtually (queues) when the TX ring is full.

        issue_ts defaults to the current virtual time and is what latency is
        measured from, so a blocked caller accrues the wait.
        """
        if len(payload) > protocol.MAX_PAYLOAD:
            raise PayloadTooLarge(f"payload {len(payload)} > {protocol.MAX_PAYLOAD}")
        if self.threading_model == "sync" and self.pending:
            raise ContractViolation("sync endpoint already has a call in flight")
        rpc_id = self.record.take_rpc_id()
        self.issued += 1
        self.pending[rpc_id] = self.engine.now if issue_ts is None else issue_ts
        if self.threading_model == "sync":
            self.blocked_on = rpc_id
        self.conn._submit(
            pack_entry(protocol.KIND_REQUEST, self.connection_id, rpc_id, function_id, payload),
            rpc_id,
        )
        return rpc_id

    def poll_completions(self):
        """Async only: drain finished (rpc_id, payload) pairs in arrival order."""
        if self.cq is None:
            raise ContractViolation("poll_completions on a sync endpoint")
        return self.cq.cq_drain()

    def _take(self, kind: int, conn: int, rpc_id: int, fn: int, payload: bytes) -> None:
        issue_ts = self.pending.pop(rpc_id, None)  # issue times are never None
        if issue_ts is None:
            if rpc_id in self.abandoned:
                self.abandoned.remove(rpc_id)  # late response to a timed-out call
                return
            raise ContractViolation(
                f"completion for unknown rpc {rpc_id} on connection {self.connection_id}"
            )
        self.completed += 1
        if self.cq is not None:
            self.cq.cq_push((rpc_id, payload, kind))
        else:
            self.blocked_on = None
        if self.on_complete is not None:
            self.on_complete(rpc_id, issue_ts, self.engine.now, payload, kind)

    def abandon(self, rpc_id: int) -> None:
        """Give up waiting for a call; its response is discarded on arrival."""
        del self.pending[rpc_id]
        self.abandoned.add(rpc_id)
        self.abandoned_total += 1
        if self.blocked_on == rpc_id:
            self.blocked_on = None

    def outstanding(self) -> int:
        # a call blocked on a full TX ring is already in pending
        return len(self.pending) + len(self.abandoned)

    def check_conservation(self) -> None:
        """issued = completed + pending + abandoned, or ContractViolation."""
        accounted = self.completed + len(self.pending) + self.abandoned_total
        if self.issued != accounted:
            raise ContractViolation(
                f"connection {self.connection_id}: {self.issued} calls issued, but "
                f"{self.completed} completed + {len(self.pending)} pending + "
                f"{self.abandoned_total} abandoned = {accounted}"
            )


class ServerEndpoint:
    """Serving side: one per NIC, dispatching by function id."""

    def __init__(self, engine, nic):
        self.engine = engine
        self.nic = nic
        self.handlers = {}
        self.conns: dict[int, _ConnHost] = {}  # connection id -> its end on this server
        self.served = 0

    def register_handler(self, function_id: int, handler) -> None:
        if function_id in self.handlers:
            raise DuplicateHandler(f"handler for function {function_id} already registered")
        self.handlers[function_id] = handler

    def _take(self, kind: int, conn: int, rpc: int, fn: int, payload: bytes) -> None:
        """Answer a picked-up request on its connection."""
        self.served += 1
        handler = self.handlers.get(fn)
        if handler is None:
            kind, payload = protocol.KIND_ERROR, ERR_UNKNOWN_FN
        else:
            payload = handler(payload)
            if len(payload) > protocol.MAX_PAYLOAD:
                kind, payload = protocol.KIND_ERROR, ERR_REPLY_TOO_BIG
            else:
                kind = protocol.KIND_RESPONSE
        self.conns[conn]._submit(pack_entry(kind, conn, rpc, fn, payload), rpc)


def echo_handler(payload: bytes) -> bytes:
    return payload


def connect(engine, wire, client_nic, server_nic, server_endpoint,
            threading_model: str = "async") -> ClientEndpoint:
    """Install a connection on both NICs and hand back the client endpoint.

    Allocates a fresh ring pair per side (per-connection provisioning), at
    the deeper NIC's ring_depth, the bound its batch sizes were validated
    against, under a connection id that is new to both NICs.
    """
    if server_nic.nic_id not in wire.nics or client_nic.nic_id not in wire.nics:
        raise UnknownDestination("both NICs must be attached to the wire")
    conn_id = max(client_nic.next_conn_id, server_nic.next_conn_id)
    depth = max(client_nic.ring_depth, server_nic.ring_depth)
    try:
        client_rings = RingPair(depth)
        server_rings = RingPair(depth)
    except MemoryError as exc:
        raise ResourceExhausted(
            f"cannot allocate the rings of connection {conn_id} at ring_depth {depth}"
        ) from exc

    client = ClientEndpoint(engine, client_nic, conn_id, client_rings, threading_model)
    served = _ConnHost(server_endpoint.engine, server_endpoint.nic, conn_id, server_rings,
                       server_endpoint._take)
    client_nic.attach_connection(
        conn_id, client_rings, server_nic.nic_id, client.conn.on_rx_visible, client.conn.on_tx_free
    )
    server_nic.attach_connection(
        conn_id, server_rings, client_nic.nic_id, served.on_rx_visible, served.on_tx_free
    )
    server_endpoint.conns[conn_id] = served
    return client


def call_sync(client: ClientEndpoint, function_id: int, payload: bytes,
              limit_ns: float = 1e9):
    """Blocking call: runs the engine until the response arrives.

    Returns the response payload; raises RpcCallError on an error response.
    limit_ns is virtual time from now. On timeout the call is abandoned
    (ContractViolation): the endpoint is free for the next call and the
    late response, when it arrives, is discarded.
    """
    if client.threading_model != "sync":
        raise ContractViolation("call_sync needs a sync endpoint")
    result = {}

    prev_hook = client.on_complete

    def hook(rpc, issue, complete, payload, kind):
        result["value"] = (payload, kind)
        if prev_hook is not None:
            prev_hook(rpc, issue, complete, payload, kind)

    client.on_complete = hook
    rpc_id = client.start_call(function_id, payload)
    deadline = client.engine.now + limit_ns
    finished = client.engine.run_while(lambda: "value" not in result, deadline)
    client.on_complete = prev_hook
    if not finished:
        client.abandon(rpc_id)
        raise ContractViolation(f"sync call did not complete within {limit_ns} ns")
    reply, kind = result["value"]
    if kind == protocol.KIND_ERROR:
        raise RpcCallError(reply.decode(errors="replace"))
    return reply
