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

Every TX mode publishes through _ConnHost._submit_run, one entry as a run
of one. In mmio mode the store is the publish; otherwise a publish lands
t_memcpy later, when the copy into the TX ring ends, and the entries of one
_submit_run call that got a slot are one run of the end's copy queue. A
delivery of two or more entries is picked up as one run (_pickups), one of
one entry by a plain _pickup callback.

Each stage of a run makes one ring call, and does exactly what one call
per entry would do back to back. A run crosses the ring as bare blocks and
a count: the ring's own order says which slots they take, so no slot
number travels with them.

- _copied publishes a copy run or an mmio run with one
  TxRing.tx_publish_run and tells the NIC with one Nic.on_tx_publish notice;
- _pickups reads a pickup run with one RxRing.rx_poll_run and frees it with
  one rx_release_run;
- each end takes a pickup run in one pass and publishes what it issued
  with one TxRing.tx_acquire_run, which says how many slots it took
  (_submit_run):
  the server runs its handlers in order and publishes their answers
  (ServerEndpoint._answer_run); the client completes its calls in order,
  and the calls its completion hook issues meanwhile are collected and
  published at the end (ClientEndpoint._take_run). Nothing is scheduled
  between those publishes, so one copy run does what their own copies
  would do back to back, and in mmio mode no fetch between them adds a
  trace record;
- on_tx_free submits the blocked entries the freed slots take as one run.

A run that Engine.run_while steps one entry at a time is a run of one. One
_pickup per entry stays where the order needs it: a pickup on a connection
whose RX backlog is non-empty, where each release DMA-writes a backlog
entry whose delivery is scheduled between two takes. When an entry raises,
the entries before it are done, it is left as its own call leaves it, and
the rest stay untaken at the head of the run queue. A pickup frees each
entry it has unpacked, so one whose unpack raised stays delivered at the
RX poll cursor, ahead of the untaken rest, and the next pickup on that
ring raises for it again.
"""

from __future__ import annotations

from collections import deque
from operator import length_hint

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
from .protocol import ConnectionRecord, pack_entry, rpc_id_of, unpack_entry
from .rings import CompletionQueue, RingPair

ECHO_FN = 0

ERR_UNKNOWN_FN = b"EBADFN"
ERR_REPLY_TOO_BIG = b"E2BIG"


def _taken(it, n: int) -> int:
    """How many items of a run of n a raising run handler took from it: at
    least the first, which it raised for (Engine.run_queue)."""
    left = length_hint(it)
    if left == n:
        next(it)
        left -= 1
    return n - left


class _ConnHost:
    """One connection end on a host: its rings, publish path and pickup path.

    take(kind, conn, rpc, fn, payload) gets each picked-up entry: the client
    endpoint completes a call with it, the server answers it. take_run takes
    a pickup run instead (ClientEndpoint._take_run, ServerEndpoint._answer_run).
    on_rx_visible and on_tx_free are the NIC's deliver_cb and tx_free_cb for
    the connection (attach). Both ends are this one class, not a subclass
    each, so that every attribute and call site on the hot path sees one
    type (CPython specialises those sites per type).
    """

    def __init__(self, engine, nic, conn_id: int, rings: RingPair, take, take_run):
        self.engine = engine
        self.nic = nic
        self.connection_id = conn_id
        self.rings = rings
        self.tx, self.rx = rings.tx, rings.rx  # the hot path's shortcuts into rings
        self._take = take
        self._take_run = take_run
        self._blocked = deque()  # packed entries waiting for a free TX slot
        self._rx_backlog = ()  # the NIC's arrivals held for a free RX slot (attach)
        # run queues (Engine.run_queue): publish copies under way, as runs of
        # blocks bound for the next acquired slots, and pickup batches
        self._copies, self._copied_event = engine.run_queue(self._copied)
        self._pickup_runs, self._pickups_event = engine.run_queue(self._pickups)

    def attach(self, remote_nic_id: int) -> None:
        """Install the connection on this end's NIC, toward remote_nic_id."""
        ep = self.nic.attach_connection(self.connection_id, self.rings, remote_nic_id,
                                        self.on_rx_visible, self.on_tx_free)
        self._rx_backlog = ep.rx_backlog

    # -- publish path ---------------------------------------------------------

    def _submit_run(self, blocks: list) -> None:
        """Publish each packed entry of blocks, in order, with one acquire,
        or queue it until a TX slot frees up (on_tx_free). The call takes
        ownership of the list blocks. In mmio mode the AVX store into device
        I/O space is itself the publication: the entries publish at once
        (_copied). Otherwise the entries that got a slot are one copy run
        (Engine.schedule_batch), as their own copies would be back to back,
        since nothing is scheduled between them. Each copy publishes into
        the next acquired slot, the one its acquire took, since copies end
        in acquire order."""
        n = len(blocks)
        k = self.tx.tx_acquire_run(n)
        if k:
            engine, nic = self.engine, self.nic
            mmio = nic.config.tx_mode == ic.MODE_MMIO
            run = blocks if k == n else blocks[:k]
            trace = engine.trace
            if trace is not None:
                issuer = f"host{nic.nic_id}"
                kind = ic.KIND_MMIO_STORE if mmio else ic.KIND_HOST_MEMCPY
                for block in run:
                    trace.append(ic.Transaction(engine.now, issuer, kind, 1, self.connection_id,
                                                rpc_id_of(block)[0], critical=True))
            if mmio:  # a list iterator, whose length _taken reads if a publish raises
                self._copied(iter(run), k)
            else:
                engine.schedule_batch(engine.now + nic.params.t_memcpy, self._copied_event,
                                      self._copies, run)
            if k == n:
                return
        self._blocked.extend(blocks[k:])

    def _copied(self, it, n: int) -> None:
        """The publish copy (or mmio store) of a run of n entries ended:
        publish them in order with one ring call and tell the NIC with one
        notice, as a publish and a notice per entry would."""
        nic, conn = self.nic, self.connection_id
        try:
            self.tx.tx_publish_run(it)
        except BaseException:
            published = _taken(it, n) - 1  # the entries before the refused one
            if published:
                nic.on_tx_publish(conn, published)
            raise
        nic.on_tx_publish(conn, n)

    def on_tx_free(self, conn_id: int, ts: float) -> None:
        """Submit the oldest blocked entries that the free TX slots take, as
        one run."""
        blocked = self._blocked
        if blocked:
            free = self.tx.free_slots()
            run = []
            while blocked and free:
                run.append(blocked.popleft())
                free -= 1
            if run:
                self._submit_run(run)

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
            self.engine.schedule_batch(ts + self.nic.params.t_memcpy, self._pickups_event,
                                       self._pickup_runs, range(n))

    def _pickups(self, it, n: int) -> None:
        """Pick up a delivery of n entries, in order, as one _pickup each
        would. The run reads the RX ring with one call and hands the
        entries to take_run, which releases them with one call.
        One _pickup per entry stays where the NIC holds arrivals for this
        ring: each release there DMA-writes the next one, whose delivery is
        scheduled between two takes."""
        blocks = None if self._rx_backlog else self.rx.rx_poll_run(n)
        if blocks is None or len(blocks) < n:  # fewer: _pickup raises where they end
            pickup = self._pickup
            for _ in it:
                pickup()
            return
        self._take_run(self, it, blocks)

    def _pickup(self) -> None:
        """Pick up one delivered entry: a pickup run of one. An entry whose
        unpack raises stays delivered at the poll cursor, so the next pickup
        raises for it again."""
        rx = self.rx
        blocks = rx.rx_poll_run(1)
        if not blocks:
            raise ContractViolation(
                f"delivery event without a dirty RX slot on connection {self.connection_id}"
            )
        kind, conn, rpc, fn, payload = unpack_entry(blocks[0])
        rx.rx_release_run(1)
        self.nic.on_rx_slot_freed(self.connection_id)
        self._take(kind, conn, rpc, fn, payload)


class ClientEndpoint:
    """One connection's application side on the client NIC; conn is its
    end of the connection."""

    def __init__(self, engine, nic, conn_id: int, rings: RingPair, threading_model: str):
        self.engine = engine
        self.connection_id = conn_id
        self.conn = _ConnHost(engine, nic, conn_id, rings, self._take, self._take_run)
        self.record = ConnectionRecord(conn_id)
        self.threading_model = threading_model
        self.cq = CompletionQueue() if threading_model == "async" else None
        self.pending: dict[int, float] = {}  # rpc_id -> issue timestamp
        self.abandoned: set[int] = set()  # timed-out rpc ids whose response is still due
        # harness hook, once per completion: (rpc, issue, complete, payload,
        # kind). It may issue calls on this endpoint (start_call) and does
        # nothing else that schedules: it schedules no engine event and calls
        # no other endpoint, since the calls issued over a pickup run publish
        # after the run's completions (_take_run).
        self.on_complete = None
        self._issued_run = None  # while _take_run runs: the blocks start_call packs
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
        block = pack_entry(protocol.KIND_REQUEST, self.connection_id, rpc_id, function_id, payload)
        issued_run = self._issued_run
        if issued_run is None:
            self.conn._submit_run([block])
        else:
            issued_run.append(block)  # submitted at the pickup run's end
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
        if self.on_complete is not None:
            self.on_complete(rpc_id, issue_ts, self.engine.now, payload, kind)

    def _take_run(self, host: _ConnHost, it, blocks: list) -> None:
        """_take for each of the blocks of a pickup run on host, in order, one
        per item taken from the run's iterator it, with the calls its
        completions issue (start_call) submitted together at the end
        (_ConnHost._submit_run). Their copies end back to back, as those of
        their own submits would, since the completion hook schedules
        nothing else (on_complete). When an entry raises, the entries before
        it and one whose take raised are released, the calls issued before
        it are still submitted, and an entry whose unpack raised stays
        delivered at the poll cursor."""
        pending, cq = self.pending, self.cq
        now = self.engine.now
        self._issued_run = issued = []
        i = 0  # entries unpacked, released at the end
        try:
            for _ in it:
                kind, conn, rpc_id, fn, payload = unpack_entry(blocks[i])
                i += 1
                issue_ts = pending.pop(rpc_id, None)  # issue times are never None
                if issue_ts is None:
                    self._take(kind, conn, rpc_id, fn, payload)  # dropped late, or unknown
                    continue
                self.completed += 1
                if cq is not None:
                    cq.cq_push((rpc_id, payload, kind))
                on_complete = self.on_complete  # read per completion: a call may replace it
                if on_complete is not None:
                    on_complete(rpc_id, issue_ts, now, payload, kind)
        finally:
            host.rx.rx_release_run(i)
            self._issued_run = None
            if issued:
                host._submit_run(issued)

    def abandon(self, rpc_id: int) -> None:
        """Give up waiting for a call; its response is discarded on arrival."""
        del self.pending[rpc_id]
        self.abandoned.add(rpc_id)
        self.abandoned_total += 1

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
        """Answer requests for function_id with handler(payload), which
        returns the response payload. A handler computes its response and
        nothing else: it schedules no engine event and calls no endpoint,
        since a pickup run's answers publish after all its handlers ran
        (_answer_run)."""
        if function_id in self.handlers:
            raise DuplicateHandler(f"handler for function {function_id} already registered")
        self.handlers[function_id] = handler

    def _take(self, kind: int, conn: int, rpc: int, fn: int, payload: bytes) -> None:
        """Answer a picked-up request on its connection."""
        self.served += 1
        self.conns[conn]._submit_run([self._answer(conn, rpc, fn, payload)])

    def _answer(self, conn: int, rpc: int, fn: int, payload: bytes) -> bytes:
        """The packed answer to a request: the handler's response, or an
        error entry."""
        handler = self.handlers.get(fn)
        if handler is None:
            return pack_entry(protocol.KIND_ERROR, conn, rpc, fn, ERR_UNKNOWN_FN)
        payload = handler(payload)
        if len(payload) > protocol.MAX_PAYLOAD:
            return pack_entry(protocol.KIND_ERROR, conn, rpc, fn, ERR_REPLY_TOO_BIG)
        return pack_entry(protocol.KIND_RESPONSE, conn, rpc, fn, payload)

    def _answer_run(self, host: _ConnHost, it, blocks: list) -> None:
        """_take for each of the blocks of a pickup run on host, in order, one
        per item taken from the run's iterator it: the handlers run first,
        and the answers publish together (_ConnHost._submit_run). That is
        where _take's would publish only because a handler schedules nothing
        (register_handler). An answer on another connection than host's
        publishes where _take's would, after the ones before it. When an
        entry raises, the RX ring and the answers so far are left as in
        ClientEndpoint._take_run."""
        answer, own, answers = self._answer, host.connection_id, []
        i = 0  # entries unpacked, released and counted as served at the end
        try:
            for _ in it:
                kind, conn, rpc, fn, payload = unpack_entry(blocks[i])
                i += 1
                block = answer(conn, rpc, fn, payload)
                if conn == own:
                    answers.append(block)
                else:
                    if answers:
                        host._submit_run(answers)
                        answers = []
                    self.conns[conn]._submit_run([block])
        finally:
            self.served += i
            host.rx.rx_release_run(i)
            if answers:
                host._submit_run(answers)


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
                       server_endpoint._take, server_endpoint._answer_run)
    client.conn.attach(server_nic.nic_id)
    served.attach(client_nic.nic_id)
    server_endpoint.conns[conn_id] = served
    return client


def call_sync(client: ClientEndpoint, function_id: int, payload: bytes,
              limit_ns: float = 1e9):
    """Blocking call: runs the engine until the response arrives.

    Returns the response payload; raises RpcCallError on an error response.
    The endpoint's on_complete hook is back in place however the call ends.
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
    try:
        rpc_id = client.start_call(function_id, payload)
        deadline = client.engine.now + limit_ns
        finished = client.engine.run_while(lambda: "value" not in result, deadline)
    finally:
        client.on_complete = prev_hook
    if not finished:
        client.abandon(rpc_id)
        raise ContractViolation(f"sync call did not complete within {limit_ns} ns")
    reply, kind = result["value"]
    if kind == protocol.KIND_ERROR:
        raise RpcCallError(reply.decode(errors="replace"))
    return reply
