"""Emulated NIC: TX/RX paths, loop-back wire, adaptive controllers.

Each connection endpoint owns a TX path (host publishes, NIC fetches via
the configured interface mode) and an RX path (wire arrivals DMA-written
into the connection's own RX ring, or queued in its backlog while that ring
is full). RX delivery needs no arbitration across connections: a backlog
drains only into its own ring, and that ring frees a slot only through its
own connection's pickup, which serves the backlog at once
(on_rx_slot_freed). A slot freed on one connection can therefore never be
taken by another.

Each endpoint's recurring event callbacks (poll, the direct-submode fetch
trigger, the invalidation notice, the end of a fetch and RX delivery to the
host, for one entry and for a batch) are built once, in attach_connection,
not per event. The TX ones are the event bodies themselves, one Python frame
per event: the poll re-arms itself, and the end of a fetch chains the next
fetch or re-arms the poll, with no NIC method between the engine and the
trigger check (_trigger_batch), the fetch (_fetch) or the arbiter. The TX
state between events is the endpoint's batch in flight, which _fetch stores
and the end-of-fetch callback sends and releases, and when that last ran. No
fetch starts while a batch is in flight; RX delivery keeps no state between
events but each connection's backlog and delivery runs.

The per-event code calls no generic builtin: a two-argument max(a, b) is
written ``b if b > a else a`` and min(a, b) ``b if b < a else a``, which
give the same float in every case, signed zeros and NaN included, and cost
a fraction of the call (README, "Benchmark and exactness checks").
tests/test_hot_path.py holds the per-event functions to that.

A fetch of two or more entries stays one run per stage after the wire
(Engine.run_queue): Wire.send_batch lands it as one arrival,
rx_arrival_batch DMA-writes it with one ring call (RxRing.rx_deliver_run)
and hands the written entries to the host as one delivery, and the host
picks them up in one callback. A batch travels as the bare blocks that
TxRing.nic_fetch returned, and forward_event releases it by count
(TxRing.nic_release): the ring's fetch order says which slots they held.
Each stage does exactly what its per-entry callbacks would do back to
back; a fetch of one entry takes the cheaper per-entry path. A host run
of publishes (host._ConnHost._submit_run, in every TX mode) is one notice
(on_tx_publish). In coherent mode it schedules one invalidation or
poll-discovery event per entry, as one on_tx_publish each would;
otherwise it starts the fetch that the run's first triggering publish
would. The trigger only grows with the dirty count, so that publish is the
first (a settle window flushes a partial batch) or none before the last (a
full batch). A run queue's runs must fall due in queue order, so a
hard_reconfigure, which changes the TX latency, waits until the last batch
forwarded has landed (outstanding).

Hard config fields (tx_mode, threading_model) require a drained restart;
soft fields (batch size, poll threshold, adaptive batching, rate window)
may change at runtime. Two controllers run per NIC, evaluated once per
rate window with a +/-5% hysteresis band (HYSTERESIS):

- coherent submode: invalidation-driven at low request rates, direct LLC
  polling above the programmable threshold;
- adaptive batching: a low/high batch-size pair switched around a rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from . import interconnect as ic
from .errors import (
    ConfigInvalid,
    ContractViolation,
    DuplicateConnection,
    HardFieldViolation,
    InvalidValue,
    UnknownDestination,
)
from .protocol import rpc_id_of
from .rings import DEFAULT_DEPTH, RingPair

HARD_FIELDS = ("tx_mode", "threading_model")
SOFT_FIELDS = ("batch_B", "poll_threshold_rps", "adaptive_batching", "rate_window_us")

CONTROLLER_CSV_HEADER = "ts_ns,controller,old,new"
HYSTERESIS = 0.05  # +/-5% band around a controller threshold


@dataclass
class AdaptiveBatching:
    enabled: bool = False
    low_B: int = 1
    high_B: int = 4
    switch_rate_rps: float = 7e6

    def type_errors(self) -> list[str]:
        errors = []
        if not isinstance(self.enabled, bool):
            errors.append(f"adaptive_batching.enabled must be true or false, got {self.enabled!r}")
        for name in ("low_B", "high_B"):
            value = getattr(self, name)
            if not ic.is_int(value):
                errors.append(f"adaptive_batching.{name} must be an integer, got {value!r}")
        if not ic.is_number(self.switch_rate_rps):
            errors.append(f"adaptive_batching.switch_rate_rps must be a number, "
                          f"got {self.switch_rate_rps!r}")
        return errors

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptiveBatching":
        if not isinstance(data, dict):
            raise ConfigInvalid(f"adaptive_batching must be an object, got {data!r}")
        unknown = set(data) - {"enabled", "low_B", "high_B", "switch_rate_rps"}
        if unknown:
            raise ConfigInvalid([f"adaptive_batching: unknown key '{k}'" for k in sorted(unknown)])
        ab = cls(**data)
        errors = ab.type_errors()
        if errors:
            raise ConfigInvalid(errors)
        return ab


@dataclass
class NicConfig:
    tx_mode: str = ic.MODE_COHERENT  # hard
    threading_model: str = "async"  # hard
    batch_B: int = 1  # soft
    poll_threshold_rps: float = 1e6  # soft
    adaptive_batching: AdaptiveBatching = field(default_factory=AdaptiveBatching)
    rate_window_us: float = 100.0  # soft

    def validate(self, ring_depth: int = DEFAULT_DEPTH) -> "NicConfig":
        errors = []
        if self.tx_mode not in ic.TX_MODES:
            errors.append(f"tx_mode must be one of {ic.TX_MODES}, got {self.tx_mode!r}")
        if self.threading_model not in ("sync", "async"):
            errors.append(f"threading_model must be sync|async, got {self.threading_model!r}")
        if not ic.is_int(self.batch_B):
            errors.append(f"batch_B must be an integer, got {self.batch_B!r}")
        elif not 1 <= self.batch_B <= ring_depth:
            errors.append(f"batch_B must be in 1..{ring_depth}, got {self.batch_B}")
        for name in ("poll_threshold_rps", "rate_window_us"):
            value = getattr(self, name)
            if not ic.is_number(value):
                errors.append(f"{name} must be a number, got {value!r}")
            elif value <= 0:
                errors.append(f"{name} must be > 0")
        ab = self.adaptive_batching
        ab_errors = (ab.type_errors() if isinstance(ab, AdaptiveBatching)
                     else [f"adaptive_batching must be an object, got {ab!r}"])
        errors.extend(ab_errors)
        if not ab_errors and ab.enabled:
            if not 1 <= ab.low_B <= ab.high_B <= ring_depth:
                errors.append("adaptive_batching needs 1 <= low_B <= high_B <= ring depth")
            if ab.switch_rate_rps <= 0:
                errors.append("adaptive_batching switch_rate_rps must be > 0")
        if errors:
            raise ConfigInvalid(errors)
        return self

    @classmethod
    def from_dict(cls, data: dict, ring_depth: int = DEFAULT_DEPTH) -> "NicConfig":
        if not isinstance(data, dict):
            raise ConfigInvalid(f"NicConfig must be an object, got {data!r}")
        fields_ok = set(HARD_FIELDS) | set(SOFT_FIELDS)
        unknown = set(data) - fields_ok
        if unknown:
            raise ConfigInvalid([f"unknown NicConfig key '{k}'" for k in sorted(unknown)])
        kw = dict(data)
        if "adaptive_batching" in kw:
            kw["adaptive_batching"] = AdaptiveBatching.from_dict(kw["adaptive_batching"])
        return cls(**kw).validate(ring_depth)


class _ConnEndpoint:
    """NIC-side state for one connection: rings, the batch in flight, callbacks.

    The peer NIC and the host callbacks live in the event callbacks that
    attach_connection builds."""

    def __init__(self, conn_id, ring_pair):
        self.conn_id = conn_id
        self.rings = ring_pair
        self.in_flight = None  # the fetched blocks awaiting forward_event
        self.busy_until = 0.0
        self.forwarded_at = float("-inf")  # when the last batch went onto the wire
        self.inval_known = 0  # publish notifications seen (inval submode)
        self.poll_scheduled = False
        # event callbacks, built once by Nic.attach_connection
        self.poll_event = None
        self.fetch_event = None
        self.inval_event = None
        self.forward_event = None
        self.deliver_event = None
        self.deliveries = self.deliver_batch_event = None  # a run queue (Engine.run_queue)
        # wire arrivals awaiting a free RX slot; non-empty only while the ring is full
        self.rx_backlog = deque()


class Wire:
    """Loop-back transport: loss-free, order-preserving, t_wire per hop."""

    def __init__(self, engine, params):
        self.engine = engine
        self.params = params
        self.nics = {}
        # (destination NIC, connection id) -> the run queue of its arrival
        # batches (Engine.run_queue), made on first use
        self._arrivals = {}

    def attach(self, nic: "Nic") -> None:
        self.nics[nic.nic_id] = nic

    def send(self, src_nic_id: int, dst_nic_id: int, conn_id: int, block: bytes,
             rpc: int, extra_ns: float = 0.0) -> None:
        dst = self.nics.get(dst_nic_id)
        if dst is None:
            raise UnknownDestination(f"nic {dst_nic_id} is not attached to the wire")
        engine = self.engine
        now = engine.now
        trace = engine.trace
        if trace is not None:
            trace.append(ic.Transaction(now, f"nic{src_nic_id}", ic.KIND_WIRE_HOP, 1, conn_id,
                                        rpc, critical=True))
        arrive = dst.rx_arrival
        engine.schedule(now + extra_ns + self.params.t_wire, lambda: arrive(conn_id, block, rpc))

    def send_batch(self, src_nic_id: int, dst_nic_id: int, conn_id: int, blocks: list,
                   extra_ns: float) -> None:
        """send for each of the fetched blocks, landing as one arrival batch."""
        dst = self.nics.get(dst_nic_id)
        if dst is None:
            raise UnknownDestination(f"nic {dst_nic_id} is not attached to the wire")
        engine = self.engine
        now = engine.now
        trace = engine.trace
        if trace is not None:
            issuer = f"nic{src_nic_id}"
            for block in blocks:
                trace.append(ic.Transaction(now, issuer, ic.KIND_WIRE_HOP, 1, conn_id,
                                            rpc_id_of(block)[0], critical=True))
        arrivals = self._arrivals.get((dst, conn_id))
        if arrivals is None:
            arrive = dst.rx_arrival_batch
            arrivals = self._arrivals[dst, conn_id] = engine.run_queue(
                lambda it, n: arrive(conn_id, it))
        runs, fn = arrivals
        engine.schedule_batch(now + extra_ns + self.params.t_wire, fn, runs, blocks)


class Nic:
    """One emulated NIC attached to the shared bus arbiter and the wire."""

    def __init__(self, nic_id: int, config: NicConfig, params, engine, arbiter, wire,
                 ring_depth: int = DEFAULT_DEPTH):
        self.nic_id = nic_id
        self.ring_depth = ring_depth  # the bound of every batch size
        self.config = config.validate(ring_depth)
        self.params = params
        self.engine = engine
        self.arbiter = arbiter
        self.wire = wire
        wire.attach(self)
        self.conns: dict[int, _ConnEndpoint] = {}  # the NIC's connections, by id
        self.next_conn_id = 0  # one above the highest id in conns
        self._ring_owners: dict[RingPair, int] = {}  # ring pair -> the connection it serves
        # startup: poll local cache, rely on invalidations; only the coherent
        # controller leaves this submode, and hard_reconfigure comes back to it
        self.submode = ic.SUBMODE_INVAL
        self.effective_B = config.batch_B
        self.settle_until = 0.0  # post-reconfiguration window with partial flushes
        self.window_publishes = 0
        self.controller_log = []  # (ts_ns, controller, old, new)
        self._controller_started = False
        self._set_fetch_costs()

    # -- connection management --------------------------------------------

    def attach_connection(self, conn_id, ring_pair, remote_nic, deliver_cb, tx_free_cb):
        """Install a connection; DuplicateConnection if its id is taken on
        this NIC or its ring pair is another connection's."""
        if conn_id in self.conns:
            raise DuplicateConnection(f"connection {conn_id} already registered")
        owner = self._ring_owners.get(ring_pair)
        if owner is not None:
            raise DuplicateConnection(
                f"ring pair of connection {conn_id} already bound to connection {owner}")
        ep = _ConnEndpoint(conn_id, ring_pair)
        nic_id, engine, arbiter, wire = self.nic_id, self.engine, self.arbiter, self.wire
        tx = ring_pair.tx
        trigger, fetch = self._trigger_batch, self._fetch
        t_poll = self.params.t_poll
        direct = ic.SUBMODE_DIRECT

        def poll_event():
            """Idle spin of the direct-polling loop. Empty polls consume bus
            budget but never hold the channel: fetch starts are
            publish-driven (on_tx_publish) or chained at fetch end
            (forward_event), so the steady state does not depend on poll
            phase."""
            ep.poll_scheduled = False
            if self.submode != direct:
                return  # submode switched; the invalidation path takes over
            now = engine.now
            if ep.busy_until > now:
                ts = ep.busy_until  # fetch in flight; not a miss
            elif trigger(ep):
                ts = now + t_poll  # data is pending and a fetch check owns it; spin silently
            else:
                # empty poll: consumes bus budget
                trace = engine.trace
                if trace is not None:
                    trace.append(ic.Transaction(now, f"nic{nic_id}", ic.KIND_POLL_MISS, 1,
                                                conn_id))
                granted = arbiter.request(nic_id, 1, now)
                ts = now + t_poll
                if granted > ts:
                    ts = granted
            if ts < engine.end_ns:
                ep.poll_scheduled = True
                engine.schedule(ts, poll_event)

        def fetch_event():
            # with a batch in flight the channel is busy, or its
            # forward_event is due at this very timestamp (a publish can
            # land at fetch end) and checks again there
            if ep.in_flight is None:
                k = trigger(ep)
                if k:
                    fetch(ep, k)

        def forward_event():
            """Channel freed: hand the batch in flight to the interconnect
            (any remaining traversal latency rides the delivery path),
            release it, then chain the next batch or resume polling."""
            blocks = ep.in_flight
            if blocks is None:
                raise ContractViolation(
                    f"nic {nic_id} connection {conn_id}: forward with no batch in flight")
            extra = self._tx_extra_ns
            k = len(blocks)
            if k == 1:
                block = blocks[0]
                wire.send(nic_id, remote_nic, conn_id, block, rpc_id_of(block)[0], extra)
            else:
                wire.send_batch(nic_id, remote_nic, conn_id, blocks, extra)
            tx.nic_release(k)
            ep.in_flight = None
            ep.forwarded_at = now = engine.now
            tx_free_cb(conn_id, now)
            if self.submode == direct:
                k = trigger(ep)
                if k:
                    fetch(ep, k)  # the channel is hot: back-to-back batch
                elif not ep.poll_scheduled and now < engine.end_ns:
                    ep.poll_scheduled = True
                    engine.schedule(now, poll_event)
            else:
                fetch_event()  # tx_free_cb may have started a fetch (mmio)

        ep.poll_event = poll_event
        ep.fetch_event = fetch_event
        ep.inval_event = lambda: self._on_inval(ep)
        ep.forward_event = forward_event
        ep.deliver_event = lambda: deliver_cb(conn_id, engine.now, 1)
        ep.deliveries, ep.deliver_batch_event = engine.run_queue(
            lambda it, n: deliver_cb(conn_id, engine.now, len(list(it))))
        self.conns[conn_id] = ep
        self._ring_owners[ring_pair] = conn_id
        self.next_conn_id = max(self.next_conn_id, conn_id + 1)
        if not self._controller_started:
            self._controller_started = True
            self._schedule_controller_tick()
        if self.submode == ic.SUBMODE_DIRECT:
            self._arm_poll(ep)
        return ep

    def _arm_poll(self, ep: _ConnEndpoint) -> None:
        """Start ep's poll loop now, unless it runs or the run has ended."""
        engine = self.engine
        if not ep.poll_scheduled and engine.now < engine.end_ns:
            ep.poll_scheduled = True
            engine.schedule(engine.now, ep.poll_event)

    # -- TX path ------------------------------------------------------------

    def _set_fetch_costs(self) -> None:
        """The per-fetch costs of the configured tx_mode (interconnect's
        tx_channel record), unpacked for the per-fetch path and fixed until
        hard_reconfigure changes the mode."""
        channel = ic.tx_channel(self.params, self.config.tx_mode)
        self._occ_fixed_ns, self._occ_entry_ns = channel.fixed_ns, channel.entry_ns
        self._fixed_units = channel.fixed_units  # bus units beyond one per entry
        self._tx_extra_ns = channel.extra_ns

    def on_tx_publish(self, conn_id: int, n: int = 1) -> None:
        """The host published n entries into this connection's TX ring,
        back to back at this timestamp: what one notice after each publish
        does, in one call."""
        ep = self.conns[conn_id]
        self.window_publishes += n
        engine = self.engine
        if self.config.tx_mode == ic.MODE_COHERENT:
            now = engine.now
            if self.submode == ic.SUBMODE_INVAL:
                # a publish invalidates exactly the published line
                trace = engine.trace
                issuer = None if trace is None else f"host{self.nic_id}"
                ts, event = now + self.params.t_inval, ep.inval_event
                while n > 0:
                    if trace is not None:
                        trace.append(ic.Transaction(now, issuer, ic.KIND_INVALIDATION, 1, conn_id))
                    engine.schedule(ts, event)
                    n -= 1
            else:
                # direct polling discovers the entry half a poll period later
                # on average; modeled as a fixed half-period so steady state
                # is phase-free
                ts, event = now + self.params.t_poll / 2, ep.fetch_event
                while n > 0:
                    engine.schedule(ts, event)
                    n -= 1
        elif ep.in_flight is None:
            # the first publish whose notice triggers fetches. The trigger
            # only grows with the dirty count: a settle window fires at the
            # run's first publish, a full batch by its last.
            k = self._trigger_batch(ep, n - 1)
            if not k and n > 1:
                k = self._trigger_batch(ep)
            if k:
                self._fetch(ep, k)

    def _on_inval(self, ep: _ConnEndpoint) -> None:
        ep.inval_known += 1
        ep.fetch_event()

    def _trigger_batch(self, ep: _ConnEndpoint, unseen: int = 0) -> int:
        """How many entries the next fetch should take; 0 = no trigger yet.

        Batches wait until full (no timeout); inside a short settling window
        after a controller transition a partial batch is flushed instead, so
        the batch alignment left over from the old configuration drains out.
        unseen newest dirty entries are left out of the count, as if not
        yet published.
        """
        dirty = ep.rings.tx.dirty_run() - unseen
        if not dirty:
            return 0
        mode = self.config.tx_mode
        if mode == ic.MODE_MMIO:
            return 1
        want = self.effective_B
        avail = dirty
        if mode == ic.MODE_COHERENT and self.submode == ic.SUBMODE_INVAL:
            known = ep.inval_known
            if known < dirty:
                avail = known
        if avail >= want:
            return want
        if avail and self.engine.now < self.settle_until:
            return avail
        return 0

    def _fetch(self, ep: _ConnEndpoint, k: int) -> None:
        engine = self.engine
        now = engine.now
        if ep.in_flight is not None:
            raise ContractViolation(
                f"nic {self.nic_id} connection {ep.conn_id}: fetch while a batch is in flight")
        blocks = ep.rings.tx.nic_fetch(k)
        if len(blocks) != k:
            raise ContractViolation(
                f"nic {self.nic_id} connection {ep.conn_id}: fetch returned "
                f"{len(blocks)} entries, trigger said {k} were dirty"
            )
        mode = self.config.tx_mode
        if mode == ic.MODE_COHERENT and self.submode == ic.SUBMODE_INVAL:
            ep.inval_known -= k
        trace = engine.trace
        if trace is not None:
            # the CPU stores of mmio mode were traced at publish time
            issuer, conn = f"nic{self.nic_id}", ep.conn_id
            if mode == ic.MODE_DOORBELL:
                trace.append(ic.Transaction(now, issuer, ic.KIND_DOORBELL, 1, conn))
                trace.append(ic.Transaction(now, issuer, ic.KIND_DMA_READ, k, conn,
                                            critical=True))
            elif mode == ic.MODE_COHERENT:
                trace.append(ic.Transaction(now, issuer, ic.KIND_POLL_HIT, k, conn,
                                            critical=True))
        granted = self.arbiter.request(self.nic_id, k + self._fixed_units, now)
        occ_end = now + (self._occ_fixed_ns + k * self._occ_entry_ns)
        if granted > occ_end:
            occ_end = granted
        ep.busy_until = occ_end
        ep.in_flight = blocks
        engine.schedule(occ_end, ep.forward_event)

    # -- RX path ---------------------------------------------------------------

    def rx_arrival(self, conn_id: int, block: bytes, rpc: int) -> None:
        ep = self.conns.get(conn_id)
        if ep is None:
            raise UnknownDestination(f"nic {self.nic_id} has no connection {conn_id}")
        if ep.rx_backlog or not self._rx_deliver(ep, block, rpc):
            ep.rx_backlog.append((block, rpc))

    def rx_arrival_batch(self, conn_id: int, it) -> None:
        """rx_arrival for each block the iterator it yields, in one call:
        one ring call (RxRing.rx_deliver_run) DMA-writes the blocks up to the
        first full slot, and those become host-visible as one delivery
        batch; the rest join the connection's backlog. The handler takes
        every block before it can raise."""
        ep = self.conns.get(conn_id)
        if ep is None:
            next(it, None)  # a batch handler takes the item it raises for
            raise UnknownDestination(f"nic {self.nic_id} has no connection {conn_id}")
        blocks = list(it)
        backlog = ep.rx_backlog
        n = 0 if backlog else ep.rings.rx.rx_deliver_run(blocks)
        if n:
            engine = self.engine
            now = engine.now
            trace = engine.trace
            if trace is not None:
                issuer = f"nic{self.nic_id}"
                for block in blocks[:n]:
                    trace.append(ic.Transaction(now, issuer, ic.KIND_DMA_WRITE, 1, conn_id,
                                                rpc_id_of(block)[0], critical=True))
            engine.schedule_batch(now + self.params.t_dma_write, ep.deliver_batch_event,
                                  ep.deliveries, range(n))
        for block in blocks[n:]:
            backlog.append((block, rpc_id_of(block)[0]))

    def _rx_deliver(self, ep: _ConnEndpoint, block: bytes, rpc: int) -> bool:
        """DMA-write one arrival into ep's RX ring; False on backpressure."""
        if not ep.rings.rx.rx_deliver_run((block,)):
            return False  # backpressure: stay queued
        now = self.engine.now
        trace = self.engine.trace
        if trace is not None:
            trace.append(ic.Transaction(now, f"nic{self.nic_id}", ic.KIND_DMA_WRITE, 1, ep.conn_id,
                                        rpc, critical=True))
        self.engine.schedule(now + self.params.t_dma_write, ep.deliver_event)
        return True

    def on_rx_slot_freed(self, conn_id: int) -> None:
        """The host released a slot of this connection's RX ring: serve the
        connection's backlog, oldest first, while its ring takes entries."""
        ep = self.conns[conn_id]
        backlog = ep.rx_backlog
        while backlog and self._rx_deliver(ep, *backlog[0]):
            backlog.popleft()

    # -- controllers -------------------------------------------------------------

    def _schedule_controller_tick(self) -> None:
        window_ns = self.config.rate_window_us * 1000.0
        self.engine.schedule(self.engine.now + window_ns, self._controller_tick)

    def _controller_tick(self) -> None:
        window_s = self.config.rate_window_us * 1e-6
        measured_rate = self.window_publishes / window_s
        self.window_publishes = 0
        self.adaptive_controllers_step(measured_rate)
        engine = self.engine
        if engine.now < engine.end_ns:
            self._schedule_controller_tick()

    def adaptive_controllers_step(self, measured_rate: float) -> None:
        """Evaluate both controllers against one measured-rate sample."""
        now = self.engine.now
        if self.config.tx_mode == ic.MODE_COHERENT:
            thr = self.config.poll_threshold_rps
            if self.submode == ic.SUBMODE_INVAL and measured_rate > thr * (1 + HYSTERESIS):
                self._set_submode(ic.SUBMODE_DIRECT, now)
            elif self.submode == ic.SUBMODE_DIRECT and measured_rate < thr * (1 - HYSTERESIS):
                self._set_submode(ic.SUBMODE_INVAL, now)
        ab = self.config.adaptive_batching
        if ab.enabled:
            # from any batch size, including a batch_B outside the pair, and
            # never to the size already in use
            if self.effective_B != ab.high_B and measured_rate > ab.switch_rate_rps * (1 + HYSTERESIS):
                self._set_batch(ab.high_B, now)
            elif self.effective_B != ab.low_B and measured_rate < ab.switch_rate_rps * (1 - HYSTERESIS):
                self._set_batch(ab.low_B, now)

    def _settle(self, now: float) -> None:
        self.settle_until = now + self.config.rate_window_us * 1000.0

    def _set_submode(self, new: str, now: float) -> None:
        self.controller_log.append((now, "poll_mode", self.submode, new))
        self.submode = new
        self._settle(now)
        for ep in self.conns.values():
            if new == ic.SUBMODE_DIRECT:
                ep.inval_known = 0
                self._arm_poll(ep)
                ep.fetch_event()  # pick up any backlog published pre-switch
            else:
                # entries published under direct polling are already visible
                ep.inval_known = ep.rings.tx.dirty_run()

    def _set_batch(self, new_b: int, now: float) -> None:
        self.controller_log.append((now, "batch", str(self.effective_B), str(new_b)))
        self.effective_B = new_b
        self._settle(now)
        for ep in self.conns.values():
            ep.fetch_event()

    def controller_csv(self) -> str:
        lines = [CONTROLLER_CSV_HEADER]
        for ts, name, old, new in self.controller_log:
            lines.append(f"{ts:.1f},{name},{old},{new}")
        return "\n".join(lines) + "\n"

    # -- reconfiguration -----------------------------------------------------------

    def soft_reconfigure(self, field_name: str, value) -> None:
        if field_name in HARD_FIELDS:
            raise HardFieldViolation(f"{field_name} requires hard reconfiguration")
        if field_name not in SOFT_FIELDS:
            raise InvalidValue(f"unknown soft field {field_name!r}")
        if field_name == "adaptive_batching" and isinstance(value, dict):
            value = AdaptiveBatching.from_dict(value)
        candidate = replace(self.config, **{field_name: value})
        try:
            candidate.validate(self.ring_depth)
        except ConfigInvalid as exc:
            raise InvalidValue(str(exc)) from None
        self.config = candidate
        if field_name == "batch_B" and not self.config.adaptive_batching.enabled:
            self.effective_B = value
            for ep in self.conns.values():
                ep.fetch_event()

    def outstanding(self) -> int:
        """Entries the NIC holds, plus one per connection whose last
        forwarded batch has not landed (a faster tx_mode would overtake it)."""
        now = self.engine.now
        extra, t_wire = self._tx_extra_ns, self.wire.params.t_wire
        return sum(ep.rings.tx.outstanding() + len(ep.rx_backlog)
                   + (ep.forwarded_at + extra + t_wire > now)  # lands as in Wire.send
                   for ep in self.conns.values())

    def hard_reconfigure(self, new_config: NicConfig) -> None:
        """Restart the pipeline with new hard fields. Caller must have
        drained in-flight traffic first (see sim.drain_and_reconfigure).

        The rings stay, since the host side holds them too and a delivered
        RX entry may still await pickup; only NIC-side state resets.
        """
        new_config.validate(self.ring_depth)
        if self.outstanding():
            raise HardFieldViolation("NIC not drained; outstanding entries remain")
        self.config = new_config
        self._set_fetch_costs()
        self.submode = ic.SUBMODE_INVAL
        self.effective_B = new_config.batch_B
        for ep in self.conns.values():
            ep.busy_until = self.engine.now
            ep.inval_known = 0
