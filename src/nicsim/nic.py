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
not per event. The one piece of TX state between events is the endpoint's
batch in flight: _fetch stores the fetched entries and _forward, at fetch
end, sends and releases them. No fetch starts while a batch is in flight; RX
delivery keeps no state between events but each connection's backlog.

A fetch of two or more entries stays one engine callback per stage after
the wire (Engine.schedule_batch): Wire.send_batch lands it as one arrival,
rx_arrival_batch DMA-writes it and hands the written entries to the host as
one delivery, and the host picks them up in one callback. Each stage does
exactly what its per-entry callbacks would do back to back.

Hard config fields (tx_mode, threading_model) require a drained restart;
soft fields (batch size, poll threshold, adaptive batching, rate window)
may change at runtime. Two controllers run per NIC, evaluated once per
rate window with a +/-5% hysteresis band (HYSTERESIS):

- coherent submode: invalidation-driven at low request rates, direct LLC
  polling above the programmable threshold;
- adaptive batching: a low/high batch-size pair switched around a rate.
"""

from __future__ import annotations

import struct
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
from .rings import DEFAULT_DEPTH, RingPair

_rpc_id_of = struct.Struct("<4xI").unpack_from  # rpc_id, bytes 4..8 of an entry

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
    """NIC-side state for one connection: rings, the batch in flight, callbacks."""

    def __init__(self, conn_id, ring_pair, remote_nic, deliver_cb, tx_free_cb):
        self.conn_id = conn_id
        self.rings = ring_pair
        self.remote_nic = remote_nic
        self.deliver_cb = deliver_cb  # (conn_id, ts, n) -> None, n entries are host-visible
        self.tx_free_cb = tx_free_cb  # (conn_id, ts) -> None, TX slots released
        self.in_flight = None  # fetched (slot, block) list awaiting _forward
        self.busy_until = 0.0
        self.inval_known = 0  # publish notifications seen (inval submode)
        self.poll_scheduled = False
        # event callbacks, built once by Nic.attach_connection
        self.poll_event = None
        self.fetch_event = None
        self.inval_event = None
        self.forward_event = None
        self.deliver_event = None
        self.deliver_batch_event = None
        # wire arrivals awaiting a free RX slot; non-empty only while the ring is full
        self.rx_backlog = deque()


class Wire:
    """Loop-back transport: loss-free, order-preserving, t_wire per hop."""

    def __init__(self, engine, params):
        self.engine = engine
        self.params = params
        self.nics = {}

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

    def send_batch(self, src_nic_id: int, dst_nic_id: int, conn_id: int, entries: list,
                   extra_ns: float) -> None:
        """send for the block of each fetched (slot, block) of entries, landing
        as one arrival batch."""
        dst = self.nics.get(dst_nic_id)
        if dst is None:
            raise UnknownDestination(f"nic {dst_nic_id} is not attached to the wire")
        engine = self.engine
        now = engine.now
        trace = engine.trace
        if trace is not None:
            issuer = f"nic{src_nic_id}"
            for _, block in entries:
                trace.append(ic.Transaction(now, issuer, ic.KIND_WIRE_HOP, 1, conn_id,
                                            _rpc_id_of(block)[0], critical=True))
        arrive = dst.rx_arrival_batch
        engine.schedule_batch(now + extra_ns + self.params.t_wire,
                              lambda it: arrive(conn_id, it), entries)


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
        ep = _ConnEndpoint(conn_id, ring_pair, remote_nic, deliver_cb, tx_free_cb)
        engine = self.engine
        ep.poll_event = lambda: self._poll(ep)
        ep.fetch_event = lambda: self._try_fetch(ep)
        ep.inval_event = lambda: self._on_inval(ep)
        ep.forward_event = lambda: self._forward(ep)
        ep.deliver_event = lambda: deliver_cb(conn_id, engine.now, 1)
        ep.deliver_batch_event = lambda it: deliver_cb(conn_id, engine.now, len(list(it)))
        self.conns[conn_id] = ep
        self._ring_owners[ring_pair] = conn_id
        self.next_conn_id = max(self.next_conn_id, conn_id + 1)
        if not self._controller_started:
            self._controller_started = True
            self._schedule_controller_tick()
        if self.submode == ic.SUBMODE_DIRECT:
            self._arm_poll(ep, self.engine.now)
        return ep

    # -- TX path ------------------------------------------------------------

    def on_tx_publish(self, conn_id: int) -> None:
        """Host published one entry into this connection's TX ring."""
        ep = self.conns[conn_id]
        self.window_publishes += 1
        now = self.engine.now
        mode = self.config.tx_mode
        if mode == ic.MODE_COHERENT:
            if self.submode == ic.SUBMODE_INVAL:
                # a publish invalidates exactly the published line
                trace = self.engine.trace
                if trace is not None:
                    trace.append(ic.Transaction(now, f"host{self.nic_id}", ic.KIND_INVALIDATION,
                                                1, conn_id))
                self.engine.schedule(now + self.params.t_inval, ep.inval_event)
            else:
                # direct polling discovers the entry half a poll period later
                # on average; modeled as a fixed half-period so steady state
                # is phase-free
                self.engine.schedule(now + self.params.t_poll / 2, ep.fetch_event)
        else:
            self._try_fetch(ep)

    def _on_inval(self, ep: _ConnEndpoint) -> None:
        ep.inval_known += 1
        self._try_fetch(ep)

    def _trigger_batch(self, ep: _ConnEndpoint) -> int:
        """How many entries the next fetch should take; 0 = no trigger yet.

        Batches wait until full (no timeout); inside a short settling window
        after a controller transition a partial batch is flushed instead, so
        the batch alignment left over from the old configuration drains out.
        """
        dirty = ep.rings.tx.dirty_run()
        if not dirty:
            return 0
        mode = self.config.tx_mode
        if mode == ic.MODE_MMIO:
            return 1
        want = self.effective_B
        avail = min(dirty, ep.inval_known) if (
            mode == ic.MODE_COHERENT and self.submode == ic.SUBMODE_INVAL
        ) else dirty
        if avail >= want:
            return want
        if avail and self.engine.now < self.settle_until:
            return avail
        return 0

    def _try_fetch(self, ep: _ConnEndpoint) -> None:
        if ep.in_flight is not None:
            # the channel is busy, or its _forward is due at this very
            # timestamp (a publish can land at fetch end); re-checked there
            return
        k = self._trigger_batch(ep)
        if k:
            self._fetch(ep, k)

    def _fetch(self, ep: _ConnEndpoint, k: int) -> None:
        now = self.engine.now
        mode = self.config.tx_mode
        if ep.in_flight is not None:
            raise ContractViolation(
                f"nic {self.nic_id} connection {ep.conn_id}: fetch while a batch is in flight")
        entries = ep.rings.tx.nic_fetch(k)
        if len(entries) != k:
            raise ContractViolation(
                f"nic {self.nic_id} connection {ep.conn_id}: fetch returned "
                f"{len(entries)} entries, trigger said {k} were dirty"
            )
        if mode == ic.MODE_COHERENT and self.submode == ic.SUBMODE_INVAL:
            ep.inval_known -= k
        trace = self.engine.trace
        if trace is not None:
            for kind, count in ic.tx_batch_transactions(mode, k):
                # the CPU store of mmio mode was traced at publish time
                if kind != ic.KIND_MMIO_STORE:
                    trace.append(ic.Transaction(now, f"nic{self.nic_id}", kind, count, ep.conn_id,
                                                critical=(kind != ic.KIND_DOORBELL)))
        granted = self.arbiter.request(self.nic_id, ic.tx_batch_units(mode, k), now)
        occ_end = max(now + ic.tx_occupancy_ns(self.params, mode, k), granted)
        ep.busy_until = occ_end
        ep.in_flight = entries
        self.engine.schedule(occ_end, ep.forward_event)

    def _forward(self, ep: _ConnEndpoint) -> None:
        """Channel freed: hand the batch in flight to the interconnect (any
        remaining traversal latency rides the delivery path) and release it."""
        entries = ep.in_flight
        if entries is None:
            raise ContractViolation(
                f"nic {self.nic_id} connection {ep.conn_id}: forward with no batch in flight")
        extra = ic.tx_extra_latency_ns(self.params, self.config.tx_mode)
        nic_id, remote, conn_id = self.nic_id, ep.remote_nic, ep.conn_id
        if len(entries) == 1:
            block = entries[0][1]
            self.wire.send(nic_id, remote, conn_id, block, _rpc_id_of(block)[0], extra)
        else:
            self.wire.send_batch(nic_id, remote, conn_id, entries, extra)
        ep.rings.tx.nic_release([slot for slot, _ in entries])
        ep.in_flight = None
        ep.tx_free_cb(conn_id, self.engine.now)
        self._tx_resume(ep)

    def _tx_resume(self, ep: _ConnEndpoint) -> None:
        """Channel became free: chain the next batch or resume polling."""
        if self.submode == ic.SUBMODE_DIRECT:
            k = self._trigger_batch(ep)
            if k:
                self._fetch(ep, k)  # the channel is hot: back-to-back batch
            else:
                self._arm_poll(ep, self.engine.now)
        else:
            self._try_fetch(ep)

    # -- direct-poll loop ----------------------------------------------------

    def _arm_poll(self, ep: _ConnEndpoint, ts: float) -> None:
        if not ep.poll_scheduled and not self.engine.ended(ts):
            ep.poll_scheduled = True
            self.engine.schedule(ts, ep.poll_event)

    def _poll(self, ep: _ConnEndpoint) -> None:
        """Idle spin of the direct-polling loop. Empty polls consume bus
        budget but never hold the channel: fetch starts are publish-driven
        (on_tx_publish) or chained at fetch end (_tx_resume), so the steady
        state does not depend on poll phase."""
        ep.poll_scheduled = False
        if self.submode != ic.SUBMODE_DIRECT:
            return  # submode switched; the invalidation path takes over
        now = self.engine.now
        if ep.busy_until > now:
            self._arm_poll(ep, ep.busy_until)  # fetch in flight; not a miss
            return
        if self._trigger_batch(ep):
            # data is pending and a fetch check owns it; spin silently
            self._arm_poll(ep, now + self.params.t_poll)
            return
        # empty poll: consumes bus budget
        trace = self.engine.trace
        if trace is not None:
            trace.append(ic.Transaction(now, f"nic{self.nic_id}", ic.KIND_POLL_MISS, 1, ep.conn_id))
        granted = self.arbiter.request(self.nic_id, 1, now)
        self._arm_poll(ep, max(now + self.params.t_poll, granted))

    # -- RX path ---------------------------------------------------------------

    def rx_arrival(self, conn_id: int, block: bytes, rpc: int) -> None:
        ep = self.conns.get(conn_id)
        if ep is None:
            raise UnknownDestination(f"nic {self.nic_id} has no connection {conn_id}")
        if ep.rx_backlog or not self._rx_deliver(ep, block, rpc):
            ep.rx_backlog.append((block, rpc))

    def rx_arrival_batch(self, conn_id: int, it) -> None:
        """rx_arrival for the block of each (slot, block) the iterator it
        yields, in one call: the entries DMA-written become host-visible as
        one delivery batch, the rest join the connection's backlog."""
        ep = self.conns.get(conn_id)
        if ep is None:
            next(it, None)  # a batch handler takes the item it raises for
            raise UnknownDestination(f"nic {self.nic_id} has no connection {conn_id}")
        engine = self.engine
        now = engine.now
        trace = engine.trace
        deliver = ep.rings.rx.rx_deliver
        backlog = ep.rx_backlog
        n = 0
        for _, block in it:
            if backlog or not deliver(block):
                backlog.append((block, _rpc_id_of(block)[0]))
                continue
            if trace is not None:
                trace.append(ic.Transaction(now, f"nic{self.nic_id}", ic.KIND_DMA_WRITE, 1,
                                            conn_id, _rpc_id_of(block)[0], critical=True))
            n += 1
        if n:
            engine.schedule_batch(now + self.params.t_dma_write, ep.deliver_batch_event, range(n))

    def _rx_deliver(self, ep: _ConnEndpoint, block: bytes, rpc: int) -> bool:
        """DMA-write one arrival into ep's RX ring; False on backpressure."""
        if not ep.rings.rx.rx_deliver(block):
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
        if not self.engine.ended(self.engine.now):
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
                self._arm_poll(ep, self.engine.now)
                self._try_fetch(ep)  # pick up any backlog published pre-switch
            else:
                # entries published under direct polling are already visible
                ep.inval_known = ep.rings.tx.dirty_run()

    def _set_batch(self, new_b: int, now: float) -> None:
        self.controller_log.append((now, "batch", str(self.effective_B), str(new_b)))
        self.effective_B = new_b
        self._settle(now)
        for ep in self.conns.values():
            self._try_fetch(ep)

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
                self._try_fetch(ep)

    def outstanding(self) -> int:
        total = 0
        for ep in self.conns.values():
            total += ep.rings.tx.outstanding() + len(ep.rx_backlog)
        return total

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
        self.submode = ic.SUBMODE_INVAL
        self.effective_B = new_config.batch_B
        for ep in self.conns.values():
            ep.busy_until = self.engine.now
            ep.inval_known = 0
