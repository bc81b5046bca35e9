"""Scenario runner: load generators, metrics reduction, experiment sweeps.

A scenario wires two (or more) NICs to the loop-back wire and the shared
bus arbiter, provisions one connection per client, and drives an echo
workload either open-loop (fixed arrival rate, deterministic or Poisson
intervals) or closed-loop (fixed outstanding window). All timing comes
from the virtual clock; a (seed, scenario) pair fully determines every
output byte.

Latency samples are (issue, complete) pairs; a request issued while the
TX ring is full keeps its arrival time as the issue timestamp, so the
blocking wait shows up as latency once the system saturates. Requests
issued during warmup are excluded from the reduced metrics.
"""

from __future__ import annotations

import heapq
import math
import random
import struct
from dataclasses import asdict, dataclass, replace

from . import host as host_mod
from . import interconnect as ic
from . import protocol
from .engine import Engine
from .errors import ConfigInvalid, ContractViolation, DrainTimeout
from .interconnect import BusArbiter, CostParams
from .nic import HYSTERESIS, Nic, NicConfig, Wire

METRICS_CSV_HEADER = "load_mrps,achieved_mrps,median_us,p99_us,saturated"
SATURATION_EPSILON = 0.01

DEFAULT_DURATION_US = 2000.0
DEFAULT_WARMUP_US = 200.0
# Upper bounds, refused before anything is allocated; far above the deepest
# ring (512) and widest window (192) of any shipped scenario or workload.
MAX_RING_DEPTH = 1 << 16
MAX_WINDOW = 1 << 16
# An entry carries its connection id as a u16 (see the layout in protocol).
MAX_CONNECTIONS = 1 << 16
# Calls an open loop offers in one run (rate_mrps x duration_us). Each call
# past the TX ring waits in host memory, so the run grows with the offered
# load, not with what the interface serves; about 0.3 KB and 5 us of wall
# per call. Far above the 24,000 of the widest shipped sweep (12 Mrps x
# 2000 us).
MAX_OPEN_LOOP_CALLS = 1 << 18
# Virtual run length. A closed loop keeps its window busy for the whole run,
# so the wall grows with it, whatever the load; 25x the longest shipped
# scenario or workload (4000 us).
MAX_DURATION_US = 10**5


@dataclass
class LoadGenSpec:
    mode: str = "open_loop"  # open_loop | closed_loop
    rate_mrps: float = 4.0  # aggregate over all connections (open loop)
    arrival: str = "deterministic"  # deterministic | poisson
    window: int = 64  # outstanding per connection (closed loop)

    def validate(self):
        errors = []
        if self.mode not in ("open_loop", "closed_loop"):
            errors.append(f"loadgen.mode must be open_loop|closed_loop, got {self.mode!r}")
        if not ic.is_number(self.rate_mrps):
            errors.append(f"loadgen.rate_mrps must be a number, got {self.rate_mrps!r}")
        elif self.mode == "open_loop" and self.rate_mrps <= 0:
            errors.append("loadgen.rate_mrps must be > 0")
        if self.arrival not in ("deterministic", "poisson"):
            errors.append(f"loadgen.arrival must be deterministic|poisson, got {self.arrival!r}")
        if not ic.is_int(self.window):
            errors.append(f"loadgen.window must be an integer, got {self.window!r}")
        elif self.window > MAX_WINDOW:
            errors.append(f"loadgen.window must be <= {MAX_WINDOW}, got {self.window}")
        elif self.mode == "closed_loop" and self.window < 1:
            errors.append("loadgen.window must be >= 1")
        return errors


def _ring_depth_errors(ring_depth) -> list[str]:
    if not ic.is_int(ring_depth):
        return [f"ring_depth must be an integer, got {ring_depth!r}"]
    if ring_depth < 1 or ring_depth & (ring_depth - 1):
        return ["ring_depth must be a power of two"]
    if ring_depth > MAX_RING_DEPTH:
        return [f"ring_depth must be <= {MAX_RING_DEPTH}, got {ring_depth}"]
    return []


def _batch_bound(ring_depth) -> int:
    """The bound of every NIC's batch sizes under ring_depth: the depth, or
    MAX_RING_DEPTH, the bound under any depth, when the depth is refused
    (a non-integer too). A refused depth is then its own error only, not
    one per NIC too."""
    return MAX_RING_DEPTH if _ring_depth_errors(ring_depth) else ring_depth


@dataclass
class Scenario:
    nic_configs: dict[int, NicConfig]
    connections: list[tuple[int, int]]  # (client_nic, server_nic)
    loadgen: LoadGenSpec
    cost_params: CostParams
    duration_us: float = DEFAULT_DURATION_US
    warmup_us: float = DEFAULT_WARMUP_US
    seed: int = 1
    ring_depth: int = 64

    def validate(self, refused_nics=(), refused_connections=False) -> "Scenario":
        """refused_nics: ids of NICs whose row from_dict refused and
        reported. They count as declared, so no error follows from them.
        refused_connections: from_dict refused and reported a connection
        row, so the connections were declared, and the closed loop is not
        judged without that row."""
        errors = _ring_depth_errors(self.ring_depth)
        declared = self.nic_configs.keys() | set(refused_nics)
        if not declared:
            errors.append("nics: at least one NIC required")
        if not self.connections and not refused_connections:
            errors.append("connections: at least one connection required")
        elif len(self.connections) > MAX_CONNECTIONS:
            errors.append(f"connections: at most {MAX_CONNECTIONS} connections, "
                          f"got {len(self.connections)}")
        for i, (c, s) in enumerate(self.connections):
            if c not in declared:
                errors.append(f"connections[{i}]: client nic {c} not defined")
            if s not in declared:
                errors.append(f"connections[{i}]: server nic {s} not defined")
            if c == s:
                errors.append(f"connections[{i}]: client_nic and server_nic must differ")
        lg = self.loadgen
        errors.extend(lg.validate())
        if lg.mode == "closed_loop" and ic.is_int(lg.window) and lg.window > 1:
            for c in dict.fromkeys(c for c, _ in self.connections):
                cfg = self.nic_configs.get(c)
                if cfg is not None and cfg.threading_model == "sync":
                    errors.append(f"nics[{c}]: a sync client holds one call in flight, so a "
                                  f"closed loop needs loadgen.window 1, got {lg.window}")
        bad_spans = [f"{name} must be a number, got {getattr(self, name)!r}"
                     for name in ("duration_us", "warmup_us")
                     if not ic.is_number(getattr(self, name))]
        errors.extend(bad_spans)
        if not bad_spans:
            if self.duration_us <= 0:
                errors.append("duration_us must be > 0")
            elif self.duration_us > MAX_DURATION_US:
                errors.append(f"duration_us must be <= {MAX_DURATION_US}, got {self.duration_us:g}")
            if self.warmup_us < 0:
                errors.append("warmup_us must be >= 0")
            if self.duration_us < 10 * self.warmup_us:
                errors.append("duration_us must be >= 10x warmup_us")
            if lg.mode == "open_loop" and ic.is_number(lg.rate_mrps):
                calls = lg.rate_mrps * self.duration_us
                if calls > MAX_OPEN_LOOP_CALLS:
                    errors.append(f"loadgen.rate_mrps x duration_us must be <= "
                                  f"{MAX_OPEN_LOOP_CALLS} calls, got {calls:g} "
                                  f"({lg.rate_mrps:g} Mrps x {self.duration_us:g} us)")
        try:
            self.cost_params.validate()
        except ConfigInvalid as exc:
            errors.extend(f"cost_params: {e}" for e in exc.errors)
        bound = _batch_bound(self.ring_depth)
        for nic_id, cfg in self.nic_configs.items():
            try:
                cfg.validate(bound)
            except ConfigInvalid as exc:
                errors.extend(f"nics[{nic_id}]: {e}" for e in exc.errors)
        if not (errors or refused_nics or refused_connections) and lg.mode == "closed_loop":
            errors.extend(self._stalled_loop_errors())
        if errors:
            raise ConfigInvalid(errors)
        return self

    def _stalled_loop_errors(self) -> list[str]:
        """One error per NIC that can never forward an entry of some
        connection of this closed loop, which then never completes a call.

        Outside mmio mode a NIC fetches a connection's entries when
        effective_B of them are dirty, or any number inside a settle window
        (Nic._trigger_batch), and a connection has at most window entries
        dirty on each of its ends. Settle windows and changes of effective_B
        come only from the controllers at the rate ticks, every
        rate_window_us from the start. While a NIC forwards nothing, no call
        through it completes and none is issued again, so its publishes in
        any rate window number at most window x its connection ends, which
        bounds its measured rate (Nic._controller_tick). Two cases never
        forward:
        - no controller can change anything: batches wait for batch_B >
          window entries forever;
        - a NIC serving only, whose every batch size is above the window,
          whose only transition is the drop to low_B at its first tick: its
          one settle window ends before the first answer can be published
          on it. That answer's request left a client NIC that fetched no
          earlier than its own first tick (or at once, if it can fill a
          batch from the start), and then took one fetch of one entry, the
          traversals, the wire, the DMA write, the pickup copy and the
          answer's copy (the cost model's lower bound)."""
        w, params = self.loadgen.window, self.cost_params
        ends = {}
        for c, s in self.connections:
            ends[c] = ends.get(c, 0) + 1
            ends[s] = ends.get(s, 0) + 1
        sent = {}  # client NIC -> the earliest a request can go on the wire
        for c, _ in self.connections:
            cfg = self.nic_configs[c]
            channel = ic.tx_channel(params, cfg.tx_mode)
            fetched = (0.0 if cfg.tx_mode == ic.MODE_MMIO or w >= cfg.batch_B
                       else cfg.rate_window_us * 1000.0)
            sent[c] = fetched + channel.fixed_ns + channel.entry_ns + channel.extra_ns
        up = 1 + HYSTERESIS
        errors = []
        for nic_id, n_ends in ends.items():
            cfg = self.nic_configs[nic_id]
            if cfg.tx_mode == ic.MODE_MMIO or w >= cfg.batch_B:
                continue
            ab = cfg.adaptive_batching
            peak_rate = w * n_ends / (cfg.rate_window_us * 1e-6)
            if cfg.tx_mode == ic.MODE_COHERENT and peak_rate > cfg.poll_threshold_rps * up:
                continue  # the poll-mode controller may switch, which flushes
            if not ab.enabled or (ab.low_B == cfg.batch_B and (
                    ab.high_B == ab.low_B or not peak_rate > ab.switch_rate_rps * up)):
                errors.append(
                    f"nics[{nic_id}]: a {cfg.tx_mode} batch waits for batch_B {cfg.batch_B} "
                    f"entries and no controller ever flushes a partial one, so a closed "
                    f"loop needs loadgen.window >= {cfg.batch_B}, got {w}")
                continue
            smallest = min(cfg.batch_B, ab.low_B, ab.high_B)
            if (w >= smallest or nic_id in sent
                    or not peak_rate < ab.switch_rate_rps * (1 - HYSTERESIS)):
                continue
            window_ns = cfg.rate_window_us * 1000.0
            first_answer = (min(sent[c] for c, s in self.connections if s == nic_id)
                            + params.t_wire + params.t_dma_write + 2 * params.t_memcpy)
            if not first_answer < 2 * window_ns:
                errors.append(
                    f"nics[{nic_id}]: batches never hold fewer than {smallest} entries, and "
                    f"the one partial flush (until {2 * window_ns:g} ns) ends before an answer "
                    f"can reach the TX ring (at {first_answer:g} ns at the earliest), so a "
                    f"closed loop needs loadgen.window >= {smallest}, got {w}")
        return errors

    @classmethod
    def from_dict(cls, data: dict, cost_params: CostParams | None = None) -> "Scenario":
        if not isinstance(data, dict):
            raise ConfigInvalid("scenario must be a JSON object")
        errors = []
        known = {"nics", "connections", "loadgen", "cost_params_path",
                 "duration_us", "warmup_us", "seed", "ring_depth"}
        for key in set(data) - known:
            errors.append(f"unknown scenario key '{key}'")

        def typed(key, default, check, kind):
            value = data.get(key, default)
            if check(value):
                return value
            errors.append(f"{key} must be {kind}, got {value!r}")
            return default

        refused_rows = set()  # the keys rows() left an entry out of

        def rows(key, fields):
            """The list under key, keeping only objects whose fields are integers."""
            out = []
            value = data.get(key, [])
            if not isinstance(value, list):
                errors.append(f"{key} must be a list, got {value!r}")
                refused_rows.add(key)
                return out
            for i, row in enumerate(value):
                if isinstance(row, dict):
                    bad = [f for f in fields if not ic.is_int(row.get(f))]
                    errors.extend(f"{key}[{i}]: {f} must be an integer, got {row.get(f)!r}"
                                  for f in bad)
                else:
                    bad = True
                    errors.append(f"{key}[{i}] must be an object, got {row!r}")
                if bad:
                    refused_rows.add(key)
                else:
                    out.append((i, row))
            return out

        ring_depth = data.get("ring_depth", 64)  # judged by validate
        bound = _batch_bound(ring_depth)
        nic_configs, refused_nics = {}, set()
        for i, row in rows("nics", ("id",)):
            nic_id = row["id"]
            if nic_id in nic_configs or nic_id in refused_nics:
                refused_nics.add(nic_id)  # which row the user meant is unknown
                errors.append(f"nics[{i}]: id {nic_id} already declared")
                continue
            try:
                nic_configs[nic_id] = NicConfig.from_dict(row.get("config", {}), bound)
            except ConfigInvalid as exc:
                refused_nics.add(nic_id)
                errors.extend(f"nics[{i}]: {e}" for e in exc.errors)
        connections = [(row["client_nic"], row["server_nic"])
                       for _, row in rows("connections", ("client_nic", "server_nic"))]
        lg = typed("loadgen", {}, lambda v: isinstance(v, dict), "an object")
        lg_known = {"mode", "rate_mrps", "arrival", "window"}
        for key in set(lg) - lg_known:
            errors.append(f"loadgen: unknown key '{key}'")
        loadgen = LoadGenSpec(**{k: v for k, v in lg.items() if k in lg_known})
        if cost_params is None:
            path = typed("cost_params_path", None, lambda v: v is None or isinstance(v, str),
                         "a path")
            cost_params = CostParams.load(path) if path else CostParams()
        scenario = cls(
            nic_configs=nic_configs,
            connections=connections,
            loadgen=loadgen,
            cost_params=cost_params,
            duration_us=float(typed("duration_us", DEFAULT_DURATION_US, ic.is_number, "a number")),
            warmup_us=float(typed("warmup_us", DEFAULT_WARMUP_US, ic.is_number, "a number")),
            seed=typed("seed", 1, ic.is_int, "an integer"),
            ring_depth=ring_depth,
        )
        try:
            scenario.validate(refused_nics, "connections" in refused_rows)
        except ConfigInvalid as exc:
            errors.extend(exc.errors)
        if errors:
            raise ConfigInvalid(errors)
        return scenario


def echo_scenario_data(n_connections: int = 1, duration_us: float = DEFAULT_DURATION_US,
                       warmup_us: float = DEFAULT_WARMUP_US, seed: int = 1,
                       ring_depth: int = 64) -> dict:
    """The standard two-NIC echo setup, in Scenario.from_dict form; its NICs
    run the NicConfig defaults until set_interface writes a row onto them."""
    return {
        "nics": [{"id": 0, "config": {}}, {"id": 1, "config": {}}],
        "connections": [{"client_nic": 0, "server_nic": 1} for _ in range(n_connections)],
        "duration_us": duration_us,
        "warmup_us": warmup_us,
        "seed": seed,
        "ring_depth": ring_depth,
    }


def set_interface(data: dict, tx_mode: str, batch: int, threading_model: str | None = None,
                  adaptive: bool = False, loadgen: dict | None = None) -> None:
    """Write one TX interface onto every NIC of a scenario dict, in place.

    The adaptive-batching controller is switched on (at its defaults) or
    off; a threading model or a loadgen, when given, replaces the dict's.
    Adaptive scenarios use a faster controller window and deeper rings so
    the cold-start transient (the spell spent at the low batch size under
    high offered load) drains inside the warmup window. Values of the wrong
    shape are left alone for Scenario.from_dict to report.
    """
    nics = data.get("nics")
    for nic in nics if isinstance(nics, list) else ():
        config = nic.setdefault("config", {}) if isinstance(nic, dict) else None
        if not isinstance(config, dict):
            continue
        config["tx_mode"] = tx_mode
        config["batch_B"] = batch
        if threading_model is not None:
            config["threading_model"] = threading_model
        config.pop("adaptive_batching", None)
        if adaptive:
            config["adaptive_batching"] = {"enabled": True}
            config["rate_window_us"] = 20.0
    depth = data.get("ring_depth", 64)
    if adaptive and ic.is_int(depth):
        data["ring_depth"] = max(depth, 256)
    if loadgen is not None:
        data["loadgen"] = dict(loadgen)


def default_scenario(tx_mode: str = ic.MODE_COHERENT, batch: int = 1,
                     threading_model: str = "async",
                     loadgen: LoadGenSpec | None = None,
                     cost_params: CostParams | None = None,
                     n_connections: int = 1,
                     adaptive: bool = False,
                     duration_us: float = DEFAULT_DURATION_US,
                     warmup_us: float = DEFAULT_WARMUP_US,
                     seed: int = 1,
                     ring_depth: int = 64) -> Scenario:
    """The standard two-NIC echo setup running one TX interface."""
    data = echo_scenario_data(n_connections, duration_us, warmup_us, seed, ring_depth)
    set_interface(data, tx_mode, batch, threading_model, adaptive,
                  asdict(loadgen) if loadgen is not None else None)
    return Scenario.from_dict(data, cost_params=cost_params)


@dataclass
class RunMetrics:
    offered_mrps: float
    achieved_mrps: float
    median_us: float  # median_us and p99_us are NaN when n_samples is 0
    p99_us: float
    saturated: bool
    n_samples: int

    def csv_row(self) -> str:
        return (
            f"{self.offered_mrps:.4f},{self.achieved_mrps:.4f},"
            f"{self.median_us:.4f},{self.p99_us:.4f},{int(self.saturated)}"
        )


@dataclass
class RunResult:
    metrics: RunMetrics
    samples: list  # (issue_ns, complete_ns) within the measurement window
    controller_logs: dict  # nic_id -> [(ts, controller, old, new)]
    trace: list | None
    total_completed: int
    engine_events: int


_ECHO_PAYLOAD = struct.Struct("<HI6s")
_ECHO_TAG = b"\x5aPING\x5a"


def make_payload(conn_id: int, rpc_id: int) -> bytes:
    return _ECHO_PAYLOAD.pack(conn_id & 0xFFFF, rpc_id & 0xFFFFFFFF, _ECHO_TAG)


class _Harness:
    def __init__(self, scenario: Scenario, collect_trace: bool):
        self.scenario = scenario
        self.engine = Engine(trace=collect_trace)
        params = scenario.cost_params
        self.arbiter = BusArbiter(sorted(scenario.nic_configs), params.bus_cap_rps)
        self.wire = Wire(self.engine, params)
        self.nics = {
            nic_id: Nic(nic_id, replace(cfg), params, self.engine, self.arbiter, self.wire,
                        scenario.ring_depth)
            for nic_id, cfg in scenario.nic_configs.items()
        }
        self.servers = {}
        self.clients: list[host_mod.ClientEndpoint] = []
        self.samples: list[tuple[float, float]] = []
        self._expected_next: dict[int, int] = {}
        for client_nic_id, server_nic_id in scenario.connections:
            server = self.servers.get(server_nic_id)
            if server is None:
                server = host_mod.ServerEndpoint(self.engine, self.nics[server_nic_id])
                server.register_handler(host_mod.ECHO_FN, host_mod.echo_handler)
                self.servers[server_nic_id] = server
            client = host_mod.connect(
                self.engine, self.wire, self.nics[client_nic_id],
                self.nics[server_nic_id], server,
                threading_model=scenario.nic_configs[client_nic_id].threading_model,
            )
            client.on_complete = self._make_complete_hook(client)
            self._expected_next[client.connection_id] = 0
            self.clients.append(client)

    def _make_complete_hook(self, client):
        conn = client.connection_id
        expected_next = self._expected_next
        samples = self.samples
        cq = client.cq
        record = client.record
        closed_loop = self.scenario.loadgen.mode == "closed_loop"
        response, echo_fn = protocol.KIND_RESPONSE, host_mod.ECHO_FN

        def hook(rpc_id, issue_ts, complete_ts, payload, kind):
            # per-connection FIFO and payload integrity hold on every run
            expected = expected_next[conn]
            if rpc_id != expected:
                raise ContractViolation(
                    f"connection {conn}: completion {rpc_id} out of order (expected {expected})"
                )
            expected_next[conn] = expected + 1
            if kind != response or payload != make_payload(conn, rpc_id):
                raise ContractViolation(f"connection {conn}: corrupted echo for rpc {rpc_id}")
            if cq is not None:
                last = cq.cq_drain_last()
                if last is None or last[0] != rpc_id:
                    raise ContractViolation(
                        f"connection {conn}: completion queue does not end with rpc {rpc_id}"
                    )
            samples.append((issue_ts, complete_ts))
            if closed_loop:
                client.start_call(echo_fn, make_payload(conn, record.next_rpc_id))

        return hook

    def start_load(self) -> None:
        lg = self.scenario.loadgen
        if lg.mode == "closed_loop":
            for client in self.clients:
                for _ in range(lg.window):
                    conn = client.connection_id
                    client.start_call(host_mod.ECHO_FN, make_payload(conn, client.record.next_rpc_id))
            return
        n = len(self.clients)
        interval_ns = 1e3 / (lg.rate_mrps / n)  # per-connection spacing
        end_ns = self.scenario.duration_us * 1e3
        for i, client in enumerate(self.clients):
            if lg.arrival == "poisson":
                rng = random.Random((self.scenario.seed << 16) ^ client.connection_id)
                first = rng.expovariate(1.0) * interval_ns
                self._schedule_arrival(client, first, end_ns, interval_ns, rng)
            else:
                offset = interval_ns * i / max(n, 1)
                self._schedule_arrival(client, offset, end_ns, interval_ns, None)

    def _schedule_arrival(self, client, at_ns, end_ns, interval_ns, rng) -> None:
        if at_ns > end_ns:
            return

        def arrive():
            conn = client.connection_id
            client.start_call(host_mod.ECHO_FN, make_payload(conn, client.record.next_rpc_id),
                              issue_ts=self.engine.now)
            gap = rng.expovariate(1.0) * interval_ns if rng else interval_ns
            self._schedule_arrival(client, self.engine.now + gap, end_ns, interval_ns, rng)

        self.engine.schedule(at_ns, arrive)


def run(scenario: Scenario, collect_trace: bool = False) -> RunResult:
    """Execute one scenario and reduce its per-request trace to metrics."""
    scenario.validate()
    harness = _Harness(scenario, collect_trace)
    harness.start_load()
    duration_ns = scenario.duration_us * 1e3
    warmup_ns = scenario.warmup_us * 1e3
    harness.engine.run_until(duration_ns)
    for client in harness.clients:
        client.check_conservation()

    window_us = scenario.duration_us - scenario.warmup_us
    # throughput counts completions inside the window (flux balance at
    # steady state); latency samples additionally exclude warmup issues
    completions_in_window = sum(1 for _, c in harness.samples if c >= warmup_ns)
    samples = [(i, c) for i, c in harness.samples if i >= warmup_ns]
    achieved = completions_in_window / window_us if window_us > 0 else 0.0
    if scenario.loadgen.mode == "open_loop":
        offered = scenario.loadgen.rate_mrps
    else:
        offered = achieved
    lat_us = sorted((c - i) * 1e-3 for i, c in samples)
    if lat_us:
        median = lat_us[(len(lat_us) - 1) // 2] if len(lat_us) % 2 else 0.5 * (
            lat_us[len(lat_us) // 2 - 1] + lat_us[len(lat_us) // 2]
        )
        p99 = lat_us[min(len(lat_us) - 1, max(0, -(-99 * len(lat_us) // 100) - 1))]
    else:  # no latency was measured, not a latency of zero
        median = p99 = math.nan
    saturated = achieved < offered * (1 - SATURATION_EPSILON)

    metrics = RunMetrics(
        offered_mrps=offered,
        achieved_mrps=achieved,
        median_us=median,
        p99_us=p99,
        saturated=saturated,
        n_samples=len(samples),
    )
    return RunResult(
        metrics=metrics,
        samples=samples,
        controller_logs={nid: list(n.controller_log) for nid, n in harness.nics.items()},
        trace=harness.engine.trace,
        total_completed=len(harness.samples),
        engine_events=harness.engine.events_processed,
    )


def metrics_csv(rows: list[RunMetrics]) -> str:
    lines = [METRICS_CSV_HEADER]
    lines.extend(m.csv_row() for m in rows)
    return "\n".join(lines) + "\n"


def trace_csv(trace) -> str:
    lines = [ic.TRACE_CSV_HEADER]
    lines.extend(t.csv_row() for t in trace)
    return "\n".join(lines) + "\n"


def sweep_load(scenario: Scenario, loads_mrps: list[float]) -> list[RunMetrics]:
    """One run per offered load (ascending); empty list in, empty curve out."""
    if sorted(loads_mrps) != list(loads_mrps):
        raise ConfigInvalid("sweep loads must be ascending")
    rows = [replace(scenario, loadgen=replace(scenario.loadgen, mode="open_loop", rate_mrps=load))
            for load in loads_mrps]
    for s in rows:  # refuse a bad row before any row runs
        s.validate()
    return [run(s).metrics for s in rows]


def scale_cores(scenario: Scenario, thread_counts: list[int]) -> list[tuple[int, float]]:
    """Closed-loop end-to-end throughput vs number of client threads.

    Client and server are colocated, so every RPC loads the shared bus with
    both its request fetch and its response fetch.
    """
    if sorted(thread_counts) != list(thread_counts):
        raise ConfigInvalid("thread counts must be ascending")
    base_client, base_server = scenario.connections[0]
    out = []
    for t in thread_counts:
        s = replace(
            scenario,
            connections=[(base_client, base_server)] * t,
            loadgen=replace(scenario.loadgen, mode="closed_loop"),
        )
        out.append((t, run(s).metrics.achieved_mrps))
    return out


def raw_bus_benchmark(params: CostParams, thread_counts: list[int],
                      duration_us: float = 1000.0, warmup_us: float = 100.0) -> list[tuple[int, float]]:
    """Bare 64B transactions through the arbiter, bypassing the RPC stack.

    Each thread issues back-to-back raw line transfers (one t_cl of issue
    occupancy apiece) and waits for its grant, so a single thread below the
    cap achieves exactly its offered rate and the aggregate plateaus at
    bus_cap_rps.
    """
    end_ns = duration_us * 1e3
    warmup_ns = warmup_us * 1e3
    out = []
    for t in thread_counts:
        arbiter = BusArbiter(list(range(t)), params.bus_cap_rps)
        # (ready time, thread id): the next thread is the earliest ready,
        # the lowest id among equals; the list in id order is a heap
        ready = [(0.0, tid) for tid in range(t)]
        done = 0
        while True:
            now, tid = ready[0]
            if now >= end_ns:
                break
            granted = arbiter.request(tid, 1, now)
            finish = now + params.t_cl
            if granted > finish:
                finish = granted
            heapq.heapreplace(ready, (finish, tid))
            if warmup_ns <= finish <= end_ns:
                done += 1
        out.append((t, done / (duration_us - warmup_us)))
    return out


def drain_and_reconfigure(outstanding, engine: Engine, nic: Nic,
                          new_config: NicConfig, budget_ns: float = 10e6) -> None:
    """Quiesce in-flight traffic, then rebuild the NIC with new hard fields.

    outstanding() counts what is still in flight, e.g. Nic.outstanding."""
    drained = engine.run_while(lambda: outstanding() > 0, engine.now + budget_ns)
    if not drained:
        raise DrainTimeout(f"NIC {nic.nic_id} did not drain within {budget_ns:.0f} ns")
    nic.hard_reconfigure(new_config)
