"""Span tracer for one traced nicsim run, installed from outside the package.

Wrappers go around the calls that cross layer boundaries: every callback
handed to ``Engine.schedule`` (a discrete-event simulator's layers meet in
its event callbacks), ``Engine.schedule`` and ``Engine.run_until``
themselves, ``protocol.encode_entry``/``decode_entry``, the public
``TxRing``/``RxRing`` methods, ``BusArbiter.request``, the public NIC and
wire entry points, ``ClientEndpoint.start_call`` and the client's
``on_complete`` hook. Nothing in the package is edited; ``Tracer.installed``
patches the attributes and puts the originals back on exit.

A span is (name, start, end, parent, rpc). Spans live in flat typed arrays
(25 bytes each) because the 8-connection workload records about a million
of them. A span's self time is its duration minus its children's. Span
names read ``<layer>/<detail>``; the layer is the nicsim module that owns
the code.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

LAYERS = ("engine", "protocol", "rings", "interconnect", "nic", "host", "sim")

# Transaction kinds of nicsim.interconnect, in the order the metrics list them.
TXN_KINDS = (
    "MmioStore64", "DoorbellMmio", "DmaReadBatch", "DmaWrite64", "CoherentPollHit",
    "CoherentPollMiss", "Invalidation", "HostMemcpy64", "WireHop",
)

NIC_ENTRY_POINTS = ("on_tx_publish", "rx_arrival", "on_rx_slot_freed", "adaptive_controllers_step")
RX_DISPATCH_SPANS = ("nic/Nic.rx_arrival", "nic/Nic.on_rx_slot_freed")


def _rpc_field(index):
    """rpc id of the 64-byte entry passed as positional argument ``index``."""
    return lambda args: int.from_bytes(args[index][4:8], "little")


def _public_methods(cls):
    return [name for name, value in vars(cls).items()
            if callable(value) and not name.startswith("_")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._event_ids: dict[tuple, str] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("H")
        self.rpc = array("q")
        self._stack = [-1]
        # counts taken at the wrapped boundaries, beyond the span counts
        self.arbiter_units = 0
        self.grant_wait_ns = 0.0
        self.fetched_entries = 0
        self.rx_backpressure = 0
        self.tx_full = 0

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, rpc_of=None, observe=None):
        """``fn`` recorded as one span per call.

        ``rpc_of(args)`` gives the span's rpc id; ``observe(args, result)``
        updates counters after the span has ended.
        """
        nid = self.name_id(name)
        start, end, parent, names, rpcs = self.start, self.end, self.parent, self.name, self.rpc
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            names.append(nid)
            rpcs.append(-1 if rpc_of is None else rpc_of(args))
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        span.traced_by = self
        return span

    def _event(self, fn):
        key = (fn.__module__, fn.__qualname__)
        name = self._event_ids.get(key)
        if name is None:
            name = self._event_ids[key] = f"{_layer_of_module(fn.__module__)}/event {fn.__qualname__}"
        return self.wrap(name, fn)

    # -- counters ------------------------------------------------------------

    def _on_request(self, args, granted):
        arbiter, _issuer, count, now = args
        self.arbiter_units += count
        self.grant_wait_ns += max(0.0, granted - now - count * arbiter.slot_ns)

    def _on_fetch(self, args, entries):
        self.fetched_entries += len(entries)

    def _on_deliver(self, args, ok):
        self.rx_backpressure += not ok

    def _on_acquire(self, args, slot):
        self.tx_full += slot is None

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self, nicsim):
        """Patch the layer boundaries of the loaded ``nicsim`` package."""
        engine, protocol, rings = nicsim.engine, nicsim.protocol, nicsim.rings
        ic, nic, host = nicsim.interconnect, nicsim.nic, nicsim.host
        tracer = self
        orig_schedule = engine.Engine.schedule
        orig_start_call = host.ClientEndpoint.start_call

        traced_schedule = self.wrap("engine/Engine.schedule", orig_schedule)

        def schedule(eng, ts_ns, fn):
            # the event wrapper is built outside the schedule span, so that
            # span times the heap push alone
            return traced_schedule(eng, ts_ns, tracer._event(fn))

        def start_call(client, *args, **kwargs):
            hook = client.on_complete
            if hook is not None and getattr(hook, "traced_by", None) is not tracer:
                client.on_complete = tracer.wrap(
                    f"{_layer_of_module(hook.__module__)}/on_complete hook", hook,
                    rpc_of=lambda a: a[0])
            return orig_start_call(client, *args, **kwargs)

        observers = {"nic_fetch": self._on_fetch, "rx_deliver": self._on_deliver,
                     "tx_acquire": self._on_acquire}
        rpc_args = {"tx_publish": _rpc_field(2), "rx_deliver": _rpc_field(1)}
        patches = [
            (engine.Engine, "schedule", schedule),
            (engine.Engine, "run_until", self.wrap("engine/Engine.run_until", engine.Engine.run_until)),
            (protocol, "encode_entry", self.wrap("protocol/encode_entry", protocol.encode_entry,
                                                 rpc_of=lambda a: a[0].rpc_id)),
            (protocol, "decode_entry", self.wrap("protocol/decode_entry", protocol.decode_entry,
                                                 rpc_of=_rpc_field(0))),
            (ic.BusArbiter, "request", self.wrap("interconnect/BusArbiter.request",
                                                 ic.BusArbiter.request, observe=self._on_request)),
            (nic.Wire, "send", self.wrap("nic/Wire.send", nic.Wire.send, rpc_of=lambda a: a[5])),
            (host.ClientEndpoint, "start_call", self.wrap(
                "host/ClientEndpoint.start_call", start_call,
                rpc_of=lambda a: a[0].record.next_rpc_id)),
        ]
        for cls in (rings.TxRing, rings.RxRing):
            for method in _public_methods(cls):
                patches.append((cls, method, self.wrap(
                    f"rings/{cls.__name__}.{method}", getattr(cls, method),
                    rpc_of=rpc_args.get(method), observe=observers.get(method))))
        for method in NIC_ENTRY_POINTS:
            patches.append((nic.Nic, method, self.wrap(
                f"nic/Nic.{method}", getattr(nic.Nic, method),
                rpc_of=(lambda a: a[3]) if method == "rx_arrival" else None)))

        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def arrays(self):
        import numpy as np

        return {
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "rpc": np.frombuffer(self.rpc, dtype=np.int64),
        }

    def by_name(self):
        """{span name: (calls, self ns)} over all spans."""
        import numpy as np

        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_ns = np.bincount(a["name"], weights=dur - children, minlength=n)
        return {name: (int(calls[i]), float(self_ns[i])) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), **self.arrays())


def _layer_of_module(module: str) -> str:
    head, _, tail = module.partition(".")
    return tail if head == "nicsim" and tail in LAYERS else "other"


def layer_of(span_name: str) -> str:
    return span_name.split("/", 1)[0]


def layer_metrics(tracer: Tracer, result, scenario, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    spans = tracer.by_name()
    root_ns = traced_wall_s * 1e9
    rpcs = max(result.total_completed, 1)
    layer_self = dict.fromkeys(LAYERS + ("other",), 0.0)
    layer_calls = dict.fromkeys(LAYERS + ("other",), 0)
    for name, (calls, self_ns) in spans.items():
        layer_self[layer_of(name)] += self_ns
        layer_calls[layer_of(name)] += calls

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_ns(name):
        return spans.get(name, (0, 0.0))[1]

    kinds = dict.fromkeys(TXN_KINDS, 0)
    for txn in result.trace:
        kinds[txn.kind] += txn.count  # an unknown kind raises KeyError
    requests = calls("interconnect/BusArbiter.request")
    fetches = calls("rings/TxRing.nic_fetch")
    empty_polls = kinds["CoherentPollMiss"]
    delivers = calls("rings/RxRing.rx_deliver")
    acquires = calls("rings/TxRing.tx_acquire")
    slot_ns = 1e9 / scenario.cost_params.bus_cap_rps
    duration_ns = scenario.duration_us * 1e3

    m = {
        "engine.events": result.engine_events,
        "engine.events_per_rpc": result.engine_events / rpcs,
        "engine.host_ns_per_event": untraced_wall_s * 1e9 / max(result.engine_events, 1),
        "nic.rx_dispatch_ns_per_rpc": sum(self_ns(n) for n in RX_DISPATCH_SPANS) / rpcs,
        "nic.poll_useful_frac": fetches / max(fetches + empty_polls, 1),
        "nic.controller_switches": sum(len(log) for log in result.controller_logs.values()),
        "interconnect.arbiter_requests": requests,
        "interconnect.arbiter_units": tracer.arbiter_units,
        "interconnect.self_ns_per_request": layer_self["interconnect"] / max(requests, 1),
        "interconnect.bus_busy_frac": tracer.arbiter_units * slot_ns / duration_ns,
        "interconnect.grant_wait_ns": tracer.grant_wait_ns / max(requests, 1),
        "rings.calls": layer_calls["rings"],
        "rings.entries_per_fetch": tracer.fetched_entries / max(fetches, 1),
        "rings.rx_backpressure_frac": tracer.rx_backpressure / max(delivers, 1),
        "rings.tx_full_frac": tracer.tx_full / max(acquires, 1),
        "protocol.encode_calls": calls("protocol/encode_entry"),
        "protocol.decode_calls": calls("protocol/decode_entry"),
        "host.calls": layer_calls["host"],
        "trace.overhead_x": traced_wall_s / untraced_wall_s,
    }
    for kind in TXN_KINDS:
        m[f"interconnect.txn_{kind}_per_rpc"] = kinds[kind] / rpcs
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = layer_self[layer] / root_ns
        if layer not in ("engine", "interconnect"):
            m[f"{layer}.self_ns_per_rpc"] = layer_self[layer] / rpcs
    return m


def attribution(tracer: Tracer, traced_wall_s: float) -> tuple[float, float]:
    """(sum of all self times, self time of named layers), as shares of the
    traced wall time."""
    total = named = 0.0
    for name, (_, self_ns) in tracer.by_name().items():
        total += self_ns
        if layer_of(name) in LAYERS:
            named += self_ns
    return total / (traced_wall_s * 1e9), named / (traced_wall_s * 1e9)
