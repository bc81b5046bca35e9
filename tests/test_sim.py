"""Engine and scenario-runner tests: determinism, physics sanity, config."""

import json
from dataclasses import replace

import pytest

from nicsim import protocol
from nicsim.engine import Engine
from nicsim.errors import ConfigInvalid, ContractViolation
from nicsim.interconnect import CostParams
from nicsim.sim import (
    MAX_CONNECTIONS,
    MAX_DURATION_US,
    MAX_OPEN_LOOP_CALLS,
    MAX_RING_DEPTH,
    MAX_WINDOW,
    LoadGenSpec,
    _Harness,
    Scenario,
    default_scenario,
    make_payload,
    metrics_csv,
    run,
    scale_cores,
    sweep_load,
    trace_csv,
)

P = CostParams()


def test_event_order_and_clock():
    engine = Engine()
    seen = []
    engine.schedule(5.0, lambda: seen.append("b"))
    engine.schedule(1.0, lambda: seen.append("a"))
    engine.schedule(5.0, lambda: seen.append("c"))  # same ts: insertion order
    engine.run_until(10.0)
    assert seen == ["a", "b", "c"]
    assert engine.now == 10.0
    with pytest.raises(ValueError):
        engine.schedule(1.0, lambda: None)


def test_run_deterministic_csv():
    def one():
        s = default_scenario(loadgen=LoadGenSpec(mode="open_loop", rate_mrps=4.0),
                             duration_us=500, warmup_us=50, seed=7)
        return metrics_csv([run(s).metrics])

    assert one() == one()


def test_poisson_seeded_determinism_and_seed_sensitivity():
    def one(seed):
        s = default_scenario(
            loadgen=LoadGenSpec(mode="open_loop", rate_mrps=2.0, arrival="poisson"),
            duration_us=500, warmup_us=50, seed=seed,
        )
        return metrics_csv([run(s).metrics])

    assert one(3) == one(3)
    assert one(3) != one(4)


def test_causality_wire_on_both_paths():
    s = default_scenario(loadgen=LoadGenSpec(mode="open_loop", rate_mrps=4.0),
                         duration_us=500, warmup_us=50)
    result = run(s)
    floor_ns = 2 * P.t_wire
    assert all(c - i >= floor_ns for i, c in result.samples)


def test_littles_law_closed_loop():
    s = default_scenario(tx_mode="coherent", batch=4,
                         loadgen=LoadGenSpec(mode="closed_loop", window=64))
    m = run(s).metrics
    mean_outstanding = m.achieved_mrps * 1e6 * (m.median_us * 1e-6)
    # median ~ mean here; window 64 should be recovered within 5%
    assert mean_outstanding == pytest.approx(64, rel=0.05)


def test_warmup_independence():
    base = default_scenario(loadgen=LoadGenSpec(mode="open_loop", rate_mrps=4.0),
                            duration_us=4000, warmup_us=200)
    double = default_scenario(loadgen=LoadGenSpec(mode="open_loop", rate_mrps=4.0),
                              duration_us=4000, warmup_us=400)
    m1, m2 = run(base).metrics, run(double).metrics
    assert m1.median_us == pytest.approx(m2.median_us, rel=0.02)
    assert m1.achieved_mrps == pytest.approx(m2.achieved_mrps, rel=0.02)


def test_sweep_empty_and_orders():
    s = default_scenario()
    assert sweep_load(s, []) == []
    with pytest.raises(ConfigInvalid):
        sweep_load(s, [4.0, 2.0])
    with pytest.raises(ConfigInvalid):
        scale_cores(s, [4, 2])


def test_sweep_saturation_point_coherent_b4():
    s = default_scenario(tx_mode="coherent", batch=4, duration_us=1000, warmup_us=100)
    curve = sweep_load(s, [8.0, 11.0, 12.0, 13.0, 14.0])
    sat = next(m.offered_mrps for m in curve if m.saturated)
    assert sat == 13.0  # capacity is 12.4 Mrps
    below = [m for m in curve if not m.saturated]
    assert below and all(m.achieved_mrps == pytest.approx(m.offered_mrps, rel=0.01)
                         for m in below)


def test_b4_low_load_latency_penalty():
    s4 = default_scenario(tx_mode="coherent", batch=4, duration_us=1000, warmup_us=100)
    s1 = default_scenario(tx_mode="coherent", batch=1, duration_us=1000, warmup_us=100)
    m4 = sweep_load(s4, [1.0])[0]
    m1 = sweep_load(s1, [1.0])[0]
    assert m4.median_us > m1.median_us  # batching hurts latency at low rate


def test_latency_flat_below_saturation_unbatched():
    for mode in ("coherent", "doorbell", "mmio"):
        cap = {"coherent": 8.0, "doorbell": 4.2, "mmio": 4.1}[mode]
        s = default_scenario(tx_mode=mode, batch=1, duration_us=1000, warmup_us=100)
        curve = sweep_load(s, [cap * f for f in (0.25, 0.5, 0.75, 0.95)])
        meds = [m.median_us for m in curve]
        mid = sum(meds) / len(meds)
        assert all(abs(m - mid) / mid < 0.15 for m in meds), (mode, meds)


def test_metrics_invariants():
    s = default_scenario(loadgen=LoadGenSpec(mode="open_loop", rate_mrps=9.0),
                         duration_us=800, warmup_us=80)
    m = run(s).metrics
    assert m.median_us <= m.p99_us
    assert m.achieved_mrps <= m.offered_mrps + 1e-9
    assert m.saturated  # 9 > 8.1 Mrps capacity at B=1


def test_metrics_csv_header():
    s = default_scenario(duration_us=300, warmup_us=30)
    csv = metrics_csv([run(s).metrics])
    assert csv.startswith("load_mrps,achieved_mrps,median_us,p99_us,saturated\n")


def test_trace_csv_export():
    s = default_scenario(duration_us=100, warmup_us=10,
                         loadgen=LoadGenSpec(mode="closed_loop", window=1))
    result = run(s, collect_trace=True)
    csv = trace_csv(result.trace)
    lines = csv.strip().split("\n")
    assert lines[0] == "ts_ns,issuer,kind,count"
    assert len(lines) > 10
    assert all(len(line.split(",")) == 4 for line in lines[1:])


def test_trace_conservation_per_rpc():
    s = default_scenario(duration_us=300, warmup_us=30,
                         loadgen=LoadGenSpec(mode="open_loop", rate_mrps=2.0))
    result = run(s, collect_trace=True)
    per_rpc = {}
    for t in result.trace:
        if t.rpc < 0 or not t.critical:
            continue
        row = per_rpc.setdefault(t.rpc, {"pub": 0, "wire": 0, "dma": 0})
        if t.kind in ("HostMemcpy64", "MmioStore64"):
            row["pub"] += 1
        elif t.kind == "WireHop":
            row["wire"] += 1
        elif t.kind == "DmaWrite64":
            row["dma"] += 1
    completed_rpcs = len(result.samples)
    full = [r for r in per_rpc.values() if r == {"pub": 2, "wire": 2, "dma": 2}]
    assert len(full) >= completed_rpcs  # one publication, hop and DMA per direction


# Summed transaction counts per kind of the traced short runs below, as the
# model produced them before trace records were built only with tracing on.
TRACED_KIND_COUNTS = {
    "coherent": {"CoherentPollHit": 2396, "CoherentPollMiss": 3198, "DmaWrite64": 2392,
                 "HostMemcpy64": 4788, "Invalidation": 796, "WireHop": 2395},
    "doorbell": {"DmaReadBatch": 1952, "DmaWrite64": 1936, "DoorbellMmio": 488,
                 "HostMemcpy64": 3888, "WireHop": 1948},
    "mmio": {"DmaWrite64": 1192, "HostMemcpy64": 1190, "MmioStore64": 1198, "WireHop": 1196},
}
# (engine_events, len(samples)) of each traced case: a hot-path change that
# adds or drops a callback moves the first number
TRACED_RUN_SIZES = {"coherent": (21963, 1073), "doorbell": (8253, 860), "mmio": (5375, 533)}
TRACED_CASES = {
    "coherent": dict(tx_mode="coherent", batch=1,
                     loadgen=LoadGenSpec(mode="open_loop", rate_mrps=4.0)),
    "doorbell": dict(tx_mode="doorbell", batch=4,
                     loadgen=LoadGenSpec(mode="closed_loop", window=16)),
    "mmio": dict(tx_mode="mmio", batch=1, loadgen=LoadGenSpec(mode="open_loop", rate_mrps=2.0)),
}


@pytest.mark.parametrize("case", sorted(TRACED_CASES))
def test_tracing_changes_no_result_and_pins_kind_counts(case):
    s = default_scenario(duration_us=300, warmup_us=30, **TRACED_CASES[case])
    plain, traced = run(s), run(s, collect_trace=True)
    assert plain.trace is None
    assert traced.samples == plain.samples
    assert traced.metrics == plain.metrics
    assert traced.engine_events == plain.engine_events
    assert traced.controller_logs == plain.controller_logs
    counts = {}
    for t in traced.trace:
        counts[t.kind] = counts.get(t.kind, 0) + t.count
    assert counts == TRACED_KIND_COUNTS[case]
    assert (plain.engine_events, len(plain.samples)) == TRACED_RUN_SIZES[case]


def test_harness_fifo_and_payload_checks_fire():
    s = default_scenario(loadgen=LoadGenSpec(mode="closed_loop", window=1),
                         duration_us=100, warmup_us=10)
    harness = _Harness(s, collect_trace=False)
    client = harness.clients[0]
    conn = client.connection_id
    with pytest.raises(ContractViolation, match="out of order"):
        client.on_complete(1, 0.0, 1.0, make_payload(conn, 1), protocol.KIND_RESPONSE)
    with pytest.raises(ContractViolation, match="corrupted"):
        client.on_complete(0, 0.0, 1.0, b"not the echo", protocol.KIND_RESPONSE)


def test_harness_completion_queue_check_is_explicit():
    # the harness cross-checks each completion against the CQ, even under python -O
    s = default_scenario(loadgen=LoadGenSpec(mode="closed_loop", window=1),
                         duration_us=100, warmup_us=10)
    harness = _Harness(s, collect_trace=False)
    harness.clients[0].cq.cq_drain_last = lambda: None
    harness.start_load()
    with pytest.raises(ContractViolation):
        harness.engine.run_until(100_000.0)


def test_scenario_json_roundtrip(tmp_path):
    params_path = tmp_path / "p.json"
    CostParams().save(params_path)
    data = {
        "nics": [
            {"id": 0, "config": {"tx_mode": "coherent", "batch_B": 2}},
            {"id": 1, "config": {"tx_mode": "coherent", "batch_B": 2}},
        ],
        "connections": [{"client_nic": 0, "server_nic": 1}],
        "loadgen": {"mode": "open_loop", "rate_mrps": 2.0, "arrival": "deterministic"},
        "cost_params_path": str(params_path),
        "duration_us": 400,
        "warmup_us": 40,
        "seed": 9,
    }
    s = Scenario.from_dict(data)
    assert s.nic_configs[0].batch_B == 2
    assert s.seed == 9
    m = run(s).metrics
    assert m.n_samples > 0


def test_scenario_validation_field_messages():
    with pytest.raises(ConfigInvalid) as exc:
        Scenario.from_dict(
            {
                "nics": [{"id": 0, "config": {"tx_mode": "nope"}}],
                "connections": [{"client_nic": 0, "server_nic": 3}],
                "loadgen": {"mode": "warp_drive"},
                "duration_us": 100,
                "warmup_us": 90,
            }
        )
    text = str(exc.value)
    assert "tx_mode" in text
    assert "loadgen.mode" in text


def test_a_refused_nic_config_is_reported_once():
    # the refused NICs were declared: their rows' errors are reported, and
    # nothing that follows from them; a NIC never declared still is
    data = {"nics": [{"id": 0, "config": {"batch_B": 11}}, {"id": 1, "config": {"tx_mode": ""}}],
            "connections": [{"client_nic": 0, "server_nic": 1},
                            {"client_nic": 0, "server_nic": 3}],
            "loadgen": {"mode": "closed_loop", "window": 1},
            "ring_depth": 8}
    with pytest.raises(ConfigInvalid) as exc:
        Scenario.from_dict(data)
    assert exc.value.errors == [
        "nics[0]: batch_B must be in 1..8, got 11",
        "nics[1]: tx_mode must be one of ('mmio', 'doorbell', 'coherent'), got ''",
        "connections[1]: server nic 3 not defined",
    ]


@pytest.mark.parametrize("ring_depth,error", [
    (0, "ring_depth must be a power of two"),
    (-4, "ring_depth must be a power of two"),
    (MAX_RING_DEPTH * 2, f"ring_depth must be <= {MAX_RING_DEPTH}, got {MAX_RING_DEPTH * 2}"),
    ("x", "ring_depth must be an integer, got 'x'"),
    (1.5, "ring_depth must be an integer, got 1.5"),
    (None, "ring_depth must be an integer, got None"),
    (True, "ring_depth must be an integer, got True"),
])
def test_a_refused_ring_depth_is_its_only_error(ring_depth, error):
    # each NIC's batch sizes are judged against the bound under any depth,
    # not again against the refused one, nor against the default depth (64)
    data = {"nics": [{"id": 0, "config": {"batch_B": 128}},
                     {"id": 1, "config": {"adaptive_batching": {"enabled": True, "low_B": 2,
                                                                "high_B": 8}}}],
            "connections": [{"client_nic": 0, "server_nic": 1}],
            "ring_depth": ring_depth}
    with pytest.raises(ConfigInvalid) as exc:
        Scenario.from_dict(data)
    assert exc.value.errors == [error]
    data["nics"][0]["config"]["batch_B"] = 0  # refused under every depth
    with pytest.raises(ConfigInvalid) as exc:
        Scenario.from_dict(data)
    assert exc.value.errors == [f"nics[0]: batch_B must be in 1..{MAX_RING_DEPTH}, got 0", error]
    data["nics"][0]["config"]["batch_B"] = 128
    data["ring_depth"] = 256
    accepted = Scenario.from_dict(data)
    with pytest.raises(ConfigInvalid) as exc:  # validate judges the depth the same way
        replace(accepted, ring_depth=ring_depth).validate()
    assert exc.value.errors == [error]


def test_a_nic_id_declared_twice_is_refused_at_its_second_row():
    # which of the two configs was meant is unknown: no error follows from either
    data = {"nics": [{"id": 0}, {"id": 1, "config": {"tx_mode": "doorbell", "batch_B": 4}},
                     {"id": 1, "config": {"tx_mode": "mmio"}}],
            "connections": [{"client_nic": 0, "server_nic": 1}]}
    with pytest.raises(ConfigInvalid) as exc:
        Scenario.from_dict(data)
    assert exc.value.errors == ["nics[2]: id 1 already declared"]


@pytest.mark.parametrize("connections,error", [
    ([{"client_nic": 0, "server_nic": "x"}],
     "connections[0]: server_nic must be an integer, got 'x'"),
    ("x", "connections must be a list, got 'x'"),
    ([5], "connections[0] must be an object, got 5"),
], ids=["non_integer_field", "not_a_list", "not_an_object"])
def test_a_refused_connection_row_is_its_only_error(connections, error):
    # the connections were declared, so "at least one connection required"
    # would follow from the refused row alone
    data = {"nics": [{"id": 0}, {"id": 1}], "connections": connections}
    with pytest.raises(ConfigInvalid) as exc:
        Scenario.from_dict(data)
    assert exc.value.errors == [error]


def test_connection_between_one_nic_and_itself_is_refused():
    data = {"nics": [{"id": 0}, {"id": 1}],
            "connections": [{"client_nic": 0, "server_nic": 1},
                            {"client_nic": 1, "server_nic": 1}]}
    with pytest.raises(ConfigInvalid) as exc:
        Scenario.from_dict(data)
    assert exc.value.errors == ["connections[1]: client_nic and server_nic must differ"]


def test_ring_depth_and_window_limits_are_inclusive():
    s = default_scenario(ring_depth=MAX_RING_DEPTH,
                         loadgen=LoadGenSpec(mode="closed_loop", window=MAX_WINDOW))
    assert s.ring_depth == MAX_RING_DEPTH and s.loadgen.window == MAX_WINDOW
    with pytest.raises(ConfigInvalid, match="ring_depth must be <="):
        replace(s, ring_depth=2 * MAX_RING_DEPTH).validate()
    with pytest.raises(ConfigInvalid, match="loadgen.window must be <="):
        replace(s, loadgen=LoadGenSpec(mode="closed_loop", window=MAX_WINDOW + 1)).validate()


def test_connection_count_is_capped_before_any_ring_is_allocated():
    # an entry's connection id is a u16; validation only counts the rows
    row = {"client_nic": 0, "server_nic": 1}
    data = {"nics": [{"id": 0}, {"id": 1}], "connections": [row] * (MAX_CONNECTIONS + 1)}
    with pytest.raises(ConfigInvalid) as exc:
        Scenario.from_dict(data)
    assert exc.value.errors == [f"connections: at most {MAX_CONNECTIONS} connections, "
                                f"got {MAX_CONNECTIONS + 1}"]
    s = default_scenario()
    replace(s, connections=s.connections * MAX_CONNECTIONS).validate()  # the limit is inclusive


def test_open_loop_call_count_limit_is_inclusive():
    rate = MAX_OPEN_LOOP_CALLS / 2048
    s = default_scenario(loadgen=LoadGenSpec(mode="open_loop", rate_mrps=rate),
                         duration_us=2048.0)
    with pytest.raises(ConfigInvalid) as exc:
        replace(s, duration_us=2049.0).validate()
    assert exc.value.errors == [f"loadgen.rate_mrps x duration_us must be <= "
                                f"{MAX_OPEN_LOOP_CALLS} calls, got 262272 (128 Mrps x 2049 us)"]
    # a closed loop offers no calls beyond its window
    replace(s, duration_us=2049.0, loadgen=LoadGenSpec(mode="closed_loop", rate_mrps=rate)).validate()


def test_duration_limit_is_inclusive():
    closed = LoadGenSpec(mode="closed_loop", window=4)
    s = default_scenario(loadgen=closed, duration_us=float(MAX_DURATION_US))  # validates
    with pytest.raises(ConfigInvalid) as exc:
        replace(s, duration_us=MAX_DURATION_US * 1.5).validate()
    assert exc.value.errors == [f"duration_us must be <= {MAX_DURATION_US}, got 150000"]


@pytest.mark.parametrize("tx_mode", ["doorbell", "coherent"])
def test_a_closed_loop_below_the_batch_size_is_refused(tx_mode):
    closed = LoadGenSpec(mode="closed_loop", window=4)
    with pytest.raises(ConfigInvalid) as exc:
        default_scenario(tx_mode=tx_mode, batch=8, loadgen=closed)
    assert exc.value.errors == [
        f"nics[{i}]: a {tx_mode} batch waits for batch_B 8 entries and no controller ever "
        f"flushes a partial one, so a closed loop needs loadgen.window >= 8, got 4"
        for i in (0, 1)]
    # a full batch, adaptive batching's drop to low_B at the first rate window
    # (its settle window flushes a partial batch) and an open loop all run
    for s in (default_scenario(tx_mode=tx_mode, batch=4, loadgen=closed, duration_us=300,
                               warmup_us=30),
              default_scenario(tx_mode=tx_mode, batch=8, loadgen=closed, adaptive=True,
                               duration_us=300, warmup_us=30),
              default_scenario(tx_mode=tx_mode, batch=8, duration_us=300, warmup_us=30,
                               loadgen=LoadGenSpec(mode="open_loop", rate_mrps=4.0, window=4))):
        assert run(s).total_completed > 0


def test_sync_client_closed_loop_needs_window_1():
    # a sync endpoint refuses a second call in flight, so a wider closed loop
    # used to die in the harness after every ring was allocated
    closed = LoadGenSpec(mode="closed_loop", window=4)
    with pytest.raises(ConfigInvalid) as exc:
        default_scenario(threading_model="sync", loadgen=closed)
    assert exc.value.errors == ["nics[0]: a sync client holds one call in flight, so a "
                                "closed loop needs loadgen.window 1, got 4"]
    assert run(default_scenario(threading_model="sync", duration_us=200.0, warmup_us=20.0,
                                loadgen=replace(closed, window=1))).metrics.n_samples > 0
    # an open loop's window is unused, and async clients take any window
    default_scenario(threading_model="sync",
                     loadgen=LoadGenSpec(mode="open_loop", rate_mrps=0.1, window=4))
    default_scenario(loadgen=closed)


def test_scenario_duration_warmup_ratio_enforced():
    with pytest.raises(ConfigInvalid, match="10x"):
        default_scenario(duration_us=500, warmup_us=100)


# Cost parameters at which a publish lands exactly at fetch end, before that
# fetch's forward step has run; the NIC used to start a second fetch from
# the Fetch state there ("TX Fetch -> Fetch").
FETCH_END_CASES = {
    "mmio_t_mmio_80": dict(tx_mode="mmio", cost=dict(t_mmio=80.0)),
    "coherent_t_poll_t_cl_20": dict(tx_mode="coherent", cost=dict(t_poll=20.0, t_cl=20.0)),
}


@pytest.mark.parametrize("case", sorted(FETCH_END_CASES))
def test_publish_at_fetch_end_waits_for_forward(case):
    c = FETCH_END_CASES[case]
    s = default_scenario(tx_mode=c["tx_mode"], cost_params=P.replace(**c["cost"]),
                         loadgen=LoadGenSpec(mode="closed_loop", window=8),
                         duration_us=300, warmup_us=30)
    result = run(s)  # the harness checks FIFO order and payloads on every completion
    assert result.metrics.n_samples > 500
    assert not result.metrics.saturated


def test_run_checks_conservation_per_connection(monkeypatch):
    start_load = _Harness.start_load

    def start_and_tamper(self):
        start_load(self)
        self.clients[0].pending[10**6] = 0.0  # a call nobody issued

    monkeypatch.setattr(_Harness, "start_load", start_and_tamper)
    s = default_scenario(loadgen=LoadGenSpec(mode="closed_loop", window=4),
                         duration_us=100, warmup_us=10)
    with pytest.raises(ContractViolation, match="issued"):
        run(s)


def test_batch_bound_follows_the_scenario_ring_depth():
    data = {
        "nics": [{"id": i, "config": {"tx_mode": "doorbell", "batch_B": 128}} for i in (0, 1)],
        "connections": [{"client_nic": 0, "server_nic": 1}],
        "ring_depth": 256,
    }
    assert Scenario.from_dict(data).nic_configs[0].batch_B == 128
    s = default_scenario(tx_mode="doorbell", batch=128, ring_depth=256, duration_us=200,
                         warmup_us=20, loadgen=LoadGenSpec(mode="closed_loop", window=256))
    assert s.ring_depth == 256
    assert run(s).total_completed > 0  # the NICs take the scenario's depth as the bound
    data["ring_depth"] = 64
    with pytest.raises(ConfigInvalid, match=r"batch_B must be in 1\.\.64"):
        Scenario.from_dict(data)


@pytest.mark.parametrize("field, value", [("duration_us", float("inf")),
                                          ("warmup_us", float("nan"))])
def test_validate_rejects_a_non_finite_run_span(field, value):
    with pytest.raises(ConfigInvalid, match=f"{field} must be a number, got {value}"):
        replace(default_scenario(), **{field: value}).validate()


def test_cost_params_validate_rejects_nan():
    with pytest.raises(ConfigInvalid, match="t_wire must be a number > 0, got nan"):
        CostParams(t_wire=float("nan")).validate()
