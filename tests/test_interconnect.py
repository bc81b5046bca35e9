"""Cost-model unit tests: closed forms (checked on the NIC's TX path),
cost params, arbiter, fit."""

import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nicsim.interconnect as ic
from nicsim import protocol
from nicsim.cli import _pow2_at_least, saturation_window
from nicsim.errors import ConfigInvalid, UnderdeterminedFit
from nicsim.interconnect import (
    BusArbiter,
    CostParams,
    Transaction,
    bandwidth_headroom_ratio,
    calibrate,
    closed_form_rate,
)
from nicsim.nic import NicConfig
from nicsim.rings import RingPair
from nicsim.sim import LoadGenSpec, default_scenario, run
from test_nic import _noop, _rig

P = CostParams()


def _saturated_mrps(mode, batch):
    """Closed-loop echo throughput of the full NIC path, in Mrps."""
    window = saturation_window(batch)
    scenario = default_scenario(
        tx_mode=mode, batch=batch, loadgen=LoadGenSpec(mode="closed_loop", window=window),
        duration_us=1000, warmup_us=100, ring_depth=_pow2_at_least(2 * window))
    return run(scenario).metrics.achieved_mrps


def _publish_on_rig(config, n, direct_poll=False):
    """Publish n entries on connection 0 of NIC 0 of the two-NIC rig.

    Returns the times at which each entry became visible on NIC 1, NIC 0
    and NIC 0's trace records.
    """
    engine, wire, nic0, nic1 = _rig(config, trace=True)
    if direct_poll:  # one rate sample above the poll threshold
        nic0.adaptive_controllers_step(2 * nic0.config.poll_threshold_rps)
        assert nic0.submode == ic.SUBMODE_DIRECT
    pair = RingPair(64)
    nic0.attach_connection(0, pair, 1, _noop, _noop)
    visible = []
    nic1.attach_connection(0, RingPair(64), 0, lambda conn, ts, n: visible.extend([ts] * n), _noop)
    for rpc in range(n):
        pair.tx.tx_acquire_run(1)
        pair.tx.tx_publish_run([protocol.encode_entry(protocol.RpcEntry(0, 0, rpc, 0, b""))])
        nic0.on_tx_publish(0)
    engine.run_until(50_000.0)
    return visible, nic0, [t for t in engine.trace if t.issuer == "nic0"]


# -- closed forms vs the NIC path (dual route, within 2%) -------------------


@pytest.mark.parametrize(
    "mode,batch",
    [("mmio", 1), ("doorbell", 1), ("doorbell", 3), ("doorbell", 4),
     ("doorbell", 7), ("doorbell", 11), ("doorbell", 32),
     ("coherent", 1), ("coherent", 4)],
)
def test_channel_sim_matches_closed_form(mode, batch):
    expected = closed_form_rate(P, mode, batch) / 1e6
    assert _saturated_mrps(mode, batch) == pytest.approx(expected, rel=0.02)


def test_saturated_mmio_rate_hits_published_bar():
    assert _saturated_mrps("mmio", 1) == pytest.approx(4.2, rel=0.05)


def test_single_mmio_store_visibility():
    visible, nic0, trace = _publish_on_rig(NicConfig(tx_mode="mmio"), 1)
    assert nic0.arbiter.grant_counts[0] == 1  # the store is one bus transaction
    assert [t.kind for t in trace] == [ic.KIND_WIRE_HOP]
    # issue occupancy plus the calibrated interconnect traversals, then the
    # wire hop and the peer's DMA write
    assert visible == [pytest.approx(P.t_mmio + 3 * P.t_dma_write + P.t_wire + P.t_dma_write)]


def test_doorbell_published_bars():
    for batch, target in [(1, 4.3), (3, 7.9), (7, 9.9), (11, 10.8)]:
        assert closed_form_rate(P, "doorbell", batch) / 1e6 == pytest.approx(target, rel=0.05)
    assert closed_form_rate(P, "doorbell", 32) / 1e6 == pytest.approx(12.0, rel=0.05)


def test_doorbell_waits_for_full_batch():
    visible, nic0, trace = _publish_on_rig(NicConfig(tx_mode="doorbell", batch_B=4), 2)
    # no timeout: two pending, four needed
    ep = nic0.conns[0]
    assert visible == [] and trace == [] and nic0.arbiter.grant_counts[0] == 0
    assert ep.in_flight is None and ep.rings.tx.dirty_run() == 2


def test_coherent_published_bars():
    assert closed_form_rate(P, "coherent", 1) / 1e6 == pytest.approx(8.1, rel=0.01)
    assert closed_form_rate(P, "coherent", 4) / 1e6 == pytest.approx(12.4, rel=0.01)


def test_coherent_submodes_latency_split():
    inval_vis, _, _ = _publish_on_rig(NicConfig(), 1)
    direct_vis, _, _ = _publish_on_rig(NicConfig(), 1, direct_poll=True)
    hop = P.t_wire + P.t_dma_write
    assert inval_vis == [pytest.approx(P.t_inval + P.t_poll + P.t_cl + hop)]
    assert direct_vis == [pytest.approx(P.t_poll / 2 + P.t_poll + P.t_cl + hop)]


def test_throughput_monotone_in_batch():
    for mode in ("doorbell", "coherent"):
        rates = [closed_form_rate(P, mode, b) for b in range(1, 64)]
        assert rates == sorted(rates)


# -- cost params -------------------------------------------------------------


def test_params_json_roundtrip(tmp_path):
    path = tmp_path / "params.json"
    P.save(path)
    assert CostParams.load(path) == P


def test_params_unknown_key_rejected(tmp_path):
    path = tmp_path / "params.json"
    data = json.loads(P.to_json())
    data["t_bogus"] = 5
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigInvalid, match="t_bogus"):
        CostParams.load(path)


def test_params_positivity_enforced():
    with pytest.raises(ConfigInvalid, match="t_mmio"):
        P.replace(t_mmio=0)


def test_transaction_csv_row():
    txn = Transaction(1234.5, "nic0", ic.KIND_DMA_READ, 4)
    assert txn.csv_row() == "1234.5,nic0,DmaReadBatch,4"
    assert ic.TRACE_CSV_HEADER == "ts_ns,issuer,kind,count"


# -- calibration --------------------------------------------------------------


def test_calibrate_exact_interpolation_coherent():
    params, residuals = calibrate([("coherent", 1, 8.1), ("coherent", 4, 12.4)])
    assert closed_form_rate(params, "coherent", 1) / 1e6 == pytest.approx(8.1, abs=1e-9)
    assert closed_form_rate(params, "coherent", 4) / 1e6 == pytest.approx(12.4, abs=1e-9)
    assert all(err < 1e-9 for *_ , err in residuals)


def test_calibrate_heldout_doorbell_prediction():
    params, _ = calibrate([("doorbell", 1, 4.3), ("doorbell", 32, 12.0)])
    for batch, target in [(3, 7.9), (7, 9.9), (11, 10.8)]:
        predicted = closed_form_rate(params, "doorbell", batch) / 1e6
        assert abs(predicted - target) / target < 0.10


def test_calibrate_empty_and_underdetermined():
    with pytest.raises(UnderdeterminedFit):
        calibrate([])
    with pytest.raises(UnderdeterminedFit):
        calibrate([("doorbell", 1, 4.3)])


def test_shipped_defaults_match_calibration_of_shipped_datapoints():
    with resources.as_file(resources.files("nicsim.data") / "calibration_points.json") as path:
        points = ic.load_datapoints(path)
    fitted, _ = calibrate(points)
    for name in ("t_mmio", "t_doorbell", "t_entry", "t_poll", "t_cl"):
        assert getattr(fitted, name) == pytest.approx(getattr(P, name), rel=1e-9)


BAD_DATAPOINTS = {
    "mrps_nan": ({"mode": "doorbell", "B": 4, "mrps": float("nan")},
                 "datapoint 1: mrps must be a number > 0, got nan"),
    "mrps_inf": ({"mode": "doorbell", "B": 4, "mrps": float("inf")},
                 "datapoint 1: mrps must be a number > 0, got inf"),
    "mrps_zero": ({"mode": "doorbell", "B": 4, "mrps": 0}, "datapoint 1: mrps must be a number > 0"),
    "mrps_text": ({"mode": "doorbell", "B": 4, "mrps": "9"}, "datapoint 1: mrps must be a number"),
    "batch_zero": ({"mode": "doorbell", "B": 0, "mrps": 9.0},
                   "datapoint 1: B must be a positive integer, got 0"),
    "batch_fraction": ({"mode": "doorbell", "B": 2.5, "mrps": 9.0},
                       "datapoint 1: B must be a positive integer, got 2.5"),
    "batch_bool": ({"mode": "doorbell", "B": True, "mrps": 9.0},
                   "datapoint 1: B must be a positive integer, got True"),
    "unknown_mode": ({"mode": "pigeon", "B": 1, "mrps": 9.0},
                     "datapoint 1: mode must be one of"),
    "missing_field": ({"mode": "doorbell", "B": 4}, "datapoint 1: missing mrps"),
    "not_an_object": ([4, 9.0], "datapoint 1 must be an object"),
}


@pytest.mark.parametrize("case", sorted(BAD_DATAPOINTS))
def test_load_datapoints_rejects_a_bad_row_by_index(tmp_path, case):
    row, message = BAD_DATAPOINTS[case]
    path = tmp_path / "points.json"
    path.write_text(json.dumps([{"mode": "doorbell", "B": 1, "mrps": 4.3}, row]))
    with pytest.raises(ConfigInvalid) as exc:
        ic.load_datapoints(path)
    assert any(e.startswith(message) for e in exc.value.errors), exc.value.errors


def test_calibrate_rejects_a_bad_point_by_index():
    with pytest.raises(ConfigInvalid, match="datapoint 1: B must be a positive integer"):
        calibrate([("doorbell", 1, 4.3), ("doorbell", 0, 9.0), ("doorbell", 32, 12.0)])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400,
                                   True, "1", None],
                         ids=["nan", "inf", "-inf", "int_beyond_float", "bool", "str", "None"])
def test_is_number_takes_only_finite_numbers(value):
    assert not ic.is_number(value)


# -- arbiter -----------------------------------------------------------------


def test_arbiter_idle_peer_gets_full_budget():
    arb = BusArbiter([0, 1], 80e6)
    assert arb.request(0, 1000, 0.0) == pytest.approx(1000 * 12.5)
    assert arb.grant_counts == {0: 1000, 1: 0}


def test_arbiter_caps_aggregate_rate():
    arb = BusArbiter([0, 1], 80e6)
    # 100 Mrps offered for 1 ms -> 100k single-unit requests at t=0
    grants = [arb.request(k % 2, 1, 0.0) for k in range(100_000)]
    within_window = sum(1 for t in grants if t <= 1e6)
    assert within_window / 1e6 * 1e3 == pytest.approx(80.0, rel=0.01)  # Mrps


class _SlotArbiter:
    """Reference bus: grants one slot at a time, in request order."""

    def __init__(self, issuers, bus_cap_rps):
        self.slot_ns = 1e9 / bus_cap_rps
        self.free_at = 0.0
        self.grant_counts = {i: 0 for i in issuers}

    def request(self, issuer, count, now):
        t = max(self.free_at, now)
        for _ in range(count):
            t += self.slot_ns
            self.grant_counts[issuer] += 1
            self.free_at = t
        return t


_ARBITER_OPS = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 7]),
        st.integers(1, 40),
        st.floats(0.0, 50.0, allow_nan=False),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None, database=None)
@given(ops=_ARBITER_OPS, bus_cap=st.sampled_from([80e6, 30e6]))
def test_arbiter_request_matches_slot_by_slot_reference(ops, bus_cap):
    # a 33.3 ns slot is inexact in binary, so any shortcut in the grant
    # time arithmetic shows up as a last-bit difference
    arb, ref = BusArbiter([0, 1, 7], bus_cap), _SlotArbiter([0, 1, 7], bus_cap)
    now = 0.0
    for issuer, count, gap in ops:
        now += gap
        assert arb.request(issuer, count, now) == ref.request(issuer, count, now)
        assert arb.grant_counts == ref.grant_counts
        assert arb._free_at == ref.free_at


def test_arbiter_rejects_duplicate_issuers_and_negative_counts():
    with pytest.raises(ValueError):
        BusArbiter([0, 0], 80e6)
    arb = BusArbiter([0, 1], 80e6)
    for count in (0, -1):
        with pytest.raises(ValueError):
            arb.request(0, count, 0.0)
    assert arb.grant_counts == {0: 0, 1: 0} and arb._free_at == 0.0


def test_bandwidth_headroom_ratio():
    assert bandwidth_headroom_ratio(84e6, 41.6) == pytest.approx(7.74, abs=0.01)
