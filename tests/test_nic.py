"""NIC behavior: the in-flight batch guards, transport, per-connection RX delivery,
reconfiguration, controllers."""

import heapq
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nicsim.interconnect as ic
from nicsim.engine import Engine
from nicsim.errors import (
    ConfigInvalid,
    ContractViolation,
    DrainTimeout,
    DuplicateConnection,
    HardFieldViolation,
    InvalidValue,
    UnknownDestination,
)
from nicsim.interconnect import BusArbiter, CostParams
from nicsim.nic import HYSTERESIS, AdaptiveBatching, Nic, NicConfig, Wire
from nicsim.rings import RingPair
from nicsim.sim import LoadGenSpec, default_scenario, drain_and_reconfigure, run
from nicsim import host as host_mod
from nicsim import protocol
from nicsim.protocol import RpcEntry

P = CostParams()


def _rig(config0=None, config1=None, trace=False):
    engine = Engine(trace=trace)
    arbiter = BusArbiter([0, 1], P.bus_cap_rps)
    wire = Wire(engine, P)
    nic0 = Nic(0, config0 or NicConfig(), P, engine, arbiter, wire)
    nic1 = Nic(1, config1 or NicConfig(), P, engine, arbiter, wire)
    return engine, wire, nic0, nic1


def _noop(*args):
    pass


# -- config -------------------------------------------------------------------


def test_nicconfig_valid_roundtrip():
    cfg = NicConfig.from_dict(
        {
            "tx_mode": "doorbell",
            "threading_model": "sync",
            "batch_B": 3,
            "poll_threshold_rps": 2e6,
            "adaptive_batching": {"enabled": True, "low_B": 1, "high_B": 4,
                                  "switch_rate_rps": 5e6},
            "rate_window_us": 50,
        }
    )
    assert cfg.tx_mode == "doorbell"
    assert cfg.adaptive_batching.high_B == 4


def test_nicconfig_rejects_unknown_and_invalid():
    with pytest.raises(ConfigInvalid, match="mystery"):
        NicConfig.from_dict({"mystery": 1})
    with pytest.raises(ConfigInvalid, match="batch_B"):
        NicConfig(batch_B=0).validate()
    with pytest.raises(ConfigInvalid, match="batch_B"):
        NicConfig(batch_B=65).validate(64)
    with pytest.raises(ConfigInvalid, match="tx_mode"):
        NicConfig(tx_mode="carrier-pigeon").validate()


# -- transport ----------------------------------------------------------------


def test_wire_delay_and_order():
    engine, wire, nic0, nic1 = _rig()
    got = []
    pair = RingPair(64)
    nic1.attach_connection(0, pair, 0, lambda c, ts, n: got.extend([ts] * n), _noop)
    block = protocol.encode_entry(RpcEntry(0, 0, 1, 0, b"x"))
    wire.send(0, 1, 0, block, rpc=1)
    engine.run_until(1e6)
    # wire hop then DMA write visibility
    assert got == [pytest.approx(P.t_wire + P.t_dma_write)]


def test_wire_zero_delay_same_step():
    params = P.replace(t_wire=1e-9)  # effectively zero; params must stay positive
    engine = Engine()
    wire = Wire(engine, params)
    nic1 = Nic(1, NicConfig(), params, engine, BusArbiter([0, 1], P.bus_cap_rps), wire)
    got = []
    nic1.attach_connection(0, RingPair(64), 0, lambda c, ts, n: got.extend([ts] * n), _noop)
    wire.send(1, 1, 0, protocol.encode_entry(RpcEntry(0, 0, 1, 0, b"")), rpc=1)
    engine.run_until(1e6)
    assert got and got[0] == pytest.approx(params.t_dma_write, abs=1e-6)


def test_wire_unknown_destination():
    engine, wire, nic0, nic1 = _rig()
    with pytest.raises(UnknownDestination):
        wire.send(0, 99, 0, bytes(64), rpc=0)


def test_wire_batch_to_an_unknown_connection_stops_at_its_first_entry():
    engine, wire, nic0, nic1 = _rig()
    blocks = [protocol.encode_entry(RpcEntry(0, 5, rpc, 0, b"")) for rpc in range(3)]
    wire.send_batch(0, 1, 5, blocks, 0.0)
    with pytest.raises(UnknownDestination, match="nic 1 has no connection 5"):
        engine.run_until(1e6)
    assert engine.events_processed == 1
    # the two untaken entries stay queued and land once the connection exists
    pair = RingPair(4)
    nic1.attach_connection(5, pair, 0, _noop, _noop)
    engine.run_until(2e6)
    landed = pair.rx.rx_poll_run(3)
    assert [protocol.decode_entry(b).rpc_id for b in landed] == [1, 2]


def test_transport_order_preserved_bulk():
    engine, wire, nic0, nic1 = _rig()
    got = []
    pair = RingPair(64)

    def deliver(conn, ts, n):
        for _ in range(n):
            [block] = pair.rx.rx_poll_run(1)
            got.append(protocol.decode_entry(block).rpc_id)
            pair.rx.rx_release_run(1)
            nic1.on_rx_slot_freed(conn)

    nic1.attach_connection(0, pair, 0, deliver, _noop)
    n = 10_000
    for i in range(n):
        wire.send(0, 1, 0, protocol.encode_entry(RpcEntry(0, 0, i, 0, b"")), rpc=i)
    engine.run_until(1e9)
    assert got == list(range(n))


# -- RX delivery ----------------------------------------------------------------


def test_rx_slot_freed_serves_only_its_own_backlog_in_fifo_order():
    # each host pickup releases one slot and notifies its own connection: the
    # slot takes that connection's oldest waiting arrival and nothing of the
    # other connection's backlog
    engine, wire, nic0, nic1 = _rig()
    pairs = {c: RingPair(4) for c in (0, 1)}
    for c in (0, 1):
        nic1.attach_connection(c, pairs[c], 0, _noop, _noop)
    for c in (0, 1):
        for rpc in range(10):
            nic1.rx_arrival(c, protocol.encode_entry(RpcEntry(0, c, rpc, 0, b"")), rpc)
    assert [len(nic1.conns[c].rx_backlog) for c in (0, 1)] == [6, 6]  # 4 written each
    picked = {0: [], 1: []}
    for c in [0] * 3 + [1] * 5 + [0, 1] * 5 + [0] * 2:
        other = nic1.conns[1 - c].rx_backlog
        waiting_other = list(other)
        backlog = nic1.conns[c].rx_backlog
        head = backlog[0][1] if backlog else None
        [block] = pairs[c].rx.rx_poll_run(1)
        picked[c].append(protocol.decode_entry(block).rpc_id)
        pairs[c].rx.rx_release_run(1)
        nic1.on_rx_slot_freed(c)
        assert list(other) == waiting_other
        if head is not None:
            assert head not in [rpc for _, rpc in backlog]  # the head took the slot
            assert pairs[c].rx.rx_deliver_run([bytes(64)]) == 0  # and the ring is full again
    assert picked == {0: list(range(10)), 1: list(range(10))}
    assert not nic1.conns[0].rx_backlog and not nic1.conns[1].rx_backlog


def test_rx_head_of_line_isolation():
    engine, wire, nic0, nic1 = _rig()
    pair_a, pair_b = RingPair(4), RingPair(4)
    delivered_b = []
    nic1.attach_connection(0, pair_a, 0, _noop, _noop)
    nic1.attach_connection(1, pair_b, 0, lambda c, ts, n: delivered_b.extend([ts] * n), _noop)
    # fill A's RX ring so it backpressures
    for i in range(4):
        assert pair_a.rx.rx_deliver_run([protocol.encode_entry(RpcEntry(0, 0, i, 0, b""))]) == 1
    nic1.rx_arrival(0, protocol.encode_entry(RpcEntry(0, 0, 9, 0, b"")), 9)
    nic1.rx_arrival(1, protocol.encode_entry(RpcEntry(0, 1, 1, 0, b"")), 1)
    engine.run_until(1e5)
    assert len(delivered_b) == 1  # B served despite A stalled
    assert nic1.conns[0].rx_backlog  # A still waiting


def _rx_twin(backlogged_conn):
    """NIC 1 with RX rings of depth 4 on connections 0 and 1; connection 0 has
    2 free slots. With backlogged_conn, connection 1's ring is full and one
    arrival waits in its backlog."""
    engine, wire, nic0, nic1 = _rig(trace=True)
    pairs = [RingPair(4), RingPair(4)]
    delivered = []
    for c in (0, 1):
        nic1.attach_connection(c, pairs[c], 0,
                               lambda c, ts, n: delivered.extend([(c, ts)] * n), _noop)
    for i in range(2):
        assert pairs[0].rx.rx_deliver_run([protocol.encode_entry(RpcEntry(0, 0, 90 + i, 0,
                                                                          b""))]) == 1
    if backlogged_conn:
        for i in range(4):
            assert pairs[1].rx.rx_deliver_run([protocol.encode_entry(RpcEntry(0, 1, 80 + i, 0,
                                                                              b""))]) == 1
        nic1.rx_arrival(1, protocol.encode_entry(RpcEntry(0, 1, 84, 0, b"")), 84)
        assert [rpc for _, rpc in nic1.conns[1].rx_backlog] == [84]
    return engine, nic1, pairs, delivered


@pytest.mark.parametrize("backlogged_conn", [False, True])
def test_rx_arrival_batch_lands_like_its_entries_one_by_one(backlogged_conn):
    blocks = [protocol.encode_entry(RpcEntry(0, 0, rpc, 0, bytes([rpc]))) for rpc in range(4)]
    states = []
    for batched in (True, False):
        engine, nic1, pairs, delivered = _rx_twin(backlogged_conn)
        if batched:  # as fetched: the blocks alone
            nic1.rx_arrival_batch(0, iter(blocks))
        else:
            for rpc, block in enumerate(blocks):
                nic1.rx_arrival(0, block, rpc)
        engine.run_until(1e6)
        states.append((
            [pair.rx.snapshot() for pair in pairs],
            [list(ep.rx_backlog) for ep in nic1.conns.values()],
            delivered,
            engine.trace,
            engine.events_processed,
        ))
    batched, one_by_one = states
    assert batched == one_by_one
    backlogs, delivered = batched[1], batched[2]
    assert [rpc for _, rpc in backlogs[0]] == [2, 3]  # two fit, two wait
    assert [c for c, _ in delivered] == [0, 0]


_RX_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("arrival"), st.integers(0, 2), st.just(1)),
        st.tuples(st.just("batch"), st.integers(0, 2), st.integers(2, 5)),
        st.tuples(st.just("pickup"), st.integers(0, 2), st.just(1)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None, database=None)
@given(n_conns=st.integers(2, 3), depth=st.sampled_from([2, 4]), steps=_RX_STEPS)
def test_rx_delivery_is_fifo_exactly_once_and_backlogs_only_behind_full_rings(
        n_conns, depth, steps):
    engine, wire, nic0, nic1 = _rig()
    pairs = [RingPair(depth) for _ in range(n_conns)]
    visible = [0] * n_conns  # entries the NIC has made host-visible, not yet picked up
    sent = [[] for _ in range(n_conns)]
    picked = [[] for _ in range(n_conns)]

    def deliver(c, ts, n):
        visible[c] += n

    def pickup(c):  # as host _ConnHost._pickup: poll, release, notify the NIC
        [block] = pairs[c].rx.rx_poll_run(1)
        picked[c].append(protocol.decode_entry(block).rpc_id)
        pairs[c].rx.rx_release_run(1)
        visible[c] -= 1
        nic1.on_rx_slot_freed(c)

    def settle_and_check():
        engine.run_until(engine.now + 10_000.0)  # arrivals land and are delivered
        for c in range(n_conns):
            backlog = nic1.conns[c].rx_backlog
            in_ring = depth - pairs[c].rx.snapshot()["flags"].count(0)
            # FIFO and exactly once: picked, visible and waiting entries are the
            # sent ones, in order, each once
            assert picked[c] == sent[c][:len(picked[c])]
            assert [rpc for _, rpc in backlog] == sent[c][len(sent[c]) - len(backlog):]
            assert len(picked[c]) + in_ring + len(backlog) == len(sent[c])
            assert in_ring == visible[c]
            if backlog:
                assert in_ring == depth  # a backlog waits only behind a full ring

    for c in range(n_conns):
        nic1.attach_connection(c, pairs[c], 0, deliver, _noop)
    next_rpc = 0
    for op, c, k in steps:
        c %= n_conns
        if op == "pickup":
            if visible[c]:
                pickup(c)
        else:
            blocks = []
            for rpc in range(next_rpc, next_rpc + k):
                blocks.append(protocol.encode_entry(RpcEntry(0, c, rpc, 0, b"")))
                sent[c].append(rpc)
            next_rpc += k
            if op == "arrival":
                wire.send(0, 1, c, blocks[0], next_rpc - 1)
            else:
                wire.send_batch(0, 1, c, blocks, 0.0)
        settle_and_check()
    for c in range(n_conns):
        while visible[c]:
            pickup(c)
            settle_and_check()
    assert picked == sent


# -- the batch in flight ------------------------------------------------------------

_IN_FLIGHT_PROBE = """
from nicsim import protocol
from nicsim.engine import Engine
from nicsim.errors import ContractViolation
from nicsim.interconnect import BusArbiter, CostParams
from nicsim.nic import Nic, NicConfig, Wire
from nicsim.rings import RingPair

P = CostParams()
engine = Engine()
wire = Wire(engine, P)
nic = Nic(0, NicConfig(), P, engine, BusArbiter([0], P.bus_cap_rps), wire)
pair = RingPair(64)
ep = nic.attach_connection(0, pair, 1, lambda *a: None, lambda *a: None)
try:
    ep.forward_event()  # nothing fetched yet
except ContractViolation:
    print("forward-without-batch")
for rpc in range(2):
    block = protocol.encode_entry(protocol.RpcEntry(0, 0, rpc, 0, b""))
    pair.tx.tx_acquire_run(1)
    pair.tx.tx_publish_run([block])
nic._fetch(ep, 1)
try:
    nic._fetch(ep, 1)  # the first batch has not been forwarded
except ContractViolation:
    print("fetch-while-in-flight")
"""


def test_in_flight_batch_guards():
    # the one TX state between events is the fetched batch: a fetch needs
    # none in flight and a forward needs one, checked also under python -O
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", _IN_FLIGHT_PROBE],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["forward-without-batch", "fetch-while-in-flight"], flags


def test_attach_connection_rejects_a_taken_id_or_ring_pair():
    engine, wire, nic0, nic1 = _rig()
    pair = RingPair(64)
    first = nic0.attach_connection(0, pair, 1, _noop, _noop)
    with pytest.raises(DuplicateConnection, match="connection 0 already registered"):
        nic0.attach_connection(0, RingPair(64), 1, _noop, _noop)
    with pytest.raises(DuplicateConnection,
                       match="ring pair of connection 1 already bound to connection 0"):
        nic0.attach_connection(1, pair, 1, _noop, _noop)
    # a refused attach changes nothing
    assert list(nic0.conns) == [0] and nic0.conns[0] is first
    assert nic0.next_conn_id == 1


def test_short_fetch_is_reported_explicitly():
    # a ring that yields fewer entries than the trigger promised is a
    # contract breach, reported even under python -O
    engine, wire, nic0, nic1 = _rig()
    ep = nic0.attach_connection(0, RingPair(64), 1, _noop, _noop)
    ep.rings.tx.nic_fetch = lambda k: []
    with pytest.raises(ContractViolation):
        nic0._fetch(ep, 1)


def test_delivery_without_dirty_slot_is_reported_explicitly():
    engine, wire, nic0, nic1 = _rig()
    server = host_mod.ServerEndpoint(engine, nic1)
    client = host_mod.connect(engine, wire, nic0, nic1, server)
    with pytest.raises(ContractViolation):
        client.conn._pickup()
    with pytest.raises(ContractViolation):
        server.conns[client.connection_id]._pickup()


def test_fsm_cycle_via_echo_smoke():
    # one echo completes through the full datapath, both directions
    r = run(default_scenario(loadgen=LoadGenSpec(mode="closed_loop", window=1),
                             duration_us=100, warmup_us=10))
    assert r.total_completed > 0


# -- soft/hard reconfiguration -----------------------------------------------------


def test_soft_reconfigure_hard_field_rejected():
    engine, wire, nic0, nic1 = _rig()
    with pytest.raises(HardFieldViolation):
        nic0.soft_reconfigure("tx_mode", "mmio")
    with pytest.raises(HardFieldViolation):
        nic0.soft_reconfigure("threading_model", "sync")


def test_soft_reconfigure_invalid_value():
    engine, wire, nic0, nic1 = _rig()
    with pytest.raises(InvalidValue):
        nic0.soft_reconfigure("batch_B", 0)
    with pytest.raises(InvalidValue):
        nic0.soft_reconfigure("bogus_field", 1)


def test_soft_reconfigure_batch_applies():
    engine, wire, nic0, nic1 = _rig()
    nic0.soft_reconfigure("batch_B", 4)
    assert nic0.config.batch_B == 4
    assert nic0.effective_B == 4


def test_soft_reconfigure_mid_run_no_lost_rpcs():
    # throughput rises toward the B=4 envelope and every id comes back
    scenario = default_scenario(tx_mode="coherent", batch=1,
                                loadgen=LoadGenSpec(mode="closed_loop", window=64),
                                duration_us=1000, warmup_us=100)
    from nicsim.sim import _Harness

    harness = _Harness(scenario, collect_trace=False)
    harness.start_load()
    engine = harness.engine

    def bump():
        for nic in harness.nics.values():
            nic.soft_reconfigure("batch_B", 4)

    engine.schedule(500_000, bump)
    engine.run_until(1_000_000)
    done = harness.samples
    early = sum(1 for i, c in done if 300_000 <= i < 500_000) / 200.0
    late = sum(1 for i, c in done if 700_000 <= i < 900_000) / 200.0
    assert late > early * 1.3  # 8.1 -> 12.4 Mrps envelope
    # conservation: completions are consecutive rpc ids per connection
    assert harness._expected_next[harness.clients[0].connection_id] == len(done)


def test_hard_reconfigure_idle_immediate():
    engine, wire, nic0, nic1 = _rig()
    nic0.attach_connection(0, RingPair(64), 1, _noop, _noop)
    nic0.hard_reconfigure(NicConfig(tx_mode="doorbell", batch_B=4))
    assert nic0.config.tx_mode == "doorbell"
    assert nic0.submode == ic.SUBMODE_INVAL


def test_hard_reconfigure_requires_drain():
    engine, wire, nic0, nic1 = _rig()
    ep = nic0.attach_connection(0, RingPair(64), 1, _noop, _noop)
    ep.rings.tx.tx_acquire_run(1)
    ep.rings.tx.tx_publish_run([protocol.encode_entry(RpcEntry(0, 0, 0, 0, b""))])
    with pytest.raises(HardFieldViolation):
        nic0.hard_reconfigure(NicConfig(tx_mode="doorbell"))


def test_drain_and_reconfigure_timeout_on_blocked_consumer():
    engine, wire, nic0, nic1 = _rig()
    ep = nic0.attach_connection(0, RingPair(64), 1, _noop, _noop)
    ep.rings.tx.tx_acquire_run(1)
    ep.rings.tx.tx_publish_run([protocol.encode_entry(RpcEntry(0, 0, 0, 0, b""))])
    # nothing ever fetches: outstanding stays positive
    with pytest.raises(DrainTimeout):
        drain_and_reconfigure(lambda: nic0.outstanding(), engine, nic0,
                              NicConfig(tx_mode="doorbell"), budget_ns=1e6)


# (old mode, new mode, batch size, calls issued on each side of the switch:
# whole batches, since a batch waits until it is full)
@pytest.mark.parametrize("old_mode,new_mode,batch,n", [
    pytest.param("coherent", "mmio", 1, 5, id="mmio"),
    pytest.param("coherent", "doorbell", 1, 5, id="doorbell"),
    ("mmio", "coherent", 1, 5),
    ("doorbell", "coherent", 1, 5),
    ("doorbell", "coherent", 2, 6),
    ("doorbell", "coherent", 4, 8),
    ("coherent", "doorbell", 4, 8),
])
def test_drain_and_reconfigure_keeps_serving_every_call(old_mode, new_mode, batch, n):
    # calls issued after a hard reconfiguration use the same rings, so
    # every one completes, in issue order; so do responses still in flight
    # at the switch. A call forwarded before the switch may still be on the
    # wire, where a faster new mode would overtake it unless the drain
    # waits for it to land.
    engine, wire, nic0, nic1 = _rig(config0=NicConfig(tx_mode=old_mode, batch_B=batch),
                                    trace=True)
    server = host_mod.ServerEndpoint(engine, nic1)
    server.register_handler(host_mod.ECHO_FN, host_mod.echo_handler)
    client = host_mod.connect(engine, wire, nic0, nic1, server)
    for i in range(n):
        client.start_call(host_mod.ECHO_FN, b"before%d" % i)
    drain_and_reconfigure(lambda: nic0.outstanding(), engine, nic0,
                          NicConfig(tx_mode=new_mode, batch_B=batch))
    assert nic0.config.tx_mode == new_mode
    for i in range(n):
        client.start_call(host_mod.ECHO_FN, b"after%d" % i)
    engine.run_until(engine.now + 100_000)
    assert client.completed == 2 * n and not client.pending
    assert [p for _, p, _ in client.poll_completions()] == (
        [b"before%d" % i for i in range(n)] + [b"after%d" % i for i in range(n)])
    client.check_conservation()
    # each request lands one wire hop after nic0 sent it, at the latency of
    # the mode that sent it
    sent = {t.rpc: t.ts_ns for t in engine.trace
            if t.issuer == "nic0" and t.kind == ic.KIND_WIRE_HOP}
    landed = {t.rpc: t.ts_ns for t in engine.trace
              if t.issuer == "nic1" and t.kind == ic.KIND_DMA_WRITE}
    for rpc, mode in enumerate([old_mode] * n + [new_mode] * n):
        hop = ic.tx_channel(P, mode).extra_ns + P.t_wire
        assert landed[rpc] == pytest.approx(sent[rpc] + hop), rpc


def test_batch_bound_follows_the_nic_ring_depth():
    engine = Engine()
    wire = Wire(engine, P)
    arbiter = BusArbiter([0], P.bus_cap_rps)
    with pytest.raises(ConfigInvalid, match=r"batch_B must be in 1\.\.64, got 128"):
        Nic(0, NicConfig(batch_B=128), P, engine, arbiter, wire)
    nic = Nic(0, NicConfig(tx_mode="doorbell", batch_B=128), P, engine, arbiter, wire,
              ring_depth=256)
    nic.soft_reconfigure("batch_B", 256)
    assert nic.effective_B == 256
    with pytest.raises(InvalidValue, match=r"batch_B must be in 1\.\.256, got 512"):
        nic.soft_reconfigure("batch_B", 512)
    nic.hard_reconfigure(NicConfig(tx_mode="mmio", batch_B=128))
    with pytest.raises(ConfigInvalid, match=r"batch_B must be in 1\.\.256, got 512"):
        nic.hard_reconfigure(NicConfig(tx_mode="mmio", batch_B=512))


def test_connect_sizes_rings_to_the_nic_ring_depth():
    # a 128-entry doorbell batch needs rings deeper than the default 64
    engine = Engine()
    wire = Wire(engine, P)
    arbiter = BusArbiter([0, 1], P.bus_cap_rps)
    cfg = NicConfig(tx_mode="doorbell", batch_B=128)
    nic0, nic1 = (Nic(i, cfg, P, engine, arbiter, wire, ring_depth=256) for i in (0, 1))
    server = host_mod.ServerEndpoint(engine, nic1)
    server.register_handler(host_mod.ECHO_FN, host_mod.echo_handler)
    client = host_mod.connect(engine, wire, nic0, nic1, server)
    assert client.conn.rings.tx.depth == 256
    for _ in range(128):
        client.start_call(host_mod.ECHO_FN, b"x")
    engine.run_until(1e6)
    assert client.completed == 128


def test_hard_reconfigure_switch_matches_new_mode_model():
    # rerun comparison: doorbell scenario vs coherent scenario
    lg = LoadGenSpec(mode="closed_loop", window=64)
    r_db = run(default_scenario(tx_mode="doorbell", batch=4, loadgen=lg,
                                duration_us=1000, warmup_us=100))
    r_coh = run(default_scenario(tx_mode="coherent", batch=4, loadgen=lg,
                                 duration_us=1000, warmup_us=100))
    assert r_db.metrics.achieved_mrps == pytest.approx(
        ic.closed_form_rate(P, "doorbell", 4) / 1e6, rel=0.02
    )
    assert r_coh.metrics.achieved_mrps == pytest.approx(
        ic.closed_form_rate(P, "coherent", 4) / 1e6, rel=0.02
    )


# -- controllers -----------------------------------------------------------------


def _controller_nic(**cfg_kw):
    engine, wire, nic0, nic1 = _rig(config0=NicConfig(**cfg_kw))
    nic0.attach_connection(0, RingPair(64), 1, _noop, _noop)
    return engine, nic0


def test_submode_thresholds():
    engine, nic = _controller_nic()
    thr = nic.config.poll_threshold_rps
    nic.adaptive_controllers_step(0.5 * thr)
    assert nic.submode == ic.SUBMODE_INVAL
    nic.adaptive_controllers_step(2 * thr)
    assert nic.submode == ic.SUBMODE_DIRECT
    nic.adaptive_controllers_step(0.5 * thr)
    assert nic.submode == ic.SUBMODE_INVAL


def test_submode_hysteresis_band_holds():
    engine, nic = _controller_nic()
    thr = nic.config.poll_threshold_rps
    nic.adaptive_controllers_step(thr * (1 + HYSTERESIS / 2))  # inside the band
    assert nic.submode == ic.SUBMODE_INVAL
    nic.adaptive_controllers_step(thr * 2)
    nic.adaptive_controllers_step(thr * (1 - HYSTERESIS / 2))  # inside the band
    assert nic.submode == ic.SUBMODE_DIRECT


def test_monotone_ramp_switches_exactly_once():
    engine, nic = _controller_nic()
    thr = nic.config.poll_threshold_rps
    ramp = [thr * f for f in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.1, 1.3, 1.6, 2.0, 3.0, 5.0)]
    for rate in ramp:
        nic.adaptive_controllers_step(rate)
    switches = [row for row in nic.controller_log if row[1] == "poll_mode"]
    assert len(switches) == 1
    assert switches[0][2:] == (ic.SUBMODE_INVAL, ic.SUBMODE_DIRECT)


def test_adaptive_batching_controller():
    engine, nic = _controller_nic(
        adaptive_batching=AdaptiveBatching(enabled=True, low_B=1, high_B=4,
                                           switch_rate_rps=7e6)
    )
    assert nic.effective_B == 1
    nic.adaptive_controllers_step(8e6)
    assert nic.effective_B == 4
    nic.adaptive_controllers_step(6.9e6)  # inside hysteresis band
    assert nic.effective_B == 4
    nic.adaptive_controllers_step(5e6)
    assert nic.effective_B == 1
    batch_rows = [row for row in nic.controller_log if row[1] == "batch"]
    assert [(old, new) for _, _, old, new in batch_rows] == [("1", "4"), ("4", "1")]
    # a batch_B outside the pair switches too: to high_B above the band,
    # to low_B below it
    for batch_B, rate, expected in ((2, 8e6, 4), (8, 5e6, 1)):
        engine, nic = _controller_nic(
            batch_B=batch_B, adaptive_batching=AdaptiveBatching(enabled=True, low_B=1, high_B=4,
                                                                switch_rate_rps=7e6))
        nic.adaptive_controllers_step(rate)
        assert nic.effective_B == expected
        assert [row[2:] for row in nic.controller_log if row[1] == "batch"] == [
            (str(batch_B), str(expected))]
    # a pair with low_B == high_B leaves nothing to switch: no transition is
    # logged and no settling window opens (doorbell, so no submode switch
    # opens one either)
    engine, nic = _controller_nic(
        tx_mode="doorbell", batch_B=4,
        adaptive_batching=AdaptiveBatching(enabled=True, low_B=4, high_B=4, switch_rate_rps=7e6))
    for rate in (8e6, 5e6, 8e6):
        nic.adaptive_controllers_step(rate)
    assert nic.effective_B == 4
    assert [row for row in nic.controller_log if row[1] == "batch"] == []
    assert nic.settle_until == 0.0


def test_controller_csv_format():
    engine, nic = _controller_nic()
    nic.adaptive_controllers_step(5e6)
    csv = nic.controller_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "ts_ns,controller,old,new"
    assert lines[1].endswith("poll_mode,inval_driven,direct_poll")


def test_controller_ticks_once_per_window_in_runs():
    r = run(default_scenario(tx_mode="coherent", batch=1,
                             loadgen=LoadGenSpec(mode="open_loop", rate_mrps=4.0)))
    for nic_id, log in r.controller_logs.items():
        switches = [row for row in log if row[1] == "poll_mode"]
        assert len(switches) == 1  # 4 Mrps crosses the 1 Mrps threshold once
        window_ns = 100 * 1000.0
        assert switches[0][0] == pytest.approx(window_ns)


def test_zero_load_submode_bus_behavior():
    # inval mode: silent when quiescent; direct polling burns budget on misses
    engine, wire, nic0, nic1 = _rig(trace=True)
    nic0.attach_connection(0, RingPair(64), 1, _noop, _noop)
    engine.schedule(50_000, lambda: nic0._set_submode(ic.SUBMODE_DIRECT, engine.now))
    engine.run_until(100_000)
    early = [t for t in engine.trace if t.kind == ic.KIND_POLL_MISS and t.ts_ns < 50_000]
    late = [t for t in engine.trace if t.kind == ic.KIND_POLL_MISS and t.ts_ns >= 50_000]
    assert not early  # invalidation-driven mode is silent when quiescent
    assert len(late) > 500  # ~one empty poll per t_poll


def _direct_poll_misses(params, n_conns, end_ns):
    """CoherentPollMiss timestamps per connection of one idle NIC that polls
    directly from t=0 until end_ns, before its first controller tick."""
    engine = Engine(trace=True)
    arbiter = BusArbiter([0, 1], params.bus_cap_rps)
    wire = Wire(engine, params)
    nic0 = Nic(0, NicConfig(), params, engine, arbiter, wire)
    Nic(1, NicConfig(), params, engine, arbiter, wire)
    for c in range(n_conns):
        nic0.attach_connection(c, RingPair(64), 1, _noop, _noop)
    nic0._set_submode(ic.SUBMODE_DIRECT, 0.0)
    engine.run_until(end_ns)
    misses = {c: [] for c in range(n_conns)}
    for t in engine.trace:
        if t.kind == ic.KIND_POLL_MISS:
            misses[t.conn].append(t.ts_ns)
    return misses


def test_direct_poll_rearm_waits_for_a_late_grant():
    # a 200 ns bus slot is longer than t_poll, so the grant of each empty
    # poll, not t_poll, decides when its connection polls again; replayed
    # by hand: first come, first served grants a slot at a time, and polls
    # due at one timestamp run in the order they were armed
    params = P.replace(bus_cap_rps=5e6)
    end_ns = 20_000.0
    misses = _direct_poll_misses(params, 4, end_ns)
    slot_ns = 1e9 / params.bus_cap_rps
    assert slot_ns > params.t_poll
    free_at = 0.0
    due = [(0.0, c, c) for c in range(4)]  # (ts, arm order, connection)
    armed = 4
    expected = {c: [] for c in range(4)}
    while due:
        ts, _, c = heapq.heappop(due)
        expected[c].append(ts)
        free_at = (free_at if free_at > ts else ts) + slot_ns
        again = ts + params.t_poll
        if free_at > again:
            again = free_at
        if again < end_ns:
            heapq.heappush(due, (again, armed, c))
            armed += 1
    assert misses == expected
    assert all(len(ts) > 10 for ts in misses.values())
    assert all(b - a > params.t_poll for ts in misses.values() for a, b in zip(ts, ts[1:]))


def test_direct_poll_rearm_is_t_poll_on_an_idle_bus():
    # on the default bus four connections' empty polls leave the bus idle
    # before each re-arm, so every connection polls exactly t_poll apart
    end_ns = 20_000.0
    misses = _direct_poll_misses(P, 4, end_ns)
    expected, t = [], 0.0
    while t < end_ns:
        expected.append(t)
        t += P.t_poll
    assert misses == {c: expected for c in range(4)}


@pytest.mark.parametrize("field_name,value", [
    ("batch_B", 2.5), ("batch_B", True), ("batch_B", "4"),
    ("poll_threshold_rps", "fast"), ("rate_window_us", None),
    ("adaptive_batching", 3),
])
def test_nicconfig_rejects_wrong_types(field_name, value):
    with pytest.raises(ConfigInvalid, match=field_name):
        NicConfig(**{field_name: value}).validate()


def test_adaptive_batching_from_dict_rejects_wrong_types():
    with pytest.raises(ConfigInvalid, match="low_B must be an integer"):
        AdaptiveBatching.from_dict({"enabled": True, "low_B": 1.5})
    with pytest.raises(ConfigInvalid, match="enabled must be true or false"):
        AdaptiveBatching.from_dict({"enabled": "yes"})
    with pytest.raises(ConfigInvalid, match="switch_rate_rps must be a number"):
        AdaptiveBatching.from_dict({"switch_rate_rps": [7e6]})
    with pytest.raises(ConfigInvalid, match="must be an object"):
        NicConfig.from_dict({"adaptive_batching": [1, 4]})
