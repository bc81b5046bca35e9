"""RPC endpoint tests: connect, sync/async calls, server dispatch."""

import pytest

from nicsim import host as host_mod
from nicsim import protocol
from nicsim.engine import Engine
from nicsim.errors import (
    ContractViolation,
    DuplicateHandler,
    MalformedEntry,
    PayloadTooLarge,
    ResourceExhausted,
    RpcCallError,
    UnknownDestination,
)
from nicsim.host import ECHO_FN, ServerEndpoint, call_sync, connect, echo_handler
from nicsim.interconnect import BusArbiter, CostParams
from nicsim.nic import Nic, NicConfig, Wire
from nicsim.sim import LoadGenSpec, Scenario, _Harness, default_scenario, run

P = CostParams()


def _stack(threading_model="async", client_cfg=None):
    engine = Engine()
    arbiter = BusArbiter([0, 1], P.bus_cap_rps)
    wire = Wire(engine, P)
    cfg = client_cfg or NicConfig(threading_model=threading_model)
    nic0 = Nic(0, cfg, P, engine, arbiter, wire)
    nic1 = Nic(1, NicConfig(threading_model=threading_model), P, engine, arbiter, wire)
    server = ServerEndpoint(engine, nic1)
    server.register_handler(ECHO_FN, echo_handler)
    client = connect(engine, wire, nic0, nic1, server, threading_model=threading_model)
    return engine, client, server, nic0, nic1, wire


def test_connect_then_echo_smoke():
    engine, client, *_ = _stack("sync")
    assert call_sync(client, ECHO_FN, b"abcd") == b"abcd"


def test_sync_rtt_idle_system():
    engine, client, *_ = _stack("sync")
    call_sync(client, ECHO_FN, b"ping")
    rtt_us = engine.now / 1000.0
    assert 1.9 <= rtt_us <= 2.3  # best-mode round trip on an idle stack


def test_sync_call_after_long_virtual_time():
    # the time limit runs from the current virtual time, not from zero
    engine, client, *_ = _stack("sync")
    engine.run_until(1.5e9)
    assert call_sync(client, ECHO_FN, b"late") == b"late"
    assert not client.pending


def test_sync_timeout_abandons_the_call():
    engine, client, *_ = _stack("sync")
    with pytest.raises(ContractViolation):
        call_sync(client, ECHO_FN, b"slow", limit_ns=100.0)  # an RTT is ~2 us
    assert not client.pending
    assert client.outstanding() == 1  # the abandoned request is still in flight
    # the endpoint takes the next call; the stale response is dropped on arrival
    assert call_sync(client, ECHO_FN, b"next") == b"next"
    engine.run_until(engine.now + 10_000.0)
    assert client.outstanding() == 0


def test_hundred_connections_distinct_ring_pairs():
    engine = Engine()
    arbiter = BusArbiter([0, 1], P.bus_cap_rps)
    wire = Wire(engine, P)
    nic0 = Nic(0, NicConfig(), P, engine, arbiter, wire)
    nic1 = Nic(1, NicConfig(), P, engine, arbiter, wire)
    server = ServerEndpoint(engine, nic1)
    server.register_handler(ECHO_FN, echo_handler)
    clients = [connect(engine, wire, nic0, nic1, server) for _ in range(100)]
    ring_ids = {id(c.conn.rings) for c in clients}
    assert len(ring_ids) == 100
    assert len(nic0.conns) == 100
    assert sorted(c.connection_id for c in clients) == list(range(100))


def test_two_client_nics_into_one_server_nic():
    # connection ids must be new on the shared server NIC, not only per client
    scenario = Scenario.from_dict({
        "nics": [{"id": i} for i in range(3)],
        "connections": [{"client_nic": 0, "server_nic": 2}, {"client_nic": 1, "server_nic": 2}],
        "loadgen": {"mode": "closed_loop", "window": 4},
        "duration_us": 100, "warmup_us": 10,
    })
    harness = _Harness(scenario, collect_trace=False)
    assert [c.connection_id for c in harness.clients] == [0, 1]
    assert [len(harness.nics[i].conns) for i in range(3)] == [1, 1, 2]
    result = run(scenario)  # ends with check_conservation on every connection
    assert result.total_completed > 0


def test_connect_unattached_nic_rejected():
    engine = Engine()
    arbiter = BusArbiter([0, 1, 7], P.bus_cap_rps)
    wire = Wire(engine, P)
    nic0 = Nic(0, NicConfig(), P, engine, arbiter, wire)
    nic1 = Nic(1, NicConfig(), P, engine, arbiter, wire)

    class Unattached:
        nic_id = 7

    server = ServerEndpoint(engine, nic1)
    with pytest.raises(UnknownDestination):
        connect(engine, wire, nic0, Unattached(), server)


def test_payload_too_large_rejected():
    engine, client, *_ = _stack("sync")
    with pytest.raises(PayloadTooLarge):
        client.start_call(ECHO_FN, b"x" * 49)


def test_unknown_function_id_yields_error_response():
    engine, client, *_ = _stack("sync")
    with pytest.raises(RpcCallError, match="EBADFN"):
        call_sync(client, 42, b"hi")


def test_oversized_handler_reply_yields_error_response():
    engine, client, server, *_ = _stack("sync")
    server.register_handler(7, lambda payload: payload * 20)
    with pytest.raises(RpcCallError, match="E2BIG"):
        call_sync(client, 7, b"grow")


def test_duplicate_handler_rejected():
    engine, client, server, *_ = _stack()
    with pytest.raises(DuplicateHandler):
        server.register_handler(ECHO_FN, echo_handler)


def test_async_issue_then_poll_completions():
    engine, client, *_ = _stack("async")
    ids = [client.start_call(ECHO_FN, bytes([i]) * 4) for i in range(10)]
    engine.run_until(1e6)
    done = client.poll_completions()
    assert [rpc for rpc, _, _ in done] == ids
    assert [p for _, p, _ in done] == [bytes([i]) * 4 for i in range(10)]


def test_sync_single_outstanding_enforced():
    engine, client, *_ = _stack("sync")
    client.start_call(ECHO_FN, b"a")
    with pytest.raises(ContractViolation):
        client.start_call(ECHO_FN, b"b")


def test_unknown_completion_rejected_loudly():
    engine, client, *_ = _stack("async")
    client.start_call(ECHO_FN, b"a")
    client.pending.clear()  # simulate a pipeline bug
    with pytest.raises(ContractViolation, match="unknown rpc"):
        engine.run_until(1e6)


def test_per_connection_fifo_mixed_connections():
    # multiple interleaved connections: each sees its own order preserved
    scenario = default_scenario(
        loadgen=LoadGenSpec(mode="closed_loop", window=16),
        n_connections=4, duration_us=500, warmup_us=50,
    )
    result = run(scenario)  # the harness asserts per-connection FIFO itself
    assert result.total_completed > 1000


def test_exactly_once_bulk():
    scenario = default_scenario(
        loadgen=LoadGenSpec(mode="open_loop", rate_mrps=8.0),
        duration_us=1500, warmup_us=150,
    )
    result = run(scenario)
    issues = [i for i, _ in result.samples]
    assert len(issues) == len(set(issues))  # one completion per issue
    assert result.total_completed >= 10_000


def test_outstanding_counts_a_blocked_call_once():
    engine = Engine()
    arbiter = BusArbiter([0, 1], P.bus_cap_rps)
    wire = Wire(engine, P)
    nic0 = Nic(0, NicConfig(), P, engine, arbiter, wire, ring_depth=4)
    nic1 = Nic(1, NicConfig(), P, engine, arbiter, wire, ring_depth=4)
    server = ServerEndpoint(engine, nic1)
    server.register_handler(ECHO_FN, echo_handler)
    client = connect(engine, wire, nic0, nic1, server)
    for _ in range(10):
        client.start_call(ECHO_FN, b"x")
    assert len(client.conn._blocked) == 6  # the ring holds 4
    assert client.outstanding() == 10
    client.check_conservation()
    engine.run_until(1e6)
    assert client.outstanding() == 0 and client.completed == 10
    client.check_conservation()


def test_conservation_holds_after_an_abandoned_call():
    engine, client, *_ = _stack("sync")
    with pytest.raises(ContractViolation):
        call_sync(client, ECHO_FN, b"slow", limit_ns=100.0)
    client.check_conservation()
    call_sync(client, ECHO_FN, b"next")
    engine.run_until(engine.now + 10_000.0)  # the late response is dropped
    assert client.issued == 2 and client.completed == 1
    client.check_conservation()
    client.completed += 1
    with pytest.raises(ContractViolation, match="2 calls issued"):
        client.check_conservation()


# -- checks of the packed-entry pickup path ----------------------------------------

# (byte offset, value) that makes an otherwise valid block malformed
MALFORMED = {"kind_byte_7": (1, 7), "payload_len_49": (10, 49)}


def _malformed_block(kind, conn, offset, value):
    block = bytearray(protocol.pack_entry(kind, conn, 0, ECHO_FN, b"x"))
    block[offset] = value
    return bytes(block)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_client_pickup_rejects_a_malformed_block(case):
    engine, client, *_ = _stack("async")
    client.start_call(ECHO_FN, b"x")  # rpc 0 is pending, so only the block is wrong
    block = _malformed_block(protocol.KIND_RESPONSE, client.connection_id, *MALFORMED[case])
    assert client.conn.rings.rx.rx_deliver(block)
    with pytest.raises(MalformedEntry):
        client.conn._pickup()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_server_pickup_rejects_a_malformed_block(case):
    engine, client, server, *_ = _stack("async")
    conn = client.connection_id
    block = _malformed_block(protocol.KIND_REQUEST, conn, *MALFORMED[case])
    assert server.conns[conn].rings.rx.rx_deliver(block)
    with pytest.raises(MalformedEntry):
        server.conns[conn]._pickup()
    assert server.served == 0


def test_response_for_a_never_issued_rpc_is_a_contract_violation():
    engine, client, *_ = _stack("async")
    client.start_call(ECHO_FN, b"x")
    block = protocol.pack_entry(protocol.KIND_RESPONSE, client.connection_id, 5, ECHO_FN, b"x")
    assert client.conn.rings.rx.rx_deliver(block)
    with pytest.raises(ContractViolation, match="unknown rpc 5"):
        client.conn._pickup()
    assert list(client.pending) == [0] and client.completed == 0


def test_late_response_to_an_abandoned_sync_call_is_dropped_and_conserved():
    engine, client, *_ = _stack("sync")
    rpc = client.start_call(ECHO_FN, b"x")
    client.abandon(rpc)
    seen = []
    client.on_complete = lambda *args: seen.append(args)
    engine.run_until(1e6)  # the response arrives after the call was given up
    assert seen == [] and not client.abandoned
    assert client.issued == 1 and client.completed == 0 and client.abandoned_total == 1
    assert client.outstanding() == 0
    client.check_conservation()


def test_simulated_datapath_builds_no_rpc_entry(monkeypatch):
    built = []
    init = protocol.RpcEntry.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(protocol.RpcEntry, "__init__", counting_init)
    protocol.decode_entry(protocol.pack_entry(protocol.KIND_REQUEST, 0, 0, ECHO_FN, b""))
    assert len(built) == 1  # the counter sees every construction
    built.clear()
    result = run(default_scenario(tx_mode="coherent", batch=4,
                                  loadgen=LoadGenSpec(mode="closed_loop", window=16),
                                  duration_us=200, warmup_us=20))
    assert result.total_completed > 1000
    assert built == []


def test_ring_allocation_failure_names_the_depth(monkeypatch):
    engine = Engine()
    arbiter = BusArbiter([0, 1], P.bus_cap_rps)
    wire = Wire(engine, P)
    nic0 = Nic(0, NicConfig(), P, engine, arbiter, wire, ring_depth=128)
    nic1 = Nic(1, NicConfig(), P, engine, arbiter, wire, ring_depth=128)
    server = ServerEndpoint(engine, nic1)

    def no_memory(depth):
        raise MemoryError()

    monkeypatch.setattr(host_mod, "RingPair", no_memory)
    with pytest.raises(ResourceExhausted, match="ring_depth 128"):
        connect(engine, wire, nic0, nic1, server)
