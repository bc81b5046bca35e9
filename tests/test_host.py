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
from nicsim.sim import LoadGenSpec, Scenario, _Harness, default_scenario, make_payload, run

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
    rx = client.conn.rings.rx
    assert rx.rx_deliver_run([block]) == 1
    before = rx.snapshot()
    with pytest.raises(MalformedEntry) as first:
        client.conn._pickup()
    # the entry stays delivered at the poll cursor: the next pickup raises for it again
    assert rx.snapshot() == before and rx.rx_poll_run(1) == [block]
    with pytest.raises(MalformedEntry) as again:
        client.conn._pickup()
    assert str(again.value) == str(first.value)
    assert rx.snapshot() == before and list(client.pending) == [0]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_server_pickup_rejects_a_malformed_block(case):
    engine, client, server, *_ = _stack("async")
    conn = client.connection_id
    block = _malformed_block(protocol.KIND_REQUEST, conn, *MALFORMED[case])
    assert server.conns[conn].rings.rx.rx_deliver_run([block]) == 1
    with pytest.raises(MalformedEntry):
        server.conns[conn]._pickup()
    assert server.served == 0
    assert server.conns[conn].rings.rx.rx_poll_run(2) == [block]  # still delivered


def test_response_for_a_never_issued_rpc_is_a_contract_violation():
    engine, client, *_ = _stack("async")
    client.start_call(ECHO_FN, b"x")
    block = protocol.pack_entry(protocol.KIND_RESPONSE, client.connection_id, 5, ECHO_FN, b"x")
    assert client.conn.rings.rx.rx_deliver_run([block]) == 1
    with pytest.raises(ContractViolation, match="unknown rpc 5"):
        client.conn._pickup()
    assert list(client.pending) == [0] and client.completed == 0


class HandlerFailed(Exception):
    pass


FAILING_FN = 9


def _failing_handler(payload):
    raise HandlerFailed()


def _picked_up_with_a_bad_entry(end, bad_block, bad_at, exc, as_run):
    """Four entries delivered to one end's RX ring, the one at bad_at
    replaced by bad_block, picked up as one delivery run (as_run) or by one
    _pickup callback each. The client has rpcs 0-3 pending, so the server's
    answers to good requests complete; the server's handler for FAILING_FN
    raises. Returns the state when the bad entry has raised, the state when
    the engine has been resumed until it ran to the end, and the message of
    each raise."""
    engine, client, server, *_ = _stack("async")
    server.register_handler(FAILING_FN, _failing_handler)
    conn = client.connection_id
    host = client.conn if end == "client" else server.conns[conn]
    kind = protocol.KIND_RESPONSE if end == "client" else protocol.KIND_REQUEST
    client.pending = {rpc: 0.0 for rpc in range(4)}
    client.issued = 4
    for rpc in range(4):
        block = bad_block if rpc == bad_at else protocol.pack_entry(kind, conn, rpc, ECHO_FN, b"x")
        assert host.rx.rx_deliver_run([block]) == 1
    ts = 100.0
    if as_run:
        engine.schedule_batch(ts, host._pickups_event, host._pickup_runs, range(4))
    else:
        for _ in range(4):
            engine.schedule(ts, host._pickup)

    def state():
        return (client.conn.rings.tx.snapshot(), client.conn.rings.rx.snapshot(),
                server.conns[conn].rings.tx.snapshot(), server.conns[conn].rings.rx.snapshot(),
                [list(run) for run in host._copies], server.served, client.completed,
                sorted(client.pending), engine.events_processed)

    with pytest.raises(exc) as first:
        engine.run_until(ts)
    raised = state()
    # the untaken entries of a run wait at the head of its run queue
    assert [list(run) for run in host._pickup_runs] == (
        [list(range(bad_at + 1, 4))] if as_run and bad_at < 3 else [])
    messages = [str(first.value)]
    while True:  # resume until the engine runs to the end
        try:
            engine.run_until(1e6)
            break
        except exc as again:
            messages.append(str(again))
    return raised, state(), messages


@pytest.mark.parametrize("bad_at", [0, 1, 3])
@pytest.mark.parametrize("end", ["client", "server"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_block_stays_delivered_and_each_resumed_pickup_raises_for_it(case, end,
                                                                                  bad_at):
    kind = protocol.KIND_RESPONSE if end == "client" else protocol.KIND_REQUEST
    bad = _malformed_block(kind, 0, *MALFORMED[case])
    run = _picked_up_with_a_bad_entry(end, bad, bad_at, MalformedEntry, as_run=True)
    assert run == _picked_up_with_a_bad_entry(end, bad, bad_at, MalformedEntry, as_run=False)
    raised, done, messages = run
    assert raised[-1] == bad_at + 1  # events: the pickups up to the bad one
    # the bad entry and the untaken ones after it stay delivered, the bad one
    # at the poll cursor, and each pickup left queued raises for it again
    for rx in ((raised[1], done[1]) if end == "client" else (raised[3], done[3])):
        assert rx["flags"] == b"\x00" * bad_at + b"\x01" * (4 - bad_at) + bytes(60)
        assert rx["poll_cursor"] == bad_at
    assert messages == messages[:1] * (4 - bad_at)
    assert done[5] == (bad_at if end == "server" else 0) and done[6] == bad_at


@pytest.mark.parametrize("bad_at", [0, 1, 3])
def test_a_client_pickup_run_with_an_unknown_rpc_stops_where_per_entry_pickups_do(bad_at):
    bad = protocol.pack_entry(protocol.KIND_RESPONSE, 0, 5, ECHO_FN, b"x")
    run = _picked_up_with_a_bad_entry("client", bad, bad_at, ContractViolation, as_run=True)
    assert run == _picked_up_with_a_bad_entry("client", bad, bad_at, ContractViolation,
                                              as_run=False)
    raised, done, messages = run
    assert raised[1]["flags"][bad_at] == 0  # released before its take raised
    assert done[6] == 3 and done[7] == [bad_at] and len(messages) == 1


@pytest.mark.parametrize("bad_at", [0, 1, 3])
def test_a_server_pickup_run_whose_handler_raises_stops_where_per_entry_pickups_do(bad_at):
    bad = protocol.pack_entry(protocol.KIND_REQUEST, 0, bad_at, FAILING_FN, b"x")
    run = _picked_up_with_a_bad_entry("server", bad, bad_at, HandlerFailed, as_run=True)
    assert run == _picked_up_with_a_bad_entry("server", bad, bad_at, HandlerFailed,
                                              as_run=False)
    raised, done, messages = run
    assert raised[5] == bad_at + 1  # served counts the request whose handler raised
    assert raised[3]["flags"][bad_at] == 0  # released before its handler ran
    assert done[6] == 3 and done[7] == [bad_at] and len(messages) == 1


def _closed_loop_client_run(bad, bad_at, as_run):
    """A closed-loop doorbell client (the harness's completion hook) with
    rpcs 0-3 pending and six later calls in its TX ring of 8, which the NIC
    (batch_B 8) leaves there. Four responses, the one at bad_at replaced by
    bad (None: none), are picked up as one run or by one _pickup each; the
    calls their completions issue find two free TX slots. Returns the state
    when the pickups have run or one has raised."""
    scenario = default_scenario(tx_mode="doorbell", batch=8, ring_depth=8,
                                loadgen=LoadGenSpec(mode="closed_loop", window=8),
                                duration_us=100.0, warmup_us=10.0)
    harness = _Harness(scenario, collect_trace=False)
    engine, client = harness.engine, harness.clients[0]
    host, conn = client.conn, client.connection_id
    client.pending = {rpc: 0.0 for rpc in range(4)}
    client.issued = client.record.next_rpc_id = 4
    for _ in range(6):
        client.start_call(ECHO_FN, make_payload(conn, client.record.next_rpc_id))
    for rpc in range(4):
        block = protocol.pack_entry(protocol.KIND_RESPONSE, conn, rpc, ECHO_FN,
                                    make_payload(conn, rpc))
        assert host.rx.rx_deliver_run([bad if rpc == bad_at else block]) == 1
    ts = 1000.0
    if as_run:
        engine.schedule_batch(ts, host._pickups_event, host._pickup_runs, range(4))
    else:
        for _ in range(4):
            engine.schedule(ts, host._pickup)
    if bad is None:
        engine.run_until(ts)
    else:
        with pytest.raises(ContractViolation):
            engine.run_until(ts)
        # the untaken entries of a run wait at the head of its run queue
        assert [list(run) for run in host._pickup_runs] == (
            [list(range(bad_at + 1, 4))] if as_run and bad_at < 3 else [])
    return (host.tx.snapshot(), host.rx.snapshot(), [list(run) for run in host._copies],
            sorted(client.pending), client.issued, client.completed, list(host._blocked),
            engine.events_processed)


CLIENT_RUN_BAD = {
    "corrupted_echo": lambda at: protocol.pack_entry(protocol.KIND_RESPONSE, 0, at, ECHO_FN,
                                                     b"not the echo"),
    "unknown_rpc": lambda at: protocol.pack_entry(protocol.KIND_RESPONSE, 0, 50, ECHO_FN,
                                                  make_payload(0, 50)),
}


def test_a_closed_loop_client_run_issues_its_calls_as_per_entry_pickups_do():
    run = _closed_loop_client_run(None, None, as_run=True)
    assert run == _closed_loop_client_run(None, None, as_run=False)
    tx, rx, copies, pending, issued, completed, blocked, events = run
    assert pending == list(range(4, 14)) and (issued, completed) == (14, 4)
    # two of the four new calls got the last free slots, one copy run
    assert [[protocol.rpc_id_of(block)[0] for block in run] for run in copies] == [[10, 11]]
    assert tx["acquired"] - tx["published"] == 2
    assert [protocol.rpc_id_of(block)[0] for block in blocked] == [12, 13]


@pytest.mark.parametrize("bad_at", [0, 1, 3])
@pytest.mark.parametrize("case", sorted(CLIENT_RUN_BAD))
def test_a_closed_loop_client_run_that_raises_stops_where_per_entry_pickups_do(case, bad_at):
    bad = CLIENT_RUN_BAD[case](bad_at)
    run = _closed_loop_client_run(bad, bad_at, as_run=True)
    assert run == _closed_loop_client_run(bad, bad_at, as_run=False)
    tx, rx, copies, pending, issued, completed, blocked, events = run
    # the calls issued before the raise are submitted: two slots, then blocked
    assert issued == 10 + bad_at
    assert [len(run) for run in copies] == ([min(bad_at, 2)] if bad_at else [])
    assert len(blocked) == max(bad_at - 2, 0)
    assert completed == bad_at + (case == "corrupted_echo")
    assert events == 6 + bad_at + 1  # the six copies, then the pickups up to the bad one


@pytest.mark.parametrize("case", ["payload_too_large", "failed_check"])
def test_call_sync_puts_the_completion_hook_back_when_the_call_raises(case):
    harness = _Harness(default_scenario(threading_model="sync"), collect_trace=False)
    client = harness.clients[0]
    conn, hook = client.connection_id, client.on_complete
    if case == "payload_too_large":
        with pytest.raises(PayloadTooLarge):
            call_sync(client, ECHO_FN, b"x" * 1000)
    else:
        # the harness hook checks the echo of make_payload, so any other one fails
        with pytest.raises(ContractViolation, match="corrupted echo"):
            call_sync(client, ECHO_FN, b"x")
    assert client.on_complete is hook
    payload = make_payload(conn, client.record.next_rpc_id)
    assert call_sync(client, ECHO_FN, payload) == payload
    assert client.on_complete is hook and len(harness.samples) == 1


def _published_with_a_refused_entry(bad_at, as_run):
    """Four publish copies of the client end ending at one timestamp, the one
    at bad_at a short block that tx_publish_run refuses: as one run, or as four
    runs of one. The client NIC fetches in doorbell batches of 2. Returns the
    state once the refused entry has raised."""
    engine, client, server, nic0, *_ = _stack(
        client_cfg=NicConfig(tx_mode="doorbell", batch_B=2))
    host, conn = client.conn, client.connection_id
    assert host.tx.tx_acquire_run(4) == 4
    blocks = [protocol.pack_entry(protocol.KIND_REQUEST, conn, rpc, ECHO_FN, b"x")
              for rpc in range(4)]
    blocks[bad_at] = blocks[bad_at][:63]
    for run in ([blocks] if as_run else [[block] for block in blocks]):
        engine.schedule_batch(100.0, host._copied_event, host._copies, run)
    with pytest.raises(ContractViolation, match="publish needs 64 bytes, got 63"):
        engine.run_until(100.0)
    return (host.tx.snapshot(), nic0.window_publishes, nic0.conns[conn].in_flight,
            [item for run in host._copies for item in run], engine.events_processed)


@pytest.mark.parametrize("bad_at", [0, 1, 3])
def test_a_publish_run_with_a_refused_entry_stops_where_per_entry_publishes_do(bad_at):
    run = _published_with_a_refused_entry(bad_at, as_run=True)
    assert run == _published_with_a_refused_entry(bad_at, as_run=False)
    tx, publishes, in_flight, untaken, events = run
    assert publishes == tx["published"] == bad_at  # the NIC heard of each published entry
    assert (in_flight is not None) == (bad_at >= 2)  # a batch of 2 was fetched
    assert len(untaken) == 3 - bad_at and events == bad_at + 1


@pytest.mark.parametrize("bad_at", [0, 1, 3])
def test_an_mmio_publish_run_with_a_refused_entry_tells_the_nic_of_the_entries_before_it(bad_at):
    # an mmio run publishes at once: the stores before the refused one are
    # published and noticed, and the first of them starts a fetch
    engine, client, server, nic0, *_ = _stack(client_cfg=NicConfig(tx_mode="mmio"))
    host, conn = client.conn, client.connection_id
    blocks = [protocol.pack_entry(protocol.KIND_REQUEST, conn, rpc, ECHO_FN, b"x")
              for rpc in range(4)]
    blocks[bad_at] = blocks[bad_at][:63]
    with pytest.raises(ContractViolation, match="publish needs 64 bytes, got 63"):
        host._submit_run(blocks)
    assert host.tx.snapshot()["published"] == nic0.window_publishes == bad_at
    assert (nic0.conns[conn].in_flight is not None) == (bad_at > 0)


def _answered_with_a_foreign_request(as_run):
    """Two connections; four requests delivered to the first one's server
    end, the second of them carrying the other connection's id, picked up as
    one run or by one _pickup each and answered until nothing is left."""
    engine, client, server, nic0, nic1, wire = _stack("async")
    other = connect(engine, wire, nic0, nic1, server)
    host = server.conns[client.connection_id]
    for end in (client, other):
        end.pending = {rpc: 0.0 for rpc in range(4)}
    for rpc in range(4):
        conn = other.connection_id if rpc == 1 else client.connection_id
        assert host.rx.rx_deliver_run([protocol.pack_entry(protocol.KIND_REQUEST, conn, rpc,
                                                           ECHO_FN, b"x")]) == 1
    if as_run:
        engine.schedule_batch(100.0, host._pickups_event, host._pickup_runs, range(4))
    else:
        for _ in range(4):
            engine.schedule(100.0, host._pickup)
    engine.run_until(100.0)
    queued = [[list(run) for run in server.conns[c]._copies] for c in (0, 1)]
    engine.run_until(1e6)
    return (queued, [end.conn.rings.rx.snapshot() for end in (client, other)],
            sorted(client.pending), sorted(other.pending), server.served,
            engine.events_processed)


def test_a_server_pickup_run_answers_a_request_on_the_connection_it_names():
    run = _answered_with_a_foreign_request(as_run=True)
    assert run == _answered_with_a_foreign_request(as_run=False)
    assert run[2] == [1] and run[3] == [0, 2, 3]  # rpc 1 was answered on the other one


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
