"""Recorded outcomes of scripts/diffcheck.py scenarios that guard an
ordering argument of the engine, and a check of Scenario.validate's closed
loop refusal over diffcheck's draws, same-mode and mixed-mode.

Each digest was recorded with diffcheck's own ``outcome`` (samples, metrics,
controller logs, engine_events, completions and the ordered trace) from the
tree before the change that the scenario guards, so a reordering of
same-timestamp events shows up here, not only in a diffcheck run against
another checkout.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import nicsim.sim as sim

DIFFCHECK = Path(__file__).resolve().parent.parent / "scripts" / "diffcheck.py"


def _diffcheck():
    spec = importlib.util.spec_from_file_location("diffcheck", DIFFCHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A DMA write as long as the publish copy (diffcheck's last draw; this was
# scenario 79 of seed 2 when it was recorded), with a closed-loop window of
# twice the ring depth, so the server's RX rings fill. Each server pickup
# frees a slot, which
# schedules the backlog's next delivery at t + t_dma_write, and then publishes
# its answer at t + t_memcpy: the same timestamp. Consecutive publishes of one
# pickup batch therefore have a delivery scheduled between them: each pickup's
# answer is a copy run of its own, and the delivery fires between two of them.
EQUAL_DMA_AND_COPY = {
    "scenario": {
        "nics": [{"id": i, "config": {"tx_mode": "doorbell", "batch_B": 8}} for i in (0, 1)],
        "connections": [{"client_nic": 0, "server_nic": 1}] * 3,
        "loadgen": {"mode": "closed_loop", "window": 16},
        "duration_us": 250.0,
        "warmup_us": 25.0,
        "seed": 829,
        "ring_depth": 8,
    },
    "cost": {"t_memcpy": 1000.0, "t_dma_write": 1000.0},
}
EQUAL_DMA_AND_COPY_OUTCOME = {
    "metrics": "RunMetrics(offered_mrps=2.986666666666667, achieved_mrps=2.986666666666667, "
               "median_us=16.156382533160738, p99_us=16.156382533160766, saturated=False, "
               "n_samples=624)",
    "samples": "7f1b185888e66fe91ba357ddb657793894a95e04d7d9ce298663f0efd3b9af58",
    "controller_logs": "[(0, []), (1, [])]",
    "engine_events": 6046,
    "total_completed": 720,
    "trace": "67abb0f937128c5476cd5be51af082f2912899a38f7fa7f717d4db7bc5c0783a",
}


def test_backlog_deliveries_on_publish_timestamps_keep_their_order():
    assert _diffcheck().outcome(sim, EQUAL_DMA_AND_COPY) == EQUAL_DMA_AND_COPY_OUTCOME


# Publishes of one end due at one timestamp with nothing scheduled between
# them, each from its own _ConnHost._submit_run call: one _pickup per entry
# (the RX backlog is non-empty, or a delivery is one entry) whose answer or
# next call starts a copy run of one. Each run shares the heap entry of the
# one before it and publishes right behind it. Recorded when such publishes
# were joined into one copy run after the fact (Engine.schedule_run, since
# deleted): after start-up, 4,299 joins in the first scenario and 23 in the
# second. Scenario 153 of diffcheck's seed-0 set: coherent B=14, closed loop,
# slow DMA writes, so RX rings fill and arrivals wait in their backlog.
BACKLOGGED_COHERENT = {
    "scenario": {
        "nics": [{"id": i, "config": {"tx_mode": "coherent", "batch_B": 14}} for i in (0, 1)],
        "connections": [{"client_nic": 0, "server_nic": 1}] * 7,
        "loadgen": {"mode": "closed_loop", "window": 30},
        "duration_us": 400.0,
        "warmup_us": 0.0,
        "seed": 508,
        "ring_depth": 16,
    },
    "cost": {"t_dma_write": 4722.023},
}
BACKLOGGED_COHERENT_OUTCOME = {
    "metrics": "RunMetrics(offered_mrps=15.485, achieved_mrps=15.485, "
               "median_us=12.47378182901896, p99_us=20.49137631448294, saturated=False, "
               "n_samples=6194)",
    "samples": "8bdb366e20ea187169fa4275fc239879df2c7d67bda1ea878c97e30c24c754ce",
    "controller_logs": "[(0, [(100000.0, 'poll_mode', 'inval_driven', 'direct_poll')]), "
                       "(1, [(100000.0, 'poll_mode', 'inval_driven', 'direct_poll')])]",
    "engine_events": 79627,
    "total_completed": 6194,
    "trace": "eb28b94e1609d4180ae42824d1df8a93d33d53117df6d352ea9492eba63bc8e8",
}
# Scenario 38 of the same set: doorbell B=2 under Poisson arrivals, with a DMA
# write as long as the publish copy and a third NIC as the only server.
POISSON_EQUAL_DMA_AND_COPY = {
    "scenario": {
        "nics": [{"id": i, "config": {"tx_mode": "doorbell", "batch_B": 2}} for i in (0, 1, 2)],
        "connections": [{"client_nic": 0, "server_nic": 2}],
        "loadgen": {"mode": "open_loop", "rate_mrps": 3.91, "arrival": "poisson"},
        "duration_us": 150.0,
        "warmup_us": 7.5,
        "seed": 563,
        "ring_depth": 8,
    },
    "cost": {"t_wire": 409.554, "t_memcpy": 1000.0, "t_dma_write": 1000.0},
}
POISSON_EQUAL_DMA_AND_COPY_OUTCOME = {
    "metrics": "RunMetrics(offered_mrps=3.91, achieved_mrps=3.2842105263157895, "
               "median_us=16.274583893116333, p99_us=19.052405537135144, saturated=True, "
               "n_samples=441)",
    "samples": "fce5b17a568e52fcf34572d1f7a13dc758ea6c7d4822b5077f01191bc8a34bde",
    "controller_logs": "[(0, []), (1, []), (2, [])]",
    "engine_events": 5011,
    "total_completed": 468,
    "trace": "12d242891739dd1cf1dd4978c499fbe2c2bf1d30a6ea9a493f4b92d7f81a171d",
}


@pytest.mark.parametrize("spec,expected", [
    pytest.param(BACKLOGGED_COHERENT, BACKLOGGED_COHERENT_OUTCOME, id="backlogged_coherent"),
    pytest.param(POISSON_EQUAL_DMA_AND_COPY, POISSON_EQUAL_DMA_AND_COPY_OUTCOME,
                 id="poisson_equal_dma_and_copy"),
])
def test_copy_runs_of_one_at_one_timestamp_publish_back_to_back(spec, expected):
    assert _diffcheck().outcome(sim, spec) == expected


# A doorbell NIC whose adaptive batching moves from batch_B 6 to 3 at the
# first rate window (diffcheck's seed-0 scenario 4). Inside the settle window
# that follows, the first publish of a publish run fetches a partial batch,
# so one notice for the whole run (Nic.on_tx_publish with n > 1) must
# evaluate the fetch trigger as the run's first publish saw it before its
# last.
SETTLE_WINDOW = {
    "scenario": {
        "nics": [{"id": i, "config": {
            "tx_mode": "doorbell", "batch_B": 6, "rate_window_us": 10.0,
            "adaptive_batching": {"enabled": True, "low_B": 3, "high_B": 3,
                                  "switch_rate_rps": 7e6},
        }} for i in (0, 1)],
        "connections": [{"client_nic": 0, "server_nic": 1}] * 2,
        "loadgen": {"mode": "closed_loop", "window": 14},
        "duration_us": 150.0,
        "warmup_us": 0.0,
        "seed": 27,
        "ring_depth": 8,
    },
    "cost": {},
}
SETTLE_WINDOW_OUTCOME = {
    "metrics": "RunMetrics(offered_mrps=4.933333333333334, achieved_mrps=4.933333333333334, "
               "median_us=5.244189848410056, p99_us=8.475471535105903, saturated=False, "
               "n_samples=740)",
    "samples": "adf7d83466bdfed833a435e3fedbfcce0723947434c92796d24dbccfc38ac554",
    "controller_logs": "[(0, [(10000.0, 'batch', '6', '3')]), (1, [(10000.0, 'batch', '6', '3')])]",
    "engine_events": 6562,
    "total_completed": 740,
    "trace": "602b6d15a9d9c14d597bf924eccddc0bf57522221c762b821f82335092c407f5",
}


def test_publish_run_fetches_a_settle_window_batch_at_its_first_publish():
    assert _diffcheck().outcome(sim, SETTLE_WINDOW) == SETTLE_WINDOW_OUTCOME


# Closed-loop doorbell pickup runs that meet a nearly full client TX ring: the
# client NIC fetches only whole rings (batch_B 8 at ring_depth 8) while the
# server answers in batches of 3, and the window of 16 keeps calls waiting
# for TX slots. Most client pickup runs get fewer TX slots than the calls
# their completions issue (TxRing.tx_acquire_run), and the rest wait in the
# connection's blocked queue behind the calls already there.
SHORT_ACQUIRE = {
    "scenario": {
        "nics": [{"id": 0, "config": {"tx_mode": "doorbell", "batch_B": 8}},
                 {"id": 1, "config": {"tx_mode": "doorbell", "batch_B": 3}}],
        "connections": [{"client_nic": 0, "server_nic": 1}],
        "loadgen": {"mode": "closed_loop", "window": 16},
        "duration_us": 150.0,
        "warmup_us": 15.0,
        "seed": 3,
        "ring_depth": 8,
    },
    "cost": {},
}
SHORT_ACQUIRE_OUTCOME = {
    "metrics": "RunMetrics(offered_mrps=2.1333333333333333, achieved_mrps=2.1333333333333333, "
               "median_us=6.044332943802773, p99_us=10.434573799741148, saturated=False, "
               "n_samples=272)",
    "samples": "29dda4f0b1c9865a143eca39026a72fb94c11af586398646b4d18070f0418695",
    "controller_logs": "[(0, []), (1, [])]",
    "engine_events": 2726,
    "total_completed": 312,
    "trace": "19ba336e3f747756e7e4039802f007cbfc1e69b96bcb2cf801c408650c935cdf",
}


def test_client_pickup_runs_on_a_nearly_full_tx_ring_keep_their_order():
    assert _diffcheck().outcome(sim, SHORT_ACQUIRE) == SHORT_ACQUIRE_OUTCOME


# Runs that cross the end of the ring: batches of 3 on rings of depth 8, so
# fetches, RX deliveries and pickup runs keep landing on slots 6, 7, 0 and
# 7, 0, 1 (the ring's slices wrap), on two connections per NIC. Recorded
# when a run still carried a slot number with each block.
def _wrapping(mode: str) -> dict:
    return {
        "scenario": {
            "nics": [{"id": i, "config": {"tx_mode": mode, "batch_B": 3}} for i in (0, 1)],
            "connections": [{"client_nic": 0, "server_nic": 1}] * 2,
            "loadgen": {"mode": "closed_loop", "window": 6},
            "duration_us": 150.0,
            "warmup_us": 15.0,
            "seed": 5,
            "ring_depth": 8,
        },
        "cost": {},
    }


WRAPPING_OUTCOMES = {
    "doorbell": {
        "metrics": "RunMetrics(offered_mrps=2.488888888888889, achieved_mrps=2.488888888888889, "
                   "median_us=4.775900821284012, p99_us=4.7759008212840275, saturated=False, "
                   "n_samples=324)",
        "samples": "29abd202bedf4db6fc6c55cac9bcc2fb25591ab266e08a28183f40b4752b9ba4",
        "controller_logs": "[(0, []), (1, [])]",
        "engine_events": 3242,
        "total_completed": 372,
        "trace": "d1ca4a2db521f7bf8ae2d20985084ed3165242a38a2d882edc09b4a222883593",
    },
    "coherent": {
        "metrics": "RunMetrics(offered_mrps=5.2444444444444445, achieved_mrps=5.2444444444444445, "
                   "median_us=2.352412053630687, p99_us=2.3524120536306983, saturated=False, "
                   "n_samples=696)",
        "samples": "287d82ea32b68846fc1993f3e0f183e9e5589eda513b31124509348f0f0e62d6",
        "controller_logs": "[(0, [(100000.0, 'poll_mode', 'inval_driven', 'direct_poll')]), "
                           "(1, [(100000.0, 'poll_mode', 'inval_driven', 'direct_poll')])]",
        "engine_events": 11238,
        "total_completed": 780,
        "trace": "16345e984baf23d3bf7ddbea3222e13db5a4c04d6d635adf11f0f8fbd5a12619",
    },
}


@pytest.mark.parametrize("mode", sorted(WRAPPING_OUTCOMES))
def test_runs_that_wrap_the_ring_end_keep_their_outcome(mode):
    assert _diffcheck().outcome(sim, _wrapping(mode)) == WRAPPING_OUTCOMES[mode]


def _mixed(client: dict, server: dict) -> dict:
    """Two connections from NIC 0 (config client) to NIC 1 (config server),
    closed loop with window 16 at ring_depth 16."""
    return {
        "scenario": {
            "nics": [{"id": 0, "config": client}, {"id": 1, "config": server}],
            "connections": [{"client_nic": 0, "server_nic": 1}] * 2,
            "loadgen": {"mode": "closed_loop", "window": 16},
            "duration_us": 150.0,
            "warmup_us": 15.0,
            "seed": 5,
            "ring_depth": 16,
        },
        "cost": {},
    }


# An mmio end facing a doorbell B=8 one, each way round. The doorbell NIC
# forwards 8 entries per fetch, so the mmio end picks up runs of 8 and
# publishes the 8 calls or answers they give as one run
# (_ConnHost._submit_run), which must publish, notify the NIC and fetch as
# 8 synchronous stores would.
MMIO_CLIENT = _mixed({"tx_mode": "mmio"}, {"tx_mode": "doorbell", "batch_B": 8})
MMIO_CLIENT_OUTCOME = {
    "metrics": "RunMetrics(offered_mrps=4.977777777777778, achieved_mrps=4.977777777777778, "
               "median_us=6.282953171342276, p99_us=6.2829531713422915, saturated=False, "
               "n_samples=640)",
    "samples": "bc8fbadb15e61ee7d665d16f17a56624f614d55b5719717a8b03ae7983babdce",
    "controller_logs": "[(0, []), (1, [])]",
    "engine_events": 6142,
    "total_completed": 736,
    "trace": "64654a996567f0222a5c677429dff317d9d913f048f1584372f9912667c49533",
}
MMIO_SERVER = _mixed({"tx_mode": "doorbell", "batch_B": 8}, {"tx_mode": "mmio"})
MMIO_SERVER_OUTCOME = {
    "metrics": "RunMetrics(offered_mrps=5.037037037037037, achieved_mrps=5.037037037037037, "
               "median_us=6.282953171342276, p99_us=6.2829531713422915, saturated=False, "
               "n_samples=648)",
    "samples": "5d84c74728fc543845d8260b1699cc29230a5b6b0b638ecb3dae9831e651d8cd",
    "controller_logs": "[(0, []), (1, [])]",
    "engine_events": 6174,
    "total_completed": 744,
    "trace": "6fa12debacb5b6b952914a5ca080bf0c0b1cccc06eaeda41ae73a36799fb30e7",
}


@pytest.mark.parametrize("spec,expected", [
    pytest.param(MMIO_CLIENT, MMIO_CLIENT_OUTCOME, id="mmio_client"),
    pytest.param(MMIO_SERVER, MMIO_SERVER_OUTCOME, id="mmio_server"),
])
def test_an_mmio_end_publishes_a_pickup_run_as_one_store_each_would(spec, expected):
    assert _diffcheck().outcome(sim, spec) == expected


def _window_below_a_batch(spec):
    """A closed loop whose window is below some NIC's batch_B outside mmio
    mode: the draws whose batches may never fill."""
    sc = spec["scenario"]
    window = sc["loadgen"].get("window")
    return sc["loadgen"]["mode"] == "closed_loop" and any(
        nic["config"]["tx_mode"] != "mmio" and window < nic["config"]["batch_B"]
        for nic in sc["nics"])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_a_closed_loop_is_refused_exactly_when_it_never_completes_a_call(seed, monkeypatch):
    """Both directions over diffcheck's raw draws (before its redraw): every
    refused draw, run with the refusal switched off, completes no call, and
    every accepted one completes at least one. The other draws fill their
    batches."""
    diffcheck = _diffcheck()
    rng = random.Random(seed)
    checked = refused = 0
    for i in range(diffcheck.DEFAULT_COUNT):
        spec = diffcheck.draw(rng)
        if not _window_below_a_batch(spec):
            continue
        stalls = not diffcheck.accepted(spec)
        with monkeypatch.context() as m:
            m.setattr(sim.Scenario, "_stalled_loop_errors", lambda self: [])
            completed = sim.run(diffcheck.build(sim, spec)).total_completed
        assert (completed == 0) == stalls, f"seed {seed} draw {i}: {completed} completed"
        checked += 1
        refused += stalls
    assert (checked, refused) == {0: (29, 14), 1: (47, 34), 2: (32, 29), 3: (36, 28)}[seed]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_a_mixed_closed_loop_is_refused_exactly_when_a_connection_never_completes_a_call(
        seed, monkeypatch):
    """Both directions over diffcheck's raw mixed-mode draws, each NIC with
    its own tx_mode and batch_B: every refused draw, run with the refusal
    switched off, has a connection that completes no call, and in every
    accepted one each connection completes some. A refused draw may still
    complete calls on its other connections: with two servers, one may
    stall while the other serves."""
    diffcheck = _diffcheck()
    rng = diffcheck.mixed_rng(seed)
    checked = refused = served_while_refused = 0
    for i in range(diffcheck.DEFAULT_COUNT):
        spec = diffcheck.draw_mixed(rng)
        if not _window_below_a_batch(spec):
            continue
        stalls = not diffcheck.accepted(spec)
        with monkeypatch.context() as m:
            m.setattr(sim.Scenario, "_stalled_loop_errors", lambda self: [])
            scenario = diffcheck.build(sim, spec)
        harness = sim._Harness(scenario, collect_trace=False)
        harness.start_load()
        harness.engine.run_until(scenario.duration_us * 1e3)
        completed = [client.completed for client in harness.clients]
        assert (min(completed) == 0) == stalls, f"seed {seed} draw {i}: {completed} completed"
        checked += 1
        refused += stalls
        served_while_refused += stalls and sum(completed) > 0
    assert (checked, refused, served_while_refused) == {
        0: (41, 28, 1), 1: (48, 40, 2), 2: (50, 33, 1), 3: (62, 49, 1)}[seed]
