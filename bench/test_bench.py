"""Checks of the benchmark itself, on all three workloads at one seed.

Tracing must leave the model untouched, the traced spans must account for
the traced wall time, and the per-layer counts must have the shapes the
workloads were chosen for. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import time

import pytest

import run
import tracer as tracer_mod

SEED = 1
# Every wrapped call runs inside the root span, so self times sum to the
# traced wall time up to the wrapper's own entry and exit around the root.
SELF_TIME_TOLERANCE = 0.02
COUNT_METRICS = ("engine.events", "rings.calls", "host.calls", "protocol.encode_calls",
                 "protocol.decode_calls", "interconnect.arbiter_requests",
                 "interconnect.arbiter_units", "nic.controller_switches")


@pytest.fixture(scope="module")
def nicsim():
    return run.load_nicsim()


def traced_run(nicsim, scenario):
    tracer = tracer_mod.Tracer()
    with tracer.installed(nicsim):
        root = tracer.wrap("sim/run", nicsim.sim.run)
        t0 = time.perf_counter()
        result = root(scenario, collect_trace=True)
        wall = time.perf_counter() - t0
    return tracer, result, wall


@pytest.fixture(scope="module")
def runs(nicsim):
    out = {}
    for name, w in run.WORKLOADS.items():
        scenario = run.build_scenario(nicsim, w, SEED)
        t0 = time.perf_counter()
        untraced = nicsim.sim.run(scenario)
        untraced_wall = time.perf_counter() - t0
        tracer, traced, wall = traced_run(nicsim, scenario)
        layers = tracer_mod.layer_metrics(tracer, traced, scenario, wall, untraced_wall)
        out[name] = dict(scenario=scenario, untraced=untraced, traced=traced,
                         tracer=tracer, wall=wall, layers=layers)
    return out


def test_tracing_leaves_model_outputs_and_counts_unchanged(runs):
    with open(run.EXPECTED_PATH) as fh:
        expected = json.load(fh)["workloads"]
    for name, r in runs.items():
        untraced, traced = r["untraced"], r["traced"]
        assert run.digest(traced) == run.digest(untraced), name
        assert run.digest(untraced) == expected[name][run.digest_key(run.WORKLOADS[name], SEED)]
        assert traced.engine_events == untraced.engine_events, name
        assert traced.total_completed == untraced.total_completed, name
        assert traced.controller_logs == untraced.controller_logs, name


def test_tracer_puts_the_originals_back(nicsim):
    engine, rings = nicsim.engine.Engine, nicsim.rings.TxRing
    before = (vars(engine)["schedule"], vars(rings)["nic_fetch"], nicsim.protocol.encode_entry)
    with tracer_mod.Tracer().installed(nicsim):
        assert vars(engine)["schedule"] is not before[0]
    assert (vars(engine)["schedule"], vars(rings)["nic_fetch"], nicsim.protocol.encode_entry) == before


def test_count_metrics_repeat_exactly(nicsim, runs):
    r = runs["coh_b1_poisson_4mrps"]
    tracer, result, wall = traced_run(nicsim, r["scenario"])
    again = tracer_mod.layer_metrics(tracer, result, r["scenario"], wall, wall)
    for name in COUNT_METRICS + tuple(f"interconnect.txn_{k}_per_rpc" for k in tracer_mod.TXN_KINDS):
        assert again[name] == r["layers"][name], name


def test_self_times_add_up_to_the_traced_wall_time(runs):
    for name, r in runs.items():
        total, named = tracer_mod.attribution(r["tracer"], r["wall"])
        assert abs(total - 1) <= SELF_TIME_TOLERANCE, (name, total)
        assert named >= 0.9, (name, named)
        fracs = sum(r["layers"][f"{layer}.self_frac"] for layer in tracer_mod.LAYERS)
        assert abs(fracs - 1) <= SELF_TIME_TOLERANCE, (name, fracs)


def test_predicted_shapes_hold(runs):
    layers = {name: r["layers"] for name, r in runs.items()}
    polls = {n: m["interconnect.txn_CoherentPollMiss_per_rpc"] for n, m in layers.items()}
    assert polls["coh_b1_poisson_4mrps"] > 1
    assert polls["coh_b4_closed_8conn"] == polls["doorbell_b32_closed"] == 0

    busy = {n: m["interconnect.bus_busy_frac"] for n, m in layers.items()}
    assert busy["coh_b4_closed_8conn"] == pytest.approx(1, abs=0.02)
    assert busy["coh_b1_poisson_4mrps"] < 0.5 and busy["doorbell_b32_closed"] < 0.5

    db = layers["doorbell_b32_closed"]
    assert db["interconnect.arbiter_units"] == 33 * db["interconnect.arbiter_requests"]
    assert db["rings.entries_per_fetch"] == 32
