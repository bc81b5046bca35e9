#!/usr/bin/env python3
"""Exactness check for changes that must leave every simulated output as is.

Runs a seeded set of random scenarios under two source trees, this
checkout's ``src/`` and another one (typically ``src/`` of a clean checkout
of the parent commit), each tree in its own subprocess. Per scenario it
compares the latency samples, the reduced metrics, the controller logs,
``engine_events``, the completion count and the ordered transaction trace
(every field of every record), or the error a run ended in.

    python3 scripts/diffcheck.py ../parent/src                 # 240 scenarios, seed 0
    python3 scripts/diffcheck.py ../parent/src --count 50 --seed 7
    python3 scripts/diffcheck.py ../parent/src --seed 0 --seed 1 --seed 2 --seed 3

The scenarios cover the three TX modes, batch sizes 1-16, 1-8 connections,
ring depths 8-64, open loops (Poisson and deterministic) and closed loops,
sync endpoints, adaptive batching, a second server NIC, t_wire/t_memcpy
overrides (some on round values, which line events up on equal timestamps)
and slow DMA writes (which fill RX rings).
``--seed`` may be given more than once: each seed is its own scenario set,
checked in turn with one summary line, and a total line follows.
Exit status: 0 when every scenario matches, 1 on any difference at any seed
(each one is listed), 2 when a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_COUNT = 240


def random_scenario(rng: random.Random) -> dict:
    """One scenario in ``Scenario.from_dict`` form plus cost overrides."""
    depth = rng.choice((8, 16, 32, 64))
    mode = rng.choice(("mmio", "doorbell", "coherent"))
    config = {"tx_mode": mode, "batch_B": rng.randint(1, min(16, depth))}
    if rng.random() < 0.3:
        config["poll_threshold_rps"] = rng.choice((0.5e6, 2e6, 5e6))
    if rng.random() < 0.25:
        low = rng.randint(1, 4)
        config["adaptive_batching"] = {
            "enabled": True, "low_B": low, "high_B": rng.randint(low, min(16, depth)),
            "switch_rate_rps": rng.choice((2e6, 4e6, 7e6)),
        }
        config["rate_window_us"] = rng.choice((10.0, 20.0, 50.0))
    if rng.random() < 0.15:
        config["threading_model"] = "sync"
        loadgen = {"mode": "closed_loop", "window": 1}
    elif rng.random() < 0.5:
        loadgen = {"mode": "closed_loop", "window": rng.randint(1, 2 * depth)}
    else:
        loadgen = {"mode": "open_loop", "rate_mrps": round(rng.uniform(0.5, 14.0), 2),
                   "arrival": rng.choice(("deterministic", "poisson"))}
    # a third NIC is a second server, never a second client: the set stays the
    # same for trees whose connect() takes ids from the client NIC only
    n_nics = 3 if rng.random() < 0.2 else 2
    connections = [{"client_nic": 0, "server_nic": rng.randrange(1, n_nics)}
                   for _ in range(rng.randint(1, 8))]
    duration = float(rng.choice((150, 250, 400)))
    cost = {}
    if rng.random() < 0.4:
        cost["t_wire"] = rng.choice((100.0, 200.0, 300.0, round(rng.uniform(20, 600), 3)))
    if rng.random() < 0.4:
        cost["t_memcpy"] = rng.choice((50.0, 100.0, 150.0, round(rng.uniform(10, 300), 3)))
    if rng.random() < 0.5:
        # a slow DMA write holds RX slots longer without slowing publishes, so
        # RX rings fill and arrivals wait in their connection's backlog
        cost["t_dma_write"] = rng.choice((1000.0, 3000.0, round(rng.uniform(500, 6000), 3)))
    return {
        "scenario": {
            "nics": [{"id": i, "config": dict(config)} for i in range(n_nics)],
            "connections": connections,
            "loadgen": loadgen,
            "duration_us": duration,
            "warmup_us": rng.choice((0.0, duration / 20, duration / 10)),
            "seed": rng.randrange(1000),
            "ring_depth": depth,
        },
        "cost": cost,
    }


def scenarios(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    return [random_scenario(rng) for _ in range(count)]


# -- worker: runs inside one source tree -------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(sim, spec: dict) -> dict:
    try:
        scenario = sim.Scenario.from_dict(spec["scenario"])  # the tree's default params
        scenario.cost_params = scenario.cost_params.replace(**spec["cost"])
        result = sim.run(scenario, collect_trace=True)
    except Exception as exc:  # a crash is an outcome too; both trees must agree on it
        return {"error": f"{type(exc).__name__}: {exc}"}
    samples = array("d", (t for sample in result.samples for t in sample))
    trace = "\n".join(
        repr((t.ts_ns, t.issuer, t.kind, t.count, t.conn, t.rpc, t.critical))
        for t in result.trace)
    return {
        "metrics": repr(result.metrics),
        "samples": _sha(samples.tobytes()),
        "controller_logs": repr(sorted(result.controller_logs.items())),
        "engine_events": result.engine_events,
        "total_completed": result.total_completed,
        "trace": _sha(trace.encode()),
    }


def worker(src: str, seed: int, count: int) -> int:
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    import nicsim
    import nicsim.sim as sim

    if not Path(nicsim.__file__).resolve().is_relative_to(src_dir):
        raise SystemExit(f"diffcheck: imported nicsim from {nicsim.__file__}, not from {src_dir}")
    for spec in scenarios(seed, count):
        print(json.dumps(outcome(sim, spec)))
    return 0


# -- main process: one worker per tree, then the comparison ----------------------


def start_worker(src: Path, seed: int, count: int):
    out = tempfile.TemporaryFile(mode="w+")
    proc = subprocess.Popen(
        [sys.executable, __file__, str(src), "--worker", "--seed", str(seed),
         "--count", str(count)], stdout=out, cwd=ROOT)
    return proc, out


def collect(proc, out) -> list[dict]:
    if proc.wait() != 0:
        raise SystemExit(2)
    out.seek(0)
    return [json.loads(line) for line in out]


def compare(other: Path, seed: int, count: int) -> int | None:
    """Differing scenarios of one seed, each one listed; None if a worker stopped early."""
    specs = scenarios(seed, count)
    # both trees run at once, one process each
    workers = [start_worker(src, seed, count) for src in (ROOT / "src", other)]
    ours, theirs = (collect(*w) for w in workers)
    if len(ours) != len(specs) or len(theirs) != len(specs):
        return None

    differing = 0
    errors = 0
    for i, (spec, a, b) in enumerate(zip(specs, ours, theirs)):
        errors += "error" in a
        keys = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
        if keys:
            differing += 1
            print(f"scenario {i}: {', '.join(keys)} differ")
            print(f"  {json.dumps(spec, sort_keys=True)}")
            for k in keys:
                print(f"  {k}: this tree {a.get(k)!r}, other tree {b.get(k)!r}")
    print(f"diffcheck: {len(specs)} scenarios (seed {seed}), {differing} differ, "
          f"{errors} ended in an error on this tree")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other_src", help="the src/ directory of the tree to compare against")
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT)
    parser.add_argument("--seed", type=int, action="append",
                        help="scenario set; repeat for several (default 0)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = args.seed or [0]
    if args.worker:
        return worker(args.other_src, seeds[0], args.count)

    other = Path(args.other_src).resolve()
    if not (other / "nicsim" / "__init__.py").is_file():
        parser.error(f"no nicsim package under {other}")
    total = 0
    for seed in seeds:
        differing = compare(other, seed, args.count)
        if differing is None:
            print("diffcheck: a worker stopped early", file=sys.stderr)
            return 2
        total += differing
    print(f"diffcheck: total over seeds {', '.join(map(str, seeds))}: "
          f"{len(seeds) * args.count} scenarios, {total} differ")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
