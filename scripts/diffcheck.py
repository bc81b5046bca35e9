#!/usr/bin/env python3
"""Exactness check for changes that must leave every simulated output as is.

Runs a seeded set of random scenarios under two source trees, this
checkout's ``src/`` and another one (typically ``src/`` of a clean checkout
of the parent commit), each tree in its own subprocess. Per scenario it
compares the latency samples, the reduced metrics, the controller logs,
``engine_events``, the completion count and the ordered transaction trace
(every field of every record), or the error a run ended in.

    python3 scripts/diffcheck.py ../parent/src                 # 300 scenarios, seed 0
    python3 scripts/diffcheck.py ../parent/src --count 50 --seed 7
    python3 scripts/diffcheck.py ../parent/src --seed 0 --seed 1 --seed 2 --seed 3

The scenarios cover the three TX modes, batch sizes 1-16, 1-8 connections,
ring depths 8-64, open loops (Poisson and deterministic) and closed loops,
sync endpoints, adaptive batching, a second server NIC, t_wire/t_memcpy
overrides (some on round values, which line events up on equal timestamps),
slow DMA writes (which fill RX rings) and DMA writes as long as the publish
copy (which put RX-backlog deliveries on the timestamps of publishes).
After the ``--count`` scenarios (240) come a quarter as many (60) in which
each NIC has its own tx_mode and batch_B (``draw_mixed``), such as an mmio
client answered in batches by a doorbell server. They come from an rng of
their own, so the first ``--count`` scenarios of a seed stay as they were.
A draw that this checkout's ``Scenario.validate`` refuses (a closed loop
that can never complete a call) is drawn again, so every scenario runs;
this checkout makes the scenario set and hands both workers the same one.
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


def random_scenario(rng: random.Random, draw_fn=None) -> dict:
    """One scenario in ``Scenario.from_dict`` form plus cost overrides, that
    this checkout's ``Scenario.validate`` accepts, drawn by draw_fn (draw by
    default). A refused draw is drawn again from an rng seeded by that draw,
    so the draws after it stay as they are."""
    draw_fn = draw_fn or draw
    spec = draw_fn(rng)
    while not accepted(spec):
        spec = draw_fn(random.Random(json.dumps(spec, sort_keys=True)))
    return spec


def accepted(spec: dict) -> bool:
    """Whether this checkout's ``Scenario.validate`` accepts the spec."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import nicsim.sim as sim

    try:
        build(sim, spec)
    except sim.ConfigInvalid:
        return False
    return True


def draw(rng: random.Random) -> dict:
    """One scenario in ``Scenario.from_dict`` form plus cost overrides, as
    drawn, refused or not."""
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
    if rng.random() < 0.15:
        # a DMA write as long as the publish copy: a pickup that frees a slot
        # of a full RX ring schedules the backlog's next delivery and then its
        # own publish for one timestamp, so a delivery lies between the
        # publishes of consecutive pickups there
        cost["t_memcpy"] = cost["t_dma_write"] = rng.choice((100.0, 300.0, 1000.0))
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


def draw_mixed(rng: random.Random) -> dict:
    """draw, then each NIC gets its own tx_mode and batch_B. Half of these
    draws pair mmio with batching modes: an mmio client whose doorbell or
    coherent servers answer it in batches, or the reverse, so that an mmio
    end picks up runs of entries and publishes runs of answers or calls."""
    spec = draw(rng)
    sc = spec["scenario"]
    nics, depth = sc["nics"], sc["ring_depth"]
    if rng.random() < 0.5:
        mmio_client = rng.random() < 0.5
        modes = ["mmio" if (nic["id"] == 0) == mmio_client
                 else rng.choice(("doorbell", "coherent")) for nic in nics]
    else:
        modes = [rng.choice(("mmio", "doorbell", "coherent")) for _ in nics]
    for nic, mode in zip(nics, modes):
        nic["config"]["tx_mode"] = mode
        nic["config"]["batch_B"] = rng.randint(1, min(16, depth))
    return spec


def mixed_rng(seed: int) -> random.Random:
    """The rng of a seed's mixed-mode draws, apart from its draw rng."""
    return random.Random(f"mixed {seed}")


def scenarios(seed: int, count: int) -> list[dict]:
    """count draws, then count // 4 draw_mixed draws from their own rng: the
    first count stay what they were before the mixed ones existed."""
    rng, rng_mixed = random.Random(seed), mixed_rng(seed)
    return ([random_scenario(rng) for _ in range(count)]
            + [random_scenario(rng_mixed, draw_mixed) for _ in range(count // 4)])


# -- worker: runs inside one source tree -------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build(sim, spec: dict):
    """The spec's scenario in the tree of sim, at that tree's default cost
    parameters with the spec's overrides."""
    return sim.Scenario.from_dict(spec["scenario"], sim.CostParams().replace(**spec["cost"]))


def outcome(sim, spec: dict) -> dict:
    try:
        result = sim.run(build(sim, spec), collect_trace=True)
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


def worker(src: str, specs_path: str) -> int:
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    import nicsim
    import nicsim.sim as sim

    if not Path(nicsim.__file__).resolve().is_relative_to(src_dir):
        raise SystemExit(f"diffcheck: imported nicsim from {nicsim.__file__}, not from {src_dir}")
    for spec in json.loads(Path(specs_path).read_text()):
        print(json.dumps(outcome(sim, spec)))
    return 0


# -- main process: one worker per tree, then the comparison ----------------------


def start_worker(src: Path, specs_path: str):
    out = tempfile.TemporaryFile(mode="w+")
    proc = subprocess.Popen(
        [sys.executable, __file__, str(src), "--worker", "--specs", specs_path],
        stdout=out, cwd=ROOT)
    return proc, out


def collect(proc, out) -> list[dict]:
    if proc.wait() != 0:
        raise SystemExit(2)
    out.seek(0)
    return [json.loads(line) for line in out]


def compare(other: Path, seed: int, count: int) -> int | None:
    """Differing scenarios of one seed, each one listed; None if a worker stopped early."""
    specs = scenarios(seed, count)
    with tempfile.NamedTemporaryFile("w", suffix=".json") as specs_file:
        json.dump(specs, specs_file)
        specs_file.flush()
        # both trees run at once, one process each
        workers = [start_worker(src, specs_file.name) for src in (ROOT / "src", other)]
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
    print(f"diffcheck: {len(specs)} scenarios (seed {seed}, {count // 4} of them mixed-mode), "
          f"{differing} differ, "
          f"{errors} ended in an error on this tree")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other_src", help="the src/ directory of the tree to compare against")
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT)
    parser.add_argument("--seed", type=int, action="append",
                        help="scenario set; repeat for several (default 0)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--specs", help=argparse.SUPPRESS)  # a worker's scenario file
    args = parser.parse_args(argv)
    seeds = args.seed or [0]
    if args.worker:
        return worker(args.other_src, args.specs)

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
          f"{len(seeds) * (args.count + args.count // 4)} scenarios, {total} differ")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
