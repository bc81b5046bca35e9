#!/usr/bin/env python3
"""nicsim benchmark: simulator speed, modeled results and per-layer cost.

Run from the repository root:

    python3 bench/run.py --workload coh_b1_poisson_4mrps --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --golden    # hash the five CLI CSVs, compare with expected.json
    python3 bench/run.py --record    # re-record expected.json after an intended model change

A workload run imports nicsim from ``src/`` of the same checkout, times
``sim.run`` repeatedly for ``--seconds`` and checks every run against the
digest recorded in ``bench/expected.json``. A fixed reference loop
(reference.py), timed around every timed run, gives the simulator's speed in
reference seconds. ``--trace 1`` adds one traced
run (see tracer.py) for the per-layer metrics. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; metric names and units come from BENCHMARK.json. README.md
describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"
SPEC_PATH = ROOT / "BENCHMARK.json"

SEED_SPACE = 64  # --seed is reduced modulo this; expected.json has a digest for each
SETUP_PROBES = 7
MIN_TIMED_RUNS = 3
REF_EVENTS = 200_000  # reference events per timing, about 0.3 s on the baseline machine
CRITERION_2_MEDIAN_US = 1.9  # centre of the 1.8-2.0 us acceptance band at 4 Mrps
GOLDEN_SUBCOMMANDS = ("bars", "sweep", "scale", "rawbus", "compare")


@dataclass(frozen=True)
class Workload:
    name: str
    tx_mode: str
    batch: int
    loadgen: dict
    reference_metric: str  # the headline modeled number model_err_pct compares
    n_connections: int = 1
    ring_depth: int = 64
    duration_us: float = 2000.0
    warmup_us: float = 200.0

    @property
    def seeded(self) -> bool:
        """Only Poisson arrivals draw from the seed; closed loops ignore it."""
        return self.loadgen.get("arrival") == "poisson"


# Why each workload: README.md. The 8-connection run is shortened to 500 us
# so that one run costs about as much host time as the other two.
WORKLOADS = {w.name: w for w in (
    Workload("coh_b1_poisson_4mrps", "coherent", 1,
             {"mode": "open_loop", "rate_mrps": 4.0, "arrival": "poisson"}, "median_us"),
    Workload("coh_b4_closed_8conn", "coherent", 4,
             {"mode": "closed_loop", "window": 64}, "achieved_mrps",
             n_connections=8, duration_us=500.0, warmup_us=50.0),
    Workload("doorbell_b32_closed", "doorbell", 32,
             {"mode": "closed_loop", "window": 192}, "achieved_mrps", ring_depth=512),
)}


# -- program under test ----------------------------------------------------------


def load_nicsim():
    """Import nicsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "nicsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no nicsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nicsim
    import nicsim.host
    import nicsim.sim

    if not Path(nicsim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported nicsim from {nicsim.__file__}, not from {SRC}")
    return nicsim


def build_scenario(nicsim, w: Workload, seed: int):
    sim = nicsim.sim
    return sim.default_scenario(
        tx_mode=w.tx_mode, batch=w.batch, loadgen=sim.LoadGenSpec(**w.loadgen),
        n_connections=w.n_connections, duration_us=w.duration_us, warmup_us=w.warmup_us,
        seed=seed % SEED_SPACE, ring_depth=w.ring_depth)


def reference_value(nicsim, w: Workload, scenario) -> float:
    if w.name == "coh_b1_poisson_4mrps":
        return CRITERION_2_MEDIAN_US
    if w.name == "coh_b4_closed_8conn":
        return scenario.cost_params.bus_cap_rps / 2 / 1e6  # two fetches per RPC
    # doorbell B=32 is a calibration fit point: this measures agreement with the fit
    from importlib import resources

    with resources.files("nicsim.data").joinpath("calibration_points.json").open() as fh:
        points = json.load(fh)
    return next(p["mrps"] for p in points if (p["mode"], p["B"]) == (w.tx_mode, w.batch))


def digest(result) -> str:
    """sha256 of the reduced metrics row plus every latency sample."""
    m = result.metrics
    h = hashlib.sha256(f"{m.csv_row()},{m.n_samples},{result.total_completed}\n".encode())
    flat = array("d", (t for sample in result.samples for t in sample))
    if sys.byteorder == "big":
        flat.byteswap()
    h.update(flat.tobytes())
    return h.hexdigest()


def digest_key(w: Workload, seed: int) -> str:
    return str(seed % SEED_SPACE) if w.seeded else "any"


class IssueCounter:
    """Counts ClientEndpoint.start_call from outside, for the conservation
    check issued = completed + still in flight."""

    def __init__(self, nicsim):
        self._cls = nicsim.host.ClientEndpoint
        self.issued = 0
        self.clients = []

    def __enter__(self):
        counter, original = self, self._cls.start_call

        def start_call(client, *args, **kwargs):
            counter.issued += 1
            if client not in counter.clients:
                counter.clients.append(client)
            return original(client, *args, **kwargs)

        self._original = original
        self._cls.start_call = start_call
        return self

    def __exit__(self, *exc):
        self._cls.start_call = self._original

    def in_flight(self) -> int:
        return sum(len(c.pending) for c in self.clients)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, issued: int, problem: str | None = None) -> None:
        self.attempted += issued
        if problem is not None:
            self.failed += issued
            self.problems.append(problem)


# -- measurement -------------------------------------------------------------------

SETUP_PROBE = """import sys, time
sys.path.insert(0, sys.argv[1])
import run
t0 = time.perf_counter()
run.build_scenario(run.load_nicsim(), run.WORKLOADS[sys.argv[2]], int(sys.argv[3]))
print(time.perf_counter() - t0)
"""


def setup_probe(w: Workload, seed: int) -> float:
    """Host seconds a fresh interpreter takes to import nicsim and to build
    and validate the scenario."""
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), w.name, str(seed)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def time_reference() -> float:
    """Host seconds that one reference second lasts right now."""
    gc.collect()
    t0 = time.perf_counter()
    reference.run(REF_EVENTS)
    return (time.perf_counter() - t0) * reference.EVENTS_PER_REF_S / REF_EVENTS


@dataclass
class Untraced:
    scenario: object
    result: object  # RunResult of the checked run; None if it raised
    ref: str | None  # its digest, which every later run must reproduce
    walls: list  # host seconds of each timed run
    ref_walls: list  # host seconds of a reference second, before and after each timed run
    setups: list  # host seconds of each set-up probe
    issued: int  # RPCs issued per run
    tally: Tally


def run_untraced(nicsim, w: Workload, seed: int, seconds: float, expected: str | None) -> Untraced:
    """One checked run, then timed runs until ``seconds`` have passed.

    The reference loop is timed before the first timed run and after each
    one, so every timed run lies between two reference timings. The set-up
    probes run between the timed runs, spread over the whole window, so
    that the medians sample the same stretch of the machine's speed, which
    drifts over tens of seconds.
    """
    sim = nicsim.sim
    scenario = build_scenario(nicsim, w, seed)
    tally = Tally()
    with IssueCounter(nicsim) as counter:
        try:
            result = sim.run(scenario)
        except Exception as exc:  # a failing model run is a result, not a crash
            tally.add(max(counter.issued, 1), f"checked run raised {exc!r}")
            return Untraced(scenario, None, None, [], [], [], counter.issued, tally)
    issued = counter.issued
    ref = digest(result)
    problem = None
    if issued != result.total_completed + counter.in_flight():
        problem = (f"conservation: issued {issued} != completed {result.total_completed}"
                   f" + in flight {counter.in_flight()}")
    elif expected is None:
        problem = f"no digest recorded for {w.name} key {digest_key(w, seed)}"
    elif ref != expected:
        problem = f"digest {ref[:16]} differs from the recorded {expected[:16]}"
    tally.add(issued, problem)

    walls, setups = [], []
    ref_walls = [time_reference()]
    start = time.perf_counter()
    deadline = start + seconds
    while (len(walls) < MIN_TIMED_RUNS or len(setups) < SETUP_PROBES
           or time.perf_counter() < deadline):
        gc.collect()
        t0 = time.perf_counter()
        try:
            r = sim.run(scenario)
        except Exception as exc:
            tally.add(issued, f"timed run raised {exc!r}")
            break
        walls.append(time.perf_counter() - t0)
        ref_walls.append(time_reference())
        tally.add(issued, None if digest(r) == ref else "timed run digest differs from checked run")
        if (len(setups) < SETUP_PROBES
                and time.perf_counter() >= start + seconds * len(setups) / SETUP_PROBES):
            setups.append(setup_probe(w, seed))
    return Untraced(scenario, result, ref, walls, ref_walls, setups, issued, tally)


def end_to_end_metrics(u: Untraced) -> dict:
    """The metrics BENCHMARK.json bounds."""
    m = u.result.metrics
    # each run's wall time in reference seconds, against the mean of the
    # reference timings just before and just after it
    ref_s = [wall / ((before + after) / 2)
             for wall, before, after in zip(u.walls, u.ref_walls, u.ref_walls[1:])]
    return {
        "sim_krpc_per_ref_s": statistics.median(u.result.total_completed / s / 1e3 for s in ref_s),
        "setup_s": statistics.median(u.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "achieved_mrps": m.achieved_mrps,
        "median_us": m.median_us,
        "p99_us": m.p99_us,
        "n_samples": m.n_samples,
    }


def unbounded_metrics(nicsim, w, u: Untraced) -> dict:
    """Printed and recorded beside the end-to-end metrics, without a bound:
    name -> (value, unit, better). README.md says why each has none."""
    headline = getattr(u.result.metrics, w.reference_metric)
    target = reference_value(nicsim, w, u.scenario)
    return {
        "failed_rpc_frac": (u.tally.failed / max(u.tally.attempted, 1), "fraction", "lower"),
        "model_err_pct": (abs(headline - target) / target * 100, "%", "lower"),
        "sim_krpc_per_s": (statistics.median(u.result.total_completed / s / 1e3 for s in u.walls),
                           "krpc/s", "higher"),
    }


def run_traced(nicsim, w, scenario, ref: str, untraced_wall: float, issued: int, tally: Tally):
    """One traced run: per-layer metrics plus the checks that tracing did not
    perturb the model and that the spans cover the traced wall time."""
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    gc.collect()
    with tracer.installed(nicsim):
        traced_run = tracer.wrap("sim/run", nicsim.sim.run)
        t0 = time.perf_counter()
        try:
            result = traced_run(scenario, collect_trace=True)
        except Exception as exc:
            tally.add(issued, f"traced run raised {exc!r}")
            return None
        wall = time.perf_counter() - t0
    tally.add(issued, None if digest(result) == ref else "traced run digest differs from untraced")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"{w.name}.spans.npz")
    total, named = tracer_mod.attribution(tracer, wall)
    print(f"traced run: {wall:.3f} s wall, {len(tracer.start)} spans; self times sum to "
          f"{total:.2%} of wall, {named:.2%} in named layers")
    if named < 0.9:
        print(f"warning: only {named:.2%} of traced wall time is in named layers")
    return tracer_mod.layer_metrics(tracer, result, scenario, wall, untraced_wall)


# -- reporting ---------------------------------------------------------------------


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": _git_sha(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of this checkout, read from .git without running git; "unknown"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def report(title: str, metrics: dict, declared: list[dict]) -> dict:
    """Print metrics by name with unit and direction; return the JSON form."""
    names = [d["name"] for d in declared]
    if set(metrics) != set(names):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json")
    print(title)
    out = {}
    for d in declared:
        value = metrics[d["name"]]
        print(f"  {d['name']:<44} {value:>16.6f} {d['unit']:<12} ({d['better']} is better)")
        out[d["name"]] = {"value": value, "unit": d["unit"]}
    return out


def run_workload(args) -> int:
    machine = machine_info()
    spec = load_spec()
    nicsim = load_nicsim()
    w = WORKLOADS[args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)["workloads"][w.name].get(digest_key(w, args.seed))
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {w.name}, seed {args.seed} (model seed {args.seed % SEED_SPACE}), "
          f"{seconds} s, trace {args.trace}")

    u = run_untraced(nicsim, w, args.seed, seconds, expected)
    tally, metrics, unbounded = u.tally, None, {}
    if u.walls:
        print(f"{len(u.walls)} timed runs of {u.result.total_completed} RPCs, "
              f"{u.result.engine_events} events; wall s: "
              + " ".join(f"{s:.3f}" for s in u.walls))
        print("reference second, host s: " + " ".join(f"{s:.3f}" for s in u.ref_walls))
        metrics = report("end-to-end:", end_to_end_metrics(u), spec["end_to_end"])
        unbounded = unbounded_metrics(nicsim, w, u)
        print("unbounded:")
        for name, (value, unit, better) in unbounded.items():
            print(f"  {name:<44} {value:>16.6f} {unit:<12} ({better} is better)")
        if args.trace:
            layers = run_traced(nicsim, w, u.scenario, u.ref, statistics.median(u.walls),
                                u.issued, tally)
            metrics = report("per-layer:", layers, spec["per_layer"]) if layers else None
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    correct = metrics is not None and tally.failed == 0
    record = {"workload": w.name, "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "machine": machine, "problems": tally.problems,
              "unbounded": {name: v[0] for name, v in unbounded.items()},
              "walls_s": u.walls, "ref_second_s": u.ref_walls, "setups_s": u.setups,
              "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics or {}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if metrics is None:
        # nothing was measured, but the result line still names every declared metric
        metrics = {d["name"]: {"value": 0.0, "unit": d["unit"]}
                   for d in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


# -- golden outputs --------------------------------------------------------------


def golden_hashes(nicsim) -> dict:
    """sha256 of each CLI subcommand's CSV at its defaults (seed 1)."""
    import nicsim.cli

    OUT_DIR.mkdir(exist_ok=True)
    hashes = {}
    for cmd in GOLDEN_SUBCOMMANDS:
        path = OUT_DIR / f"golden-{cmd}.csv"
        t0 = time.perf_counter()
        if nicsim.cli.main([cmd, "--out", str(path)]) != 0:
            raise RuntimeError(f"nicsim {cmd} failed")
        hashes[cmd] = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"  {cmd:<8} {hashes[cmd]}  ({time.perf_counter() - t0:.1f} s)")
    return hashes


def check_golden(nicsim) -> int:
    print(f"machine: {json.dumps(machine_info())}")
    with open(EXPECTED_PATH) as fh:
        recorded = json.load(fh)["golden"]
    got = golden_hashes(nicsim)
    bad = [cmd for cmd in GOLDEN_SUBCOMMANDS if got[cmd] != recorded.get(cmd)]
    print("golden: " + ("all five CSVs match" if not bad else f"MISMATCH in {', '.join(bad)}"))
    return 1 if bad else 0


def record_expected(nicsim) -> int:
    """Re-record every digest and golden hash from the current model."""
    workloads = {}
    for w in WORKLOADS.values():
        digests = {}
        for seed in (range(SEED_SPACE) if w.seeded else [0]):
            with IssueCounter(nicsim) as counter:
                result = nicsim.sim.run(build_scenario(nicsim, w, seed))
            if counter.issued != result.total_completed + counter.in_flight():
                raise RuntimeError(f"{w.name} seed {seed}: conservation does not hold")
            digests[digest_key(w, seed)] = digest(result)
        workloads[w.name] = digests
        print(f"recorded {len(digests)} digest(s) for {w.name}")
    expected = {"seed_space": SEED_SPACE, "workloads": workloads, "golden": golden_hashes(nicsim)}
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--golden", action="store_true",
                      help="hash the five CLI CSVs and compare with expected.json")
    mode.add_argument("--record", action="store_true",
                      help="rewrite expected.json from the current model")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.golden:
        return check_golden(load_nicsim())
    if args.record:
        return record_expected(load_nicsim())
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
