"""Command-line front end: reproduce the headline experiments as CSV.

Subcommands:
    bars       per-interface saturation throughput and latency at 4 Mrps
    sweep      latency-throughput curves over offered load
    scale      multi-thread end-to-end throughput
    rawbus     bare 64B transactions through the shared bus
    calibrate  fit cost parameters from (mode, B, Mrps) datapoints
    compare    simulated round-trip/throughput next to published systems
    validate   run the acceptance suite; nonzero exit on any failure

All files are JSON in, CSV out. bars, sweep, scale and compare build every
row from one scenario dict: the standard two-NIC echo setup, or the
`--scenario` file, with the row's TX interface and load written onto it.
`--override section.key=value` then patches the scenario (or
`cost_params.*`), so parameter studies need no file editing. Every
subcommand is deterministic given its inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import sim
from .errors import ConfigInvalid, NicSimError
from .interconnect import CostParams, calibrate, load_datapoints, read_json

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ACCEPTANCE = 2

BARS_ROWS = [
    ("mmio", 1),
    ("doorbell", 1),
    ("doorbell", 3),
    ("doorbell", 7),
    ("doorbell", 11),
    ("doorbell", 32),
    ("coherent", 1),
    ("coherent", 4),
]

DEFAULT_SWEEP_LOADS = "1,2,4,6,7,9,10,11,12"
LATENCY_PROBE_MRPS = 4.0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _pow2_at_least(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def _apply_overrides(scenario_data: dict | None, params: CostParams, overrides):
    """Dotted-path patches: cost_params.* hit the cost model, everything
    else lands in the scenario dict (None: the subcommand has no scenario)."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigInvalid(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        value = _parse_value(raw)
        parts = key.split(".")
        if parts[0] == "cost_params":
            if len(parts) != 2:
                raise ConfigInvalid(f"override {key!r}: expected cost_params.<field>")
            params = params.replace(**{parts[1]: value})
            continue
        if scenario_data is None:
            raise ConfigInvalid(f"override {key!r}: this subcommand runs no scenario; "
                                f"only cost_params.<field> applies")
        node = scenario_data
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigInvalid(f"override {key!r}: {part} does not hold an object")
        node[parts[-1]] = value
    return params


def _load_params(args) -> CostParams:
    return CostParams.load(args.params) if args.params else CostParams()


def _build_scenario(args, tx_mode: str, batch: int, loadgen: dict, adaptive: bool = False,
                    threading_model: str | None = None) -> sim.Scenario:
    """One row's scenario: the --scenario file (or the standard echo setup)
    with the row's interface and load written onto it, then --override."""
    scenario_file = getattr(args, "scenario", None)
    if scenario_file:
        data = read_json(scenario_file)
        if not isinstance(data, dict):
            raise ConfigInvalid("scenario must be a JSON object")
    else:
        data = sim.echo_scenario_data(seed=args.seed)
    sim.set_interface(data, tx_mode, batch, threading_model, adaptive, loadgen)
    params = _apply_overrides(data, _load_params(args), args.override)
    return sim.Scenario.from_dict(data, cost_params=params)


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------


def saturation_window(batch: int) -> int:
    """Outstanding window that keeps a batched pipeline fed at saturation."""
    return max(64, 6 * batch)


def cmd_bars(args) -> int:
    lines = ["mode,B,mrps,median_us,p99_us"]
    for mode, batch in BARS_ROWS:
        sat_data = {"mode": "closed_loop", "window": saturation_window(batch)}
        scenario = _build_scenario(args, mode, batch, sat_data)
        if scenario.ring_depth < 2 * sat_data["window"]:
            scenario = replace(scenario, ring_depth=_pow2_at_least(2 * sat_data["window"]))
        sat = sim.run(scenario).metrics
        lat = sim.run(_build_scenario(
            args, mode, batch,
            {"mode": "open_loop", "rate_mrps": LATENCY_PROBE_MRPS, "arrival": "deterministic"},
        )).metrics
        lines.append(
            f"{mode},{batch},{sat.achieved_mrps:.4f},{lat.median_us:.4f},{lat.p99_us:.4f}"
        )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_number(flag: str, spec: str, kind, text: str):
    """One item of a list flag, or ConfigInvalid naming the flag."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigInvalid(f"{flag} {spec!r}: {text.strip()!r} is not "
                            f"{'an integer' if kind is int else 'a number'}") from None


def _parse_modes(spec: str, adaptive_flag: bool):
    modes = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "adaptive":
            modes.append(("adaptive", 1, True))
        elif ":" in token:
            mode, b = token.split(":", 1)
            modes.append((mode, _parse_number("--modes", spec, int, b.lstrip("B")), False))
        else:
            modes.append((token, 1, False))
    if adaptive_flag and not any(m[2] for m in modes):
        modes.append(("adaptive", 1, True))
    return modes


def cmd_sweep(args) -> int:
    loads = [_parse_number("--loads", args.loads, float, x) for x in args.loads.split(",") if x]
    lines = ["mode,B,load_mrps,achieved_mrps,median_us,p99_us,saturated"]
    for label, batch, adaptive in _parse_modes(args.modes, args.adaptive):
        mode = "coherent" if adaptive else label
        scenario = _build_scenario(
            args, mode, batch,
            {"mode": "open_loop", "rate_mrps": loads[0] if loads else 1.0,
             "arrival": "deterministic"},
            adaptive=adaptive,
        )
        ab = next(iter(scenario.nic_configs.values())).adaptive_batching
        b_label = f"{ab.low_B}-{ab.high_B}" if adaptive else str(batch)
        for metrics in sim.sweep_load(scenario, loads):
            lines.append(f"{label},{b_label},{metrics.csv_row()}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_threads(spec: str):
    """Thread counts from a list of values and lo..hi ranges, each bounded
    by sim.MAX_CONNECTIONS before any range is expanded."""
    def count(text):
        value = _parse_number("--threads", spec, int, text)
        if value > sim.MAX_CONNECTIONS:
            raise ConfigInvalid(f"--threads {spec!r}: thread counts must be "
                                f"<= {sim.MAX_CONNECTIONS}, got {value}")
        return value

    out = []
    for token in spec.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = token.split("..", 1)
            out.extend(range(count(lo), count(hi) + 1))
        elif token:
            out.append(count(token))
    if any(t < 1 for t in out):
        raise ConfigInvalid(f"--threads {spec!r}: thread counts must be >= 1")
    return out


def cmd_scale(args) -> int:
    counts = _parse_threads(args.threads)
    scenario = _build_scenario(args, "coherent", 4, {"mode": "closed_loop", "window": 64})
    lines = ["threads,achieved_mrps"]
    for t, mrps in sim.scale_cores(scenario, counts):
        lines.append(f"{t},{mrps:.4f}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_rawbus(args) -> int:
    counts = _parse_threads(args.threads)
    params = _apply_overrides(None, _load_params(args), args.override)
    lines = ["threads,achieved_mrps"]
    for t, mrps in sim.raw_bus_benchmark(params, counts):
        lines.append(f"{t},{mrps:.4f}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    from importlib import resources

    if args.datapoints:
        points = load_datapoints(args.datapoints)
    else:
        packaged = resources.files("nicsim.data").joinpath("calibration_points.json")
        with resources.as_file(packaged) as path:
            points = load_datapoints(path)
    base = _apply_overrides(None, _load_params(args), args.override)
    params, residuals = calibrate(points, base=base)
    out = args.out or "calibrated_params.json"
    params.save(out)
    lines = ["mode,B,given_mrps,fitted_mrps,rel_err"]
    for mode, batch, given, fitted, err in residuals:
        lines.append(f"{mode},{batch},{given:.4f},{fitted:.4f},{err:.6f}")
    residual_text = "\n".join(lines) + "\n"
    if args.residuals:
        Path(args.residuals).write_text(residual_text)
    else:
        sys.stdout.write(residual_text)
    return EXIT_OK


def cmd_compare(args) -> int:
    from importlib import resources

    with resources.files("nicsim.data").joinpath("related_work.json").open() as fh:
        reference = json.load(fh)

    def measure(batch: int, threading_model: str, window: int):
        scenario = _build_scenario(args, "coherent", batch,
                                   {"mode": "closed_loop", "window": window},
                                   threading_model=threading_model)
        if args.tor is not None:
            scenario = replace(scenario, cost_params=scenario.cost_params.replace(
                t_wire=args.tor * 1000.0))
        return scenario.cost_params, sim.run(scenario).metrics

    params, sync = measure(1, "sync", 1)
    _, sat = measure(4, "async", 64)
    rtt_us, mrps = sync.median_us, sat.achieved_mrps

    lines = ["system,objects,tor_delay_us,rtt_us,mrps"]
    for row in reference["rows"]:
        tor = "" if row["tor_delay_us"] is None else f"{row['tor_delay_us']:.1f}"
        thr = "" if row["mrps"] is None else f"{row['mrps']:.2f}"
        lines.append(f"{row['system']},{row['objects']},{tor},{row['rtt_us']:.1f},{thr}")
    lines.append(
        f"simulated,64B RPC,{params.t_wire / 1000.0:.1f},{rtt_us:.1f},{mrps:.2f}"
    )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    import pytest

    candidates = [
        Path.cwd() / "tests" / "test_acceptance.py",
        Path(__file__).resolve().parents[2] / "tests" / "test_acceptance.py",
    ]
    for path in candidates:
        if path.exists():
            rc = pytest.main(["-q", str(path)])
            return EXIT_OK if rc == 0 else EXIT_ACCEPTANCE
    sys.stderr.write("validate: acceptance suite not found (run from a source checkout)\n")
    return EXIT_CONFIG


def build_parser() -> _Parser:
    parser = _Parser(prog="nicsim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        p.add_argument("--params", help="cost-parameter JSON file")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--override", action="append", metavar="K=V",
                       help="dotted-path patch, e.g. cost_params.t_wire=0")
        if scenario:
            p.add_argument("--scenario", help="scenario JSON file")

    p = sub.add_parser("bars", help="per-interface throughput and latency table")
    common(p)
    p.set_defaults(fn=cmd_bars)

    p = sub.add_parser("sweep", help="latency-throughput curves")
    common(p)
    p.add_argument("--modes", default="coherent:B1,coherent:B4")
    p.add_argument("--loads", default=DEFAULT_SWEEP_LOADS, help="offered Mrps, ascending")
    p.add_argument("--adaptive", action="store_true",
                   help="add the adaptive-batching curve")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("scale", help="multi-thread scaling")
    common(p)
    p.add_argument("--threads", default="1,2,3,4,5,6,7,8")
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser("rawbus", help="raw 64B bus benchmark")
    common(p, scenario=False)
    p.add_argument("--threads", default="1..8")
    p.set_defaults(fn=cmd_rawbus)

    p = sub.add_parser("calibrate", help="fit cost parameters")
    common(p, scenario=False)
    p.add_argument("--datapoints", help="JSON list of {mode,B,mrps}")
    p.add_argument("--residuals", help="residual CSV path (default: stdout)")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("compare", help="simulated vs published systems")
    common(p, scenario=False)
    p.add_argument("--tor", type=float, help="one-way ToR delay in us")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (NicSimError, OSError) as exc:
        sys.stderr.write(f"nicsim: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
