"""Transaction-level cost model of the host<->NIC channel.

Per-fetch costs of the three TX modes (mmio, doorbell, coherent), one
TxChannel record per mode (tx_channel), which the NIC's TX path in nic.py
charges and Scenario.validate reads: every fetch batch occupies its
connection's channel for its occupancy time (which fixes throughput) and
reaches the peer after its transfer latency (which fixes the latency
contribution). Closed forms for steady-state single-core throughput:

    mmio                 1 / t_mmio
    doorbell, batch B    B / (t_doorbell + B * t_entry)
    coherent, batch B    B / (t_poll + B * t_cl)

Transfer latency adds the interconnect traversals that pipelining hides
from the throughput path. t_dma_write doubles as the one-way latency of a
64B traversal; the per-mode hop counts below are calibrated against the
published 4 Mrps latency points and are the reason an MMIO store is slower
end-to-end than a coherent line transfer even at similar issue rates:

    mmio       store issue + 3 traversals (write, ack, ordering drain)
    doorbell   ring + ack, then read request + completion  (4 traversals)
    coherent   none beyond t_poll + k*t_cl (the local-cache/LLC transfer
               already is the traversal)

A shared bus endpoint sustains at most bus_cap_rps 64B transactions per
second, granted in the order the engine issues requests
(BusArbiter.request). Only host->NIC fetch-direction transactions (MMIO
stores, doorbell rings, DMA entry reads, coherent line transfers, empty
polls) consume that budget; NIC->host DMA writes ride the already-optimized
write path and are traced but not budgeted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigInvalid, UnderdeterminedFit

MODE_MMIO = "mmio"
MODE_DOORBELL = "doorbell"
MODE_COHERENT = "coherent"
TX_MODES = (MODE_MMIO, MODE_DOORBELL, MODE_COHERENT)

SUBMODE_INVAL = "inval_driven"
SUBMODE_DIRECT = "direct_poll"

# Transaction kinds as they appear in exported traces.
KIND_MMIO_STORE = "MmioStore64"
KIND_DOORBELL = "DoorbellMmio"
KIND_DMA_READ = "DmaReadBatch"
KIND_DMA_WRITE = "DmaWrite64"
KIND_POLL_HIT = "CoherentPollHit"
KIND_POLL_MISS = "CoherentPollMiss"
KIND_INVALIDATION = "Invalidation"
KIND_HOST_MEMCPY = "HostMemcpy64"
KIND_WIRE_HOP = "WireHop"

# Calibrated interconnect traversal counts on the TX visibility path.
MMIO_TRAVERSALS = 3
DOORBELL_TRAVERSALS = 4

_FIELDS = (
    "t_mmio",
    "t_doorbell",
    "t_entry",
    "t_poll",
    "t_cl",
    "t_inval",
    "t_dma_write",
    "t_memcpy",
    "t_wire",
    "bus_cap_rps",
)


def is_number(value) -> bool:
    """A finite JSON number: int or float, but not bool, nan or +-inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def is_int(value) -> bool:
    """A JSON integer: int, but not bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_json(path):
    """The JSON document in the file at path; ConfigInvalid, naming the
    path, if the file is not UTF-8 text or not valid JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(
            f"{path}: not valid JSON ({exc.msg} at line {exc.lineno} column {exc.colno})"
        ) from None


@dataclass(frozen=True)
class CostParams:
    """Per-transaction virtual-nanosecond costs plus the bus capacity.

    All latency fields are ns; bus_cap_rps is 64B transactions per second.
    Values are calibration outputs, not measurements: the five rate fields
    are the fit of data/calibration_points.json (`nicsim calibrate`), the
    latency fields are tuned against the 4 Mrps latency points.
    """

    t_mmio: float = 238.09523809523807  # one 64B MMIO store (issue occupancy)
    t_doorbell: float = 153.8058970789823  # doorbell ring + DMA setup, per batch
    t_entry: float = 78.04817118767431  # per-entry DMA fetch occupancy
    t_poll: float = 57.08217177751229  # per-batch coherent poll overhead
    t_cl: float = 66.3746183459445  # per-cache-line coherent transfer
    t_inval: float = 120.0  # invalidation message latency (tuned)
    t_dma_write: float = 300.0  # NIC->host 64B DMA write / one traversal
    t_memcpy: float = 100.0  # host-side 64B copy (publish, delivery)
    t_wire: float = 300.0  # one-way wire/ToR delay
    bus_cap_rps: float = 80e6  # shared endpoint capacity

    def validate(self) -> "CostParams":
        values = {name: getattr(self, name) for name in _FIELDS}
        errors = [f"{name} must be a number > 0, got {v!r}" for name, v in values.items()
                  if not (is_number(v) and v > 0)]
        if errors:
            raise ConfigInvalid(errors)
        return self

    def to_json(self) -> str:
        return json.dumps({k: getattr(self, k) for k in _FIELDS}, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "CostParams":
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise ConfigInvalid([f"unknown cost parameter '{k}'" for k in sorted(unknown)])
        bad = [k for k, v in data.items() if not is_number(v)]
        if bad:
            raise ConfigInvalid([f"{k} must be a number, got {data[k]!r}" for k in sorted(bad)])
        return cls(**{k: float(v) for k, v in data.items()}).validate()

    @classmethod
    def load(cls, path) -> "CostParams":
        data = read_json(path)
        if not isinstance(data, dict):
            raise ConfigInvalid("cost params file must hold a JSON object")
        return cls.from_dict(data)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def replace(self, **kw) -> "CostParams":
        data = {k: getattr(self, k) for k in _FIELDS}
        data.update(kw)
        return CostParams.from_dict(data)


@dataclass
class Transaction:
    """One bus/host transaction in a trace."""

    ts_ns: float
    issuer: str
    kind: str
    count: int = 1
    conn: int = -1
    rpc: int = -1
    critical: bool = False

    def csv_row(self) -> str:
        return f"{self.ts_ns:.1f},{self.issuer},{self.kind},{self.count}"


TRACE_CSV_HEADER = "ts_ns,issuer,kind,count"


# -- the TX channel of each mode --------------------------------------------


@dataclass(frozen=True)
class TxChannel:
    """What one fetch of k entries costs on a TX mode's channel.

    It occupies the channel for fixed_ns + k * entry_ns (serialization
    time), asks the bus arbiter for k + fixed_units 64B transactions, and
    reaches the peer extra_ns after the occupancy ends (the traversals that
    pipelining hides from the throughput path).
    """

    fixed_ns: float
    entry_ns: float
    fixed_units: int
    extra_ns: float

    def rate(self, batch: int = 1) -> float:
        """Steady-state single-core throughput in requests/s at batch
        entries per fetch. With no per-fetch term batching gains nothing,
        and the rate is 1e9 / entry_ns at any batch."""
        if not self.fixed_ns:
            return 1e9 / self.entry_ns
        return batch * 1e9 / (self.fixed_ns + batch * self.entry_ns)


def tx_channel(params: CostParams, mode: str) -> TxChannel:
    """The fetch costs of a TX mode, the one place they are defined: the
    closed forms and traversal counts of the module docstring, and a
    doorbell fetch's extra bus unit, its doorbell ring."""
    if mode == MODE_MMIO:
        return TxChannel(0.0, params.t_mmio, 0, MMIO_TRAVERSALS * params.t_dma_write)
    if mode == MODE_DOORBELL:
        return TxChannel(params.t_doorbell, params.t_entry, 1,
                         DOORBELL_TRAVERSALS * params.t_dma_write)
    if mode == MODE_COHERENT:
        return TxChannel(params.t_poll, params.t_cl, 0, 0.0)
    raise ValueError(f"unknown tx mode {mode!r}")


def closed_form_rate(params: CostParams, mode: str, batch: int = 1) -> float:
    """Steady-state single-core throughput in requests/s."""
    return tx_channel(params, mode).rate(batch)


def bandwidth_headroom_ratio(rate_rps: float, peak_gbytes_per_s: float) -> float:
    """How many times the peak link bandwidth exceeds a 64B request stream."""
    consumed = rate_rps * 64 / 1e9
    return peak_gbytes_per_s / consumed


# -- bus arbiter -------------------------------------------------------------


class BusArbiter:
    """Grant scheduler for the shared 64B-transaction endpoint.

    Each grant occupies the endpoint for 1/bus_cap_rps seconds. The
    simulation calls request() in event order, so grants go out first come,
    first served: a request's units follow every unit granted before it.
    """

    def __init__(self, issuers, bus_cap_rps: float):
        self.issuers = list(issuers)
        if len(set(self.issuers)) != len(self.issuers):
            raise ValueError(f"arbiter issuers must be distinct, got {self.issuers}")
        self.slot_ns = 1e9 / bus_cap_rps
        self._free_at = 0.0
        self.grant_counts = {i: 0 for i in self.issuers}

    def request(self, issuer, count: int, now: float) -> float:
        """Grant `count` transactions back to back, from `now` or from the end
        of the last grant, whichever is later; returns the completion time of
        the last one."""
        if count < 1:
            raise ValueError(f"transaction count must be >= 1, got {count}")
        self.grant_counts[issuer] += count
        t = self._free_at
        if now > t:
            t = now
        slot_ns = self.slot_ns
        # one slot at a time: t + count * slot_ns rounds differently
        while count > 0:
            t += slot_ns
            count -= 1
        self._free_at = t
        return t


# -- calibration -------------------------------------------------------------


def _fit_two_param(points):
    """Least-squares fit of rate = B/(a + B*b) given (B, rate_mrps) points.

    Linearized as ns-per-request = a*(1/B) + b.
    """
    if len(points) < 2:
        raise UnderdeterminedFit(
            f"need >= 2 datapoints to fit two parameters, got {len(points)}"
        )
    import numpy as np  # only calibration needs numpy; keep it off the import path

    x = np.array([1.0 / b for b, _ in points])
    y = np.array([1000.0 / r for _, r in points])  # Mrps -> ns per request
    design = np.stack([x, np.ones_like(x)], axis=1)
    (a, b), *_ = np.linalg.lstsq(design, y, rcond=None)
    if a <= 0 or b <= 0:
        raise UnderdeterminedFit("fit produced non-positive parameters")
    return float(a), float(b)


def calibrate(datapoints, base: CostParams | None = None):
    """Fit the rate-determining cost parameters from (mode, B, mrps) tuples.

    Fits (t_doorbell, t_entry) on doorbell points, (t_poll, t_cl) on
    coherent points and t_mmio on the mmio point; everything else carries
    over from `base`. Returns (CostParams, residuals) where residuals are
    (mode, B, given_mrps, fitted_mrps, rel_err) rows.
    """
    base = base or CostParams()
    by_mode: dict[str, list] = {m: [] for m in TX_MODES}
    for i, (mode, batch, mrps) in enumerate(datapoints):
        errors = _datapoint_errors(mode, batch, mrps)
        if errors:
            raise ConfigInvalid([f"datapoint {i}: {e}" for e in errors])
        by_mode[mode].append((batch, float(mrps)))

    kw = {}
    if by_mode[MODE_MMIO]:
        rates = [r for _, r in by_mode[MODE_MMIO]]
        kw["t_mmio"] = 1000.0 / (sum(rates) / len(rates))
    if by_mode[MODE_DOORBELL]:
        kw["t_doorbell"], kw["t_entry"] = _fit_two_param(by_mode[MODE_DOORBELL])
    if by_mode[MODE_COHERENT]:
        kw["t_poll"], kw["t_cl"] = _fit_two_param(by_mode[MODE_COHERENT])
    if not kw:
        raise UnderdeterminedFit("empty calibration dataset")

    params = base.replace(**kw)
    residuals = []
    for mode in TX_MODES:
        for batch, given in by_mode[mode]:
            fitted = closed_form_rate(params, mode, batch) / 1e6
            residuals.append((mode, batch, given, fitted, abs(fitted - given) / given))
    return params, residuals


def _datapoint_errors(mode, batch, mrps) -> list[str]:
    """What is wrong with one (mode, B, mrps) datapoint; empty when valid."""
    errors = []
    if mode not in TX_MODES:
        errors.append(f"mode must be one of {TX_MODES}, got {mode!r}")
    if not (is_int(batch) and batch >= 1):
        errors.append(f"B must be a positive integer, got {batch!r}")
    if not (is_number(mrps) and mrps > 0):
        errors.append(f"mrps must be a number > 0, got {mrps!r}")
    return errors


def load_datapoints(path):
    """Read calibration datapoints: a JSON list of {mode, B, mrps} objects.

    Returns (mode, B, mrps) tuples; every bad row is reported by its index.
    """
    raw = read_json(path)
    if not isinstance(raw, list):
        raise ConfigInvalid("datapoint file must hold a JSON list")
    points, errors = [], []
    for i, row in enumerate(raw):
        if not isinstance(row, dict):
            errors.append(f"datapoint {i} must be an object, got {row!r}")
            continue
        missing = [k for k in ("mode", "B", "mrps") if k not in row]
        if missing:
            errors.append(f"datapoint {i}: missing {', '.join(missing)}")
            continue
        point = (row["mode"], row["B"], row["mrps"])
        errors.extend(f"datapoint {i}: {e}" for e in _datapoint_errors(*point))
        points.append(point)
    if errors:
        raise ConfigInvalid(errors)
    return points
