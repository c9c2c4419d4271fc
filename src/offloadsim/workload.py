"""Service-request workload: type catalog, two-state modulated Poisson
arrivals, distance-based uplink/downlink delay, and mobility-trace input.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from .engine import RngStream, SimTime

COVERAGE_RADIUS_M = 65.0
THROUGHPUT_SLOPE = -26.0  # Mbps per metre
THROUGHPUT_INTERCEPT = 1690.0  # Mbps at distance 0
MMPP_EPOCH_MS = 1000  # regime switching is evaluated once per simulated second


class EmptyCatalogError(ValueError):
    pass


class OutOfRangeError(ValueError):
    pass


class ZeroRateError(ValueError):
    pass


class TraceParseError(ValueError):
    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class TraceSchemaError(ValueError):
    pass


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    resource_units: float  # work volume: served in one ms by one resource unit

    def __post_init__(self):
        if self.resource_units <= 0:
            raise ValueError(f"task {self.task_id}: resource_units must be > 0")


@dataclass(frozen=True)
class ServiceTypeSpec:
    type_id: str
    task_chain: tuple[TaskSpec, ...]
    deadline_ms: int
    probability: float
    uplink_bits: float = 0.0
    downlink_bits: float = 0.0

    def __post_init__(self):
        if not self.task_chain:
            raise ValueError(f"service type {self.type_id}: task_chain must be non-empty")
        if self.deadline_ms <= 0:
            raise ValueError(f"service type {self.type_id}: deadline_ms must be positive")
        if self.uplink_bits < 0 or self.downlink_bits < 0:
            raise ValueError(f"service type {self.type_id}: data sizes must be non-negative")

    @cached_property
    def total_units(self) -> float:
        return sum(t.resource_units for t in self.task_chain)


def validate_catalog(catalog: Sequence[ServiceTypeSpec], tol: float = 1e-9):
    if not catalog:
        raise EmptyCatalogError("catalog is empty")
    total = sum(s.probability for s in catalog)
    if abs(total - 1.0) > tol:
        raise ValueError(f"catalog probabilities sum to {total}, expected 1")


def normalize_catalog(catalog: Sequence[ServiceTypeSpec]) -> list[ServiceTypeSpec]:
    """Rescale probabilities to sum to 1.

    Input lists whose stated shares do not add up (a real hazard when a
    catalog is transcribed by hand) are rescaled proportionally; callers
    should echo the normalized values into the run summary rather than
    guess which entry was mistyped.
    """
    if not catalog:
        raise EmptyCatalogError("catalog is empty")
    total = sum(s.probability for s in catalog)
    if total <= 0:
        raise ValueError("catalog probabilities must have a positive sum")
    return [replace(s, probability=s.probability / total) for s in catalog]


def sample_service_request(catalog: Sequence[ServiceTypeSpec], rng: RngStream) -> ServiceTypeSpec:
    """Draw a service type with the catalog's probabilities."""
    if not catalog:
        raise EmptyCatalogError("catalog is empty")
    if len(catalog) == 1:
        return catalog[0]
    u = rng.uniform()
    acc = 0.0
    for spec in catalog:
        acc += spec.probability
        if u < acc:
            return spec
    return catalog[-1]


@dataclass
class MmppState:
    """Two-state modulated Poisson process.

    Rates are per millisecond. p_high / p_low are the per-epoch probabilities
    of switching out of the High / Low regime; epochs are MMPP_EPOCH_MS long.
    """

    regime: str  # "High" | "Low"
    lambda_high: float
    lambda_low: float
    p_high: float
    p_low: float
    ms_into_epoch: float = 0.0

    def __post_init__(self):
        if not (0 <= self.lambda_low < self.lambda_high):
            raise ValueError("need 0 <= lambda_low < lambda_high")
        if not (0 <= self.p_high <= 1 and 0 <= self.p_low <= 1):
            raise ValueError("switch probabilities must be in [0,1]")
        if self.regime not in ("High", "Low"):
            raise ValueError(f"unknown regime {self.regime!r}")

    @property
    def rate(self) -> float:
        return self.lambda_high if self.regime == "High" else self.lambda_low


def mmpp_step_epoch(state: MmppState, rng: RngStream) -> MmppState:
    """Advance one regime epoch in place: switch with the current regime's
    probability. Returns `state` itself."""
    p_switch = state.p_high if state.regime == "High" else state.p_low
    if rng.uniform() < p_switch:
        state.regime = "Low" if state.regime == "High" else "High"
    return state


def mmpp_next_arrival(
    state: MmppState, rng: RngStream, horizon_ms: float = 1e9
) -> tuple[float, MmppState]:
    """Sample the next interarrival gap and advance `state` past it in place.

    Returns the gap and `state` itself. The gap is exponential with the rate
    of the regime at the start of the gap; regime switches are then evaluated
    at each whole-epoch boundary the gap crosses (arrivals within an epoch
    use the rate current at its start).
    A vanishing rate yields a gap capped at horizon_ms instead of a division
    by zero.
    """
    rate = state.rate
    if rate <= 1.0 / horizon_ms:
        gap = float(horizon_ms)
    else:
        gap = min(rng.exponential(1.0 / rate), float(horizon_ms))
    elapsed = state.ms_into_epoch + gap
    crossings = int(elapsed // MMPP_EPOCH_MS)
    for _ in range(crossings):
        mmpp_step_epoch(state, rng)
    state.ms_into_epoch = elapsed - crossings * MMPP_EPOCH_MS
    return gap, state


def throughput_at(distance_m: float, n_sharing: int) -> float:
    """Link throughput in Mbps at a given distance, split over n_sharing users."""
    if distance_m < 0 or distance_m > COVERAGE_RADIUS_M:
        raise OutOfRangeError(f"distance {distance_m} m outside [0, {COVERAGE_RADIUS_M}]")
    if n_sharing < 1:
        raise ValueError("n_sharing must be >= 1")
    return max(0.0, THROUGHPUT_SLOPE * distance_m + THROUGHPUT_INTERCEPT) / n_sharing


def transmission_delay(bits: float, rate_mbps: float) -> int:
    """Whole-ms transfer time of `bits` at `rate_mbps` (1 Mbps = 1000 bits/ms).

    Fractional results round up: conservative against deadlines.
    """
    if bits < 0:
        raise ValueError("bits must be non-negative")
    if bits == 0:
        return 0
    if rate_mbps == math.inf:
        return 0
    if rate_mbps <= 0:
        raise ZeroRateError("zero throughput: transmitter is out of coverage")
    return math.ceil(bits / (rate_mbps * 1000.0))


@dataclass(frozen=True)
class MobilitySample:
    time_ms: SimTime
    vehicle_id: str
    distance_m: float
    present: bool

    def __post_init__(self):
        if self.present and not (0 <= self.distance_m <= COVERAGE_RADIUS_M):
            raise ValueError(f"distance {self.distance_m} outside coverage radius")


MOBILITY_COLUMNS = ("time_ms", "vehicle_id", "distance_m", "present")


def load_mobility_trace(path) -> list[MobilitySample]:
    """Read and validate a mobility trace CSV; samples sorted per vehicle by time."""
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        missing = [c for c in MOBILITY_COLUMNS if c not in header]
        if missing:
            raise TraceSchemaError(f"missing columns: {', '.join(missing)}")
        idx = {c: header.index(c) for c in MOBILITY_COLUMNS}
        for line_number, rec in enumerate(reader, start=2):
            if not rec:
                continue
            try:
                time_ms = int(rec[idx["time_ms"]])
                vehicle_id = rec[idx["vehicle_id"]]
                distance_m = float(rec[idx["distance_m"]])
                present = rec[idx["present"]].strip().lower() in ("1", "true", "yes")
            except (ValueError, IndexError) as exc:
                raise TraceParseError(str(exc), line_number) from exc
            try:
                samples.append(MobilitySample(time_ms, vehicle_id, distance_m, present))
            except ValueError as exc:
                raise TraceSchemaError(f"line {line_number}: {exc}") from exc
    samples.sort(key=lambda s: (s.vehicle_id, s.time_ms))
    return samples


def generate_junction_trace(
    path,
    n_vehicles: int = 12,
    arrival_period_ms: int = 2200,
    speed_kmh: float = 10.0,
    stop_phase_ms: int = 20000,
    sample_period_ms: int = 1000,
    duration_ms: int = 120000,
):
    """Write a synthetic crossing-like mobility trace.

    Each vehicle enters at the coverage edge, approaches the centre at
    constant speed, idles through a stop phase, then departs the way it
    came. Good enough to exercise distance-dependent throughput in tests.
    """
    speed_m_per_ms = speed_kmh / 3600.0
    rows = []
    for v in range(n_vehicles):
        vid = f"veh{v}"
        enter = v * arrival_period_ms
        approach_ms = COVERAGE_RADIUS_M / speed_m_per_ms
        for t in range(0, duration_ms + 1, sample_period_ms):
            dt = t - enter
            if dt < 0:
                continue
            if dt <= approach_ms:
                dist = COVERAGE_RADIUS_M - speed_m_per_ms * dt
            elif dt <= approach_ms + stop_phase_ms:
                dist = 0.0
            else:
                dist = speed_m_per_ms * (dt - approach_ms - stop_phase_ms)
            present = dist <= COVERAGE_RADIUS_M
            rows.append((t, vid, round(min(dist, COVERAGE_RADIUS_M), 3), 1 if present else 0))
            if not present:
                break
    rows.sort()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MOBILITY_COLUMNS)
        writer.writerows(rows)


def synthetic_catalog() -> list[ServiceTypeSpec]:
    """The randomized-setup service list (normalized shares).

    The raw shares sum to 112.5%; normalize_catalog rescales them and the
    run summary echoes the values actually used.
    """
    f1 = TaskSpec("F1", 3.0)
    f2 = TaskSpec("F2", 30.0)
    raw = [
        ServiceTypeSpec("F1-300", (f1,), 300, 0.1875),
        ServiceTypeSpec("F1-50", (f1,), 50, 0.1875),
        ServiceTypeSpec("F2-300", (f2,), 300, 0.0625),
        ServiceTypeSpec("F2-50", (f2,), 50, 0.0625),
        ServiceTypeSpec("F1F2-300", (f1, f2), 300, 0.1875),
        ServiceTypeSpec("F1F2-50", (f1, f2), 50, 0.1875),
        ServiceTypeSpec("F2F1-300", (f2, f1), 300, 0.0625),
        ServiceTypeSpec("F2F1-50", (f2, f1), 50, 0.1875),
    ]
    return normalize_catalog(raw)
