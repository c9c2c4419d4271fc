"""Service-request workload: the service-type catalog and two-state
modulated Poisson arrivals.

An `MmppState` keeps its offset into the current regime epoch in
[0, MMPP_EPOCH_MS). Most gaps end inside the epoch they start in, and
`mmpp_next_arrival` then stores the gap's end as the new offset and
returns: with no epoch crossed, offset + gap - 0 * MMPP_EPOCH_MS is that
end, bit for bit, so the fast path is the general one's result. It relies
on the range: an offset below 0 would have to be moved forward a whole
epoch, and `MmppState` refuses one outside it.

An interarrival gap is drawn by inversion, `-log1p(-u) / rate` from one
uniform word u of the vehicle's arrival stream (`RngStream.exponential`),
not by numpy's ziggurat: the same Exp(rate) law, from exactly one word per
gap. Since u is a multiple of 2**-53 below 1, a gap is at most
-log(2**-53), about 36.7 mean gaps, so the draw truncates a tail of
probability 2**-53, about 1.1e-16.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from .engine import RngStream, left_sum, require_count

MMPP_EPOCH_MS = 1000  # regime switching is evaluated once per simulated second
ARRIVAL_HORIZON_MS = 1e9  # cap on an interarrival gap; a vanishing rate gets it without a draw


class EmptyCatalogError(ValueError):
    pass


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    resource_units: float  # work volume: served in one ms by one resource unit

    def __post_init__(self):
        if not 0 < self.resource_units < math.inf:
            raise ValueError(f"task {self.task_id}: resource_units must be finite and > 0, got {self.resource_units}")


@dataclass(frozen=True)
class ServiceTypeSpec:
    type_id: str
    task_chain: tuple[TaskSpec, ...]
    deadline_ms: int
    probability: float

    def __post_init__(self):
        if not self.task_chain:
            raise ValueError(f"service type {self.type_id}: task_chain must be non-empty")
        require_count(f"service type {self.type_id}: deadline_ms", self.deadline_ms, 1)
        if not 0 <= self.probability < math.inf:
            raise ValueError(
                f"service type {self.type_id}: probability must be finite and >= 0, got {self.probability}"
            )

    @cached_property
    def total_units(self) -> float:
        return left_sum(t.resource_units for t in self.task_chain)


def normalize_catalog(catalog: Sequence[ServiceTypeSpec]) -> list[ServiceTypeSpec]:
    """Rescale probabilities to sum to 1.

    Input lists whose stated shares do not add up (a real hazard when a
    catalog is transcribed by hand) are rescaled proportionally; callers
    should echo the normalized values into the run summary rather than
    guess which entry was mistyped.
    """
    if not catalog:
        raise EmptyCatalogError("catalog is empty")
    seen = set()
    for s in catalog:
        if s.type_id in seen:
            raise ValueError(f"service type {s.type_id} appears twice in the catalog")
        seen.add(s.type_id)
    total = left_sum(s.probability for s in catalog)
    if total <= 0:
        raise ValueError("catalog probabilities must have a positive sum")
    return [replace(s, probability=s.probability / total) for s in catalog]


def sample_service_request(catalog: Sequence[ServiceTypeSpec], rng: RngStream) -> ServiceTypeSpec:
    """Draw a service type with the catalog's probabilities."""
    if not catalog:
        raise EmptyCatalogError("catalog is empty")
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
    ms_into_epoch: float = 0.0  # in [0, MMPP_EPOCH_MS)

    def __post_init__(self):
        if not 0.0 <= self.ms_into_epoch < MMPP_EPOCH_MS:
            raise ValueError(f"ms_into_epoch must be in [0, {MMPP_EPOCH_MS}), got {self.ms_into_epoch}")
        if not (0 <= self.lambda_low < self.lambda_high < math.inf):
            raise ValueError(f"need 0 <= lambda_low < lambda_high < inf, got {self.lambda_low}, {self.lambda_high}")
        if not (0 <= self.p_high <= 1 and 0 <= self.p_low <= 1):
            raise ValueError("switch probabilities must be in [0,1]")
        if self.regime not in ("High", "Low"):
            raise ValueError(f"unknown regime {self.regime!r}")


def mmpp_step_epoch(state: MmppState, rng: RngStream) -> MmppState:
    """Advance one regime epoch in place: switch with the current regime's
    probability. Returns `state` itself."""
    p_switch = state.p_high if state.regime == "High" else state.p_low
    if rng.uniform() < p_switch:
        state.regime = "Low" if state.regime == "High" else "High"
    return state


def mmpp_next_arrival(state: MmppState, rng: RngStream) -> tuple[float, MmppState]:
    """Sample the next interarrival gap and advance `state` past it in place.

    Returns the gap and `state` itself. The gap is exponential with the rate
    of the regime at the start of the gap; regime switches are then evaluated
    at each whole-epoch boundary the gap crosses (arrivals within an epoch
    use the rate current at its start).
    A gap is capped at ARRIVAL_HORIZON_MS, and a rate at or below its
    inverse yields that gap without a draw instead of a division by zero.
    """
    rate = state.lambda_high if state.regime == "High" else state.lambda_low
    if rate <= 1.0 / ARRIVAL_HORIZON_MS:
        gap = ARRIVAL_HORIZON_MS
    else:
        gap = min(rng.exponential(1.0 / rate), ARRIVAL_HORIZON_MS)
    elapsed = state.ms_into_epoch + gap
    if elapsed < MMPP_EPOCH_MS:  # no epoch boundary crossed
        state.ms_into_epoch = elapsed
        return gap, state
    crossings = int(elapsed // MMPP_EPOCH_MS)
    for _ in range(crossings):
        mmpp_step_epoch(state, rng)
    state.ms_into_epoch = elapsed - crossings * MMPP_EPOCH_MS
    return gap, state


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
