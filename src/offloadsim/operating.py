"""Operating side: admission and assignment in one pass over a round's bids
(`AdmissionController.decide_round`) on delayed, noisy site state, plus the
computing sites that execute task chains.

Sites run each admitted request on one resource unit at unit rate (a task of
w units completes in w ms) and hold excess admissions in a FIFO queue, so a
site's busy units never exceed its capacity. Slot availability, assignment
and pricing all work on the controller's *believed* free capacity, which is
derived from the most recently arrived utilization reports and is stale by
design.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, Optional, Sequence

from .auction import AuctionOutcome, Bid, clear_auction
from .engine import RngStream, SimTime, left_sum, require_count


@dataclass
class UtilizationReport:
    site_id: str
    measured_at: SimTime
    arrives_at: SimTime
    utilization: float  # reported (noisy, clamped) value
    true_utilization: float

    def __post_init__(self):
        if self.arrives_at < self.measured_at:
            raise ValueError("report cannot arrive before it was measured")
        if not (0.0 <= self.utilization <= 1.0):
            raise ValueError("reported utilization must be clamped to [0,1]")


@dataclass(slots=True)
class AdmissionDecision:
    bid: Bid
    admitted: bool
    assigned_site: Optional[str]
    reason: str  # "Won" | "NoSlot" | "Rejected"


@dataclass
class ExecutionJob:
    request_key: object
    vehicle_id: str
    service_type: str
    task_units: tuple[float, ...]  # nominal per-task work
    deadline_abs: SimTime
    completes_at: Optional[SimTime] = None
    observed_units: float = 0.0


class ComputingSite:
    """One computing site: unit-rate execution of admitted task chains.

    Tasks of a chain run back to back on a single resource unit; the actual
    work of each task execution is the nominal amount times a per-execution
    noise factor.
    """

    ESTIMATE_SMOOTHING = 0.1  # weight of the newest observation in a per-type work estimate

    def __init__(
        self,
        site_id: str,
        capacity: float,
        rng: RngStream,
        report_delay_ms: int = 0,
        sigma_delay_ms: float = 0.0,
        sigma_utilization: float = 0.0,
        sigma_work: float = 0.0,
    ):
        if not 1 <= capacity < math.inf:  # below 1 the site has no server to run what it admits
            raise ValueError(f"capacity must be finite and >= 1, got {capacity}")
        require_count("report_delay_ms", report_delay_ms, 0)
        for name, sigma in (
            ("sigma_delay_ms", sigma_delay_ms),
            ("sigma_utilization", sigma_utilization),
            ("sigma_work", sigma_work),
        ):
            if not 0 <= sigma < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {sigma}")
        self.site_id = site_id
        self.capacity = float(capacity)
        self.servers = int(math.floor(capacity))
        self.rng = rng
        self.report_delay_ms = int(report_delay_ms)
        self.sigma_delay_ms = float(sigma_delay_ms)
        self.sigma_utilization = float(sigma_utilization)
        self.sigma_work = float(sigma_work)
        self.queue: dict[object, ExecutionJob] = {}  # insertion order is FIFO order
        self.running: dict[object, ExecutionJob] = {}
        self.estimates: dict[str, float] = {}

    # -- execution ----------------------------------------------------------

    @property
    def busy_units(self) -> int:
        return len(self.running)

    @property
    def utilization(self) -> float:
        return self.busy_units / self.capacity

    def accept(self, job: ExecutionJob, now: SimTime) -> list[ExecutionJob]:
        """Take on an admitted request; returns jobs that started right away.
        A request key the site already holds, queued or running, is refused."""
        key = job.request_key
        if key in self.queue or key in self.running:
            raise ValueError(f"site {self.site_id} already holds request {key!r}")
        self.queue[key] = job
        return self._fill_servers(now)

    def _fill_servers(self, now: SimTime) -> list[ExecutionJob]:
        started = []
        while self.busy_units < self.servers and self.queue:
            job = self.queue.pop(next(iter(self.queue)))
            self._start(job, now)
            started.append(job)
        return started

    def _start(self, job: ExecutionJob, now: SimTime):
        total = 0
        observed = 0.0
        for units in job.task_units:
            actual = units
            if self.sigma_work > 0:
                actual *= max(0.05, 1.0 + self.rng.normal(0.0, self.sigma_work))
            observed += actual
            total += max(1, math.ceil(actual))
        job.completes_at = now + total
        job.observed_units = observed
        self.running[job.request_key] = job

    def finish(self, request_key, now: SimTime) -> tuple[Optional[ExecutionJob], list[ExecutionJob]]:
        """Complete a running job (no-op if it was dropped earlier)."""
        job = self.running.get(request_key)
        if job is None or job.completes_at != now:
            return None, []
        del self.running[request_key]
        self.update_service_estimate(job.service_type, job.observed_units)
        return job, self._fill_servers(now)

    def drop(self, request_key, now: SimTime) -> tuple[bool, list[ExecutionJob]]:
        """Deadline drop: abandon the request wherever it is. Returns whether
        the site held it, and the jobs that started in its place."""
        if self.running.pop(request_key, None) is not None:
            return True, self._fill_servers(now)
        return self.queue.pop(request_key, None) is not None, []

    # -- learned estimates and reports --------------------------------------

    def update_service_estimate(self, service_type: str, observed_units: float):
        if not 0 < observed_units < math.inf:
            raise ValueError(f"observed_units must be finite and positive, got {observed_units}")
        current = self.estimates.get(service_type)
        if current is None:
            self.estimates[service_type] = observed_units
        else:
            rate = self.ESTIMATE_SMOOTHING
            self.estimates[service_type] = (1.0 - rate) * current + rate * observed_units

    def report_utilization(self, now: SimTime) -> UtilizationReport:
        true_util = self.utilization
        noise = self.rng.normal(0.0, self.sigma_utilization) if self.sigma_utilization > 0 else 0.0
        reported = min(1.0, max(0.0, true_util + noise))
        delay = float(self.report_delay_ms)
        if self.sigma_delay_ms > 0:
            delay += self.rng.normal(0.0, self.sigma_delay_ms)
        arrives = now + max(0, int(round(delay)))
        return UtilizationReport(
            site_id=self.site_id,
            measured_at=now,
            arrives_at=arrives,
            utilization=reported,
            true_utilization=true_util,
        )


@dataclass
class _SiteBelief:
    utilization: float = 0.0
    measured_at: SimTime = -1
    pending: list[tuple[SimTime, float]] = field(default_factory=list)  # (assigned_at, est units)
    pending_sum: float = 0.0  # the pending units added left to right, in list order


class AdmissionController:
    """Prices sites by believed load and decides each round's bids in one
    pass: the clearing's losers are turned away, and each winner goes to the
    cheapest feasible site or is rejected."""

    GAMMA_PRICE = 2.0  # a site's price is its believed utilization to this power

    def __init__(self, sites: Sequence[ComputingSite]):
        if not sites:
            raise ValueError("need at least one computing site")
        self.sites = {s.site_id: s for s in sites}
        if len(self.sites) != len(sites):
            raise ValueError(f"site_id must be distinct, got {[s.site_id for s in sites]}")
        self.site_order = sorted(self.sites)
        self.beliefs = {sid: _SiteBelief() for sid in self.sites}
        self.prices = {sid: 0.0 for sid in self.sites}

    # -- belief maintenance --------------------------------------------------

    def _belief(self, site_id: str) -> _SiteBelief:
        try:
            return self.beliefs[site_id]
        except KeyError:
            raise ValueError(f"unknown site {site_id!r}") from None

    def on_report(self, report: UtilizationReport):
        belief = self._belief(report.site_id)
        if report.measured_at < belief.measured_at:
            return  # out-of-order stale report
        belief.utilization = report.utilization
        belief.measured_at = report.measured_at
        belief.pending = [(t, u) for t, u in belief.pending if t > report.measured_at]
        # a left-to-right fold, like note_assignment's running additions
        belief.pending_sum = left_sum(u for _, u in belief.pending)

    def note_assignment(self, site_id: str, now: SimTime, estimate: float):
        belief = self._belief(site_id)
        belief.pending.append((now, estimate))
        belief.pending_sum += estimate

    def believed_free(self, site_id: str) -> float:
        belief = self.beliefs[site_id]
        return max(0.0, self.sites[site_id].capacity * (1.0 - belief.utilization) - belief.pending_sum)

    def believed_beta(self) -> float:
        """Capacity-weighted mean utilization over the latest arrived reports."""
        total = left_sum(s.capacity for s in self.sites.values())
        return left_sum(self.sites[sid].capacity * b.utilization for sid, b in self.beliefs.items()) / total

    # -- service-demand estimates -------------------------------------------

    def type_estimate(self, service_type: str, fallback: float) -> float:
        """Capacity-weighted mean of the sites' learned estimates; bidder
        estimate for services no site has executed yet."""
        num = 0.0
        den = 0.0
        for site in self.sites.values():
            est = site.estimates.get(service_type)
            if est is not None:
                num += site.capacity * est
                den += site.capacity
        return num / den if den > 0 else fallback

    def compute_slots(self, demand_estimates: Mapping[str, float]) -> dict[str, int]:
        """Slots per type: how many requests of that type the believed free
        capacity of all sites could hold.

        Every type is sized against the same free total, so the slots summed
        over K types can reach K times the free capacity; `decide_round` then
        rejects the winners that no longer fit (most winners on a busy round).
        """
        free_total = left_sum(self.believed_free(sid) for sid in self.sites)
        slots = {}
        for service_type, estimate in demand_estimates.items():
            if not 0 < estimate < math.inf:
                raise ValueError(f"estimate for {service_type} must be finite and positive, got {estimate}")
            slots[service_type] = int(free_total // estimate)
        return slots

    # -- pricing and assignment ----------------------------------------------

    def rial_update_prices(self):
        for sid, belief in self.beliefs.items():
            self.prices[sid] = belief.utilization ** self.GAMMA_PRICE

    def decide_round(
        self,
        ordered_bids: Sequence[Bid],
        slots: Mapping[str, int],
        rng: RngStream,
        demand_estimates: Mapping[str, float],
        now: SimTime,
        outcome: Optional[AuctionOutcome] = None,
    ) -> list[AdmissionDecision]:
        """Admission plus assignment for one round.

        The top n_k bids of each type win the clearing `outcome` (cleared here
        from `slots` and `rng` when none is given); the rest are turned away
        as NoSlot. Decisions come back in priority order (price descending,
        submission order within equal prices), so constant-priority bidders
        see first-in, first-out handling. Boundary ties for the last slot of a
        type are resolved by the clearing's uniform random draw.

        Winners are placed in that order on the cheapest believed-feasible
        site, the lowest site id on equal prices, each placement shrinking
        the believed free capacity; winners that no longer fit anywhere are
        Rejected.

        Within the call no report arrives and no price changes, and only a
        placement changes a belief: it adds a positive estimate to the pending
        units of the one site it chose. So the sites' believed free capacities
        and prices are read once, and after a placement only the chosen
        site's free capacity is read again. Each site's believed free
        capacity only shrinks, so an estimate that fits on no site rules out
        every later estimate at least as large: those winners are Rejected
        without scanning the sites, with the same result as a scan.
        """
        if outcome is None:
            outcome = clear_auction(ordered_bids, slots, rng)
        winners = outcome.winners
        site_order = self.site_order
        free = [self.believed_free(sid) for sid in site_order]
        prices = [self.prices[sid] for sid in site_order]
        unfit = math.inf  # smallest estimate that fitted on no site this round
        decisions = []
        # sorting is stable under reverse=True too, so equal prices keep submission order
        for bid in sorted(ordered_bids, key=attrgetter("price"), reverse=True):
            if bid.bidder_id not in winners.get(bid.service_type, ()):
                decisions.append(AdmissionDecision(bid, False, None, "NoSlot"))
                continue
            estimate = demand_estimates.get(bid.service_type, bid.resource_estimate)
            if not 0 < estimate < math.inf:
                raise ValueError(f"estimate for {bid.service_type} must be finite and positive, got {estimate}")
            if estimate < unfit:
                best = None
                for j, room in enumerate(free):
                    if room >= estimate and (best is None or prices[j] < best_price):
                        best, best_price = j, prices[j]
                if best is not None:
                    sid = site_order[best]
                    self.note_assignment(sid, now, estimate)
                    free[best] = self.believed_free(sid)
                    decisions.append(AdmissionDecision(bid, True, sid, "Won"))
                    continue
                unfit = estimate
            decisions.append(AdmissionDecision(bid, False, None, "Rejected"))
        return decisions

