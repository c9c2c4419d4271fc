"""Scenario driver: wires the offloadsim layers into one event-driven run.

Every decision (bid, winners, price, slots, site, start, finish, drop,
report) comes from a call into a layer's public function. The scenario
keeps only three pieces of bookkeeping of its own:

- the pending requests of each vehicle, oldest first per service type, so a
  vehicle bids at most once per type and round (``clear_auction`` raises
  ``DuplicateBidError`` otherwise);
- per (vehicle, type) backoff timers;
- the site each admitted request went to (``Request.site``).

Mobility is not simulated: the synthetic catalog carries zero uplink and
downlink bits, so every transmission delay is 0 whatever the distance.

The layer entry points are held as attributes (``self.sample``,
``self.clear``, ``fleet.act``, ...) so that a traced run can wrap them
without the untraced run paying for an extra call.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from offloadsim import auction, workload
from offloadsim.agents import SUBMIT, AgentConfig, FeatureCodec, LearnerHyper, LearningFleet, PassiveFleet
from offloadsim.engine import EventKind, Simulator, derive_stream
from offloadsim.operating import AdmissionController, ComputingSite, ExecutionJob

BUDGET = 100.0


@dataclass(frozen=True)
class Workload:
    """One benchmark input. Rates are arrivals per simulated ms per vehicle."""

    name: str
    why: str
    fleet: str  # "train" (LearningFleet), "eval" (LearningFleet, frozen) or "passive"
    vehicles: int
    lambda_high: float
    lambda_low: float
    p_high: float  # per-second chance of leaving the High regime
    p_low: float  # per-second chance of leaving the Low regime
    sites: int
    site_capacity: float
    round_ms: int
    report_every_rounds: int
    report_delay_ms: int
    warmup_rounds: int
    # Rounds measured per --seconds: the untraced host rate on the reference
    # host (see README.md). A run's content depends on seed and --seconds only.
    rounds_per_s: float
    sigma_utilization: float = 0.05
    sigma_delay_ms: float = 5.0
    sigma_work: float = 0.1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fsp-train",
            why="learning bidders with training on: exercises the learner update path, auction and sites nearly idle",
            fleet="train",
            vehicles=32,
            lambda_high=0.004,
            lambda_low=0.001,
            p_high=0.3,
            p_low=0.1,
            sites=4,
            site_capacity=40.0,
            round_ms=100,
            report_every_rounds=2,
            report_delay_ms=100,
            warmup_rounds=50,
            rounds_per_s=52.0,
        ),
        Workload(
            name="fsp-eval",
            why="frozen learning bidders: forward passes only, so update and forward/predict changes are told apart",
            fleet="eval",
            vehicles=128,
            lambda_high=0.001,
            lambda_low=0.00025,
            p_high=0.3,
            p_low=0.1,
            sites=4,
            site_capacity=40.0,
            round_ms=100,
            report_every_rounds=2,
            report_delay_ms=100,
            warmup_rounds=50,
            rounds_per_s=200.0,
        ),
        Workload(
            name="crowd",
            why="hundreds of passive bidders on large sites: clearing, admission, sites and the engine, learner bypassed",
            fleet="passive",
            vehicles=400,
            lambda_high=0.03,
            lambda_low=0.0075,
            p_high=0.3,
            p_low=0.1,
            sites=16,
            site_capacity=128.0,
            round_ms=100,
            report_every_rounds=2,
            report_delay_ms=100,
            warmup_rounds=30,
            rounds_per_s=40.0,
        ),
    )
}


class Request:
    __slots__ = ("vehicle", "spec", "deadline_abs", "rebids", "site", "state")

    def __init__(self, vehicle, spec, deadline_abs):
        self.vehicle = vehicle
        self.spec = spec
        self.deadline_abs = deadline_abs
        self.rebids = 0
        self.site = None
        self.state = "pending"  # -> "site" -> "done"; or "expired" / "dropped"


class Vehicle:
    __slots__ = ("bidder_id", "type_rng", "arrival_rng", "mmpp", "next_t", "pending", "backoff_until")

    def __init__(self, bidder_id, type_rng, arrival_rng, mmpp):
        self.bidder_id = bidder_id
        self.type_rng = type_rng
        self.arrival_rng = arrival_rng
        self.mmpp = mmpp
        self.next_t = 0.0
        self.pending: dict[str, deque] = {}
        self.backoff_until: dict[str, int] = {}


class Stats:
    """Simulated outcomes, counted by the scenario from layer results."""

    def __init__(self):
        self.arrivals = 0
        self.completed = 0
        self.expired = 0  # deadline passed while still waiting to win
        self.dropped = 0  # deadline passed at a site
        self.admitted = 0
        self.capacity_violations: list[str] = []


class Scenario:
    """One seeded run of a workload, from config to a stream of rounds."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.timings: dict[str, float] = {}
        t0 = time.perf_counter()
        self.catalog = workload.synthetic_catalog()
        self.types = [s.type_id for s in self.catalog]
        self.units = {s.type_id: s.total_units for s in self.catalog}
        self.sample = workload.sample_service_request
        self.next_arrival = workload.mmpp_next_arrival
        self.clear = auction.clear_auction
        self.feedback = auction.feedback_for

        setup_rng = derive_stream(seed, "bench/setup")
        configs = []
        self.vehicles = []
        stationary_high = w.p_low / (w.p_high + w.p_low)
        for i in range(w.vehicles):
            bidder_id = f"v{i:03d}"
            slope = setup_rng.uniform(0.5, 2.0) if w.fleet == "passive" else 1.0
            configs.append(AgentConfig(bidder_id=bidder_id, budget=BUDGET, valuation_slope=slope))
            arrival_rng = derive_stream(seed, f"vehicle/{bidder_id}/arrivals")
            regime = "High" if arrival_rng.uniform() < stationary_high else "Low"
            mmpp = workload.MmppState(regime, w.lambda_high, w.lambda_low, w.p_high, w.p_low)
            self.vehicles.append(Vehicle(bidder_id, derive_stream(seed, f"vehicle/{bidder_id}/types"), arrival_rng, mmpp))
        self.roster = frozenset(c.bidder_id for c in configs)
        self.index = {c.bidder_id: i for i, c in enumerate(configs)}
        self.max_budget = max(c.budget for c in configs)
        self.auction_rng = derive_stream(seed, "auction")

        t_fleet = time.perf_counter()
        if w.fleet == "passive":
            self.fleet = PassiveFleet(configs)
        else:
            hyper = LearnerHyper()
            codec = FeatureCodec(
                type_ids=self.types,
                work_max=max(self.units.values()),
                deadline_max=max(s.deadline_ms for s in self.catalog),
                price_max=BUDGET,
                fleet_size=w.vehicles,
                window=hyper.window,
            )
            self.fleet = LearningFleet(configs, codec, root_seed=seed, hyper=hyper)
            if w.fleet == "eval":
                self.fleet.freeze()
        self.timings["fleet_s"] = time.perf_counter() - t_fleet

        self.sites = [
            ComputingSite(
                f"s{j:02d}",
                w.site_capacity,
                derive_stream(seed, f"site/s{j:02d}"),
                report_delay_ms=w.report_delay_ms,
                sigma_delay_ms=w.sigma_delay_ms,
                sigma_utilization=w.sigma_utilization,
                sigma_work=w.sigma_work,
            )
            for j in range(w.sites)
        ]
        self.controller = AdmissionController(self.sites)
        self.site_by_id = {s.site_id: s for s in self.sites}

        self.stats = Stats()
        self.round = -1
        self.record = None  # (bids, slots, outcome, decisions, reports) of the round just played
        self.feedbacks = [None] * w.vehicles
        self.active: set[int] = set()  # vehicles with at least one pending request
        self._empty: dict = {}
        self._views = [self._empty] * w.vehicles

        self.sim = Simulator()
        self.handlers = {
            EventKind.SERVICE_ARRIVAL: self.on_arrival,
            EventKind.AUCTION_CLEAR: self.on_clear,
            EventKind.EXECUTION_COMPLETE: self.on_complete,
            EventKind.DEADLINE_EXPIRY: self.on_deadline,
            EventKind.UTILIZATION_REPORT_ARRIVAL: self.on_report,
        }
        for kind, handler in self.handlers.items():
            self.sim.on(kind, handler)
        for i, v in enumerate(self.vehicles):
            self._schedule_arrival(self.sim, i, v)
        self.sim.schedule(0, EventKind.AUCTION_CLEAR)
        self.timings["setup_s"] = time.perf_counter() - t0

    # -- streams --------------------------------------------------------------------

    def streams(self):
        """Every random stream the run draws from after set-up."""
        out = [self.auction_rng]
        for v in self.vehicles:
            out += (v.type_rng, v.arrival_rng)
        out += [s.rng for s in self.sites]
        if isinstance(self.fleet, LearningFleet):
            out += self.fleet.act_streams + self.fleet.sl_streams
        return out

    # -- rounds ---------------------------------------------------------------------

    def play_round(self):
        """Process every event of the next round period, starting at its clear."""
        self.round += 1
        self.record = None
        self.sim.run_until((self.round + 1) * self.w.round_ms - 1)

    # -- handlers -------------------------------------------------------------------

    def _schedule_arrival(self, sim, i, v):
        gap, v.mmpp = self.next_arrival(v.mmpp, v.arrival_rng)
        v.next_t += gap
        sim.schedule(int(v.next_t), EventKind.SERVICE_ARRIVAL, vehicle=i)

    def on_arrival(self, sim, event):
        i = event.payload["vehicle"]
        v = self.vehicles[i]
        spec = self.sample(self.catalog, v.type_rng)
        req = Request(i, spec, sim.clock + spec.deadline_ms)
        queue = v.pending.get(spec.type_id)
        if queue is None:
            v.pending[spec.type_id] = deque((req,))
        else:
            queue.append(req)
        self.active.add(i)
        self.stats.arrivals += 1
        sim.schedule(req.deadline_abs, EventKind.DEADLINE_EXPIRY, request=req)
        self._schedule_arrival(sim, i, v)

    def on_clear(self, sim, event):
        now = sim.clock
        w = self.w
        sim.schedule(now + w.round_ms, EventKind.AUCTION_CLEAR)
        beta = self.controller.believed_beta()

        views = self._views
        bidding = []
        for i in sorted(self.active):
            v = self.vehicles[i]
            view = {}
            for type_id, queue in v.pending.items():
                if v.backoff_until.get(type_id, 0) <= now:
                    req = queue[0]
                    view[type_id] = (req.spec.total_units, req.deadline_abs - now)
            if view:
                views[i] = view
                bidding.append(i)
        directives = self.fleet.act(self.feedbacks, views, len(bidding), beta, (now % 1000) / 1000.0)

        bids = []
        for i in bidding:
            views[i] = self._empty
            v = self.vehicles[i]
            for type_id, (verb, value) in directives[i].items():
                if verb == SUBMIT:
                    req = v.pending[type_id][0]
                    bids.append(
                        auction.Bid(v.bidder_id, type_id, value, req.spec.total_units, req.deadline_abs, req.rebids, req)
                    )
                else:
                    v.backoff_until[type_id] = now + value

        controller = self.controller
        demand = {t: controller.type_estimate(t, self.units[t]) for t in self.types}
        slots = controller.compute_slots(demand)
        outcome = self.clear(bids, slots, self.auction_rng, roster=self.roster)
        controller.rial_update_prices()
        decisions = controller.decide_round(bids, slots, self.auction_rng, demand, now, outcome)
        for d in decisions:
            req = d.bid.request_key
            if d.admitted:
                self._unqueue(req)
                site = self.site_by_id[d.assigned_site]
                req.site = site
                req.state = "site"
                job = ExecutionJob(
                    req, d.bid.bidder_id, req.spec.type_id, tuple(t.resource_units for t in req.spec.task_chain), req.deadline_abs
                )
                self._started(sim, site, site.accept(job, now))
                self.stats.admitted += 1
            else:
                req.rebids += 1

        # sites report right after this round's admissions, which the
        # controller's pending list also counts up to the measuring time
        reports = []
        if self.round % w.report_every_rounds == 0:
            for site in self.sites:
                report = site.report_utilization(now)
                sim.schedule(report.arrives_at, EventKind.UTILIZATION_REPORT_ARRIVAL, report=report)
                reports.append(report)

        feedbacks = [None] * w.vehicles
        index = self.index
        for bidder_id in outcome.participants:
            feedbacks[index[bidder_id]] = self.feedback(outcome, bidder_id, beta)
        self.feedbacks = feedbacks
        self.record = (bids, slots, outcome, decisions, reports)

    def _unqueue(self, req):
        """Take a request out of its vehicle's pending queue (usually its head)."""
        v = self.vehicles[req.vehicle]
        queue = v.pending[req.spec.type_id]
        if queue[0] is req:
            queue.popleft()
        else:
            queue.remove(req)
        if not queue:
            del v.pending[req.spec.type_id]
            if not v.pending:
                self.active.discard(req.vehicle)

    def _started(self, sim, site, started):
        if site.busy_units > site.servers:
            self.stats.capacity_violations.append(f"{site.site_id}: {site.busy_units} busy > {site.servers} servers")
        for job in started:
            sim.schedule(job.completes_at, EventKind.EXECUTION_COMPLETE, site=site, request=job.request_key)

    def on_complete(self, sim, event):
        site = event.payload["site"]
        job, started = site.finish(event.payload["request"], sim.clock)
        if job is not None:
            job.request_key.state = "done"
            self.stats.completed += 1
        self._started(sim, site, started)

    def on_deadline(self, sim, event):
        req = event.payload["request"]
        if req.state == "pending":
            self._unqueue(req)
            req.state = "expired"
            self.stats.expired += 1
        elif req.state == "site":
            dropped, started = req.site.drop(req, sim.clock)
            if dropped:
                req.state = "dropped"
                self.stats.dropped += 1
            self._started(sim, req.site, started)

    def on_report(self, sim, event):
        self.controller.on_report(event.payload["report"])
