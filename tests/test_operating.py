import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim.auction import Bid, clear_auction
from offloadsim.engine import derive_stream
from offloadsim.operating import (
    AdmissionController,
    ComputingSite,
    ExecutionJob,
    UtilizationReport,
)


def make_site(site_id="edge", capacity=1.0, **kw):
    return ComputingSite(site_id, capacity, derive_stream(1, f"site/{site_id}"), **kw)


def job(key, units=(3.0,), deadline=1000, service_type="F1"):
    return ExecutionJob(key, "veh0", service_type, tuple(units), deadline)


def report(site_id, measured, util, arrives=None):
    return UtilizationReport(site_id, measured, arrives if arrives is not None else measured, util, util)


def place(aca, estimate, now=0):
    """One winning bid through `decide_round`; its decision."""
    [decision] = aca.decide_round(
        [Bid("m0", "F1", 5.0, estimate, 300)], {"F1": 1}, derive_stream(1, "auction"), {"F1": estimate}, now
    )
    return decision


class FakeStream:
    """Duck-typed stream returning scripted normal draws."""

    def __init__(self, normals):
        self._normals = list(normals)

    def normal(self, loc=0.0, scale=1.0):
        return self._normals.pop(0)


class TestExecution:
    def test_unit_task_runs_at_unit_rate(self):
        site = make_site(capacity=1)
        started = site.accept(job("r1", (3.0,)), now=0)
        assert [j.request_key for j in started] == ["r1"]
        assert started[0].completes_at == 3
        done, _ = site.finish("r1", 3)
        assert done is not None and done.request_key == "r1"

    def test_chain_runs_sequentially(self):
        site = make_site(capacity=1)
        (j,) = site.accept(job("r1", (3.0, 30.0)), now=0)
        assert j.completes_at == 33  # the second task waits for the first

    def test_excess_load_queues_fifo(self):
        site = make_site(capacity=1)
        site.accept(job("r1", (10.0,)), now=0)
        assert site.accept(job("r2", (5.0,)), now=0) == []
        assert len(site.queue) == 1
        _, started = site.finish("r1", 10)
        assert [j.request_key for j in started] == ["r2"]
        assert started[0].completes_at == 15

    def test_queued_job_can_be_dropped_before_start(self):
        # deadline shorter than the queueing delay alone
        site = make_site(capacity=1)
        site.accept(job("r1", (60.0,)), now=0)
        site.accept(job("r2", (3.0,), deadline=50), now=0)
        dropped, started = site.drop("r2", 50)
        assert dropped and started == []
        _, started = site.finish("r1", 60)
        assert started == []  # the dropped job never starts

    def test_drop_running_frees_server(self):
        site = make_site(capacity=1)
        site.accept(job("r1", (100.0,), deadline=50), now=0)
        site.accept(job("r2", (5.0,)), now=0)
        dropped, started = site.drop("r1", 50)
        assert dropped
        assert [j.request_key for j in started] == ["r2"]
        assert site.finish("r1", 100) == (None, [])  # stale completion is a no-op

    def test_busy_units_never_exceed_capacity(self):
        site = make_site(capacity=3)
        rng = derive_stream(5, "driver")
        live = []
        for i in range(200):
            site.accept(job(f"r{i}", (1.0 + rng.uniform(0, 5),)), now=i)
            live.append(f"r{i}")
            assert site.busy_units <= site.servers
            if rng.uniform() < 0.5 and live:
                key = live.pop(0)
                j = site.running.get(key)
                if j is not None:
                    site.finish(key, j.completes_at)
                else:
                    site.drop(key, i)
            assert site.busy_units <= site.servers

    def test_fractional_work_rounds_up(self):
        site = make_site(capacity=1)
        (j,) = site.accept(job("r1", (2.4,)), now=0)
        assert j.completes_at == 3

    @pytest.mark.parametrize("capacity, keys", [(2, ["K"]), (1, ["r0", "K"])], ids=["running", "queued"])
    def test_accept_refuses_a_key_it_holds(self, capacity, keys):
        # a second job under K would replace the first, whose completion
        # would then find nothing to finish: the site would lose a job
        site = make_site(capacity=capacity)
        for key in keys:
            site.accept(job(key, (3.0,)), now=0)
        held = [(d, dict(d)) for d in (site.running, site.queue)]
        first = site.running.get("K") or site.queue["K"]
        with pytest.raises(ValueError, match="site edge already holds request 'K'"):
            site.accept(job("K", (5.0,)), now=1)
        assert all(d.keys() == before.keys() and all(d[k] is before[k] for k in d) for d, before in held)
        if capacity == 1:
            site.finish("r0", 3)
        assert site.finish("K", first.completes_at) == (first, [])


LIFECYCLE_OPS = st.tuples(st.sampled_from(["accept", "advance", "finish", "drop"]), st.integers(0, 15), st.integers(0, 10))


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    sigma_work=st.sampled_from([0.0, 0.3]),
    ops=st.lists(LIFECYCLE_OPS, max_size=50),
)
def test_site_job_lifecycle(capacity, sigma_work, ops):
    """Random accept/finish/drop sequences, driven in event order.

    "advance" completes the running job that is due first, as the event
    loop would; "finish" and "drop" target any job ever accepted, done or
    not. A job is ended by exactly one successful finish or drop, and a job
    is live while the site holds it, queued or running.
    """
    site = make_site(capacity=capacity, sigma_work=sigma_work)
    jobs: list[ExecutionJob] = []
    ends: dict[str, int] = {}
    now = 0

    def next_due():
        return min(site.running.values(), key=lambda j: (j.completes_at, j.request_key), default=None)

    def held(j):
        return j.request_key in site.running or j.request_key in site.queue

    def check_started(started):
        for j in started:  # each task takes at least 1 ms
            assert site.running[j.request_key] is j and j.request_key not in site.queue
            assert j.completes_at >= now + len(j.task_units)

    def advance():
        nonlocal now
        due = next_due()
        now = due.completes_at
        done, started = site.finish(due.request_key, now)
        assert done is due and not held(due)
        ends[due.request_key] = ends.get(due.request_key, 0) + 1
        check_started(started)

    for op, pick, dt in ops:
        due = next_due()
        now = min(now + dt, due.completes_at) if due is not None else now + dt
        if op == "accept" or not jobs:
            new = job(f"r{len(jobs)}", units=(1.0 + pick % 7,))
            jobs.append(new)
            check_started(site.accept(new, now))
        elif op == "advance":
            if site.running:
                advance()
        else:
            target = jobs[pick % len(jobs)]
            key = target.request_key
            was_done = not held(target)
            busy = site.busy_units
            if op == "finish":
                due_now = key in site.running and target.completes_at == now
                done, started = site.finish(key, now)
                if due_now:
                    assert done is target and not held(target)
                    ends[key] = ends.get(key, 0) + 1
                    check_started(started)
                else:  # done already, queued, or not due yet
                    assert (done, started) == (None, [])
            else:
                dropped, started = site.drop(key, now)
                if was_done:
                    assert (dropped, started) == (False, [])
                else:
                    assert dropped and not held(target)
                    ends[key] = ends.get(key, 0) + 1
                    check_started(started)
            if was_done:
                assert site.busy_units == busy
        assert site.busy_units <= site.servers
        assert all(ends.get(j.request_key, 0) == int(not held(j)) for j in jobs)

    while site.running:
        advance()
        assert site.busy_units <= site.servers
    assert not site.queue and all(ends[j.request_key] == 1 for j in jobs)


class TestEstimates:
    def test_first_observation_initializes(self):
        site = make_site()
        site.update_service_estimate("F2", 30.0)
        assert site.estimates["F2"] == 30.0

    def test_fixed_point(self):
        site = make_site()
        site.update_service_estimate("F2", 30.0)
        site.update_service_estimate("F2", 30.0)
        assert site.estimates["F2"] == 30.0

    def test_moving_average_step(self):
        site = make_site()
        site.update_service_estimate("F2", 30.0)
        site.update_service_estimate("F2", 40.0)
        assert site.estimates["F2"] == pytest.approx(31.0)

    def test_type_estimate_is_capacity_weighted(self):
        # only the sites that have run the type count, each by its capacity
        small, large, idle = make_site("a", 2.0), make_site("b", 6.0), make_site("c", 30.0)
        small.update_service_estimate("F2", 10.0)
        large.update_service_estimate("F2", 30.0)
        aca = AdmissionController([small, large, idle])
        assert aca.type_estimate("F2", fallback=99.0) == (2.0 * 10.0 + 6.0 * 30.0) / 8.0
        assert aca.type_estimate("F1", fallback=99.0) == 99.0  # no site has run F1 yet

    def test_rejects_nonpositive(self):
        # a NaN estimate would surface only later, in compute_slots
        site = make_site()
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="observed_units"):
                site.update_service_estimate("F2", bad)
        assert site.estimates == {}


class TestSiteParameters:
    # below 1 the site has no server, so a job it admits would never start
    @pytest.mark.parametrize("capacity", [0.0, 0.7, math.inf, math.nan])
    def test_bad_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            make_site(capacity=capacity)

    # a negative or NaN sigma would silently turn its noise off; an infinite
    # sigma_utilization would make every report 0.0 or 1.0
    @pytest.mark.parametrize("name", ["sigma_delay_ms", "sigma_utilization", "sigma_work"])
    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_bad_sigma_rejected(self, name, sigma):
        with pytest.raises(ValueError, match=name):
            make_site(**{name: sigma})


    # a fractional delay would be truncated, and True taken as 1
    @pytest.mark.parametrize("delay", [-1, math.nan, math.inf, 2.5, True])
    def test_bad_report_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="report_delay_ms"):
            make_site(report_delay_ms=delay)


class TestReports:
    def test_noiseless_report_is_exact(self):
        site = make_site(capacity=2, report_delay_ms=50)
        site.accept(job("r1", (10.0,)), now=0)
        rep = site.report_utilization(7)
        assert rep.measured_at == 7 and rep.arrives_at == 57
        assert rep.utilization == 0.5 and rep.true_utilization == 0.5

    def test_noisy_utilization_clamped(self):
        site = make_site(capacity=1, sigma_utilization=0.05)
        site.rng = FakeStream([0.05])
        site.accept(job("r1", (10.0,)), now=0)  # true utilization 1.0
        rep = site.report_utilization(0)
        assert rep.utilization == 1.0

    def test_delay_noise_sample_mean(self):
        site = make_site(report_delay_ms=50, sigma_delay_ms=5.0)
        n = 10_000
        mean = sum(site.report_utilization(0).arrives_at for _ in range(n)) / n
        assert abs(mean - 50.0) <= 3 * 5.0 / 100 * 10  # loose CLT bound

    def test_arrival_before_measurement_rejected(self):
        with pytest.raises(ValueError):
            UtilizationReport("edge", 10, 5, 0.5, 0.5)

    @pytest.mark.parametrize("util", [1.5, -0.1])
    def test_unclamped_utilization_rejected(self, util):
        with pytest.raises(ValueError, match="clamped"):
            UtilizationReport("edge", 0, 0, util, 0.5)


class TestSlots:
    def controller(self, capacities=(30.0, 30.0)):
        sites = [make_site("edge", capacities[0]), make_site("remote", capacities[1])]
        return AdmissionController(sites)

    def test_no_site_rejected(self):
        with pytest.raises(ValueError, match="at least one computing site"):
            AdmissionController([])

    def test_repeated_site_id_rejected(self):
        # the later site would silently replace the earlier one
        with pytest.raises(ValueError, match="site_id"):
            AdmissionController([make_site("edge", 30.0), make_site("remote", 30.0), make_site("edge", 6.0)])

    def test_floor_division(self):
        aca = self.controller()
        aca.on_report(report("edge", 0, 0.0))
        aca.on_report(report("remote", 0, 0.0))
        assert aca.compute_slots({"F2": 30.0}) == {"F2": 2}

    def test_no_free_capacity(self):
        aca = self.controller()
        aca.on_report(report("edge", 0, 1.0))
        aca.on_report(report("remote", 0, 1.0))
        assert aca.compute_slots({"F1": 3.0, "F2": 30.0}) == {"F1": 0, "F2": 0}

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_estimate_rejected(self, bad):
        # NaN passed the <= 0 check and then failed in int() naming nothing
        aca = self.controller()
        with pytest.raises(ValueError, match="estimate for F2 must be finite"):
            aca.compute_slots({"F1": 3.0, "F2": bad})

    def test_belief_uses_stale_report(self):
        # a burst filled the sites after the last report was measured: the
        # controller still believes the old free capacity and overcommits
        aca = self.controller()
        aca.on_report(report("edge", 0, 0.0, arrives=0))  # free 30 believed
        aca.on_report(report("remote", 0, 1.0, arrives=0))
        for s in aca.sites.values():  # truth: both completely full
            for i in range(s.servers):
                s.accept(job(f"x{s.site_id}{i}", (100.0,)), now=5)
        assert aca.compute_slots({"F1": 3.0}) == {"F1": 10}

    def test_assignments_shrink_belief(self):
        aca = self.controller()
        aca.on_report(report("edge", 0, 0.0))
        aca.on_report(report("remote", 0, 1.0))
        assert place(aca, 10.0, now=1).assigned_site == "edge"
        assert aca.believed_free("edge") == 20.0
        # a fresher report clears the pending adjustment
        aca.on_report(report("edge", 2, 0.5))
        assert aca.believed_free("edge") == 15.0


class TestUnknownSite:
    def controller(self):
        aca = AdmissionController([make_site("edge", 30.0)])
        aca.on_report(report("edge", 0, 0.5))
        aca.note_assignment("edge", 1, 3.0)
        return aca

    def belief(self, aca):
        b = aca.beliefs["edge"]
        return (b.utilization, b.measured_at, list(b.pending), b.pending_sum, set(aca.beliefs))

    def test_report_from_an_unknown_site_rejected(self):
        aca = self.controller()
        before = self.belief(aca)
        with pytest.raises(ValueError, match="'zz'"):
            aca.on_report(report("zz", 2, 0.1))
        assert self.belief(aca) == before

    def test_assignment_to_an_unknown_site_rejected(self):
        aca = self.controller()
        before = self.belief(aca)
        with pytest.raises(ValueError, match="'zz'"):
            aca.note_assignment("zz", 2, 3.0)
        assert self.belief(aca) == before


def admit_on_roomy_site(ordered, slots, rng, outcome=None):
    """`decide_round` on one idle site with room for every winner, so each
    winner is Won on that site and only the clearing decides the rest."""
    aca = AdmissionController([make_site("edge", 1000.0)])
    return aca.decide_round(ordered, slots, rng, {}, now=0, outcome=outcome)


class TestAdmit:
    def bids(self, prices, service_type="F1"):
        return [Bid(f"m{i}", service_type, p, 3.0, 300) for i, p in enumerate(prices)]

    def test_top_slot_admitted(self):
        rng = derive_stream(1, "auction")
        decisions = admit_on_roomy_site(self.bids([5.0, 3.0, 2.0]), {"F1": 1}, rng)
        assert [d.reason for d in decisions] == ["Won", "NoSlot", "NoSlot"]
        assert [d.assigned_site for d in decisions] == ["edge", None, None]

    def test_constant_priority_is_fifo(self):
        rng = derive_stream(1, "auction")
        decisions = admit_on_roomy_site(self.bids([4.0, 4.0, 4.0]), {"F1": 3}, rng)
        assert [d.bid.bidder_id for d in decisions] == ["m0", "m1", "m2"]
        assert all(d.admitted and d.assigned_site == "edge" for d in decisions)

    def test_spare_slots(self):
        rng = derive_stream(1, "auction")
        decisions = admit_on_roomy_site(self.bids([5.0, 3.0]), {"F1": 5}, rng)
        assert all(d.reason == "Won" for d in decisions)


# few distinct prices, so most bids tie; Bid accepts both zeros, which compare equal
TIED_PRICES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 5.0]), st.floats(0.0, 100.0))


@settings(max_examples=200, deadline=None)
@given(
    bids=st.lists(st.tuples(st.sampled_from("AB"), TIED_PRICES), max_size=40),
    slots=st.fixed_dictionaries({t: st.integers(0, 10) for t in "AB"}),
)
def test_admit_orders_by_price_then_submission(bids, slots):
    ordered = [Bid(f"m{i}", t, price, 3.0, 300) for i, (t, price) in enumerate(bids)]
    decisions = admit_on_roomy_site(ordered, slots, derive_stream(1, "auction"))
    price = [b.price for b in ordered]
    want = sorted(range(len(ordered)), key=lambda i: (-price[i], i))
    assert [d.bid.bidder_id for d in decisions] == [f"m{i}" for i in want]
    # every field of every decision, the bid itself included, against a clearing on a twin stream
    outcome = clear_auction(ordered, slots, derive_stream(1, "auction"))
    for d, i in zip(decisions, want):
        won = ordered[i].bidder_id in outcome.winners.get(ordered[i].service_type, ())
        assert d.bid is ordered[i]
        assert (d.admitted, d.assigned_site, d.reason) == ((True, "edge", "Won") if won else (False, None, "NoSlot"))


class TestAssignment:
    def controller_with_prices(self, edge_util, remote_util):
        aca = AdmissionController([make_site("edge", 30.0), make_site("remote", 30.0)])
        aca.on_report(report("edge", 0, edge_util))
        aca.on_report(report("remote", 0, remote_util))
        aca.rial_update_prices()
        return aca

    def test_min_price_site_wins(self):
        aca = self.controller_with_prices(0.2, 0.8)
        assert place(aca, 3.0).assigned_site == "edge"

    def test_infeasible_site_skipped(self):
        aca = self.controller_with_prices(1.0, 0.5)
        assert place(aca, 3.0).assigned_site == "remote"

    def test_equal_prices_tie_to_lowest_id(self):
        aca = self.controller_with_prices(0.5, 0.5)
        assert place(aca, 3.0).assigned_site == "edge"

    def test_no_feasible_site(self):
        aca = self.controller_with_prices(1.0, 1.0)
        decision = place(aca, 3.0)
        assert (decision.admitted, decision.reason, decision.assigned_site) == (False, "Rejected", None)

    def test_price_rule(self):
        aca = self.controller_with_prices(0.0, 1.0)
        assert aca.prices == {"edge": 0.0, "remote": 1.0}
        aca.beliefs["edge"].utilization = 0.5
        aca.rial_update_prices()
        assert aca.prices["edge"] == pytest.approx(0.25)

    def test_decide_round_rejects_overflow(self):
        # one 3-unit slot believed free per site
        aca = AdmissionController([make_site("edge", 6.0), make_site("remote", 6.0)])
        aca.on_report(report("edge", 0, 0.5))
        aca.on_report(report("remote", 0, 0.5))
        aca.rial_update_prices()
        rng = derive_stream(1, "auction")
        bids = [Bid("m0", "F1", 5.0, 3.0, 300), Bid("m1", "F1", 4.0, 3.0, 300), Bid("m2", "F1", 3.0, 3.0, 300)]
        decisions = aca.decide_round(bids, {"F1": 3}, rng, {"F1": 3.0}, now=0)
        assert [d.reason for d in decisions] == ["Won", "Won", "Rejected"]
        assert decisions[0].assigned_site == "edge"
        assert decisions[1].assigned_site == "remote"
        assert all(d.admitted == (d.assigned_site is not None) for d in decisions)

    def test_decide_round_rejects_non_positive_estimate(self):
        aca = self.controller_with_prices(0.0, 0.0)
        bids = [Bid("m0", "F1", 5.0, 3.0, 300)]
        with pytest.raises(ValueError):
            aca.decide_round(bids, {"F1": 1}, derive_stream(1, "auction"), {"F1": 0.0}, now=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_decide_round_rejects_non_finite_estimate(self, bad):
        # a NaN estimate used to mark the type's winners Rejected without an error
        aca = self.controller_with_prices(0.0, 0.0)
        bids = [Bid("m0", "F1", 5.0, 3.0, 300)]
        with pytest.raises(ValueError, match="estimate for F1 must be finite"):
            aca.decide_round(bids, {"F1": 1}, derive_stream(1, "auction"), {"F1": bad}, now=0)


def fold_sum(values):
    """Left to right, as `sum()` adds floats before Python 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def reference_assign(winners, estimates, capacity, utilization, pending, prices):
    """Naive assignment: for every winner, scan every site in id order with
    the full pending sum; cheapest feasible site, lowest id on equal price."""
    pending = {sid: list(units) for sid, units in pending.items()}
    placed = []
    for bid in winners:
        estimate = estimates.get(bid.service_type, bid.resource_estimate)
        best = None
        for sid in sorted(capacity):
            free = max(0.0, capacity[sid] * (1.0 - utilization[sid]) - fold_sum(pending[sid]))
            if free >= estimate and (best is None or prices[sid] < prices[best]):
                best = sid
        if best is not None:
            pending[best].append(estimate)
        placed.append(best)
    return placed, pending


# estimates a few tenths apart, some not exact in binary, so fits are decided
# at the boundary and the order of additions shows in the sums
UNITS = st.sampled_from([0.1, 0.7, 1.0, 2.9, 3.0, 3.3, 7.0, 10.0, 33.0])
UTILIZATION = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 0.7, 0.9, 1.0]), st.floats(0.0, 1.0))
BELIEF_OPS = st.lists(
    st.tuples(st.sampled_from(["assign"] * 3 + ["report"]), st.integers(0, 3), st.integers(0, 8), UNITS, UTILIZATION),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    capacities=st.lists(st.sampled_from([3.0, 6.0, 10.0, 12.5, 30.0, 1.3]), min_size=1, max_size=4),
    ops=BELIEF_OPS,
    prices=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=4, max_size=4),
    estimates=st.dictionaries(st.sampled_from("ABC"), UNITS),
    bids=st.lists(st.tuples(st.sampled_from("ABCD"), st.sampled_from([1.0, 2.0, 5.0]), UNITS), max_size=25),
    slots=st.fixed_dictionaries({t: st.integers(0, 12) for t in "ABCD"}),
)
def test_belief_and_decide_round_match_naive_reference(capacities, ops, prices, estimates, bids, slots):
    """Random reports and prior assignments, then one round: the running
    pending sum equals the fold of the pending list, believed free capacity is
    never negative, and decide_round places and rejects exactly as a full
    scan per winner would."""
    aca = AdmissionController([make_site(f"s{j}", cap) for j, cap in enumerate(capacities)])
    sids = aca.site_order

    def check_beliefs():
        for sid in sids:
            belief = aca.beliefs[sid]
            assert belief.pending_sum == fold_sum(u for _, u in belief.pending)
            assert aca.believed_free(sid) >= 0.0

    # op i happens at t = i; a report arrives `lag` ms after it was measured
    for now, (kind, j, lag, units, util) in enumerate(ops):
        sid = sids[j % len(sids)]
        if kind == "assign":
            aca.note_assignment(sid, now, units)
        else:
            aca.on_report(report(sid, max(0, now - lag), util, arrives=now))
        check_beliefs()

    for sid, price in zip(sids, prices):
        aca.prices[sid] = price
    ordered = [Bid(f"m{i}", t, price, units, 300) for i, (t, price, units) in enumerate(bids)]
    rng = derive_stream(1, "auction")
    outcome = clear_auction(ordered, slots, rng)
    # winners in priority order: price descending, submission order within a price
    winners = [
        b for b in sorted(ordered, key=lambda b: -b.price) if b.bidder_id in outcome.winners.get(b.service_type, ())
    ]
    want_sites, want_pending = reference_assign(
        winners,
        estimates,
        capacity={sid: aca.sites[sid].capacity for sid in sids},
        utilization={sid: aca.beliefs[sid].utilization for sid in sids},
        pending={sid: [u for _, u in aca.beliefs[sid].pending] for sid in sids},
        prices=aca.prices,
    )

    decisions = aca.decide_round(ordered, slots, rng, estimates, now=len(ops), outcome=outcome)
    got = [d for d in decisions if d.reason != "NoSlot"]
    assert [d.bid for d in got] == winners
    assert [d.assigned_site for d in got] == want_sites
    assert [d.reason for d in got] == ["Won" if sid else "Rejected" for sid in want_sites]
    assert all(d.admitted == (d.assigned_site is not None) for d in decisions)
    assert {sid: [u for _, u in aca.beliefs[sid].pending] for sid in sids} == want_pending
    check_beliefs()
