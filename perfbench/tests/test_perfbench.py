"""Tests of the benchmark itself: smoke runs, replay determinism, and that
every output check fires on a violating outcome.

    python3 -m pytest -q perfbench/tests
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from checks import Monitor, check_round
from hostspeed import REFERENCE_S, HostSpeed
from offloadsim.agents import NumericalInstabilityError
from offloadsim.auction import Bid, clear_auction
from offloadsim.engine import derive_stream
from offloadsim.operating import AdmissionDecision, ExecutionJob
from scenario import WORKLOADS, Scenario

RUN = Path(__file__).resolve().parents[1] / "run.py"


def run_cli(*args):
    out = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True, timeout=170)
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out = run_cli("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 3 * (WORKLOADS[workload].warmup_rounds + 11)  # 3 replays, 11 rounds measured
    assert set(result["metrics"]) == {"sim_speed", "round_host_p50_ms", "round_host_tail_ms", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_matches_untraced_digest():
    out = run_cli("--workload", "crowd", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert "bench.trace_overhead" in result["metrics"] and "engine.rng_draws" in result["metrics"]
    digests = [line.split()[2] for line in out.stdout.splitlines() if line.startswith("replay_digest")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_host_speed_scale_uses_median_of_probes_around_the_interval():
    speed = HostSpeed()
    speed.samples = [1.0, 2.0, 4.0, 8.0, 100.0]
    # Between probes 2 and 3: probes 1..4, median (4 + 8) / 2.
    assert speed.scale(2) == pytest.approx(REFERENCE_S / 6.0)
    # At the ends the window is cut short: probes 0..2, median 2.
    assert speed.scale(0) == pytest.approx(REFERENCE_S / 2.0)


def test_unknown_workload_exits_nonzero_without_result():
    out = run_cli("--workload", "nope", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def play(workload, seed, rounds):
    scn = Scenario(WORKLOADS[workload], seed)
    monitor = Monitor(scn)
    for _ in range(rounds):
        scn.play_round()
        monitor.after_round(None)
    monitor.finish()
    return monitor


def test_same_seed_gives_same_digest():
    a, b, c = play("crowd", 5, 30), play("crowd", 5, 30), play("crowd", 6, 30)
    assert a.digest == b.digest
    assert a.outputs == b.outputs
    assert a.digest != c.digest
    assert a.failed == 0 and not a.problems


# -- each check fires on a violating outcome ----------------------------------------


def cleared_round():
    bids = [Bid(f"b{i}", "T", price, 3.0, 100, request_key=i) for i, price in enumerate((9.0, 7.0, 5.0))]
    slots = {"T": 2}
    outcome = clear_auction(bids, slots, derive_stream(0, "test"))
    decisions = [
        AdmissionDecision(bid=b, admitted=b.bidder_id in outcome.winners["T"], assigned_site=None, reason="NoSlot")
        for b in bids
    ]
    for d in decisions:
        if d.admitted:
            d.assigned_site, d.reason = "s00", "Won"
    return bids, slots, outcome, decisions


def test_valid_round_passes_every_check():
    assert check_round(*cleared_round(), max_budget=100.0, use_oracle=True) == []


def test_payment_outside_budget_is_caught():
    bids, slots, outcome, decisions = cleared_round()
    outcome.payment_vector["T"] = 101.0
    problems = check_round(bids, slots, outcome, decisions, max_budget=100.0, use_oracle=False)
    assert any("outside" in p for p in problems)


def test_payment_above_a_winning_bid_is_caught():
    bids, slots, outcome, decisions = cleared_round()
    outcome.payment_vector["T"] = 8.0  # the 7.0 bid won
    problems = check_round(bids, slots, outcome, decisions, max_budget=100.0, use_oracle=False)
    assert any("above winning bid" in p for p in problems)


def test_admissions_beyond_slots_are_caught():
    bids, slots, outcome, decisions = cleared_round()
    decisions[2].admitted, decisions[2].assigned_site = True, "s00"
    problems = check_round(bids, slots, outcome, decisions, max_budget=100.0, use_oracle=False)
    assert any("admitted > 2 slots" in p for p in problems)


def test_admission_without_site_is_caught():
    bids, slots, outcome, decisions = cleared_round()
    decisions[0].assigned_site = None
    problems = check_round(bids, slots, outcome, decisions, max_budget=100.0, use_oracle=False)
    assert any("without a site" in p for p in problems)


def test_oracle_disagreement_is_caught():
    bids, slots, outcome, decisions = cleared_round()
    outcome.winners["T"] = {"b0", "b2"}
    problems = check_round(bids, slots, outcome, decisions, max_budget=100.0, use_oracle=True)
    assert any("oracle" in p for p in problems)


def test_site_over_capacity_fails_the_round():
    scn = Scenario(WORKLOADS["crowd"], 1)
    monitor = Monitor(scn)
    scn.play_round()
    site = scn.sites[0]
    for k in range(site.servers + 1):
        site.running[("extra", k)] = ExecutionJob(("extra", k), "v000", "F1-50", (3.0,), 10**9)
    scn._started(scn.sim, site, [])
    monitor.after_round(None)
    assert monitor.failed == 1
    assert any("busy" in p for p in monitor.problems)


def test_rounds_after_numerical_instability_all_fail():
    scn = Scenario(WORKLOADS["crowd"], 1)
    monitor = Monitor(scn)
    act = scn.fleet.act

    def diverging(*args):
        if scn.round == 3:
            raise NumericalInstabilityError("non-finite gradient norm")
        return act(*args)

    scn.fleet.act = diverging
    for _ in range(6):
        try:
            scn.play_round()
            exc = None
        except NumericalInstabilityError as e:
            exc = e
        monitor.after_round(exc)
    assert monitor.rounds == 6
    assert monitor.failed == 3  # rounds 3, 4 and 5
    assert any("NumericalInstabilityError" in cause for cause in monitor.causes)
    assert sum(monitor.causes.values()) == 3  # every failed round has a cause
