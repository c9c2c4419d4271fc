import math

import numpy as np
import pytest

from offloadsim.agents import (
    AgentConfig,
    EtaSchedule,
    FeatureCodec,
    LearnerHyper,
    LearningFleet,
    PassiveFleet,
)
from offloadsim.auction import FeedbackSignal
from offloadsim.engine import derive_stream


def codec(window=4):
    return FeatureCodec(
        type_ids=["F1-300", "F1-50"],
        work_max=30.0,
        deadline_max=300.0,
        price_max=100.0,
        fleet_size=4,
        window=window,
    )


def configs(n=2, budget=100.0, **kw):
    return [AgentConfig(bidder_id=f"m{i}", budget=budget, **kw) for i in range(n)]


def fleet(seed=1, n=2, hyper=None, **kw):
    return LearningFleet(configs(n, **kw), codec(), root_seed=seed, hyper=hyper)


def pending_one(n=2):
    return [{"F1-300": (3.0, 200.0)} for _ in range(n)]


class TestEtaSchedule:
    def test_first_step_is_pure_best_response(self):
        assert EtaSchedule().eta(1) == 1.0

    def test_strict_schedule_vanishes(self):
        sched = EtaSchedule(strict=True)
        assert sched.eta(10_000) == 1e-4

    def test_floor_kicks_in_late(self):
        sched = EtaSchedule(strict=False, floor=0.01, floor_after=100)
        assert sched.eta(50) == 1 / 50
        assert sched.eta(101) == 0.01
        assert sched.eta(10_000) == 0.01

    def test_mixing_count_tracks_harmonic_sum(self):
        # strict 1/t over T steps: E[best-response choices] = H(T)
        T = 10_000
        sched = EtaSchedule(strict=True)
        rng = derive_stream(123, "mixing")
        count = sum(rng.uniform() < sched.eta(t) for t in range(1, T + 1))
        harmonic = sum(1.0 / t for t in range(1, T + 1))
        variance = sum((1.0 / t) * (1 - 1.0 / t) for t in range(1, T + 1))
        assert abs(count - harmonic) <= 3 * math.sqrt(variance)


class TestLearningFleet:
    def feedback(self, won=True, price=2.0, beta=0.4):
        return [
            FeedbackSignal("m0", {"F1-300": 1 if won else 0}, {"F1-300": price}, beta),
            FeedbackSignal("m1", {}, {}, beta),
        ]

    def test_first_round_directives_cover_pending_types(self):
        f = fleet()
        directives = f.act([None, None], pending_one(), n_present=2, beta=0.0, phase=0.0)
        assert len(directives) == 2
        for d in directives:
            assert set(d) == {"F1-300"}
            verb, value = d["F1-300"]
            assert verb in ("submit", "backoff")
            if verb == "submit":
                assert 0.0 <= value <= 100.0
            else:
                assert 1 <= value <= 100

    def test_replays_are_identical(self):
        def run(seed):
            f = fleet(seed=seed)
            out = []
            d = f.act([None, None], pending_one(), 2, 0.0, 0.0)
            out.append(d)
            for r in range(5):
                d = f.act(self.feedback(), pending_one(), 2, 0.3, 0.1 * r)
                out.append(d)
            return out

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_prices_never_exceed_budget(self):
        f = fleet(budget=10.0)
        f.act([None, None], pending_one(), 2, 0.0, 0.0)
        for r in range(50):
            directives = f.act(self.feedback(), pending_one(), 2, 0.5, 0.0)
            for d in directives:
                for verb, value in d.values():
                    if verb == "submit":
                        assert value <= 10.0

    def test_agent_streams_are_isolated(self):
        # adding a third agent must not change the first agent's trajectory
        small = fleet(seed=9, n=2)
        big = LearningFleet(configs(3), codec(), root_seed=9)
        d2 = small.act([None, None], pending_one(2), 2, 0.0, 0.0)
        d3 = big.act([None, None, None], pending_one(3), 3, 0.0, 0.0)
        assert d2[0] == d3[0]

    def test_frozen_fleet_stops_learning(self):
        f = fleet()
        f.act([None, None], pending_one(), 2, 0.0, 0.0)
        for _ in range(3):
            f.act(self.feedback(), pending_one(), 2, 0.3, 0.0)
        f.freeze()
        before = f.pool.actor.flat_view(0).copy()
        for _ in range(3):
            f.act(self.feedback(), pending_one(), 2, 0.3, 0.0)
        assert np.array_equal(f.pool.actor.flat_view(0), before)


class TestBackoffSemantics:
    def test_backoff_duration_linear_in_component(self):
        # force the behavioral branch to emit a known backoff level
        f = fleet(seed=2, hyper=LearnerHyper(eta=EtaSchedule(strict=True)))
        f.frozen = True
        f.frozen_eta = 0.0  # always behavioral
        level = 0.3
        f.behavior.predict = lambda states: np.full((2, 4), level)
        directives = f.act([None, None], pending_one(), 2, 0.0, 0.0)
        for d in directives:
            verb, value = d["F1-300"]
            assert verb == "backoff"  # 0.3 < threshold 0.5
            assert value == round(level * 100)

    def test_high_component_submits(self):
        f = fleet(seed=2)
        f.frozen = True
        f.frozen_eta = 0.0
        f.behavior.predict = lambda states: np.full((2, 4), 0.9)
        directives = f.act([None, None], pending_one(), 2, 0.0, 0.0)
        for d in directives:
            verb, value = d["F1-300"]
            assert verb == "submit"
            assert value == pytest.approx(0.9 * 100.0)


class TestPassiveFleet:
    def test_constant_priority_submission(self):
        f = PassiveFleet(configs(2, budget=20.0))
        for _ in range(3):
            directives = f.act([None, None], pending_one(), 2, 0.5, 0.0)
            for d in directives:
                assert d["F1-300"] == ("submit", 3.0)  # valuation of 3 units

    def test_budget_caps_valuation(self):
        f = PassiveFleet(configs(1, budget=2.0))
        (d,) = f.act([None], [{"F1-300": (3.0, 100.0)}], 1, 0.0, 0.0)
        assert d["F1-300"] == ("submit", 2.0)
