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
        sched = EtaSchedule(floor=0.0)
        assert sched.eta(10_000) == 1e-4

    def test_floor_kicks_in_late(self):
        sched = EtaSchedule(floor=0.01, floor_after=100)
        assert sched.eta(50) == 1 / 50
        assert sched.eta(101) == 0.01
        assert sched.eta(10_000) == 0.01

    def test_mixing_count_tracks_harmonic_sum(self):
        # pure 1/t over T steps: E[best-response choices] = H(T)
        T = 10_000
        sched = EtaSchedule(floor=0.0)
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
        d3 = big.act([None, None, None], pending_one(3), 2, 0.0, 0.0)  # same observation as the small fleet
        assert d2[0] == d3[0]

    def test_actor_learns_only_from_its_own_samples(self):
        # each round's update scores the previous round's action: an agent that
        # executed the behavioural action keeps its actor, the critics all step
        f = fleet(seed=3)
        f.act([None, None], pending_one(), 2, 0.0, 0.0)
        while f._prev[-1].all() or not f._prev[-1].any():  # last round's use_rl
            assert f.t < 50, "no round mixed the two branches"
            f.act(self.feedback(), pending_one(), 2, 0.3, 0.0)
        br = int(np.flatnonzero(f._prev[-1])[0])
        behavioural = 1 - br
        actor_before = [f.pool.actor.flat_view(b) for b in range(2)]
        critic_before = [f.pool.critic.flat_view(b) for b in range(2)]
        f.act(self.feedback(), pending_one(), 2, 0.3, 0.0)
        assert np.array_equal(f.pool.actor.flat_view(behavioural), actor_before[behavioural])
        assert not np.array_equal(f.pool.actor.flat_view(br), actor_before[br])
        for b in range(2):
            assert not np.array_equal(f.pool.critic.flat_view(b), critic_before[b])

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_behavioural_model_is_asked_only_when_an_agent_needs_it(self, eta):
        f = fleet(seed=4)
        f.freeze()  # at t = 1, so eta is 1.0 and every agent executes its best response
        assert f.frozen_eta == 1.0
        f.frozen_eta = eta
        predict = f.behavior.predict
        calls = []

        def counted(states):
            calls.append(f.t)
            return predict(states)

        f.behavior.predict = counted
        needed = []
        for _ in range(8):
            t = f.t
            f.act(self.feedback(), pending_one(), 2, 0.3, 0.0)
            if not f._prev[-1].all():
                needed.append(t)
        assert calls == needed
        assert bool(needed) == (eta < 1.0)

    def test_window_must_match_codec(self):
        with pytest.raises(ValueError, match="LearnerHyper.window is 2 but the codec's window is 8"):
            LearningFleet(configs(2), codec(window=8), root_seed=1, hyper=LearnerHyper(window=2))

    def test_reordering_the_fleet_changes_no_agent(self):
        # the same agents in another order: each agent's directives and its
        # actor, critic and behaviour parameters stay bit-identical through
        # mixed pending sets, actor steps and behavioural training
        n = 4
        order = [2, 0, 3, 1]  # position -> agent in the reordered fleet
        cfgs = configs(n)
        fleets = [
            (LearningFleet(cfgs, codec(), root_seed=7), list(range(n))),
            (LearningFleet([cfgs[a] for a in order], codec(), root_seed=7), order),
        ]
        rng = derive_stream(11, "pending")
        feedback = [[None] * n for _ in fleets]  # per fleet, indexed by agent
        for r in range(120):
            pending = [
                {t: (1.0 + rng.integers(0, 30), 200.0) for t in ("F1-300", "F1-50") if rng.uniform() < 0.4}
                for _ in range(n)
            ]
            by_agent = []
            for (f, agents), fb in zip(fleets, feedback):
                directives = f.act([fb[a] for a in agents], [pending[a] for a in agents], n, 0.3, (r % 10) / 10)
                seen = [None] * n
                for d, a in zip(directives, agents):
                    seen[a] = d
                    submitted = {t: value for t, (verb, value) in d.items() if verb == "submit"}
                    fb[a] = FeedbackSignal(
                        cfgs[a].bidder_id,
                        {t: int(p > 40.0) for t, p in submitted.items()},
                        dict.fromkeys(submitted, 40.0),
                        0.3,
                    )
                by_agent.append(seen)
            assert by_agent[0] == by_agent[1], r
            for p, a in enumerate(order):
                for nets in (lambda f: f.pool.actor, lambda f: f.pool.critic, lambda f: f.behavior.net):
                    assert np.array_equal(nets(fleets[0][0]).flat_view(a), nets(fleets[1][0]).flat_view(p)), r

    def test_each_agent_draws_noise_then_coin_every_round(self):
        # every round, pending or not, learning or frozen, each act stream
        # gives one noise vector and one eta coin; each sl stream gives one
        # minibatch draw per behavioural training
        f = fleet(seed=6, hyper=LearnerHyper(window=4, sl_batch_size=4, sl_train_interval=3))
        train_step = f.behavior.train_step
        trainings = []
        f.behavior.train_step = lambda streams: trainings.append(f.t) or train_step(streams)
        pendings = [pending_one(), [{}, {}], [{}, {"F1-300": (3.0, 200.0)}]]
        feedback = [None, None]
        for r in range(24):
            if r == 12:
                f.freeze()
            act_before = [s.draw_counter for s in f.act_streams]
            sl_before = [s.draw_counter for s in f.sl_streams]
            trained = len(trainings)
            f.act(feedback, pendings[r % 3], 2, 0.3, 0.0)
            feedback = self.feedback()
            assert [s.draw_counter for s in f.act_streams] == [n + 2 for n in act_before], r
            assert [s.draw_counter for s in f.sl_streams] == [n + len(trainings) - trained for n in sl_before], r
        assert trainings == [6, 9, 12]  # none once frozen at t = 13

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


class TestActionMap:
    def test_boxes(self):
        # a sigmoid on the backoff half; each price clipped to [0, budget],
        # then divided by the budget
        f = fleet(budget=80.0)
        raw = np.array([[-50.0, 50.0, -3.0, 500.0], [0.0, 0.0, 20.0, 80.0]])
        out = f._fractions(raw)
        assert 0.0 <= out[0, 0] < 1e-9
        assert 1.0 - 1e-9 < out[0, 1] <= 1.0
        assert out[0, 2] == 0.0
        assert out[0, 3] == 1.0
        assert out[1, 0] == out[1, 1] == 0.5
        assert out[1, 2] == 0.25
        assert out[1, 3] == 1.0


class TestBackoffSemantics:
    def test_backoff_duration_linear_in_component(self):
        # force the behavioral branch to emit a known backoff level
        f = fleet(seed=2)
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
