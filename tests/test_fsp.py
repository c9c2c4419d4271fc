import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from offloadsim.agents import (
    AgentConfig,
    FeatureCodec,
    LearnerHyper,
    LearningFleet,
    PassiveFleet,
    utility_per_type,
    utility_total,
    valuation,
)
from offloadsim.agents.bidder import BACKOFF_THRESHOLD, MAX_BACKOFF_MS, SL_CAPACITY, SL_LR
from offloadsim.agents.nets import StackedMlp
from offloadsim.agents.policy import CRITIC_RATE, GRAD_CLIP, softplus_inv
from offloadsim.auction import FeedbackSignal
from offloadsim.engine import derive_stream

from netparams import flat_view


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


def draw_decision(stream, action_dim):
    """Advance a replica of an agent's act stream by one decision, with the
    fleet's own call: the noise vector, then the eta coin. Returns both."""
    noise = np.empty(action_dim)
    return noise, stream.normals_then_uniform(noise)


def two_branch_eta(floor, t):
    """The mixing weight of the former two-branch schedule at its default
    switch: 1/t through round 100, then never below the floor."""
    value = 1.0 / max(1, t)
    if t <= 100:
        return value
    return max(value, floor)


class TestEtaSchedule:
    def test_first_step_is_pure_best_response(self):
        assert LearnerHyper().eta(1) == 1.0

    def test_strict_schedule_vanishes(self):
        assert LearnerHyper(eta_floor=0.0).eta(10_000) == 1e-4

    def test_floor_kicks_in_late(self):
        hyper = LearnerHyper(eta_floor=0.01)
        assert hyper.eta(50) == 1 / 50
        assert hyper.eta(100) == 1 / 100
        assert hyper.eta(101) == 0.01
        assert hyper.eta(10_000) == 0.01

    def test_floor_of_one_is_pure_best_response_from_the_start(self):
        assert {LearnerHyper(eta_floor=1.0).eta(t) for t in (1, 2, 100, 101, 10_000)} == {1.0}

    @given(floor=st.floats(0.0, 0.01), t=st.integers(1, 10_000))
    def test_matches_the_two_branch_schedule(self, floor, t):
        # for a floor of at most 1/100, 1/t is at least the floor through
        # round 100, so the former switch at round 100 never mattered
        eta = LearnerHyper(eta_floor=floor).eta(t)
        assert eta == two_branch_eta(floor, t)
        assert 0.0 < eta <= 1.0

    def test_mixing_count_tracks_harmonic_sum(self):
        # pure 1/t over T steps: E[best-response choices] = H(T)
        T = 10_000
        hyper = LearnerHyper(eta_floor=0.0)
        rng = derive_stream(123, "mixing")
        count = sum(rng.uniform() < hyper.eta(t) for t in range(1, T + 1))
        harmonic = sum(1.0 / t for t in range(1, T + 1))
        variance = sum((1.0 / t) * (1 - 1.0 / t) for t in range(1, T + 1))
        assert abs(count - harmonic) <= 3 * math.sqrt(variance)

    @pytest.mark.parametrize("floor", [-0.1, 2.0, math.nan])
    def test_floor_outside_unit_interval_rejected(self, floor):
        # 2.0 would give eta 2.0; a NaN floor would be ignored by max()
        with pytest.raises(ValueError, match="eta_floor"):
            LearnerHyper(eta_floor=floor)


class TestLearnerHyper:
    @pytest.mark.parametrize("name", ["sl_batch_size", "sl_train_interval"])
    @pytest.mark.parametrize("bad", [0, -3, 2.0, 2.5, True])
    def test_memory_sizes_must_be_integers_of_at_least_one(self, name, bad):
        # 0 used to fail later in act: IndexError, or ZeroDivisionError mid-round
        with pytest.raises(ValueError, match=name):
            LearnerHyper(**{name: bad})

    def test_batch_larger_than_capacity_rejected(self):
        # such a memory could never fill a minibatch, so it never trained
        with pytest.raises(ValueError, match="sl_batch_size"):
            LearnerHyper(sl_batch_size=SL_CAPACITY + 1)
        assert LearnerHyper(sl_batch_size=SL_CAPACITY).sl_batch_size == SL_CAPACITY

    @pytest.mark.parametrize("name", ["init_std", "price_bias_init", "actor_rate"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, name, bad):
        with pytest.raises(ValueError, match=name):
            LearnerHyper(**{name: bad})

    @pytest.mark.parametrize("name", ["init_std"])
    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_non_positive_scale_rejected(self, name, bad):
        # init_std = 0 used to fail in np.linalg.solve with a singular factor
        with pytest.raises(ValueError, match=name):
            LearnerHyper(**{name: bad})

    def test_negative_actor_rate_rejected(self):
        # it would step every actor against its policy gradient
        with pytest.raises(ValueError, match="actor_rate"):
            LearnerHyper(actor_rate=-1e-4)

    def test_boundary_values_accepted(self):
        hyper = LearnerHyper(actor_rate=0.0, eta_floor=0.0)
        assert (hyper.actor_rate, hyper.eta_floor) == (0.0, 0.0)
        assert LearnerHyper(eta_floor=1.0).eta_floor == 1.0

    def test_negative_price_bias_accepted(self):
        assert LearnerHyper(price_bias_init=-2.0).price_bias_init == -2.0

    def test_census_names_every_field(self):
        assert [fld.name for fld in dataclasses.fields(LearnerHyper)] == [
            "actor_rate",
            "eta_floor",
            "init_std",
            "price_bias_init",
            "sl_batch_size",
            "sl_train_interval",
        ]

    def test_every_setting_reaches_its_consumer(self):
        # the pools take these values only from LearnerHyper or the module
        # constants; none may fall back on a default of its own. The average
        # reward's REWARD_SMOOTHING is pinned in test_policy.py.
        hyper = LearnerHyper(
            actor_rate=3e-4, eta_floor=0.9, init_std=0.8, price_bias_init=-1.5, sl_batch_size=10, sl_train_interval=3
        )
        f = fleet(n=3, hyper=hyper)
        trained_at = []
        train_step = f.behavior.train_step
        f.behavior.train_step = lambda streams: (trained_at.append(f.t), train_step(streams))
        f.act([None] * 3, pending_one(3), 3, 0.0, 0.0)  # the first learning round draws the critic and behaviour net
        actor = f.pool.actor.params
        assert np.all(actor["b_lraw"][:, f.pool.diag_positions] == softplus_inv(0.8))
        assert np.all(actor["b_mu"][:, f.k :] == -1.5) and np.all(actor["b_mu"][:, : f.k] == 0.0)
        widths = [actor[f"W{layer}"].shape[2] for layer in range(2)]
        assert widths == [f.pool.critic.params[f"W{layer}"].shape[2] for layer in range(2)] == [64, 32]
        memory = f.behavior
        assert memory.states.shape[:2] == memory.actions.shape[:2] == (SL_CAPACITY, 3)
        assert (memory.capacity, memory.batch_size, memory.opt.lr) == (SL_CAPACITY, 10, SL_LR)

        steps = {}  # per net, the step sizes and clip norm of its one step in the next round
        for name, net in (("critic", f.pool.critic), ("actor", f.pool.actor)):

            def recorded(factors, step_size, clip_norm, agents=slice(None), name=name, apply=net.apply_gradients):
                steps[name] = (step_size.copy(), clip_norm)
                return apply(factors, step_size, clip_norm, agents)

            net.apply_gradients = recorded
        deltas = []
        update = f.pool.update
        f.pool.update = lambda delta, cache, scored=None: (deltas.append(delta.copy()), update(delta, cache, scored))
        f.act([None] * 3, [{}] * 3, 3, 0.0, 0.0)  # scores round 1, where every coin picked the actor (eta 1)
        (delta,) = deltas
        assert np.array_equal(steps["critic"][0], CRITIC_RATE * delta)
        assert np.array_equal(steps["actor"][0], 3e-4 * delta)
        assert steps["critic"][1] == steps["actor"][1] == GRAD_CLIP
        for _ in range(5):
            f.act([None] * 3, [{}] * 3, 3, 0.0, 0.0)
        assert trained_at == [3, 6]
        f.freeze()  # at t = 8, where 1/t is below the floor
        assert f.frozen_eta == 0.9


class TestAgentConfig:
    # each field changed in turn, the rest kept, and something a run can see moves
    CHANGED = {
        "bidder_id": "m9",
        "budget": 50.0,
        "valuation_slope": 2.0,
        "lost_bid_cost": 2.0,
        "backoff_cost": 0.2,
        "utilization_weight": 0.5,
    }

    @staticmethod
    def observed(cfg):
        """A one-agent fleet's actor weights (drawn from a stream labelled
        with the bidder id), then, once with F1-300 won and once lost at
        price 40: the directives of a round that submits F1-300 and defers
        F1-50, and the reward in the next round's step row."""
        seen = []
        for won in (1, 0):
            f = LearningFleet([cfg], codec(), root_seed=1)
            f.frozen_eta = 0.0  # the behavioural branch, whose fractions are set here
            fractions = np.full((1, 4), 0.3)  # F1-50 defers; each price is 0.3 of the budget
            fractions[0, f.codec.index["F1-300"]] = 0.9  # submit
            f.behavior.predict = lambda states, agents: fractions
            directives = f.act([None], [{"F1-300": (3.0, 200.0), "F1-50": (2.0, 200.0)}], 1, 0.3, 0.0)
            feedback = FeedbackSignal(cfg.bidder_id, {"F1-300": won}, {"F1-300": 40.0}, 0.3)
            f.act([feedback], [{}], 1, 0.3, 0.0)
            seen += [directives, float(f.history[0, -1, -1])]
        return flat_view(f.pool.actor, 0).tobytes(), seen

    def test_census_names_every_field(self):
        assert [fld.name for fld in dataclasses.fields(AgentConfig)] == list(self.CHANGED)

    @pytest.mark.parametrize("name", list(CHANGED))
    def test_every_field_reaches_an_observable(self, name):
        base = AgentConfig(bidder_id="m0", budget=100.0)
        seen = self.observed(base)
        assert self.observed(base) == seen  # so a difference below is the field's
        assert self.observed(dataclasses.replace(base, **{name: self.CHANGED[name]})) != seen


@pytest.mark.parametrize(
    "base, name, bad",
    [(AgentConfig(bidder_id="m0", budget=100.0), "budget", -1.0), (LearnerHyper(), "sl_batch_size", 0)],
)
def test_configs_are_frozen_and_replace_runs_the_checks(base, name, bad):
    # a fleet reads some fields once at construction and the others live, so
    # an assigned field would act only in part, past __post_init__'s checks
    for fld in dataclasses.fields(base):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(base, fld.name, getattr(base, fld.name))
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(base, **{name: bad})


# by test id, the (work, deadline) of a pending request the fleet refuses
BAD_REQUESTS = {f"work-{work}": (work, 9.0) for work in (math.nan, math.inf, 0.0, -1.0)} | {
    f"deadline-{deadline}": (1.0, deadline) for deadline in (math.nan, math.inf, -1.0)
}
# (n_present, phase) of a round; the codec documents the phase as in [0, 1)
BAD_ENVS = {f"n_present-{n}": (n, 0.2) for n in (math.nan, math.inf, -5)} | {
    f"phase-{phase}": (2, phase) for phase in (math.nan, math.inf, 1.0, -0.1)
}


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
        # a third agent that decides on its own pattern must not change
        # agent 0's or 1's directives, or their actor, critic and behaviour
        # weights, through mixed pending sets, actor steps and behavioural
        # training: each agent draws only from its own streams
        cfgs = configs(2)
        third = AgentConfig(bidder_id="x", budget=100.0)
        hyper = LearnerHyper(sl_batch_size=4, sl_train_interval=3, eta_floor=0.5)  # both branches, every round
        small = LearningFleet(cfgs, codec(), root_seed=9, hyper=hyper)
        big = LearningFleet([third, *cfgs], codec(), root_seed=9, hyper=hyper)  # agents 0 and 1 at positions 1 and 2
        rng, third_rng = derive_stream(10, "pending"), derive_stream(11, "third")
        feedback_small, feedback_big = [None] * 2, [None] * 3
        for r in range(80):
            pending = mixed_pending(rng, r, 2)
            third_pending = {"F1-50": (2.0, 200.0)} if third_rng.uniform() < 0.5 else {}
            small_directives = small.act(feedback_small, pending, 2, 0.3, (r % 10) / 10)
            # the same observation as the small fleet
            big_directives = big.act(feedback_big, [third_pending, *pending], 2, 0.3, (r % 10) / 10)
            assert big_directives[1:] == small_directives, r
            for nets in (lambda f: f.pool.actor, lambda f: f.pool.critic, lambda f: f.behavior.net):
                for a in range(2):
                    assert np.array_equal(flat_view(nets(small), a), flat_view(nets(big), a + 1)), (r, a)
            feedback_small = feedback_for(cfgs, small_directives)
            feedback_big = feedback_for([third, *cfgs], big_directives)

    def test_actor_learns_only_from_its_own_samples(self):
        # each round's update scores the previous round's action: an agent that
        # executed the behavioural action ran no actor pass, so it keeps its
        # actor and reads norm 0.0; the critics all step
        f = fleet(seed=3)
        f.act([None, None], pending_one(), 2, 0.0, 0.0)

        def last_pass():  # the agents whose sample the next round scores
            scored = f._prev[1]
            return [] if scored is None else np.arange(2)[scored[1]["agents"]].tolist()

        while len(last_pass()) != 1:
            assert f.t < 50, "no round mixed the two branches"
            f.act(self.feedback(), pending_one(), 2, 0.3, 0.0)
        (br,) = last_pass()
        behavioural = 1 - br
        actor_before = [flat_view(f.pool.actor, b) for b in range(2)]
        critic_before = [flat_view(f.pool.critic, b) for b in range(2)]
        f.act(self.feedback(), pending_one(), 2, 0.3, 0.0)
        assert np.array_equal(flat_view(f.pool.actor, behavioural), actor_before[behavioural])
        assert not np.array_equal(flat_view(f.pool.actor, br), actor_before[br])
        assert f.pool.actor.last_grad_norms[behavioural] == 0.0 and f.pool.actor.last_grad_norms[br] > 0.0
        for b in range(2):
            assert not np.array_equal(flat_view(f.pool.critic, b), critic_before[b])

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_behavioural_model_is_asked_only_when_an_agent_needs_it(self, eta):
        f = fleet(seed=4)
        f.freeze()  # at t = 1, so eta is 1.0 and every agent executes its best response
        assert f.frozen_eta == 1.0
        f.frozen_eta = eta
        predict = f.behavior.predict
        calls = []

        def counted(states, agents):
            calls.append(f.t)
            return predict(states, agents)

        f.behavior.predict = counted
        # replicas of the act streams give each round's eta coins; both agents decide every round
        streams = [derive_stream(4, f"agent/m{b}/act") for b in range(2)]
        needed = []
        for _ in range(8):
            t = f.t
            coins = [draw_decision(s, f.action_dim)[1] for s in streams]
            f.act(self.feedback(), pending_one(), 2, 0.3, 0.0)
            if not all(coin < eta for coin in coins):
                needed.append(t)
        assert calls == needed
        assert bool(needed) == (eta < 1.0)

    def test_repeated_bidder_id_rejected(self):
        # two agents of one id would derive the same streams and start identical
        cfgs = configs(3)
        cfgs[2] = AgentConfig(bidder_id="m0", budget=100.0)
        with pytest.raises(ValueError, match="bidder_id"):
            LearningFleet(cfgs, codec(), root_seed=1)

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
                {t: (1.0 + int(rng.integer_array(0, 30, None)), 200.0) for t in ("F1-300", "F1-50") if rng.uniform() < 0.4}
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
                    assert np.array_equal(flat_view(nets(fleets[0][0]), a), flat_view(nets(fleets[1][0]), p)), r

    def test_only_deciding_agents_draw_noise_then_coin(self):
        # in each round, learning or frozen, a deciding agent's act stream
        # gives one noise vector and one eta coin, to the state of a replica
        # that draws them, and an idle agent's act stream does not move; each
        # sl stream gives one minibatch draw per behavioural training of that
        # agent, which needs a minibatch of the agent's own rows; a training
        # call with no agent ready draws nothing
        f = fleet(seed=6, hyper=LearnerHyper(sl_batch_size=4, sl_train_interval=3))
        replicas = [derive_stream(6, f"agent/m{b}/act") for b in range(2)]
        train_step = f.behavior.train_step
        trainings = []  # (t, the agents holding a minibatch) of each training

        def counted(streams):
            trainings.append((f.t, (f.behavior.count >= 4).tolist()))
            return train_step(streams)

        f.behavior.train_step = counted
        pendings = [pending_one(), [{}, {}], [{}, {"F1-300": (3.0, 200.0)}]]
        feedback = [None, None]
        for r in range(24):
            if r == 12:
                f.freeze()
            pending = pendings[r % 3]
            act_before = [(s._gen.bit_generator.state, s.draw_counter) for s in f.act_streams]
            sl_before = [s.draw_counter for s in f.sl_streams]
            trained = len(trainings)
            f.act(feedback, pending, 2, 0.3, 0.0)
            feedback = self.feedback()
            for b, (s, replica) in enumerate(zip(f.act_streams, replicas)):
                if pending[b]:
                    draw_decision(replica, f.action_dim)
                    assert s._gen.bit_generator.state == replica._gen.bit_generator.state, (r, b)
                    assert s.draw_counter == act_before[b][1] + 2, (r, b)
                else:
                    assert (s._gen.bit_generator.state, s.draw_counter) == act_before[b], (r, b)
            ready = trainings[-1][1] if len(trainings) > trained else [False, False]
            assert [s.draw_counter for s in f.sl_streams] == [n + int(b) for n, b in zip(sl_before, ready)], r
        # the call at t = 3 finds no agent ready; m1 decides two rounds in
        # three and holds 4 rows at t = 6, m0 one in three and 4 rows at
        # t = 10; none trains once frozen at t = 13
        assert trainings == [(3, [False, False]), (6, [False, True]), (9, [False, True]), (12, [True, True])]

    @pytest.mark.parametrize(
        "feedbacks, pending, env, match",
        [
            ([None, None], pending_one(3), (2, 0.2), r"per agent \(2\), got 2 and 3"),
            ([None, None], pending_one(1), (2, 0.2), r"per agent \(2\), got 2 and 1"),
            ([None], pending_one(2), (2, 0.2), r"per agent \(2\), got 1 and 2"),
            (
                [None, None],
                [{"Z": (3.0, 200.0)}, {}],
                (2, 0.2),
                r"m0 has pending types the codec does not know: \['Z'\]",
            ),
            (
                [None, None],
                [{"F1-300": (3.0, 200.0)}, {"F1-50": (1.0, 9.0), "Z": (3.0, 200.0)}],
                (2, 0.2),
                r"m1 .*\['Z'\]",
            ),
            (
                [None, FeedbackSignal("m1", {"Z": 1}, {"Z": 5.0}, 0.3)],
                pending_one(),
                (2, 0.2),
                r"m1 has feedback types the codec does not know: \['Z'\]",
            ),
            *[
                (
                    [None, None],
                    [pending_one(1)[0], {"F1-50": request}],
                    (2, 0.2),
                    r"agent m1 has pending type F1-50 with work",
                )
                for request in BAD_REQUESTS.values()
            ],
            *[
                ([None, None], pending_one(), env, "n_present must be" if name.startswith("n_") else "phase must be")
                for name, env in BAD_ENVS.items()
            ],
        ],
        ids=[
            "extra-pending",
            "missing-pending",
            "missing-feedback",
            "unknown-type",
            "unknown-type-later",
            "unknown-price",
            *BAD_REQUESTS,
            *BAD_ENVS,
        ],
    )
    def test_refused_round_draws_and_writes_nothing(self, feedbacks, pending, env, match):
        # the refused round leaves the streams, t and the window as they
        # were, so the next rounds match those of a twin that never saw it
        f, twin = fleet(seed=3), fleet(seed=3)
        for g in (f, twin):
            g.act([None, None], pending_one(), 2, 0.0, 0.0)
            g.act(self.feedback(), pending_one(), 2, 0.3, 0.1)
        streams = [s._gen.bit_generator.state for s in f.act_streams]
        counters = [s.draw_counter for s in f.act_streams]
        t, history = f.t, f.history.copy()
        n_present, phase = env
        with pytest.raises(ValueError, match=match):
            f.act(feedbacks, pending, n_present, 0.3, phase)
        assert [s._gen.bit_generator.state for s in f.act_streams] == streams
        assert [s.draw_counter for s in f.act_streams] == counters
        assert f.t == t
        assert f.history.tobytes() == history.tobytes()
        for r in range(3):
            assert f.act(self.feedback(), pending_one(), 2, 0.3, 0.2) == twin.act(
                self.feedback(), pending_one(), 2, 0.3, 0.2
            ), r
        assert f.history.tobytes() == twin.history.tobytes()

    def test_frozen_fleet_stops_learning(self):
        f = fleet()
        f.act([None, None], pending_one(), 2, 0.0, 0.0)
        for _ in range(3):
            f.act(self.feedback(), pending_one(), 2, 0.3, 0.0)
        f.freeze()
        before = flat_view(f.pool.actor, 0).copy()
        for _ in range(3):
            f.act(self.feedback(), pending_one(), 2, 0.3, 0.0)
        assert np.array_equal(flat_view(f.pool.actor, 0), before)

    def test_second_freeze_keeps_the_frozen_weight(self):
        # frozen at t = 1 with eta 1; a second freeze 50 rounds on must not
        # recompute the weight at t = 51, which would change the policy mix
        f, twin = fleet(seed=5), fleet(seed=5)
        for g in (f, twin):
            g.freeze()
        for _ in range(50):
            assert f.act(self.feedback(), pending_one(), 2, 0.3, 0.0) == twin.act(
                self.feedback(), pending_one(), 2, 0.3, 0.0
            )
        f.freeze()
        assert f.frozen_eta == twin.frozen_eta == 1.0
        for _ in range(5):
            assert f.act(self.feedback(), pending_one(), 2, 0.3, 0.0) == twin.act(
                self.feedback(), pending_one(), 2, 0.3, 0.0
            )


def mixed_pending(rng, r, n):
    """Round r's pending sets for n agents, cycling through no agent, one,
    some and every agent deciding."""
    kind = r % 4
    if kind == 0:
        deciding = []
    elif kind == 1:
        deciding = [(r // 4) % n]
    elif kind == 2:
        deciding = [b for b in range(n) if rng.uniform() < 0.5]
    else:
        deciding = list(range(n))
    pending = [{} for _ in range(n)]
    for b in deciding:
        types = [t for t in ("F1-300", "F1-50") if rng.uniform() < 0.6] or ["F1-50"]
        pending[b] = {t: (1.0 + int(rng.integer_array(0, 30, None)), 200.0) for t in types}
    return pending


def feedback_for(cfgs, directives, price=40.0, beta=0.3):
    """Each agent that submitted wins the types it bid above `price` on, at `price`."""
    out = []
    for cfg, d in zip(cfgs, directives):
        submitted = {t: value for t, (verb, value) in d.items() if verb == "submit"}
        outcomes = {t: int(p > price) for t, p in submitted.items()}
        prices = dict.fromkeys(submitted, price)
        out.append(FeedbackSignal(cfg.bidder_id, outcomes, prices, beta) if submitted else None)
    return out


class TestDecidingAgentsOnly:
    """A round's work runs for the agents that decide, each on the branch
    its eta coin picks: the actor pass takes only the rows of agents that
    execute its sample, and so, while learning, does the actor step; the
    behavioural model takes only the other deciding agents' rows, and every
    deciding agent gets a behaviour-memory row. Every agent's step is
    encoded in one call. A frozen round and the step layout must be
    bit-identical to the full-batch and per-agent computations they
    replace."""

    def test_learning_round_runs_the_actor_and_memory_on_deciding_agents(self):
        # while learning: the actor pass runs on exactly the deciding rows
        # whose coin is below eta (no pass, and no actor backward next
        # round, when there are none), only deciding agents get a behaviour
        # row, every critic steps, and an actor steps only for an agent that
        # decided last round and executed its own sample, the one scored now
        n, seed = 5, 21
        cfgs = configs(n)
        # eta 1 in round 1, then 0.5: both branches, every round
        hyper = LearnerHyper(sl_batch_size=4, sl_train_interval=3, eta_floor=0.5)
        f = LearningFleet(cfgs, codec(), root_seed=seed, hyper=hyper)
        streams = [derive_stream(seed, f"agent/{c.bidder_id}/act") for c in cfgs]  # replicas, drawn as agents decide
        rng = derive_stream(22, "pending")
        mixed_rounds = 0  # rounds whose TD step scored some of last round's deciding agents, not all
        actor_rows = []
        actor_forward = f.pool.actor_forward

        def recorded(x, agents=slice(None)):
            actor_rows.append(agents)
            return actor_forward(x, agents)

        f.pool.actor_forward = recorded
        actor_backward = f.pool.actor.backward
        backward_calls = []

        def counted(cache, head_grads):
            backward_calls.append(f.t)
            return actor_backward(cache, head_grads)

        f.pool.actor.backward = counted
        feedback = [None] * n
        scored_last = []  # the agents whose sample this round's TD step scores
        seen = set()
        unpicked_rounds = 0  # rounds where agents decided and no coin picked the best response
        for r in range(40):
            pending = mixed_pending(rng, r, n)
            deciding = [b for b in range(n) if pending[b]]
            eta = f.hyper.eta(f.t)
            coins = {b: draw_decision(streams[b], f.action_dim)[1] for b in deciding}  # an idle agent draws nothing
            actor_before = [flat_view(f.pool.actor, b) for b in range(n)]
            critic_before = [flat_view(f.pool.critic, b) for b in range(n)] if r > 0 else None  # drawn in round 0
            rows_before = (f.behavior.states.copy(), f.behavior.actions.copy(), f.behavior.count.copy())
            actor_rows.clear()
            backward_calls.clear()
            directives = f.act(feedback, pending, n, 0.3, (r % 10) / 10)
            seen.add(len(deciding))
            best = [b for b in deciding if coins[b] < eta]
            unpicked_rounds += bool(deciding) and not best
            assert [np.arange(n)[agents].tolist() for agents in actor_rows] == ([best] if best else []), r
            assert len(backward_calls) == bool(scored_last), r
            for b in range(n):
                stepped = not np.array_equal(flat_view(f.pool.actor, b), actor_before[b])
                assert stepped == (b in scored_last), (r, b)
                if r > 0:
                    assert not np.array_equal(flat_view(f.pool.critic, b), critic_before[b]), (r, b)
                stored = b in deciding
                assert f.behavior.count[b] == rows_before[2][b] + stored, (r, b)
                if not stored:
                    assert np.array_equal(f.behavior.states[:, b], rows_before[0][:, b]), (r, b)
                    assert np.array_equal(f.behavior.actions[:, b], rows_before[1][:, b]), (r, b)
            norms = f.pool.actor.last_grad_norms
            assert norms.shape == (n,)
            last = np.isin(np.arange(n), scored_last)
            assert np.all(norms[~last] == 0.0) and np.all(norms[last] > 0.0), r
            scored_last = best
            mixed_rounds += 0 < len(best) < len(deciding)
            feedback = feedback_for(cfgs, directives)
        assert seen >= {0, 1, n} and len(seen) >= 4
        assert mixed_rounds >= 3 and unpicked_rounds >= 3

    @pytest.mark.parametrize("eta", [1.0, 0.5, 0.0])
    def test_frozen_directives_match_full_batch(self, eta):
        n, seed = 5, 12
        cfgs = configs(n)
        hyper = LearnerHyper(sl_batch_size=4, sl_train_interval=3)
        f = LearningFleet(cfgs, codec(), root_seed=seed, hyper=hyper)
        streams = [derive_stream(seed, f"agent/{c.bidder_id}/act") for c in cfgs]  # replicas, drawn as agents decide
        rng = derive_stream(13, "pending")
        actor_rows = []  # the agents of each actor pass in a round
        actor_forward = f.pool.actor_forward

        def recorded(x, agents=slice(None)):
            actor_rows.append(agents)
            return actor_forward(x, agents)

        f.pool.actor_forward = recorded
        feedback = [None] * n
        seen = set()
        for r in range(48):
            if r == 8:  # after some learning, so the nets are not at their initial weights
                f.freeze()
                f.frozen_eta = eta
            pending = mixed_pending(rng, r, n)
            deciding = [b for b in range(n) if pending[b]]
            # an idle agent draws nothing; its reference row reaches no directive
            noise = np.zeros((n, f.action_dim))
            coins = np.ones(n)
            for b in deciding:
                noise[b], coins[b] = draw_decision(streams[b], f.action_dim)
            actor_rows.clear()
            directives = f.act(feedback, pending, n, 0.3, (r % 10) / 10)
            if r < 8:
                feedback = feedback_for(cfgs, directives)
                continue
            seen.add(len(deciding))
            best = [b for b in deciding if coins[b] < eta]
            passes = [np.arange(n)[agents].tolist() for agents in actor_rows]
            assert passes == ([best] if best else []), r
            # the reference: every agent's full-batch pass on this round's window and noise
            mu, L, _ = f.pool.actor_forward(f.history.reshape(n, -1).copy())
            executed = f._fractions(f.pool.sample_raw(mu, L, noise), f.budgets)
            predicted = f.behavior.predict(np.take(f.history[:, -1], f.codec.sl_columns, axis=1))
            executed = np.where((coins < eta)[:, None], executed, predicted)
            expected = []
            for b, cfg in enumerate(cfgs):
                d = {}
                for t, (_work, _deadline) in pending[b].items():
                    i = f.codec.index[t]
                    if executed[b, i] > BACKOFF_THRESHOLD:
                        d[t] = ("submit", float(executed[b, f.k + i]) * cfg.budget)
                    else:
                        d[t] = ("backoff", max(1, round(float(executed[b, i]) * MAX_BACKOFF_MS)))
                expected.append(d)
            assert directives == expected, r
            feedback = feedback_for(cfgs, directives)
        assert seen >= {0, 1, n} and len(seen) >= 4

    def test_every_step_row_matches_the_step_layout(self):
        # every agent's newest row must equal, bit for bit, the step layout
        # written out here from that agent's request, prices and utility,
        # learning and frozen
        n = 5
        cfgs = [
            AgentConfig(bidder_id=f"m{i}", budget=100.0, utilization_weight=w)
            for i, w in enumerate([1.0, 0.0, 2.5, 0.3, 1.0])
        ]
        hyper = LearnerHyper(sl_batch_size=4, sl_train_interval=3)
        f = LearningFleet(cfgs, codec(), root_seed=3, hyper=hyper)
        rng = derive_stream(14, "pending")
        feedback = [None] * n
        last = [({}, 0)] * n  # per agent, last round's (submitted valuations, backoff count)
        for r in range(40):
            if r == 20:
                f.freeze()
            pending = mixed_pending(rng, r, n)
            beta = (0.0, 0.3, 1.0)[r % 3]
            env = (float(n), beta, (r % 10) / 10)
            directives = f.act(feedback, pending, n, beta, env[2])
            for b, cfg in enumerate(cfgs):
                fb = feedback[b]
                outcomes, prices = (fb.outcomes, fb.prices) if fb else ({}, {})
                submitted, backed = last[b]
                c, q = cfg.lost_bid_cost, cfg.backoff_cost
                terms = [
                    utility_per_type(outcomes.get(t, 0), v, prices.get(t, 0.0), c, q, True)
                    for t, v in submitted.items()
                ]
                u = utility_total(terms + [q] * backed, beta, cfg.utilization_weight)
                expected = np.zeros(f.codec.step_dim)  # the codec's scales: 30, 300, 100 and fleet size 4
                for t, (work, deadline) in pending[b].items():
                    i = f.codec.index[t]
                    expected[[i, f.k + i, 2 * f.k + i]] = 1.0, work / 30.0, deadline / 300.0
                for t, price in prices.items():
                    i = f.codec.index[t]
                    expected[[3 * f.k + i, 4 * f.k + i]] = price / 100.0, 1.0
                expected[5 * f.k :] = env[0] / 4, beta, env[2], u / 100.0
                assert f.history[b, -1].tobytes() == expected.tobytes(), (r, b)
            last = [
                (
                    {t: valuation(pending[b][t][0], cfg) for t, (verb, _) in directives[b].items() if verb == "submit"},
                    sum(verb == "backoff" for verb, _ in directives[b].values()),
                )
                for b, cfg in enumerate(cfgs)
            ]
            feedback = feedback_for(cfgs, directives, beta=beta)


def eagerly_drawn(seed, f):
    """(critic, behaviour net, streams) drawn from fresh init streams of f's
    agents in the order actor, critic, behaviour net, as one set-up would."""
    streams = [derive_stream(seed, f"agent/{c.bidder_id}/init") for c in f.configs]
    n_l = f.action_dim * (f.action_dim + 1) // 2
    actor_heads = {"mu": (f.action_dim, 0.01, 0.0), "lraw": (n_l, 0.01, 0.0)}
    StackedMlp(streams, f.codec.rl_input_dim, (64, 32), heads=actor_heads)
    critic = StackedMlp(streams, f.codec.rl_input_dim, (64, 32), heads={"v": (1, 0.01, 0.0)})
    net = StackedMlp(streams, f.codec.sl_dim, (32,), heads={"a": (f.action_dim, 0.1, 0.5)})
    return critic, net, streams


def assert_same_params(net, reference):
    assert net.params.keys() == reference.params.keys()
    for k, p in reference.params.items():
        assert net.params[k].tobytes() == p.tobytes(), k


class TestLazyDraws:
    # the init streams feed the actor, the critic and the behaviour net, in
    # that order; the last two are drawn when first needed

    def test_first_learning_round_draws_the_eager_weights(self):
        f = fleet(seed=5, n=3)
        assert f.pool.critic is None and f.behavior.net is None and f.behavior.opt is None
        f.act([None] * 3, pending_one(3), 3, 0.0, 0.0)  # no TD step and no training at t = 1
        critic, net, _ = eagerly_drawn(5, f)
        assert_same_params(f.pool.critic, critic)
        assert_same_params(f.behavior.net, net)
        assert all(np.all(m == 0.0) for m in (*f.behavior.opt.m.values(), *f.behavior.opt.v.values()))

    def test_fleet_frozen_at_the_start_draws_neither(self):
        f = fleet(seed=5, n=3)
        f.freeze()  # eta 1: every agent executes its best response
        rng = derive_stream(6, "pending")
        feedback = [None] * 3
        for r in range(50):
            directives = f.act(feedback, mixed_pending(rng, r, 3), 3, 0.3, 0.0)
            feedback = feedback_for(f.configs, directives)
        assert f.pool.critic is None and f.behavior.net is None and f.behavior.opt is None

    def test_frozen_fleet_draws_both_at_its_first_behavioural_prediction(self):
        f = fleet(seed=5, n=3)
        f.freeze()
        f.frozen_eta = 0.5
        init_streams = f._init_streams
        predict = f.behavior.predict
        seen = []  # per prediction, the net it predicted with

        def recorded(states, agents):
            seen.append(f.behavior.net)
            return predict(states, agents)

        f.behavior.predict = recorded
        rounds = 0
        while not seen:
            assert rounds < 20, "no agent executed the behavioural action"
            assert f.behavior.net is None
            f.act([None] * 3, pending_one(3), 3, 0.3, 0.0)
            rounds += 1
        _, net, streams = eagerly_drawn(5, f)
        assert_same_params(seen[0], net)  # drawn after the critic, from the same streams
        assert [s.draw_counter for s in init_streams] == [s.draw_counter for s in streams]
        assert f.pool.critic is None and f.behavior.opt is None  # a frozen fleet keeps only the net
        for _ in range(5):
            f.act([None] * 3, pending_one(3), 3, 0.3, 0.0)
        assert all(n is seen[0] for n in seen) and len(seen) > 1  # drawn once

    def test_freeze_after_learning_keeps_what_acting_reads(self):
        # one fleet is frozen, the other keeps everything but stops learning
        # too: the freed critic, memory and moments never changed an action
        n, seed = 4, 13
        cfgs = configs(n)
        hyper = LearnerHyper(sl_batch_size=4, sl_train_interval=3)
        frozen, kept = (LearningFleet(cfgs, codec(), root_seed=seed, hyper=hyper) for _ in range(2))
        rng = derive_stream(14, "pending")
        feedback = [[None] * n, [None] * n]
        for r in range(80):
            if r == 40:
                frozen.freeze()
                kept.frozen_eta = kept.hyper.eta(kept.t)
                kept._prev = None
            pending = mixed_pending(rng, r, n)
            directives = [f.act(fb, pending, n, 0.3, (r % 10) / 10) for f, fb in zip((frozen, kept), feedback)]
            assert directives[0] == directives[1], r
            feedback = [feedback_for(cfgs, d) for d in directives]
        assert frozen.pool.critic is None
        assert frozen.behavior.states is frozen.behavior.actions is frozen.behavior.count is None
        assert frozen.behavior.opt is None and frozen.behavior.net is not None
        assert kept.pool.critic is not None and kept.behavior.count.min() >= 4  # every agent's memory trained


class TestActionMap:
    def test_boxes(self):
        # a sigmoid on the backoff half; each price clipped to [0, budget],
        # then divided by the budget
        f = fleet(budget=80.0)
        raw = np.array([[-50.0, 50.0, -3.0, 500.0], [0.0, 0.0, 20.0, 80.0]])
        out = f._fractions(raw, f.budgets)
        assert 0.0 <= out[0, 0] < 1e-9
        assert 1.0 - 1e-9 < out[0, 1] <= 1.0
        assert out[0, 2] == 0.0
        assert out[0, 3] == 1.0
        assert out[1, 0] == out[1, 1] == 0.5
        assert out[1, 2] == 0.25
        assert out[1, 3] == 1.0

    def test_price_clip_is_np_clip_bit_for_bit(self):
        # every price column against np.clip(z, 0, budget) / budget, sign bit
        # and NaN included: -0.0 must clip to +0.0, as np.clip clips it
        f = fleet()
        k = f.k
        tiny = np.finfo(float).smallest_subnormal
        budgets = np.array([80.0, 80.0, 80.0, 80.0, 3.5, 3.5, 1e-300, tiny])
        prices = np.array(
            [
                [-0.0, 0.0],
                [-1.0, -tiny],
                [80.0, 80.0000001],
                [500.0, tiny],
                [3.5, np.nextafter(3.5, 0.0)],
                [np.inf, -np.inf],
                [np.nan, 1e-300],
                [tiny, 2 * tiny],
            ]
        )
        raw = np.hstack([np.zeros((len(budgets), k)), prices])
        out = f._fractions(raw, budgets)
        column = budgets[:, None]
        want = np.clip(prices, 0.0, column) / column
        assert out[:, k:].tobytes() == want.tobytes()
        assert not np.signbit(out[0, k])


class TestBackoffSemantics:
    def test_backoff_duration_linear_in_component(self):
        # force the behavioral branch to emit a known backoff level
        f = fleet(seed=2)
        f.frozen_eta = 0.0  # always behavioral
        level = 0.3
        f.behavior.predict = lambda states, agents: np.full((len(states), 4), level)
        directives = f.act([None, None], pending_one(), 2, 0.0, 0.0)
        for d in directives:
            verb, value = d["F1-300"]
            assert verb == "backoff"  # 0.3 < threshold 0.5
            assert value == round(level * 100)

    def test_high_component_submits(self):
        f = fleet(seed=2)
        f.frozen_eta = 0.0
        f.behavior.predict = lambda states, agents: np.full((len(states), 4), 0.9)
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

    @pytest.mark.parametrize("n_feedbacks, n_pending", [(2, 3), (2, 1), (3, 2)])
    def test_one_entry_per_agent_required(self, n_feedbacks, n_pending):
        # an extra pending entry used to be dropped without a word
        f = PassiveFleet(configs(2))
        with pytest.raises(ValueError, match=rf"per agent \(2\), got {n_feedbacks} and {n_pending}"):
            f.act([None] * n_feedbacks, pending_one(n_pending), 2, 0.0, 0.0)

    def test_empty_or_repeated_roster_rejected(self):
        # the learning fleet's roster rule: a repeated id would otherwise fail
        # only in a round where both copies bid on one type, inside the auction
        with pytest.raises(ValueError, match="at least one agent"):
            PassiveFleet([])
        cfg = AgentConfig(bidder_id="m0", budget=100.0)
        with pytest.raises(ValueError, match="bidder_id must be distinct"):
            PassiveFleet([cfg, cfg])
