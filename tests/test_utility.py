import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offloadsim import gametheory
from offloadsim.agents import AgentConfig, FeatureCodec, LearningFleet, utility_per_type, utility_total, valuation
from offloadsim.agents import bidder
from offloadsim.auction import FeedbackSignal


def config(**kw):
    defaults = dict(bidder_id="m0", budget=100.0)
    defaults.update(kw)
    return AgentConfig(**defaults)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_bad_budget_rejected(bad):
    with pytest.raises(ValueError, match="budget"):
        config(budget=bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["valuation_slope", "lost_bid_cost", "backoff_cost", "utilization_weight"])
def test_nonfinite_payoff_parameter_rejected(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        config(**{field: bad})


@pytest.mark.parametrize("field", ["lost_bid_cost", "utilization_weight"])
def test_negative_cost_or_weight_rejected(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 0"):
        config(**{field: -0.5})


class TestValuation:
    def test_linear_map(self):
        assert valuation(3.0, config()) == 3.0

    def test_budget_cap(self):
        assert valuation(30.0, config(budget=10.0)) == 10.0

    def test_monotone_in_budget(self):
        low = valuation(30.0, config(budget=30.0))
        high = valuation(30.0, config(budget=100.0))
        assert high >= low

    def test_rejects_nonpositive_estimate(self):
        # NaN would otherwise come back as the valuation
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="resource_estimate"):
                valuation(bad, config())

    @settings(max_examples=300, deadline=None)
    @given(
        budget=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        slope=st.floats(allow_nan=False, allow_infinity=False),
        estimate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @example(budget=100.0, slope=0.0, estimate=3.0)
    @example(budget=100.0, slope=-1.0, estimate=3.0)
    def test_accepted_slope_values_within_budget(self, budget, slope, estimate):
        # a slope <= 0 used to be accepted and its valuation refused only
        # mid-round, after a learning fleet had drawn and shifted its window
        if slope <= 0.0:
            with pytest.raises(ValueError, match="valuation_slope must be finite and positive"):
                config(budget=budget, valuation_slope=slope)
            return
        cfg = config(budget=budget, valuation_slope=slope)
        if slope * estimate == 0.0:  # the product underflows: refused, never returned as 0
            with pytest.raises(ValueError, match="underflows"):
                valuation(estimate, cfg)
        else:
            assert 0.0 < valuation(estimate, cfg) <= budget


class TestPerTypeUtility:
    def test_win(self):
        assert utility_per_type(1, 10.0, 4.0, 1.0, 0.5, submitted=True) == 6.0

    def test_lose_pays_cost(self):
        assert utility_per_type(0, 10.0, 3.0, 1.0, 0.5, submitted=True) == -1.0

    def test_backoff_reward(self):
        assert utility_per_type(0, 10.0, 3.0, 1.0, 0.5, submitted=False) == 0.5

    def test_free_win_is_worthless(self):
        assert utility_per_type(1, 10.0, 0.0, 1.0, 0.5, submitted=True) == 0.0

    def test_lost_at_zero_price_also_forfeits_value(self):
        # the literal zero-price correction applies on the losing branch too
        assert utility_per_type(0, 10.0, 0.0, 1.0, 0.5, submitted=True) == -11.0

    def test_invalid_outcome(self):
        with pytest.raises(ValueError):
            utility_per_type(2, 10.0, 0.0, 1.0, 0.5, submitted=True)

    @pytest.mark.parametrize("bad", [2, 0.5, -1, float("nan"), np.float64(0.5), np.int64(2)])
    @pytest.mark.parametrize("submitted", [True, False])
    def test_scalar_invalid_outcome_rejected(self, bad, submitted):
        with pytest.raises(ValueError, match="outcome x"):
            utility_per_type(bad, 10.0, 3.0, 1.0, 0.5, submitted)

    @pytest.mark.parametrize("x", [0, 1, 0.0, 1.0, True, False, np.float64(1.0), np.int64(0), np.bool_(True)])
    def test_scalar_outcomes_in_zero_one_accepted(self, x):
        assert utility_per_type(x, 10.0, 4.0, 1.0, 0.5, True) == (6.0 if x else -1.0)


class TestTotalUtility:
    def test_adds_idle_capacity_term(self):
        assert utility_total([1.0, 1.0], beta=0.25, w=1.0) == 2.75

    def test_weight_off(self):
        assert utility_total([1.0, 1.0], beta=0.25, w=0.0) == 2.0

    def test_full_utilization(self):
        assert utility_total([1.5], beta=1.0, w=3.0) == 1.5

    def test_exact_decomposition(self):
        parts = [0.3, -1.2, 4.0]
        beta, w = 0.6, 2.0
        assert utility_total(parts, beta, w) == sum(parts) + w * (1 - beta)

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            utility_total([1.0], beta=1.5, w=1.0)


class TestOneHome:
    """utility_per_type and utility_total are the only code that computes a
    bidder's payoff: every caller reaches them, looked up where that caller
    looks them up, instead of restating them. The static oracles reach
    utility_total for every round total, the potential identity's too."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def per_type(x, v, p, c, q, submitted):
            seen.append(("per_type", submitted))
            return utility_per_type(x, v, p, c, q, submitted)

        def total(per_type_utilities, beta, w):
            seen.append(("total", None))
            return utility_total(per_type_utilities, beta, w)

        for module in (gametheory, bidder):
            monkeypatch.setattr(module, "utility_per_type", per_type)
            monkeypatch.setattr(module, "utility_total", total)
        return seen

    @staticmethod
    def game():
        # values 6 and 5
        players = [
            gametheory.StaticPlayer(
                config(bidder_id=f"m{i}", budget=10.0, valuation_slope=s, lost_bid_cost=0.5, backoff_cost=0.2),
                {"T": 2.0},
            )
            for i, s in enumerate((3.0, 2.5))
        ]
        return gametheory.StaticGame(players, capacity=10.0, slots={"T": 1})

    def test_expected_round_utilities(self, calls):
        gametheory.expected_round_utilities(self.game(), ((4.0,), (None,)))
        # per player: the won and the lost payoff of its one type, then its total
        submitter, deferrer = [("per_type", True)] * 2, [("per_type", False)] * 2
        assert calls == submitter + [("total", None)] + deferrer + [("total", None)]

    def test_potential_identity(self, calls):
        game = dataclasses.replace(self.game(), slots=None)  # the identity's uncontended reduction
        gametheory.check_potential_identity(game, ((0.0,), (None,)), 0, (None,))
        # the deviated profile, where both defer, then the given one: per
        # player the won and the lost payoff of its one type, then its total
        submitter = [("per_type", True)] * 2 + [("total", None)]
        deferrer = [("per_type", False)] * 2 + [("total", None)]
        assert calls == deferrer + deferrer + submitter + deferrer

    def test_fleet_scores_each_submitted_and_deferred_type_once(self, calls):
        codec = FeatureCodec(
            type_ids=["F1-300", "F1-50"], work_max=30.0, deadline_max=300.0, price_max=100.0, fleet_size=4, window=4
        )
        fleet = LearningFleet([config()], codec, root_seed=1)
        fleet.frozen_eta = 0.0  # the behavioural branch, whose fractions are set here
        fractions = np.full((1, 4), 0.5)
        fractions[0, codec.index["F1-300"]] = 0.9  # submit
        fractions[0, codec.index["F1-50"]] = 0.1  # defer
        fleet.behavior.predict = lambda states, agents: fractions
        (directives,) = fleet.act([None], [{"F1-300": (3.0, 200.0), "F1-50": (2.0, 200.0)}], 1, 0.3, 0.0)
        assert [verb for verb, _ in directives.values()] == ["submit", "backoff"]
        calls.clear()
        feedback = FeedbackSignal("m0", {"F1-300": 1}, {"F1-300": 40.0}, 0.3)
        fleet.act([feedback], [{}], 1, 0.3, 0.0)
        # the idle-round total of every agent, then this agent's two types
        # once each, the submitted type first, and its round total
        assert calls == [("total", None), ("per_type", True), ("per_type", False), ("total", None)]
