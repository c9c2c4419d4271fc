import pytest

from offloadsim.agents import AgentConfig, utility_per_type, utility_total, valuation


def config(**kw):
    defaults = dict(bidder_id="m0", budget=100.0)
    defaults.update(kw)
    return AgentConfig(**defaults)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_bad_budget_rejected(bad):
    with pytest.raises(ValueError, match="budget"):
        config(budget=bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "field", ["valuation_slope", "valuation_intercept", "lost_bid_cost", "backoff_cost", "utilization_weight"]
)
def test_nonfinite_payoff_parameter_rejected(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        config(**{field: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0, -5])
def test_bad_max_backoff_rejected(bad):
    # a NaN or inf bound would fail only later, when a backoff duration is rounded
    with pytest.raises(ValueError, match="max_backoff_ms"):
        config(max_backoff_ms=bad)


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
        with pytest.raises(ValueError):
            valuation(0.0, config())


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
