import itertools
import math

import numpy as np
import pytest

from offloadsim.agents import utility_per_type
from offloadsim.auction import Bid, clear_auction
from offloadsim.engine import derive_stream
from offloadsim.gametheory import (
    AllocationRule,
    InfeasibleFairnessError,
    LinearOpponent,
    StaticGame,
    StaticPlayer,
    TooLargeError,
    best_response_curve,
    check_potential_identity,
    enumerate_pure_ne,
    linear_fit_interior,
    player_action_space,
    pareto_fairness_check,
    potential_value,
    potential_identity_sweep,
    random_uncontended_game,
    uncontended_utility,
    expected_round_utilities,
)
from oracles import enumerate_best_responses


def two_player_game(q=1.0, w=1.0, capacity=10.0, omega=2.0):
    players = [
        StaticPlayer({"T": q}, {"T": omega}, {"T": 3.0}, lost_bid_cost=0.5, budget=10.0),
        StaticPlayer({"T": q}, {"T": omega}, {"T": 3.0}, lost_bid_cost=0.5, budget=10.0),
    ]
    return StaticGame(players=players, capacity=capacity, utilization_weight=w)


# the utility and potential terms divide load by the capacity
@pytest.mark.parametrize("capacity", [0.0, math.nan, math.inf])
def test_bad_capacity_rejected(capacity):
    with pytest.raises(ValueError, match="capacity"):
        two_player_game(capacity=capacity)


def test_backoff_reward_for_undemanded_type_rejected():
    # potential_value would count it, the players' utilities would not
    with pytest.raises(ValueError, match=r"not in work: \['U'\]"):
        StaticPlayer({"T": 1.0, "U": 0.5}, {"T": 2.0}, {"T": 3.0}, 0.5, 10.0)


def test_values_missing_a_demanded_type_rejected():
    # the utilities read a value for every type in work; a missing one used to raise a bare KeyError there
    with pytest.raises(ValueError, match=r"no values for types in work: \['U', 'V'\]"):
        StaticPlayer({"T": 1.0}, {"T": 2.0, "U": 1.0, "V": 1.0}, {"T": 3.0}, 0.5, 10.0)


class TestPotential:
    def test_all_backed_off(self):
        game = two_player_game()
        assert potential_value(game, ((0.0,), (0.0,))) == pytest.approx(2.0 + 1.0)

    def test_both_submit(self):
        game = two_player_game()
        assert potential_value(game, ((1.0,), (1.0,))) == pytest.approx(0.6)

    def test_one_submits(self):
        game = two_player_game()
        assert potential_value(game, ((0.0,), (1.0,))) == pytest.approx(1.8)

    def test_unilateral_deviation_matches_potential(self):
        game = two_player_game()
        assert check_potential_identity(game, ((1.0,), (1.0,)), 0, (0.0,))
        du = uncontended_utility(game, ((0.0,), (1.0,)), 0) - uncontended_utility(game, ((1.0,), (1.0,)), 0)
        assert du == pytest.approx(1.2)

    def test_identity_deviation(self):
        game = two_player_game()
        assert check_potential_identity(game, ((1.0,), (1.0,)), 0, (1.0,))

    def test_randomized_sweep(self):
        rng = derive_stream(42, "games")
        residuals = potential_identity_sweep(200, rng)
        assert len(residuals) == 200
        assert max(residuals) <= 1e-9


class TestEquilibriumEnumeration:
    def test_potential_maximizer_is_equilibrium(self):
        game = two_player_game()
        profiles = list(itertools.product([(0.0,), (1.0,)], repeat=2))
        best = max(profiles, key=lambda pr: potential_value(game, pr))
        ne = enumerate_pure_ne(game)
        ne_alphas = {tuple(a for a, _ in profile) for profile in ne}
        assert tuple(best) in ne_alphas

    def test_single_player_argmax(self):
        player = StaticPlayer({"T": 0.3}, {"T": 2.0}, {"T": 3.0}, 0.5, 10.0)
        game = StaticGame([player], capacity=10.0, utilization_weight=1.0)
        ne = enumerate_pure_ne(game)
        space = [((0.0,), (0.0,)), ((1.0,), (0.0,))]
        utils = {}
        for action in space:
            others = ()
            profile = (action,) + others
            utils[action] = uncontended_utility(game, (action[0],), 0)
        best_action = max(utils, key=utils.get)
        assert len(ne) >= 1
        assert all(profile[0] == best_action for profile in ne)

    def test_symmetric_game_swap_closure(self):
        game = two_player_game()
        ne = enumerate_pure_ne(game)
        ne_set = set(ne)
        for profile in ne:
            assert (profile[1], profile[0]) in ne_set

    def test_too_large_rejected(self):
        players = [
            StaticPlayer(
                {f"T{j}": 0.1 for j in range(4)},
                {f"T{j}": 1.0 for j in range(4)},
                {f"T{j}": 1.0 for j in range(4)},
                0.5,
                10.0,
            )
            for _ in range(4)
        ]
        game = StaticGame(
            players,
            capacity=10.0,
            utilization_weight=1.0,
            alpha_levels=(0.0, 1.0),
            price_levels=tuple(np.linspace(0, 10, 8)),
        )
        with pytest.raises(TooLargeError):
            enumerate_pure_ne(game)

    @pytest.mark.parametrize("contended", [False, True])
    def test_enumeration_matches_naive_oracle(self, contended):
        # the full payoff table over every joint grid action, searched by the
        # independent brute-force oracle
        game = two_player_game()
        if contended:
            players = [StaticPlayer({"T": 0.2}, {"T": 2.0}, {"T": v}, 0.5, 10.0) for v in (6.0, 5.0, 4.0)]
            game = StaticGame(
                players, capacity=10.0, utilization_weight=1.0, price_levels=(0.0, 2.0, 4.0, 6.0), slots={"T": 1}
            )
        spaces = [player_action_space(game, i) for i in range(len(game.players))]
        payoffs = {profile: expected_round_utilities(game, profile) for profile in itertools.product(*spaces)}
        ne = enumerate_pure_ne(game)
        assert ne
        assert set(ne) == set(enumerate_best_responses(payoffs))

    def test_contended_static_clear_matches_auction_module(self):
        # tie-free: the expected-utility clearing must agree with a real clear
        players = [
            StaticPlayer({"T": 0.1}, {"T": 2.0}, {"T": 5.0}, 0.5, 10.0),
            StaticPlayer({"T": 0.1}, {"T": 2.0}, {"T": 4.0}, 0.5, 10.0),
            StaticPlayer({"T": 0.1}, {"T": 2.0}, {"T": 3.0}, 0.5, 10.0),
        ]
        game = StaticGame(players, capacity=100.0, utilization_weight=0.0, slots={"T": 1})
        actions = (((1.0,), (5.0,)), ((1.0,), (4.0,)), ((1.0,), (3.0,)))
        utils = expected_round_utilities(game, actions)
        rng = derive_stream(0, "auction")
        outcome = clear_auction(
            [Bid(f"m{i}", "T", float(actions[i][1][0]), 2.0, 100) for i in range(3)], {"T": 1}, rng
        )
        assert outcome.winners["T"] == {"m0"}
        assert outcome.payment_vector["T"] == 4.0
        assert utils[0] == pytest.approx(5.0 - 4.0)  # winner pays second price
        assert utils[1] == pytest.approx(-0.5)
        assert utils[2] == pytest.approx(-0.5)


class TestBestResponse:
    def test_costless_second_price_is_truthful(self):
        opponent = LinearOpponent(0.0, 10.0, 0.0, 10.0)
        v_grid = np.linspace(0.0, 10.0, 50)
        p_grid = np.linspace(0.0, 10.0, 201)
        curve = best_response_curve(opponent, v_grid, p_grid, lost_bid_cost=0.0)
        step = p_grid[1] - p_grid[0]
        for v, b in curve:
            assert abs(b - v) <= step + 1e-12

    def test_lost_bid_cost_pushes_bids_up(self):
        opponent = LinearOpponent(0.0, 10.0, 0.0, 10.0)
        v_grid = np.linspace(1.0, 8.0, 30)
        p_grid = np.linspace(0.0, 12.0, 241)
        curve = best_response_curve(opponent, v_grid, p_grid, lost_bid_cost=0.8)
        step = p_grid[1] - p_grid[0]
        bids = [b for _, b in curve]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bids, bids[1:]))  # monotone
        for v, b in curve:
            assert b >= v - step - 1e-12  # never below truthful

    def test_interior_is_linear(self):
        opponent = LinearOpponent(0.0, 10.0, 2.0, 9.0)
        v_grid = np.linspace(0.0, 10.0, 60)
        p_grid = np.linspace(0.0, 12.0, 301)
        curve = best_response_curve(opponent, v_grid, p_grid, lost_bid_cost=0.7)
        slope, intercept, r2, n = linear_fit_interior(curve, 2.0, 9.0, margin=0.2)
        assert n >= 10
        assert r2 >= 0.99
        # uniform opponent valuations make the interior response v + c
        assert slope == pytest.approx(1.0, abs=0.05)
        assert intercept == pytest.approx(0.7, abs=0.15)

    def test_budget_caps_the_grid(self):
        opponent = LinearOpponent(0.0, 10.0, 0.0, 10.0)
        curve = best_response_curve(
            opponent, [9.0], np.linspace(0, 12, 121), lost_bid_cost=2.0, budget=5.0
        )
        assert curve[0][1] <= 5.0

    def test_free_final_price_scores_as_utility_per_type(self):
        # a losing bid of 0 leaves a final price of 0, which utility_per_type
        # charges v for; the cheapest bid that avoids it is 1
        opponent = LinearOpponent(0.0, 1.0, 5.0, 5.0)
        curve = best_response_curve(opponent, [1.0], [0.0, 1.0, 2.0, 6.0], lost_bid_cost=0.0)
        assert curve == [(1.0, 1.0)]
        scores = [utility_per_type(int(b > 5.0), 1.0, 5.0 if b > 5.0 else b, 0.0, 0.0, True) for b in (0, 1, 2, 6)]
        assert scores == [-1.0, 0.0, 0.0, -4.0]

    @pytest.mark.parametrize("c", [0.0, 0.7])
    def test_chosen_price_maximizes_mean_utility_per_type(self, c):
        # best_response_curve scores the whole grid in one array call; cell
        # by cell, its argmax must be an argmax of the mean scalar payoff
        opponent = LinearOpponent(0.0, 10.0, 2.0, 9.0)
        opp_bids = opponent.bids(41)
        prices = np.linspace(0.0, 12.0, 8)
        curve = best_response_curve(opponent, np.linspace(1.0, 9.0, 5), prices, lost_bid_cost=c, quad_points=41)
        for v, chosen in curve:
            means = {
                float(b): np.mean([utility_per_type(int(b > o), v, o if b > o else b, c, 0.0, True) for o in opp_bids])
                for b in prices
            }
            assert means[chosen] >= max(means.values()) - 1e-12, (v, chosen, means)


class TestWelfare:
    def outcome(self, prices, slots=1):
        rng = derive_stream(1, "auction")
        return clear_auction(
            [Bid(b, "T", p, 2.0, 100) for b, p in prices.items()], {"T": slots}, rng
        )

    def test_winner_set_maximizes_welfare_under_common_linear_bids(self):
        # with everyone bidding v + c, the top-slot winners are the top values
        rng_case = derive_stream(77, "case")
        for _ in range(50):
            n = 3 + rng_case.integers(0, 3)
            values = {f"m{i}": round(rng_case.uniform(1, 10), 3) for i in range(n)}
            c = 0.5
            slots = 1 + rng_case.integers(0, 2)
            out = self.outcome({b: v + c for b, v in values.items()}, slots=slots)
            winners = out.winners["T"]
            achieved = sum(sorted((values[b] for b in winners), reverse=True))
            best = sum(sorted(values.values(), reverse=True)[: len(winners)])
            assert achieved == pytest.approx(best)


class TestFairness:
    def test_symmetric_rule_matches_brute_force(self):
        grid = np.linspace(1.0, 5.0, 30)
        v1, v2 = np.meshgrid(grid, grid)
        # ties on the diagonal go to bidder 1, so gamma = 1 needs lambda* > 0
        rule = AllocationRule.for_fairness(1.0, 0.0, 1.0, 0.0, 1.0, v1.ravel(), v2.ravel())
        assert rule.lambda_star == pytest.approx(0.0271, abs=1e-4)
        report = pareto_fairness_check(rule, v1.ravel(), v2.ravel())
        assert report.passed
        assert report.achieved_welfare == pytest.approx(report.best_welfare, rel=1e-9)

    def test_single_sample_degenerate(self):
        rule = AllocationRule(1.0, 0.0, 1.0, 0.0, gamma=1.0, lambda_star=0.0)
        report = pareto_fairness_check(rule, np.array([4.0]), np.array([2.0]))
        assert report.passed
        assert report.achieved_welfare == report.best_welfare

    def test_random_instances_stay_within_one_percent(self):
        rng = derive_stream(5, "fairness")
        for _ in range(20):
            rng.uniform(0.0, 0.6)  # former random lambda draw, kept so the instances stay the same
            gamma = rng.uniform(0.6, 1.5)
            j1, d1 = rng.uniform(0.6, 1.6), rng.uniform(0.0, 1.0)
            j2, d2 = rng.uniform(0.6, 1.6), rng.uniform(0.0, 1.0)
            k1, k2 = -d1 / j1, -d2 / j2
            g1 = np.linspace(k1 + 0.5, k1 + 5.0, 40)
            g2 = np.linspace(k2 + 0.5, k2 + 5.0, 40)
            v1, v2 = np.meshgrid(g1, g2)
            rule = AllocationRule.for_fairness(j1, d1, j2, d2, gamma, v1.ravel(), v2.ravel())
            report = pareto_fairness_check(rule, v1.ravel(), v2.ravel())
            assert report.achieved_ratio == pytest.approx(gamma, rel=1e-12)
            # the rule itself is candidate 0; at least one other must share the band
            assert report.feasible_candidates >= 2
            assert report.passed, report

    def test_multiplier_must_keep_g1_positive(self):
        with pytest.raises(ValueError, match="lambda > -1"):
            AllocationRule(1.0, 0.0, 1.0, 0.0, gamma=1.0, lambda_star=-1.0)

    def test_infeasible_band_raises(self):
        rule = AllocationRule(1.0, 0.0, 1.0, 0.0, gamma=1.0, lambda_star=0.0)
        grid = np.linspace(1.0, 5.0, 10)
        v1, v2 = np.meshgrid(grid, grid)
        with pytest.raises(InfeasibleFairnessError):
            pareto_fairness_check(rule, v1.ravel(), v2.ravel(), ratio_tol=-1.0)
        # d1 = 10 hands every sample to bidder 1, so no multiplier meets gamma
        with pytest.raises(InfeasibleFairnessError):
            AllocationRule.for_fairness(1.0, 10.0, 1.0, 0.0, 1.0, v1.ravel(), v2.ravel())
