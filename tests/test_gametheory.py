import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from offloadsim.agents import AgentConfig, FeatureCodec, LearningFleet, PassiveFleet, utility_per_type, utility_total
from offloadsim.auction import Bid, clear_auction, feedback_for
from offloadsim.engine import derive_stream, left_sum
from offloadsim.gametheory import (
    FAIR_SLOPES_TOL,
    InfeasibleFairnessError,
    StaticGame,
    StaticPlayer,
    TooLargeError,
    check_potential_identity,
    enumerate_pure_ne,
    fair_slopes,
    player_action_space,
    pareto_fairness_check,
    potential_value,
    expected_round_utilities,
)
from oracles import brute_force_clear, enumerate_best_responses


def bidder(i=0, budget=10.0, slope=1.5, c=0.5, q=1.0, w=1.0):
    return AgentConfig(f"p{i}", budget, valuation_slope=slope, lost_bid_cost=c, backoff_cost=q, utilization_weight=w)


def two_player_game(capacity=10.0):
    # each values its work of 2.0 at 3.0
    return StaticGame(players=[StaticPlayer(bidder(i), {"T": 2.0}) for i in range(2)], capacity=capacity)


# the utility and potential terms divide load by the capacity
@pytest.mark.parametrize("capacity", [0.0, math.nan, math.inf])
def test_bad_capacity_rejected(capacity):
    with pytest.raises(ValueError, match="capacity"):
        two_player_game(capacity=capacity)


def static_player(work=None, **config):
    return StaticPlayer(bidder(**config), {"T": 2.0} if work is None else work)


def static_game(**fields):
    return StaticGame(**{"players": [static_player()], "capacity": 10.0, **fields})


BAD_STATIC = {
    "nan-price": (lambda: static_game(price_levels=(0.0, math.nan)), "price level nan must be finite and >= 0"),
    "negative-price": (lambda: static_game(price_levels=(-1.0, 0.0)), "price level -1.0 must be finite and >= 0"),
    "bool-price": (lambda: static_game(price_levels=(True,)), "price level True must be"),
    "slots-minus-one": (lambda: static_game(slots={"T": -1}), "slot count for T must be an integer >= 0, got -1"),
    "slots-fraction": (lambda: static_game(slots={"T": 1.5}), "slot count for T must be an integer >= 0, got 1.5"),
    # a player's budget, value slope, cost c, deferral reward q and weight W are its AgentConfig's
    "nan-budget": (lambda: static_player(budget=math.nan), "budget must be finite and positive, got nan"),
    "negative-budget": (lambda: static_player(budget=-1.0), "budget must be finite and positive, got -1.0"),
    "zero-value": (lambda: static_player(slope=0.0), "valuation_slope must be finite and positive, got 0.0"),
    "zero-work": (lambda: static_player(work={"T": 0.0}), "work for T must be finite and positive, got 0.0"),
    "negative-lost-bid-cost": (lambda: static_player(c=-0.1), "lost_bid_cost must be >= 0"),
    "nan-backoff-reward": (lambda: static_player(q=math.nan), "backoff_cost must be finite, got nan"),
    "negative-weight": (lambda: static_player(w=-1.0), "utilization_weight must be >= 0"),
    "nan-weight": (lambda: static_player(w=math.nan), "utilization_weight must be finite, got nan"),
}


@pytest.mark.parametrize("build, match", BAD_STATIC.values(), ids=BAD_STATIC.keys())
def test_bad_static_input_refused_at_construction(build, match):
    # the rules of AgentConfig, Bid and clear_auction; each of these was
    # once accepted, or refused only later or by another error
    with pytest.raises(ValueError, match=match):
        build()


def test_static_game_is_frozen():
    # an assigned field would skip __post_init__'s checks; a replaced copy runs them again
    game = static_game(slots={"T": 1})
    with pytest.raises(dataclasses.FrozenInstanceError):
        game.slots = {"T": -1}
    with pytest.raises(dataclasses.FrozenInstanceError):
        game.players[0].config = bidder(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        game.players[0].config.budget = -1.0
    with pytest.raises(ValueError, match="slot count for T must be an integer >= 0, got -1"):
        dataclasses.replace(game, slots={"T": -1})


def two_type_game():
    # player 0 demands T and U, player 1 only T
    players = [StaticPlayer(bidder(0), {"T": 2.0, "U": 2.0}), StaticPlayer(bidder(1), {"T": 2.0})]
    return StaticGame(players, capacity=10.0, slots={"T": 1, "U": 1})


def test_static_mappings_are_read_only_copies():
    # an item assignment would skip __post_init__'s checks: a slot count of -1
    # failed later with a bare IndexError, a work of -2 inside `valuation`
    work, slots = {"T": 2.0, "U": 2.0}, {"T": 1, "U": 1}
    game = StaticGame([StaticPlayer(bidder(0), work), StaticPlayer(bidder(1), {"T": 2.0})], 10.0, (0.0, 2.0), slots)
    with pytest.raises(TypeError):
        game.slots["T"] = -1
    with pytest.raises(TypeError):
        game.players[0].work["T"] = -2.0
    work["T"], slots["T"] = -2.0, -1  # the game holds copies, so the caller's dicts are theirs
    # a twin holding plain dicts, as a game did before, plays the same
    twin = StaticGame(
        [StaticPlayer(bidder(0), {"T": 2.0, "U": 2.0}), StaticPlayer(bidder(1), {"T": 2.0})], 10.0, (0.0, 2.0)
    )
    object.__setattr__(twin, "slots", {"T": 1, "U": 1})
    for player in twin.players:
        object.__setattr__(player, "work", dict(player.work))
    profiles = list(itertools.product(player_action_space(game, 0), player_action_space(game, 1)))
    assert len(profiles) == 27
    assert [expected_round_utilities(game, p) for p in profiles] == [expected_round_utilities(twin, p) for p in profiles]
    assert enumerate_pure_ne(game) == enumerate_pure_ne(twin)


MALFORMED = {
    "three-entries": (((0.0, None, 0.0), (None, None)), r"player 0: \(0.0, None, 0.0\) has 3 entries"),
    "missing-player": (((0.0, None),), "1 actions for 2 players"),
    "nan": (((math.nan, None), (5.0, None)), "player 0, type T: nan is neither None nor a price"),
    "negative": (((None, None), (-3.0, None)), r"player 1, type T: -3.0 .* in \[0, 10.0\]"),
    "above-budget": (((500.0, None), (None, None)), r"player 0, type T: 500.0 .* in \[0, 10.0\]"),
    # an (alpha vector, price vector) pair, where alpha 0.5 once counted as
    # half a submission in the potential and a whole one in the payoffs
    "alpha-pair": ((((0.5, 1.0), (0.0, 0.0)), (None, None)), r"player 0, type T: \(0.5, 1.0\) is neither"),
    "undemanded": (((None, None), (None, 4.0)), "player 1, type U: 4.0 bid for a type the player does not demand"),
    # Python counts a bool as an int, so True once scored as a bid of 1.0
    "bool": (((True, None), (None, None)), "player 0, type T: True is neither None nor a price"),
}


@pytest.mark.parametrize("profile, match", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_action_refused(profile, match):
    # the potential and the payoffs read one action form and refuse the same profiles
    game = two_type_game()
    with pytest.raises(ValueError, match=match):
        potential_value(game, profile)
    with pytest.raises(ValueError, match=match):
        expected_round_utilities(game, profile)


@st.composite
def uncontended_games_with_any_reward(draw):
    """A small everything-admitted game whose players' deferral rewards q
    lie in (-2, 2), one per player, with one weight W for all. The capacity
    is at least the total work, so beta never clamps, and no (player, type)
    pair is within 1e-6 of indifference, -q = W*omega/C."""
    types = [f"T{j}" for j in range(draw(st.integers(1, 2)))]
    w = draw(st.floats(0.0, 3.0))
    players = [
        StaticPlayer(
            bidder(
                i,
                slope=draw(st.floats(0.2, 10.0)),
                c=draw(st.floats(0.0, 1.0)),
                q=draw(st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True)),
                w=w,
            ),
            work={t: draw(st.floats(0.5, 5.0)) for t in types},
        )
        for i in range(draw(st.integers(2, 3)))
    ]
    capacity = left_sum(p.work[t] for p in players for t in types) * draw(st.floats(1.0, 4.0))
    for p in players:
        for t in types:
            assume(abs(-p.config.backoff_cost - w * p.work[t] / capacity) >= 1e-6)
    return StaticGame(players, capacity=capacity)


class TestPotential:
    def test_all_backed_off(self):
        game = two_player_game()
        assert potential_value(game, ((None,), (None,))) == pytest.approx(2.0 + 1.0)

    def test_both_submit(self):
        game = two_player_game()
        assert potential_value(game, ((0.0,), (0.0,))) == pytest.approx(0.6)

    def test_one_submits(self):
        game = two_player_game()
        assert potential_value(game, ((None,), (0.0,))) == pytest.approx(1.8)

    def test_unilateral_deviation_matches_potential(self):
        game = two_player_game()
        assert check_potential_identity(game, ((0.0,), (0.0,)), 0, (None,))
        deferred, submitted = (None,), (0.0,)  # no slot limit: a submitted bid wins at price 0
        du = (
            expected_round_utilities(game, (deferred, submitted))[0]
            - expected_round_utilities(game, (submitted, submitted))[0]
        )
        assert du == pytest.approx(1.2)

    def test_identity_deviation(self):
        game = two_player_game()
        assert check_potential_identity(game, ((0.0,), (0.0,)), 0, (0.0,))

    @pytest.mark.parametrize(
        "slots, capacity, profile, new_action, match",
        [
            ({"T": 2}, 10.0, ((0.0,), (0.0,)), (None,), "slots"),
            (None, 10.0, ((0.0,), (0.0,)), ((0.0,), (0.0,)), "player 0: .* has 2 entries for types"),
            (None, 3.0, ((0.0,), (0.0,)), (None,), "total work 4.0 is above capacity 3.0"),
        ],
    )
    def test_game_outside_the_uncontended_reduction_refused(self, slots, capacity, profile, new_action, match):
        # with slots a bid can lose, an (alpha, price) pair is no static
        # action, and above capacity beta clamps: the identity need not hold
        game = dataclasses.replace(two_player_game(capacity=capacity), slots=slots)
        with pytest.raises(ValueError, match=match):
            check_potential_identity(game, profile, 0, new_action)

    @settings(max_examples=30, deadline=None)
    @given(game=uncontended_games_with_any_reward(), data=st.data())
    def test_maximizer_submits_exactly_the_pairs_that_gain(self, game, data):
        types, n = game.type_ids, len(game.players)
        actions = st.tuples(*[st.sampled_from((None, 0.0))] * len(types))
        profile = data.draw(st.tuples(*[actions] * n))
        assert check_potential_identity(game, profile, data.draw(st.integers(0, n - 1)), data.draw(actions))
        # submitting one (player, type) pair moves the potential by -q - W*omega/C
        gains = tuple(
            tuple(
                0.0 if -p.config.backoff_cost > p.config.utilization_weight * p.work[t] / game.capacity else None
                for t in types
            )
            for p in game.players
        )
        profiles = itertools.product(itertools.product((None, 0.0), repeat=len(types)), repeat=n)
        best = max(profiles, key=lambda pr: potential_value(game, pr))
        assert best == gains
        assert best in enumerate_pure_ne(game)


class TestEquilibriumEnumeration:
    def test_potential_maximizer_is_equilibrium(self):
        game = two_player_game()
        profiles = list(itertools.product([(None,), (0.0,)], repeat=2))
        best = max(profiles, key=lambda pr: potential_value(game, pr))
        assert best in enumerate_pure_ne(game)

    def test_single_player_argmax(self):
        game = StaticGame([StaticPlayer(bidder(q=0.3), {"T": 2.0})], capacity=10.0)
        ne = enumerate_pure_ne(game)
        space = [(None,), (0.0,)]
        utils = {action: expected_round_utilities(game, (action,))[0] for action in space}
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
        players = [StaticPlayer(bidder(i, slope=1.0, q=0.1), {f"T{j}": 1.0 for j in range(4)}) for i in range(4)]
        game = StaticGame(players, capacity=10.0, price_levels=tuple(np.linspace(0, 10, 8)))
        with pytest.raises(TooLargeError):
            enumerate_pure_ne(game)

    @staticmethod
    def assert_matches_naive_oracle(game):
        # the full payoff table over every joint grid action, searched by the
        # independent brute-force oracle; each equilibrium is listed once
        spaces = [player_action_space(game, i) for i in range(len(game.players))]
        payoffs = {profile: expected_round_utilities(game, profile) for profile in itertools.product(*spaces)}
        ne = enumerate_pure_ne(game)
        assert ne
        assert len(ne) == len(set(ne))
        assert set(ne) == set(enumerate_best_responses(payoffs))

    @pytest.mark.parametrize("contended", [False, True])
    def test_enumeration_matches_naive_oracle(self, contended):
        game = two_player_game()
        if contended:
            # values 6, 5 and 4
            players = [StaticPlayer(bidder(i, slope=s, q=0.2), {"T": 2.0}) for i, s in enumerate((3.0, 2.5, 2.0))]
            game = StaticGame(players, capacity=10.0, price_levels=(0.0, 2.0, 4.0, 6.0), slots={"T": 1})
        self.assert_matches_naive_oracle(game)

    def test_two_type_enumeration_matches_naive_oracle(self):
        # values (3, 4.5) and (4, 6), each player with its own q
        players = [
            StaticPlayer(bidder(i, slope=s, q=q), {"A": 2.0, "B": 3.0})
            for i, (s, q) in enumerate(((1.5, -0.5), (2.0, -1.0)))
        ]
        game = StaticGame(players, capacity=10.0, price_levels=(0.0, 3.0, 6.0), slots={"A": 1, "B": 1})
        # defer or one of 3 prices for each of 2 types: 16 actions a player, 256 profiles
        assert [len(player_action_space(game, i)) for i in range(2)] == [16, 16]
        self.assert_matches_naive_oracle(game)

    @pytest.mark.parametrize(
        "q, w, slots, count, submitters",
        [
            *[(0.1, w, slots, 1, {0}) for w in (0.0, 1.0) for slots in (1, 2, None)],
            (-0.1, 0.0, 1, 2, {1}),
            (-1.0, 1.0, 1, 10, {1, 2}),
            (-5.0, 0.0, 1, 8, {2}),
            (-5.0, 1.0, 1, 8, {2}),
        ],
    )
    def test_sign_of_q_decides_who_submits(self, q, w, slots, count, submitters):
        # ROADMAP direction 2's game: v = 40, work 40, c = 1, budget 100,
        # capacity 100, prices 0-50 in steps of 10
        players = [StaticPlayer(bidder(i, budget=100.0, slope=1.0, c=1.0, q=q, w=w), {"T": 40.0}) for i in range(2)]
        game = StaticGame(
            players,
            capacity=100.0,
            price_levels=tuple(float(p) for p in range(0, 51, 10)),
            slots=None if slots is None else {"T": slots},
        )
        ne = enumerate_pure_ne(game)
        assert len(ne) == len(set(ne)) == count
        assert {sum(price is not None for (price,) in profile) for profile in ne} == submitters

    def test_contended_static_clear_matches_auction_module(self):
        # tie-free: the expected-utility clearing must agree with a real clear
        # values 5, 4 and 3
        players = [StaticPlayer(bidder(i, slope=s, q=0.1, w=0.0), {"T": 2.0}) for i, s in enumerate((2.5, 2.0, 1.5))]
        game = StaticGame(players, capacity=100.0, slots={"T": 1})
        actions = ((5.0,), (4.0,), (3.0,))
        utils = expected_round_utilities(game, actions)
        rng = derive_stream(0, "auction")
        outcome = clear_auction(
            [Bid(f"m{i}", "T", actions[i][0], 2.0, 100) for i in range(3)], {"T": 1}, rng
        )
        assert outcome.winners["T"] == {"m0"}
        assert outcome.payment_vector["T"] == 4.0
        assert utils[0] == pytest.approx(5.0 - 4.0)  # winner pays second price
        assert utils[1] == pytest.approx(-0.5)
        assert utils[2] == pytest.approx(-0.5)


class TestOneBidder:
    """A static player is the AgentConfig a LearningFleet is built from, so
    the static payoff is the reward its learner reads."""

    def test_round_utilities_are_the_fleets_rewards(self):
        # values 6 and 5, one slot, and a tie-free profile: player 0 wins at price 4
        players = [StaticPlayer(bidder(i, slope=s, q=0.2), {"T": 2.0}) for i, s in enumerate((3.0, 2.5))]
        game = StaticGame(players, capacity=10.0, slots={"T": 1})
        profile = ((6.0,), (4.0,))
        utils = expected_round_utilities(game, profile)

        configs = [p.config for p in game.players]
        # a power-of-two price_max, so the step row's reward scales back exactly
        codec = FeatureCodec(type_ids=["T"], work_max=4.0, deadline_max=100.0, price_max=64.0, fleet_size=2, window=2)
        fleet = LearningFleet(configs, codec, root_seed=1)
        fleet.frozen_eta = 0.0  # the behavioural branch, whose fractions are set here
        fleet.behavior.predict = lambda states, agents: np.full((len(agents), 2), 0.9)  # submit
        directives = fleet.act([None] * 2, [{"T": (p.work["T"], 100.0)} for p in players], 2, 0.0, 0.0)
        assert [d["T"][0] for d in directives] == ["submit"] * 2
        bids = [Bid(c.bidder_id, "T", price, p.work["T"], 100) for c, p, (price,) in zip(configs, players, profile)]
        outcome = clear_auction(bids, game.slots, derive_stream(0, "auction"))
        assert outcome.winners["T"] == {"p0"}
        beta = players[0].work["T"] / game.capacity  # the game's: the won load over capacity
        fleet.act([feedback_for(outcome, c.bidder_id, beta) for c in configs], [{}] * 2, 2, beta, 0.0)
        assert list(fleet.history[:, -1, -1] * codec.price_max) == utils

    def test_each_player_is_scored_with_its_own_weight(self):
        # player 0's free win loads the capacity by 2 / 10; player 1 defers
        players = [StaticPlayer(bidder(i, q=0.2, w=w), {"T": 2.0}) for i, w in enumerate((1.0, 3.0))]
        game = StaticGame(players, capacity=10.0)
        profile = ((0.0,), (None,))
        assert expected_round_utilities(game, profile) == [
            utility_total([0.0], 0.2, 1.0),
            utility_total([0.2], 0.2, 3.0),
        ]
        # the potential needs one W
        with pytest.raises(ValueError, match=r"the potential needs one utilization weight, got \[1.0, 3.0\]"):
            potential_value(game, profile)
        with pytest.raises(ValueError, match="one utilization weight"):
            check_potential_identity(game, profile, 1, (0.0,))


BID_STEP = 0.5  # rivals bid on this grid, so ties at the slot boundary are common
GRID_BIDS = st.integers(0, 40).map(lambda k: k * BID_STEP)  # [0, 20]


def expected_bid_payoff(bid, rivals, slots, v, c):
    """(E u, win probability, payment) of bidding `bid` for one type against
    the rivals' bids, scored exactly from the reference clearer: an outright
    winner wins, a tied bidder wins with probability tied slots / tied bidders."""
    entries = [("me", bid)] + [(f"r{i}", r) for i, r in enumerate(rivals)]
    outright, tied, tied_slots, pay = brute_force_clear({"T": entries}, {"T": slots})["T"]
    if "me" in outright:
        p_win = 1.0
    elif "me" in tied:
        p_win = tied_slots / len(tied)
    else:
        p_win = 0.0
    won, lost = utility_per_type(1, v, pay, c, 0.0, True), utility_per_type(0, v, pay, c, 0.0, True)
    return p_win * won + (1.0 - p_win) * lost, p_win, pay


@st.composite
def bid_profiles(draw):
    """(slots, rivals' bids, budget, v, c): v in (0, budget] and c >= 0, each
    often on the bid grid. Some rivals bid v + k*c/4 for k in 1..4: in that
    window a bid below v + c loses a win that pays."""
    slots = draw(st.integers(1, 3))
    v = draw(st.one_of(st.integers(1, 40).map(lambda k: k * BID_STEP), st.floats(0.0, 20.0, exclude_min=True)))
    budget = max(v, draw(st.one_of(st.sampled_from([10.0, 15.0, 20.0]), st.floats(BID_STEP, 20.0))))
    c = draw(st.one_of(st.just(0.0), st.integers(0, 20).map(lambda k: k * BID_STEP), st.floats(0.0, 10.0)))
    near_target = st.integers(1, 4).map(lambda k: v + k * c / 4)
    rivals = draw(st.lists(st.one_of(GRID_BIDS, near_target), min_size=1, max_size=4))
    return slots, rivals, budget, v, c


class TestDominantBid:
    """b* = min(v + c, budget) is weakly dominant for utility_per_type in one
    round of one type's (n+1)-th price auction (Vickrey, J. Finance 16(1),
    1961, for unit demand, shifted by the lost-bid cost)."""

    @settings(max_examples=60, deadline=None)
    @given(profile=bid_profiles())
    # a losing bid of 0 meets final price 0 and scores -c - v; b* = 1 does not
    @example(profile=(1, [5.0], 6.0, 1.0, 0.0))
    def test_no_bid_in_budget_beats_the_dominant_bid(self, profile):
        slots, rivals, budget, v, c = profile
        best = min(v + c, budget)  # b*
        best_u, best_win, best_pay = expected_bid_payoff(best, rivals, slots, v, c)
        assert best_win == 1.0 or best_pay > 0.0  # b* > 0 never loses at price 0
        bids = [k * BID_STEP for k in range(int(budget / BID_STEP) + 1)] + [budget]
        for b in bids:
            u, p_win, pay = expected_bid_payoff(b, rivals, slots, v, c)
            if p_win == 0.0 and pay == 0.0:
                assert u == -c - v
            assert best_u >= u - 1e-12, (b, u, best, best_u)

    @pytest.mark.parametrize(
        "rivals, truthful_u, above_u",
        [([20.0, 20.0, 20.0], -0.75, 0.0), ([20.5], -1.0, -0.5)],
    )
    def test_truthful_bid_is_not_dominant_with_a_lost_bid_cost(self, rivals, truthful_u, above_u):
        # v = 20, c = 1, one slot: a win at any price below v + c beats a loss
        assert expected_bid_payoff(20.0, rivals, 1, 20.0, 1.0)[0] == truthful_u
        assert expected_bid_payoff(30.0, rivals, 1, 20.0, 1.0)[0] == above_u

    def test_shifted_bid_is_not_dominant_in_the_static_game(self):
        # The round total also counts the idle capacity. A win adds the own
        # work 10 but displaces the rival's 20, so the bid shifted by the own
        # won load, v + c - W*omega/C = 18, loses to a bid that wins. Both
        # value their request at 20.
        me = StaticPlayer(bidder(0, budget=100.0, slope=2.0, c=0.0, q=0.0, w=20.0), {"T": 10.0})
        rival = StaticPlayer(bidder(1, budget=100.0, slope=1.0, c=0.0, q=0.0, w=20.0), {"T": 20.0})
        game = StaticGame([me, rival], capacity=100.0, slots={"T": 1})
        shifted = 20.0 + 0.0 - 20.0 * 10.0 / 100.0
        scores = {
            bid: expected_round_utilities(game, ((bid,), (20.0,)))[0] for bid in (shifted, 20.5)
        }
        assert scores == {18.0: 16.0, 20.5: 18.0}


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
            n = 3 + int(rng_case.integer_array(0, 3, None))
            values = {f"m{i}": round(rng_case.uniform(1, 10), 3) for i in range(n)}
            c = 0.5
            slots = 1 + int(rng_case.integer_array(0, 2, None))
            out = self.outcome({b: v + c for b, v in values.items()}, slots=slots)
            winners = out.winners["T"]
            achieved = sum(sorted((values[b] for b in winners), reverse=True))
            best = sum(sorted(values.values(), reverse=True)[: len(winners)])
            assert achieved == pytest.approx(best)


def fairness_samples():
    """400 resource amounts per bidder from U(1, 5), omega1's then omega2's;
    the seed was fixed before the first run."""
    rng = derive_stream(1, "fair")
    omega1 = np.array([rng.uniform(1.0, 5.0) for _ in range(400)])
    omega2 = np.array([rng.uniform(1.0, 5.0) for _ in range(400)])
    return omega1, omega2


def allocated_ratio(first_wins, omega1, omega2):
    return omega1[first_wins].sum() / omega2[~first_wins].sum()


def ratio_at(slopes, omega1, omega2):
    # bidder 1 wins where its valuation is at least bidder 2's
    return allocated_ratio(slopes[0] * omega1 >= slopes[1] * omega2, omega1, omega2)


RATIO_TOL = 0.02


class TestFairness:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_auction_at_fair_slopes_meets_gamma_welfare_optimally(self, gamma):
        # two passive bidders bid their valuations slope * omega for one slot
        omega1, omega2 = fairness_samples()
        slopes = fair_slopes(gamma, omega1, omega2)
        budget = 100.0
        assert budget >= max(slopes[0] * omega1.max(), slopes[1] * omega2.max())  # the cap is out of reach
        fleet = PassiveFleet([AgentConfig(f"m{i}", budget, valuation_slope=s) for i, s in enumerate(slopes)])
        rng = derive_stream(1, "auction")
        first_wins = []
        for pair in zip(omega1, omega2):
            directives = fleet.act([None, None], [{"T": (w, 100.0)} for w in pair], 2, 0.0, 0.0)
            bids = [Bid(f"m{i}", "T", d["T"][1], w, 100) for i, (d, w) in enumerate(zip(directives, pair))]
            assert bids[0].price != bids[1].price  # no tie, so no draw decides a winner
            first_wins.append("m0" in clear_auction(bids, {"T": 1}, rng).winners["T"])
        first_wins = np.array(first_wins)
        ratio = allocated_ratio(first_wins, omega1, omega2)
        assert abs(ratio - gamma) <= RATIO_TOL * max(1.0, gamma)
        report = pareto_fairness_check(first_wins, omega1, omega2, gamma, ratio_tol=RATIO_TOL)
        assert report.achieved_ratio == ratio
        assert report.passed, report

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_fair_slopes_are_the_least_that_meet_gamma(self, gamma):
        omega1, omega2 = fairness_samples()
        s1, s2 = fair_slopes(gamma, omega1, omega2)
        lam = s1 - 1.0
        assert s1 > 0 and s2 > 0
        assert s2 == pytest.approx(1.0 - gamma * lam, abs=1e-15)
        assert ratio_at((s1, s2), omega1, omega2) >= gamma
        # the final bisection bracket is at most FAIR_SLOPES_TOL wide
        lower = lam - FAIR_SLOPES_TOL
        assert ratio_at((1.0 + lower, 1.0 - gamma * lower), omega1, omega2) < gamma

    @pytest.mark.parametrize(
        "gamma, omega1, omega2, match",
        [
            (1.0, [1.0, 2.0], [1.0], "paired, non-empty"),
            (1.0, [], [], "paired, non-empty"),
            (1.0, [1.0, 0.0], [1.0, 1.0], "finite and positive"),
            (1.0, [1.0, 1.0], [-1.0, 1.0], "finite and positive"),
            (1.0, [1.0, math.inf], [1.0, 1.0], "finite and positive"),
            (1.0, [1.0, 1.0], [math.nan, 1.0], "finite and positive"),
            *[(gamma, [1.0], [1.0], "gamma must be finite and positive") for gamma in (0.0, -1.0, math.inf, math.nan)],
        ],
    )
    def test_fair_slopes_refuses_bad_input(self, gamma, omega1, omega2, match):
        with pytest.raises(ValueError, match=match):
            fair_slopes(gamma, omega1, omega2)

    @pytest.mark.parametrize(
        "first_wins, gamma, match",
        [([1, 0], 1.0, "one bool per sample pair"), ([True], 1.0, "one bool per sample pair"), ([True, False], 0.0, "gamma")],
    )
    def test_check_refuses_bad_input(self, first_wins, gamma, match):
        with pytest.raises(ValueError, match=match):
            pareto_fairness_check(first_wins, [1.0, 2.0], [2.0, 1.0], gamma)

    def test_single_sample_degenerate(self):
        report = pareto_fairness_check(np.array([True]), np.array([4.0]), np.array([2.0]), gamma=1.0)
        assert report.passed
        assert report.achieved_welfare == report.best_welfare

    def test_random_instances_stay_within_one_percent(self):
        rng = derive_stream(5, "fairness")
        for _ in range(20):
            gamma = rng.uniform(0.6, 1.5)
            omega1 = np.array([rng.uniform(0.5, 5.0) for _ in range(400)])
            omega2 = np.array([rng.uniform(0.5, 5.0) for _ in range(400)])
            slopes = fair_slopes(gamma, omega1, omega2)
            first_wins = slopes[0] * omega1 >= slopes[1] * omega2
            report = pareto_fairness_check(first_wins, omega1, omega2, gamma, ratio_tol=RATIO_TOL)
            assert abs(report.achieved_ratio - gamma) <= RATIO_TOL * max(1.0, gamma)
            # the allocation itself is one candidate; at least one other must share the band
            assert report.feasible_candidates >= 2
            assert report.passed, report

    def test_infeasible_band_raises(self):
        grid = np.linspace(1.0, 5.0, 10)
        omega1, omega2 = (g.ravel() for g in np.meshgrid(grid, grid))
        with pytest.raises(InfeasibleFairnessError):
            pareto_fairness_check(omega1 >= omega2, omega1, omega2, gamma=1.0, ratio_tol=-1.0)
