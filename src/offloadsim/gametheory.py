"""Desk-scale static-game oracles.

Verifies, on small instances, the claims the simulator's mechanism rests
on: the uncontended game is an exact potential game (unilateral utility
differences equal potential differences), clearing admits pure equilibria
found by brute-force enumeration, and a one-slot auction between two
bidders with `fair_slopes`' valuation slopes allocates as much resource as
the best threshold rule that meets the same fairness ratio
(`pareto_fairness_check`, run on `clear_auction`'s winners in
`tests/test_gametheory.py::TestFairness`). The potential identity is
checked on the learners' own round total, `expected_round_utilities`
through `utility_total`, in the uncontended reduction: no slot limit, and a
capacity at least the total work, so beta never clamps. The one-round
dominant bid min(v + c, budget) (`utility_per_type`) is tested in
`tests/test_gametheory.py::TestDominantBid`.

A `StaticPlayer` is the `AgentConfig` a `LearningFleet` is built from, plus
its work per demanded type: its value for a type is `valuation(work,
config)`, and its c, q (`backoff_cost`, the deferral reward) and W are the
config's, so `expected_round_utilities` pays it its learner's reward.

A static action gives each of `StaticGame.type_ids`, in order, either None
(defer) or the price the player bids (submit); an undemanded type is always
None. A profile is one action per player. The potential, the payoffs and
the equilibrium search all take this one form, each equilibrium is listed
once, and a malformed action raises a ValueError naming the player, the
type and the value. `StaticGame` refuses at construction what `Bid` and
`clear_auction` refuse.

Everything here is deterministic: expected utilities integrate tie breaks
by direct weighting, never by Monte Carlo, so oracle results are seed
independent.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .agents.utility import AgentConfig, utility_per_type, utility_total, valuation
from .engine import left_sum, require_count

IDENTITY_TOL = 1e-9
NE_TOL = 1e-12  # a deviation must gain more than this to break an equilibrium
WELFARE_TOL = 0.01  # the fairness check's welfare slack, relative to the best candidate
SLOPE_GRID = 60  # candidate threshold slopes, from 0.25 to 4
OFFSET_GRID = 41  # candidate threshold offsets, across the samples' spread
FAIR_SLOPES_TOL = 1e-12  # the width of fair_slopes' final bisection bracket


class TooLargeError(ValueError):
    pass


class InfeasibleFairnessError(RuntimeError):
    pass


# Frozen, and each mapping held as a read-only copy: an assigned field or
# item would skip __post_init__'s checks.
@dataclass(frozen=True)
class StaticPlayer:
    """The bidder a `LearningFleet` is built from, and its work per demanded type."""

    config: AgentConfig
    work: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "work", MappingProxyType(dict(self.work)))
        for t, w in self.work.items():
            if not 0.0 < w < math.inf:
                raise ValueError(f"work for {t} must be finite and positive, got {w}")


@dataclass(frozen=True)
class StaticGame:
    players: list[StaticPlayer]
    capacity: float
    price_levels: tuple[float, ...] = (0.0,)
    slots: Optional[Mapping[str, int]] = None  # None: every submitted bid is accepted

    def __post_init__(self):
        if self.slots is not None:
            object.__setattr__(self, "slots", MappingProxyType(dict(self.slots)))
        if not 0 < self.capacity < math.inf:
            raise ValueError(f"capacity must be finite and positive, got {self.capacity}")
        if not self.price_levels:
            raise ValueError("the price grid must be non-empty")
        # the rules of a Bid's price and of clear_auction's slot counts
        for price in self.price_levels:
            if isinstance(price, bool) or not 0.0 <= price < math.inf:
                raise ValueError(f"price level {price!r} must be finite and >= 0")
        for t, n in (self.slots or {}).items():
            require_count(f"slot count for {t}", n, 0)

    @property
    def type_ids(self) -> tuple[str, ...]:
        seen = []
        for p in self.players:
            for t in p.work:
                if t not in seen:
                    seen.append(t)
        return tuple(sorted(seen))


# -- static actions ---------------------------------------------------------------


def _check_profile(game: StaticGame, profile) -> None:
    """Refuse a profile that is not one static action per player (module docstring)."""
    types = game.type_ids
    if len(profile) != len(game.players):
        raise ValueError(f"{len(profile)} actions for {len(game.players)} players")
    for i, (player, action) in enumerate(zip(game.players, profile)):
        budget = player.config.budget
        if len(action) != len(types):
            raise ValueError(f"player {i}: {action!r} has {len(action)} entries for types {types}")
        for t, price in zip(types, action):
            if price is None:
                continue
            if t not in player.work:
                raise ValueError(f"player {i}, type {t}: {price!r} bid for a type the player does not demand")
            if isinstance(price, bool) or not isinstance(price, numbers.Real) or not 0.0 <= price <= budget:
                raise ValueError(f"player {i}, type {t}: {price!r} is neither None nor a price in [0, {budget}]")


# -- potential function (uncontended case) -------------------------------------


def potential_value(game: StaticGame, profile) -> float:
    """phi = sum q - sum of q submitted + W * (1 - sum of omega submitted / C),
    with a q per demanded type, and one W: players whose weights differ are refused."""
    _check_profile(game, profile)
    weights = {p.config.utilization_weight for p in game.players}
    if len(weights) != 1:
        raise ValueError(f"the potential needs one utilization weight, got {sorted(weights)}")
    (w,) = weights
    types = game.type_ids
    submitted = [
        (p, t) for p, action in zip(game.players, profile) for t, price in zip(types, action) if price is not None
    ]
    total_q = left_sum(p.config.backoff_cost for p in game.players for _ in p.work)
    chosen_q = left_sum(p.config.backoff_cost for p, _ in submitted)
    load = left_sum(p.work[t] for p, t in submitted)
    return total_q - chosen_q + w * (1.0 - load / game.capacity)


def check_potential_identity(game: StaticGame, profile, player: int, new_action) -> bool:
    """Does the deviating player's round utility change equal the potential change?

    Both profiles are scored with `expected_round_utilities`: with no slot
    limit every submitted bid wins at price 0, whatever it bids, and the
    round total goes through `utility_total`. The identity holds only in
    that uncontended reduction, so a game with slots or a total work above
    capacity (where beta clamps) is refused.
    """
    if game.slots is not None:
        raise ValueError(f"slots {dict(game.slots)} set: the identity holds only with every bid accepted")
    total_work = left_sum(p.work.get(t, 0.0) for p in game.players for t in game.type_ids)
    if total_work > game.capacity:
        raise ValueError(f"total work {total_work} is above capacity {game.capacity}, where beta clamps")
    deviated = list(profile)
    deviated[player] = new_action
    du = expected_round_utilities(game, deviated)[player] - expected_round_utilities(game, profile)[player]
    dphi = potential_value(game, deviated) - potential_value(game, profile)
    return abs(du - dphi) <= IDENTITY_TOL


# -- pure-equilibrium enumeration ------------------------------------------------


def expected_round_utilities(game: StaticGame, actions) -> list[float]:
    """Expected utility per player for one profile of static actions.

    Tie breaks at the slot boundary are integrated exactly (each tied bidder
    wins the leftover slots with equal probability). The per-type payoff is
    the learners' own, utility_per_type, taken in expectation over the win
    probability, with the player's own c, q and W, as its learner reads them.
    """
    _check_profile(game, actions)
    types = game.type_ids
    n_players = len(game.players)
    win_prob = np.zeros((n_players, len(types)))
    payment = np.zeros(len(types))
    for j, t in enumerate(types):
        submitted = [(i, action[j]) for i, action in enumerate(actions) if action[j] is not None]
        if not submitted:
            continue
        n = len(submitted) if game.slots is None else game.slots.get(t, 0)
        prices = sorted((price for _, price in submitted), reverse=True)
        if len(submitted) <= n:
            for i, _ in submitted:
                win_prob[i, j] = 1.0
            continue
        payment[j] = prices[n]
        if n == 0:
            continue
        boundary = prices[n - 1]
        above = [(i, pr) for i, pr in submitted if pr > boundary]
        tied = [(i, pr) for i, pr in submitted if pr == boundary]
        for i, _ in above:
            win_prob[i, j] = 1.0
        leftover = n - len(above)
        for i, _ in tied:
            win_prob[i, j] = leftover / len(tied)

    expected_load = left_sum(
        win_prob[i, j] * game.players[i].work.get(t, 0.0)
        for i in range(n_players)
        for j, t in enumerate(types)
    )
    beta = min(1.0, expected_load / game.capacity)

    utilities = []
    for i, player in enumerate(game.players):
        config = player.config
        c, q = config.lost_bid_cost, config.backoff_cost
        terms = []
        for j, t in enumerate(types):
            if t not in player.work:
                continue
            v, p = valuation(player.work[t], config), float(payment[j])
            submitted = actions[i][j] is not None
            pr_win = win_prob[i, j]  # 0 for a deferred bid, whose payoff is q either way
            won = utility_per_type(1, v, p, c, q, submitted)
            lost = utility_per_type(0, v, p, c, q, submitted)
            terms.append(pr_win * won + (1.0 - pr_win) * lost)
        utilities.append(utility_total(terms, beta, config.utilization_weight))
    return utilities


def player_action_space(game: StaticGame, player: int) -> list[tuple]:
    """The player's static actions: per demanded type None (defer) or a grid
    price within its budget, and None for every other type. A deferral
    carries no price, so each is listed once."""
    p = game.players[player]
    prices = tuple(pr for pr in game.price_levels if pr <= p.config.budget)
    return list(itertools.product(*[(None, *prices) if t in p.work else (None,) for t in game.type_ids]))


def enumerate_pure_ne(game: StaticGame) -> list[tuple]:
    """Every profile of `player_action_space` actions from which no unilateral
    deviation gains more than NE_TOL. Each equilibrium is listed once."""
    spaces = [player_action_space(game, i) for i in range(len(game.players))]
    total = math.prod(len(s) for s in spaces)
    if total > 1_000_000:
        raise TooLargeError(f"{total} joint actions exceed the enumeration budget")
    cache: dict[tuple, list[float]] = {}

    def utilities(profile):
        if profile not in cache:
            cache[profile] = expected_round_utilities(game, profile)
        return cache[profile]

    equilibria = []
    for profile in itertools.product(*spaces):
        base = utilities(profile)
        if not any(
            utilities(profile[:i] + (alt,) + profile[i + 1 :])[i] > base[i] + NE_TOL
            for i, space in enumerate(spaces)
            for alt in space
            if alt != profile[i]
        ):
            equilibria.append(profile)
    return equilibria


# -- fairness-constrained allocation check -----------------------------------------


def _check_fairness_input(gamma, omega1, omega2) -> tuple[np.ndarray, np.ndarray]:
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    omega1 = np.asarray(omega1, dtype=float)
    omega2 = np.asarray(omega2, dtype=float)
    if omega1.ndim != 1 or omega1.shape != omega2.shape or omega1.size == 0:
        raise ValueError(f"need paired, non-empty 1-D samples, got shapes {omega1.shape} and {omega2.shape}")
    both = np.concatenate([omega1, omega2])
    if not np.all((both > 0) & (both < math.inf)):
        raise ValueError("resource amounts must be finite and positive")
    return omega1, omega2


def fair_slopes(gamma: float, omega1, omega2) -> tuple[float, float]:
    """Valuation slopes (1 + lambda, 1 - gamma*lambda) under which a one-slot
    auction between two bidders meets the fairness ratio gamma on the samples.

    A bidder values its request at slope * omega (`valuation`, the budget out
    of reach) and the higher valuation wins, so bidder 1 wins where
    (1 + lambda)*omega1 >= (1 - gamma*lambda)*omega2. That is the pointwise
    maximiser of the Lagrangian of
        maximise E[omega1*x + omega2*(1-x)]  s.t.  E[omega1*x] = gamma * E[omega2*(1-x)]
    where x is 1 where bidder 1 is allocated. So the fairness ratio is that of
    allocated totals, E[omega1*x] / E[omega2*(1-x)], not of conditional means
    (PAPER.md carries only the abstract, which does not define it). Over
    lambda in (-1, 1/gamma) both slopes are positive and the ratio rises
    from 0 to unbounded, so bisection finds the least lambda, to within
    FAIR_SLOPES_TOL, at which it is at least gamma. On a finite sample the
    ratio moves in steps, so it meets gamma only to within the last step.
    """
    omega1, omega2 = _check_fairness_input(gamma, omega1, omega2)
    lo, hi = -1.0, 1.0 / gamma  # the ratio is below gamma at lo and at least gamma at hi
    while hi - lo > FAIR_SLOPES_TOL:
        mid = 0.5 * (lo + hi)
        first = (1.0 + mid) * omega1 >= (1.0 - gamma * mid) * omega2
        if omega1[first].sum() >= gamma * omega2[~first].sum():
            hi = mid
        else:
            lo = mid
    return 1.0 + hi, 1.0 - gamma * hi


@dataclass
class FairnessReport:
    achieved_welfare: float
    best_welfare: float
    achieved_ratio: float  # E[omega1*x] / E[omega2*(1-x)] of the allocation; nan if one side is empty
    feasible_candidates: int
    passed: bool


def _allocation_stats(assign_first: np.ndarray, omega1: np.ndarray, omega2: np.ndarray):
    n1 = int(assign_first.sum())
    n2 = len(assign_first) - n1
    welfare_value = float(np.where(assign_first, omega1, omega2).mean())
    if n1 == 0 or n2 == 0:
        return welfare_value, math.nan
    ratio = float(omega1[assign_first].sum() / omega2[~assign_first].sum())
    return welfare_value, ratio


def pareto_fairness_check(first_wins, omega1, omega2, gamma: float, ratio_tol: float = 0.02) -> FairnessReport:
    """Compare an allocation's allocated resource against the best linear
    threshold rule meeting (approximately) the fairness ratio gamma.

    first_wins is the allocation, True where bidder 1 got the pair's slot;
    the ratio of an allocation x is that of allocated totals,
    E[omega1*x] / E[omega2*(1-x)] (see `fair_slopes`). The candidates are
    the allocation itself and the family 'first wins when
    omega1 >= s*omega2 + o' on a grid of SLOPE_GRID slopes by OFFSET_GRID
    offsets. Those within the band |ratio - gamma| <= ratio_tol * max(1, gamma)
    are feasible, and the check passes when the allocation is within
    WELFARE_TOL of the best feasible one.

    The band lets candidates beat the allocation. When the allocation is
    the Lagrangian maximiser at multiplier lambda and meets gamma exactly,
    Lagrangian sufficiency bounds a candidate x with ratio r_x to a gain of at
    most lambda * (gamma - r_x) * E[omega2*(1-x)], that is up to
    |lambda| * ratio_tol * max(1, gamma) * E[omega2*(1-x)]. ratio_tol must
    keep that slack below WELFARE_TOL * best, or a welfare-optimal
    allocation fails.
    """
    omega1, omega2 = _check_fairness_input(gamma, omega1, omega2)
    first_wins = np.asarray(first_wins)
    if first_wins.dtype != bool or first_wins.shape != omega1.shape:
        raise ValueError(f"need one bool per sample pair, got {first_wins.dtype} of shape {first_wins.shape}")

    achieved, achieved_ratio = _allocation_stats(first_wins, omega1, omega2)
    degenerate = math.isnan(achieved_ratio)

    slopes = np.linspace(0.25, 4.0, SLOPE_GRID)
    spread = max(omega2.max() - omega2.min(), omega1.max() - omega1.min(), 1.0)
    offsets = np.linspace(-spread, spread, OFFSET_GRID)
    candidates = [first_wins] + [omega1 >= s * omega2 + o for s in slopes for o in offsets]

    best = -math.inf
    feasible = 0
    for assign in candidates:
        w, ratio = _allocation_stats(assign, omega1, omega2)
        if degenerate or abs(ratio - gamma) <= ratio_tol * max(1.0, gamma):  # False for a nan ratio
            feasible += 1
            best = max(best, w)
    if feasible == 0:
        raise InfeasibleFairnessError("no candidate allocation meets the fairness band")
    passed = achieved >= best * (1.0 - WELFARE_TOL)
    return FairnessReport(
        achieved_welfare=achieved,
        best_welfare=best,
        achieved_ratio=achieved_ratio,
        feasible_candidates=feasible,
        passed=passed,
    )
