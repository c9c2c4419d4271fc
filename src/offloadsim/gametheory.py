"""Desk-scale static-game oracles.

Verifies, on small instances, the claims the simulator's mechanism rests
on: the uncontended game is an exact potential game (unilateral utility
differences equal potential differences), clearing admits pure equilibria
found by brute-force enumeration, and the induced allocation rule is welfare
optimal under a fairness ratio constraint. The potential identity is checked
on the learners' own round total, `expected_round_utilities` through
`utility_total`, in the uncontended reduction: no slot limit, and a capacity
at least the total work, so beta never clamps. The one-round dominant bid
min(v + c, budget) (`utility_per_type`) is tested in
`tests/test_gametheory.py::TestDominantBid`.

A static action gives each of `StaticGame.type_ids`, in order, either None
(defer) or the price the player bids (submit); an undemanded type is always
None. A profile is one action per player. The potential, the payoffs and
the equilibrium search all take this one form, each equilibrium is listed
once, and a malformed action raises a ValueError naming the player, the
type and the value.

Everything here is deterministic: expected utilities integrate tie breaks
by direct weighting, never by Monte Carlo, so oracle results are seed
independent.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .agents.utility import utility_per_type, utility_total
from .engine import left_sum

IDENTITY_TOL = 1e-9
NE_TOL = 1e-12  # a deviation must gain more than this to break an equilibrium
WELFARE_TOL = 0.01  # the fairness check's welfare slack, relative to the best candidate
SLOPE_GRID = 60  # candidate threshold slopes, from 0.25 to 4
OFFSET_GRID = 41  # candidate threshold offsets, across the samples' spread


class TooLargeError(ValueError):
    pass


class InfeasibleFairnessError(RuntimeError):
    pass


@dataclass
class StaticPlayer:
    backoff_rewards: dict[str, float]  # per service type
    work: dict[str, float]
    values: dict[str, float]
    lost_bid_cost: float
    budget: float

    def __post_init__(self):
        for t, v in self.values.items():
            if v > self.budget + 1e-12:
                raise ValueError(f"value {v} for {t} exceeds budget {self.budget}")
        # the utilities read a value for every demanded type
        unvalued = sorted(set(self.work) - set(self.values))
        if unvalued:
            raise ValueError(f"no values for types in work: {unvalued}")
        # the utilities score demanded types only, while potential_value counts every reward
        undemanded = sorted(set(self.backoff_rewards) - set(self.work))
        if undemanded:
            raise ValueError(f"backoff rewards for types not in work: {undemanded}")


@dataclass
class StaticGame:
    players: list[StaticPlayer]
    capacity: float
    utilization_weight: float
    price_levels: tuple[float, ...] = (0.0,)
    slots: Optional[dict[str, int]] = None  # None: every submitted bid is accepted

    def __post_init__(self):
        if not 0 < self.capacity < math.inf:
            raise ValueError(f"capacity must be finite and positive, got {self.capacity}")
        if not self.price_levels:
            raise ValueError("the price grid must be non-empty")

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
        if len(action) != len(types):
            raise ValueError(f"player {i}: {action!r} has {len(action)} entries for types {types}")
        for t, price in zip(types, action):
            if price is None:
                continue
            if t not in player.work:
                raise ValueError(f"player {i}, type {t}: {price!r} bid for a type the player does not demand")
            if not isinstance(price, numbers.Real) or not 0.0 <= price <= player.budget:
                raise ValueError(f"player {i}, type {t}: {price!r} is neither None nor a price in [0, {player.budget}]")


# -- potential function (uncontended case) -------------------------------------


def potential_value(game: StaticGame, profile) -> float:
    """phi = sum q - sum of q submitted + W * (1 - sum of omega submitted / C)."""
    _check_profile(game, profile)
    types = game.type_ids
    submitted = [
        (p, t) for p, action in zip(game.players, profile) for t, price in zip(types, action) if price is not None
    ]
    total_q = left_sum(p.backoff_rewards.get(t, 0.0) for p in game.players for t in types)
    chosen_q = left_sum(p.backoff_rewards.get(t, 0.0) for p, t in submitted)
    load = left_sum(p.work[t] for p, t in submitted)
    return total_q - chosen_q + game.utilization_weight * (1.0 - load / game.capacity)


def check_potential_identity(game: StaticGame, profile, player: int, new_action) -> bool:
    """Does the deviating player's round utility change equal the potential change?

    Both profiles are scored with `expected_round_utilities`: with no slot
    limit every submitted bid wins at price 0, whatever it bids, and the
    round total goes through `utility_total`. The identity holds only in
    that uncontended reduction, so a game with slots or a total work above
    capacity (where beta clamps) is refused.
    """
    if game.slots is not None:
        raise ValueError(f"slots {game.slots} set: the identity holds only with every bid accepted")
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
    probability.
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
        terms = []
        for j, t in enumerate(types):
            if t not in player.work:
                continue
            v, p, c = player.values[t], float(payment[j]), player.lost_bid_cost
            q = player.backoff_rewards.get(t, 0.0)
            submitted = actions[i][j] is not None
            pr_win = win_prob[i, j]  # 0 for a deferred bid, whose payoff is q either way
            won = utility_per_type(1, v, p, c, q, submitted)
            lost = utility_per_type(0, v, p, c, q, submitted)
            terms.append(pr_win * won + (1.0 - pr_win) * lost)
        utilities.append(utility_total(terms, beta, game.utilization_weight))
    return utilities


def player_action_space(game: StaticGame, player: int) -> list[tuple]:
    """The player's static actions: per demanded type None (defer) or a grid
    price within its budget, and None for every other type. A deferral
    carries no price, so each is listed once."""
    p = game.players[player]
    prices = tuple(pr for pr in game.price_levels if pr <= p.budget)
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


@dataclass
class AllocationRule:
    """Linear-form allocation: bidder 1 wins when j1*v1 + d1 >= j2*v2 + d2.

    gamma is the fairness ratio the rule is meant to hold; lambda_star the
    multiplier that ties valuations to resource amounts:
        g1 = (1 + lambda) / j1,        k1 = -d1 / j1
        g2 = (1 - gamma * lambda) / j2, k2 = -d2 / j2
    with v_i = g_i * omega_i + k_i.

    This relation makes the rule the pointwise maximiser of the Lagrangian of
        maximise E[omega1*x + omega2*(1-x)]  s.t.  E[omega1*x] = gamma * E[omega2*(1-x)]
    where x is 1 where bidder 1 is allocated. So the fairness ratio is the
    ratio of allocated totals, E[omega1*x] / E[omega2*(1-x)], not the ratio of
    conditional means. PAPER.md carries only the abstract and does not define
    the ratio; the multiplier relation is what settles it. Use `for_fairness`
    to solve lambda_star so that a sample set meets gamma exactly.
    """

    j1: float
    d1: float
    j2: float
    d2: float
    gamma: float
    lambda_star: float

    def __post_init__(self):
        if self.j1 <= 0 or self.j2 <= 0:
            raise ValueError("slopes j must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.lambda_star <= -1.0:
            raise ValueError("need lambda > -1 for positive g1")
        if 1.0 - self.gamma * self.lambda_star <= 0:
            raise ValueError("need gamma * lambda < 1 for positive g2")

    @classmethod
    def for_fairness(cls, j1, d1, j2, d2, gamma, v1_samples, v2_samples) -> "AllocationRule":
        """The rule on (j, d) whose allocation of the samples meets gamma exactly.

        The assignment depends on (j, d) only, while omega1 scales as
        1/(1+lambda) and omega2 as 1/(1-gamma*lambda). The ratio is therefore
        A*(1-gamma*lambda)/(1+lambda) with
        A = j1*sum_x(v1-k1) / (j2*sum_not_x(v2-k2)), and ratio = gamma solves to
        lambda* = (A - gamma) / (gamma*(1 + A)), which lies in (-1, 1/gamma).
        Raises InfeasibleFairnessError when one bidder is never allocated.
        """
        v1 = np.asarray(v1_samples, dtype=float)
        v2 = np.asarray(v2_samples, dtype=float)
        scaled1 = j1 * v1 + d1  # (1 + lambda) * omega1
        scaled2 = j2 * v2 + d2  # (1 - gamma * lambda) * omega2
        if np.any(scaled1 <= 0) or np.any(scaled2 <= 0):
            raise ValueError("samples imply non-positive resource amounts")
        to_first = scaled1 >= scaled2
        if to_first.all() or not to_first.any():
            raise InfeasibleFairnessError("one bidder is never allocated; no multiplier meets gamma")
        a = float(scaled1[to_first].sum() / scaled2[~to_first].sum())
        return cls(j1, d1, j2, d2, gamma, lambda_star=(a - gamma) / (gamma * (1.0 + a)))

    @property
    def g1(self) -> float:
        return (1.0 + self.lambda_star) / self.j1

    @property
    def k1(self) -> float:
        return -self.d1 / self.j1

    @property
    def g2(self) -> float:
        return (1.0 - self.gamma * self.lambda_star) / self.j2

    @property
    def k2(self) -> float:
        return -self.d2 / self.j2

    def allocates_to_first(self, v1, v2):
        return self.j1 * np.asarray(v1) + self.d1 >= self.j2 * np.asarray(v2) + self.d2


@dataclass
class FairnessReport:
    achieved_welfare: float
    best_welfare: float
    achieved_ratio: float  # E[omega1*x] / E[omega2*(1-x)] under the rule; nan if one side is empty
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


def pareto_fairness_check(
    rule: AllocationRule,
    v1_samples: np.ndarray,
    v2_samples: np.ndarray,
    ratio_tol: float = 0.02,
) -> FairnessReport:
    """Compare the rule's allocated resource against the best linear
    threshold rule meeting (approximately) the same fairness ratio.

    The ratio of an allocation x is that of allocated totals,
    E[omega1*x] / E[omega2*(1-x)] (see AllocationRule). The candidate family
    'first wins when v1 >= s*v2 + o' always includes the rule itself, so
    best >= achieved; the check passes when the rule is within WELFARE_TOL of
    the constrained best. The family's grid is SLOPE_GRID slopes by
    OFFSET_GRID offsets, plus the rule itself.

    The band lets candidates beat the rule. When the rule meets gamma exactly,
    Lagrangian sufficiency bounds a candidate x with ratio r_x to a gain of at
    most lambda* * (gamma - r_x) * E[omega2*(1-x)], that is up to
    |lambda*| * ratio_tol * max(1, gamma) * E[omega2*(1-x)]. ratio_tol must
    keep that slack below WELFARE_TOL * best, or a welfare-optimal rule fails.
    """
    v1 = np.asarray(v1_samples, dtype=float)
    v2 = np.asarray(v2_samples, dtype=float)
    omega1 = (v1 - rule.k1) / rule.g1
    omega2 = (v2 - rule.k2) / rule.g2
    if np.any(omega1 <= 0) or np.any(omega2 <= 0):
        raise ValueError("samples imply non-positive resource amounts")

    rule_assign = np.asarray(rule.allocates_to_first(v1, v2))
    achieved, achieved_ratio = _allocation_stats(rule_assign, omega1, omega2)
    degenerate = math.isnan(achieved_ratio)

    slopes = np.linspace(0.25, 4.0, SLOPE_GRID)
    spread = max(v2.max() - v2.min(), v1.max() - v1.min(), 1.0)
    offsets = np.linspace(-spread, spread, OFFSET_GRID)
    candidates = [(rule.j2 / rule.j1, (rule.d2 - rule.d1) / rule.j1)]
    candidates += [(s, o) for s in slopes for o in offsets]

    best = -math.inf
    feasible = 0
    for s, o in candidates:
        assign = v1 >= s * v2 + o
        w, ratio = _allocation_stats(assign, omega1, omega2)
        if degenerate:
            feasible += 1
            best = max(best, w)
            continue
        if math.isnan(ratio):
            continue
        if abs(ratio - rule.gamma) <= ratio_tol * max(1.0, abs(rule.gamma)):
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
