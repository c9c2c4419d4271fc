"""Bidder valuation and round utility.

A valuation is the slope times the request's estimated resource needs,
capped by the budget. `AgentConfig` refuses a slope that is not positive,
so a valuation lies in (0, budget]. Round utility per service type
combines the win/lose payoff with the lost-bid cost, zeroes the gain of a
free (uncontended) win, and pays the backoff reward when the bid was
deferred; the round total adds the weighted idle-capacity term.

`utility_per_type` and `utility_total` are the only code that computes a
bidder's round payoff. Every caller composes it through them:
`LearningFleet.act` rewards the learners with one term per submitted and
per deferred type; `gametheory.expected_round_utilities` takes each term in
expectation over the win probability and totals with `utility_total`. So
every round total of the static oracles reaches `utility_total`, the
potential identity's (`gametheory.check_potential_identity`) included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ..engine import left_sum


# Frozen: a fleet copies the budget and the weight at construction but reads
# the other fields live, and an assigned field would skip __post_init__.
@dataclass(frozen=True)
class AgentConfig:
    bidder_id: str
    budget: float
    valuation_slope: float = 1.0
    lost_bid_cost: float = 1.0
    backoff_cost: float = 0.1  # reward collected when deferring a bid
    utilization_weight: float = 1.0

    def __post_init__(self):
        for name in ("budget", "valuation_slope"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for name in ("lost_bid_cost", "backoff_cost", "utilization_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lost_bid_cost < 0:
            raise ValueError("lost_bid_cost must be >= 0")
        if self.utilization_weight < 0:
            raise ValueError("utilization_weight must be >= 0")


def valuation(resource_estimate: float, config: AgentConfig) -> float:
    """v = min(slope * estimate, budget), in (0, budget]."""
    if not 0 < resource_estimate < math.inf:
        raise ValueError(f"resource_estimate must be finite and positive, got {resource_estimate}")
    v = min(config.valuation_slope * resource_estimate, config.budget)
    if v == 0:  # both factors are positive, so only an underflow gives 0
        raise ValueError(f"slope {config.valuation_slope} * estimate {resource_estimate} underflows to 0")
    return v


def utility_per_type(x, v, p, c, q, submitted: bool):
    """One service type's round utility.

    Submitted: the win/lose payoff x*(v-p) - (1-x)*c, minus v again whenever
    the final price was zero. For a free win that removes the gain, since an
    uncontended win carries no competitive gain (payoff 0). The same -v also
    falls on a loser at price 0, whose payoff is then -c-v. Charging the loser
    too is an open modelling assumption: the source abstract settles neither
    case, and the learners' reward design (ROADMAP, direction 2) decides it.
    Deferred: the backoff reward q.

    Under the (n+1)-th price rule, b* = min(v + c, budget) is a weakly
    dominant bid: a winner's price p is set by the rivals, and a win scores
    v - p (0 at p = 0) against -c for a loss, so winning pays iff p <= v + c.
    The -v on a loss at price 0 never touches b* > 0, since a losing bid
    meets a price of at least itself. That is this payoff's claim only: the
    round total's idle-capacity term also sees the load of a rival the win
    displaces, so even min(v + c - W*omega/C, budget) is not dominant there.

    An x outside {0, 1} is refused.
    """
    if x != 0 and x != 1:
        raise ValueError("bidding outcome x must be 0 or 1")
    if not submitted:
        return q
    return x * (v - p) - (1 - x) * c - v * (p == 0)


def utility_total(per_type_utilities, beta: float, w):
    """Round utility: the per-type terms added left to right, plus
    w * (1 - beta). With no terms and a (B,) array w it gives B agents'
    utilities of an idle round, by the same two operations per element."""
    if not (0.0 <= beta <= 1.0):
        raise ValueError("beta must be in [0,1]")
    return left_sum(per_type_utilities) + w * (1.0 - beta)
