"""Per-type sealed-bid clearing: winners are the highest n_k bids of each
service type and everyone admitted pays the (n_k+1)-th highest price.

Feedback deliberately exposes nothing about competitors beyond the final
per-type price: that is the mechanism's information-sharing boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .engine import RngStream, SimTime, require_count


class DuplicateBidError(ValueError):
    pass


class UnknownBidderError(KeyError):
    pass


@dataclass(slots=True)
class Bid:
    bidder_id: str
    service_type: str
    price: float
    resource_estimate: float  # aggregate time-resource units for the request
    deadline_ms: SimTime
    rebid_count: int = 0
    request_key: object = None  # opaque handle threaded through to decisions

    def __post_init__(self):
        if not 0.0 <= self.price < math.inf:
            raise ValueError(f"bid price must be finite and >= 0, got {self.price}")
        if not 0.0 < self.resource_estimate < math.inf:
            raise ValueError(f"resource_estimate must be finite and positive, got {self.resource_estimate}")
        if self.rebid_count < 0:
            raise ValueError("rebid_count must be >= 0")


@dataclass
class AuctionOutcome:
    winners: dict[str, set[str]]
    payment_vector: dict[str, float]
    participants: dict[str, tuple[str, ...]]  # bidder -> types bid on this round
    roster: frozenset[str]


@dataclass
class FeedbackSignal:
    """What one bidder learns from a round: its own outcomes, the final
    price of each type it bid on, and the system utilization signal."""

    bidder_id: str
    outcomes: dict[str, int]  # service_type -> 0/1
    prices: dict[str, float]  # service_type -> payment for that type
    beta: float


def clear_auction(
    bids: Iterable[Bid],
    slots: Mapping[str, int],
    rng: RngStream,
    roster: Optional[Iterable[str]] = None,
) -> AuctionOutcome:
    """Clear one round: each service type independently, boundary ties random.

    Winners per type are the n_k highest prices; when several bids tie at the
    boundary price the remaining slots go to a uniform random subset of them.
    The payment is the (n_k+1)-th highest submitted price, or 0 when there
    were no more than n_k bids. A repeated (bidder, type) bid is found in the
    bidder's `participants` list and refused with `DuplicateBidError`.
    """
    by_type: dict[str, list[Bid]] = {}
    participants: dict[str, list[str]] = {}
    for bid in bids:
        bid_types = participants.get(bid.bidder_id)
        if bid_types is None:
            participants[bid.bidder_id] = [bid.service_type]
        elif bid.service_type in bid_types:
            raise DuplicateBidError(f"bidder {bid.bidder_id} bid twice for {bid.service_type}")
        else:
            bid_types.append(bid.service_type)
        type_bids = by_type.get(bid.service_type)
        if type_bids is None:
            by_type[bid.service_type] = [bid]
        else:
            type_bids.append(bid)

    winners: dict[str, set[str]] = {}
    payments: dict[str, float] = {}
    for service_type, type_bids in by_type.items():
        n = slots.get(service_type, 0)
        require_count(f"slot count for {service_type}", n, 0)
        prices = sorted((b.price for b in type_bids), reverse=True)
        if len(type_bids) <= n:
            winners[service_type] = {b.bidder_id for b in type_bids}
            payments[service_type] = 0.0
            continue
        payments[service_type] = prices[n]
        if n == 0:
            winners[service_type] = set()
            continue
        threshold = prices[n - 1]
        outright = [b for b in type_bids if b.price > threshold]
        tied = [b for b in type_bids if b.price == threshold]
        remaining = n - len(outright)  # > 0: at most n - 1 prices lie above prices[n - 1]
        chosen = set(b.bidder_id for b in outright)
        if len(tied) > remaining:
            order = rng.permutation(len(tied))
            for i in order[:remaining]:
                chosen.add(tied[int(i)].bidder_id)
        else:
            chosen.update(b.bidder_id for b in tied)
        winners[service_type] = chosen

    if roster is None:
        roster_set = frozenset(participants)
    else:
        roster_set = frozenset(roster) | frozenset(participants)
    return AuctionOutcome(
        winners=winners,
        payment_vector=payments,
        participants={b: tuple(ts) for b, ts in participants.items()},
        roster=roster_set,
    )


def feedback_for(outcome: AuctionOutcome, bidder_id: str, utilization_report: float) -> FeedbackSignal:
    """Assemble one bidder's round feedback.

    Contains exactly: per bid type, the 0/1 outcome and that type's final
    price, plus the utilization signal. A bidder that backed off everything
    this round receives the utilization signal only.
    """
    if bidder_id not in outcome.roster:
        raise UnknownBidderError(bidder_id)
    winners = outcome.winners
    payments = outcome.payment_vector
    outcomes: dict[str, int] = {}
    prices: dict[str, float] = {}
    for service_type in outcome.participants.get(bidder_id, ()):
        outcomes[service_type] = 1 if bidder_id in winners.get(service_type, ()) else 0
        prices[service_type] = payments.get(service_type, 0.0)
    return FeedbackSignal(bidder_id, outcomes, prices, utilization_report)
