"""Independent reference implementations used to cross-check the package.

These stay deliberately naive (sort, slice, enumerate) and share no code
with the implementations they check.
"""
from __future__ import annotations

import hashlib
import itertools

import numpy as np


def brute_force_clear(bids_by_type: dict[str, list[tuple[str, float]]], slots: dict[str, int]):
    """Reference clearer. bids_by_type: type -> [(bidder, price)].

    Returns per type: (outright winners, tied candidates, tied slot count,
    payment). Outright winners are forced; the implementation may fill the
    remaining slots with any subset of the tied candidates.
    """
    result = {}
    for service_type, entries in bids_by_type.items():
        n = slots.get(service_type, 0)
        ranked = sorted(entries, key=lambda e: -e[1])
        if len(ranked) <= n:
            result[service_type] = (set(b for b, _ in ranked), set(), 0, 0.0)
            continue
        payment = ranked[n][1]
        if n == 0:
            result[service_type] = (set(), set(), 0, payment)
            continue
        boundary_price = ranked[n - 1][1]
        outright = {b for b, p in ranked if p > boundary_price}
        tied = {b for b, p in ranked if p == boundary_price}
        result[service_type] = (outright, tied, n - len(outright), payment)
    return result


def check_outcome_against_oracle(outcome, bids_by_type, slots):
    """Assert an AuctionOutcome matches the brute-force clearer up to tie draws."""
    reference = brute_force_clear(bids_by_type, slots)
    for service_type, (outright, tied, tied_slots, payment) in reference.items():
        if not bids_by_type[service_type]:
            assert service_type not in outcome.winners
            continue
        winners = outcome.winners[service_type]
        assert outcome.payment_vector[service_type] == payment, service_type
        assert outright <= winners, service_type
        extras = winners - outright
        assert extras <= tied, service_type
        assert len(extras) == min(tied_slots, len(tied)), service_type


def enumerate_best_responses(payoffs):
    """All pure equilibria of a finite game given payoffs[profile][player]."""
    profiles = list(payoffs)
    players = len(next(iter(payoffs))) if profiles else 0
    equilibria = []
    for profile in profiles:
        stable = True
        for i in range(players):
            u = payoffs[profile][i]
            for alt in profiles:
                if alt[:i] == profile[:i] and alt[i + 1 :] == profile[i + 1 :] and alt != profile:
                    if payoffs[alt][i] > u + 1e-12:
                        stable = False
                        break
            if not stable:
                break
        if stable:
            equilibria.append(profile)
    return equilibria


def reference_generator(root_seed: int, label: str) -> np.random.Generator:
    """The numpy Generator of the documented stream derivation: PCG64 seeded
    by SeedSequence from the int list [root_seed mod 2**64, *words], the
    words being the first 16 bytes of sha256(label) read as four
    little-endian 32-bit ints."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([root_seed & (2**64 - 1), *words])))
