"""Output checks, replay digest and simulated statistics of a run.

Everything here runs between rounds, outside the timed window, on the
round record the scenario keeps (bids, slots, outcome, decisions). The
clearing is also compared on a fixed sample of rounds with the independent
brute-force oracle of the package's tests, imported rather than copied so
that it stays independent.
"""
from __future__ import annotations

import hashlib
from collections import Counter

from oracles import check_outcome_against_oracle

from offloadsim.agents import LearningFleet, NumericalInstabilityError

ORACLE_EVERY = 16  # rounds r with r % ORACLE_EVERY == 0 are checked against the oracle


def check_round(bids, slots, outcome, decisions, max_budget: float, use_oracle: bool) -> list[str]:
    """Invariant violations of one cleared round, as readable strings."""
    problems = []
    winning_prices: dict[str, list[float]] = {}
    for bid in bids:
        if bid.bidder_id in outcome.winners.get(bid.service_type, ()):
            winning_prices.setdefault(bid.service_type, []).append(bid.price)
    for service_type, payment in outcome.payment_vector.items():
        if not 0.0 <= payment <= max_budget:
            problems.append(f"{service_type}: payment {payment!r} outside [0, {max_budget}]")
        won = winning_prices.get(service_type)
        if won and payment > min(won):
            problems.append(f"{service_type}: payment {payment!r} above winning bid {min(won)!r}")
    admitted = Counter()
    for d in decisions:
        if d.admitted:
            admitted[d.bid.service_type] += 1
            if d.assigned_site is None:
                problems.append(f"{d.bid.bidder_id}/{d.bid.service_type}: admitted without a site")
    for service_type, n in admitted.items():
        if n > slots.get(service_type, 0):
            problems.append(f"{service_type}: {n} admitted > {slots.get(service_type, 0)} slots")
    if use_oracle:
        bids_by_type: dict[str, list[tuple[str, float]]] = {}
        for bid in bids:
            bids_by_type.setdefault(bid.service_type, []).append((bid.bidder_id, bid.price))
        try:
            check_outcome_against_oracle(outcome, bids_by_type, slots)
        except AssertionError as exc:
            problems.append(f"oracle disagrees on type {exc}")
    return problems


class Monitor:
    """Follows one pass round by round: checks, failures, digest, statistics."""

    def __init__(self, scenario):
        self.scn = scenario
        self.rounds = 0
        self.failed = 0
        self.causes: Counter = Counter()
        self.problems: list[str] = []
        self.diverged = False
        self.grad_norm_max = 0.0
        self.totals: Counter = Counter()  # bids and decision reasons (Won / NoSlot / Rejected)
        self.warm: Counter = Counter()  # totals and scenario counts at the end of the warm-up
        self._price_sum: Counter = Counter()
        self._price_n: Counter = Counter()
        self._believed = 0.0
        self._reported = 0.0
        self._true = 0.0
        self._reports = 0
        self._capacity_seen = 0
        self._hash = hashlib.sha256()
        self.digest = None
        self.outputs: dict = {}

    def after_round(self, exc: BaseException | None):
        scn = self.scn
        r = scn.round
        self.rounds += 1
        problems = []
        if exc is not None:
            cause = f"{type(exc).__name__}: {exc}"[:200]
            self.causes[cause] += 1
            self._hash.update(repr((r, cause)).encode())
            if isinstance(exc, NumericalInstabilityError):
                self.diverged = True
        elif scn.record is not None:
            bids, slots, outcome, decisions, reports = scn.record
            problems = check_round(bids, slots, outcome, decisions, scn.max_budget, r % ORACLE_EVERY == 0)
            self._absorb(r, bids, slots, outcome, decisions, reports)
        violations = scn.stats.capacity_violations
        if len(violations) > self._capacity_seen:
            problems += violations[self._capacity_seen :]
            self._capacity_seen = len(violations)
        if problems:
            self.problems += [f"round {r}: {p}" for p in problems]
            self.causes["output check failed"] += 1
        if exc is None and self.diverged:
            self.causes["learner diverged in an earlier round"] += 1
        if exc is not None or problems or self.diverged:
            self.failed += 1
        if isinstance(scn.fleet, LearningFleet):
            self.grad_norm_max = max(self.grad_norm_max, float(scn.fleet.pool.actor.last_grad_norms.max()))
        if r == scn.w.warmup_rounds - 1:
            self.warm = self.counts()

    def counts(self) -> Counter:
        st = self.scn.stats
        out = Counter(self.totals)
        out.update(arrivals=st.arrivals, admitted=st.admitted, dropped=st.dropped)
        return out

    def rng_draws(self) -> int:
        return sum(s.draw_counter for s in self.scn.streams())

    def _absorb(self, r, bids, slots, outcome, decisions, reports):
        h = self._hash
        h.update(repr((r, sorted(slots.items()), sorted(outcome.payment_vector.items()))).encode())
        self.totals["bids"] += len(bids)
        for d in decisions:
            h.update(repr((d.bid.bidder_id, d.bid.service_type, d.bid.price, d.reason, d.assigned_site)).encode())
            self.totals[d.reason] += 1
        for service_type, price in outcome.payment_vector.items():
            self._price_sum[service_type] += price
            self._price_n[service_type] += 1
        for report in reports:
            self._reported += report.utilization
            self._true += report.true_utilization
        self._reports += len(reports)
        self._believed += self.scn.controller.believed_beta()

    def finish(self):
        """Simulated statistics of the whole pass and its replay digest."""
        st = self.scn.stats
        resolved = st.completed + st.expired + st.dropped
        self.outputs = {
            "rounds": self.rounds,
            "arrivals": st.arrivals,
            "deadline_hit_rate": st.completed / resolved if resolved else 0.0,
            "won": self.totals["Won"],
            "no_slot": self.totals["NoSlot"],
            "rejected": self.totals["Rejected"],
            "expired_waiting": st.expired,
            "dropped_at_site": st.dropped,
            "mean_price": {t: self._price_sum[t] / self._price_n[t] for t in sorted(self._price_n)},
            "believed_utilization": self._believed / self.rounds,
            "reported_utilization": self._reported / max(1, self._reports),
            "true_utilization": self._true / max(1, self._reports),
            "rng_draws": self.rng_draws(),
        }
        self._hash.update(repr(sorted(self.outputs.items())).encode())
        self.digest = self._hash.hexdigest()[:16]
