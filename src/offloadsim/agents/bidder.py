"""Bidder agents: self-play mixing of a best-response learner with a
supervised behavioral model.

Each decision round an agent samples a candidate best-response action from
its Gaussian policy and queries the behavioral model for its average
strategy; with probability eta (1/t, optionally floored late in training)
it executes the best response, otherwise the behavioral action. The actor
learns only from rounds where it executed its own sample, the critic from
every round.

`LearningFleet` is the only code that knows the action layout: K backoff
components, then K prices. `LearningFleet._fractions` maps a raw policy
sample to executed fractions in [0, 1], the form the behavioral model
stores and predicts, and `_directives` turns a fraction into a price by one
product with the budget. Per service type, a backoff component above the
threshold submits the bid at that price; below it the bid is deferred for a
duration linear in the component.

Active agents of a fleet advance in lock step through batched learners but
draw all randomness from their own per-agent streams, so fleet composition
never perturbs an individual agent's trajectory. `LearningFleet.act` runs a
round in three stages:

1. One pass in, per agent: score last round's actions, encode the step
   into the newest window row, draw the noise vector, then the eta coin.
2. The batched learner step: `ActorCriticPool.td_step` on last round's
   sample, the actor pass and sample, and the behavioural model.
3. One pass out, per agent: the directives for its pending types.

Each agent draws its noise, then its eta coin, once per round, pending or
not, learning or frozen, so stage 2 may run for a subset of agents without
moving any stream. An error raised part-way through stage 1 leaves the
window shifted and the earlier agents' streams advanced.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..auction import FeedbackSignal
from ..engine import derive_stream
from .behavior import BehaviorPool
from .features import FeatureCodec, WindowBuffer
from .policy import ActorCriticPool, LearningRates, sigmoid
from .utility import AgentConfig, utility_per_type, utility_total, valuation


@dataclass
class EtaSchedule:
    """Best-response mixing weight: 1/t, floored after a while (a floor of
    0 keeps the pure 1/t)."""

    floor: float = 0.01
    floor_after: int = 100

    def eta(self, t: int) -> float:
        value = 1.0 / max(1, t)
        if t <= self.floor_after:
            return value
        return max(value, self.floor)


@dataclass
class LearnerHyper:
    window: int = 8
    hidden_actor_critic: tuple[int, ...] = (64, 32)
    hidden_behavior: tuple[int, ...] = (32,)
    rates: LearningRates = field(default_factory=LearningRates)
    init_std: float = 0.5
    price_bias_init: float = 1.0
    sl_capacity: int = 10_000
    sl_batch_size: int = 64
    sl_lr: float = 1e-3
    sl_train_interval: int = 32
    eta: EtaSchedule = field(default_factory=EtaSchedule)


SUBMIT = "submit"
BACKOFF = "backoff"


class LearningFleet:
    """All active bidders of a run, advanced together once per round."""

    def __init__(
        self,
        configs: Sequence[AgentConfig],
        codec: FeatureCodec,
        root_seed: int,
        hyper: Optional[LearnerHyper] = None,
    ):
        if not configs:
            raise ValueError("need at least one agent")
        self.hyper = hyper or LearnerHyper(window=codec.window)
        if self.hyper.window != codec.window:
            raise ValueError(f"LearnerHyper.window is {self.hyper.window} but the codec's window is {codec.window}")
        self.configs = list(configs)
        self.codec = codec
        self.B = len(configs)
        self.k = codec.k
        self.action_dim = 2 * codec.k
        self.budgets = np.array([c.budget for c in configs])
        init_streams = [derive_stream(root_seed, f"agent/{c.bidder_id}/init") for c in configs]
        self.act_streams = [derive_stream(root_seed, f"agent/{c.bidder_id}/act") for c in configs]
        self.sl_streams = [derive_stream(root_seed, f"agent/{c.bidder_id}/sl") for c in configs]
        mu_bias = np.zeros(self.action_dim)
        mu_bias[codec.k :] = self.hyper.price_bias_init
        self.pool = ActorCriticPool(
            init_streams,
            input_dim=codec.rl_input_dim,
            action_dim=self.action_dim,
            hidden=self.hyper.hidden_actor_critic,
            rates=self.hyper.rates,
            init_std=self.hyper.init_std,
            mu_bias_init=mu_bias,
        )
        self.behavior = BehaviorPool(
            init_streams,
            state_dim=codec.sl_dim,
            action_dim=self.action_dim,
            hidden=self.hyper.hidden_behavior,
            capacity=self.hyper.sl_capacity,
            batch_size=self.hyper.sl_batch_size,
            lr=self.hyper.sl_lr,
        )
        self.window = WindowBuffer(self.B, codec.window, codec.step_dim)
        self.t = 1
        self.frozen_eta: Optional[float] = None  # the fixed mixing weight once frozen; None while learning
        # Last round's (S, raw sample, actor cache, use_rl), which this
        # round's TD step scores.
        self._prev: Optional[tuple] = None
        # Per agent, last round's ({submitted type: valuation}, backoff count).
        self._last_actions: list[tuple[dict[str, float], int]] = [({}, 0)] * self.B

    # -- mode switches ---------------------------------------------------------

    def freeze(self):
        """Stop all learning; keep acting with the mixing weight fixed at its
        current value."""
        self.frozen_eta = self.hyper.eta.eta(self.t)

    # -- the per-round step ------------------------------------------------------

    def act(
        self,
        feedbacks: Sequence[Optional[FeedbackSignal]],
        pending: Sequence[dict[str, tuple[float, float]]],
        n_present: int,
        beta: float,
        phase: float,
    ) -> list[dict[str, tuple]]:
        """Advance one decision round; returns per-agent directives
        {type: ("submit", price) | ("backoff", duration_ms)} for pending types."""
        # 1. one pass in: score, encode, draw
        learning = self.frozen_eta is None
        eta = self.hyper.eta.eta(self.t) if learning else self.frozen_eta
        env = (float(n_present), beta, phase)
        utilities = np.zeros(self.B)
        noise = np.empty((self.B, self.action_dim))
        coins = np.empty(self.B)
        steps = self.window.shift()
        for b, config in enumerate(self.configs):
            fb = feedbacks[b]
            outcomes, prices = (fb.outcomes, fb.prices) if fb else ({}, {})
            submitted, backed = self._last_actions[b]  # scored on this round's feedback
            c, q = config.lost_bid_cost, config.backoff_cost
            terms = [
                utility_per_type(outcomes.get(t, 0), v, prices.get(t, 0.0), c, q, True) for t, v in submitted.items()
            ]
            terms.extend([q] * backed)
            utilities[b] = utility_total(terms, beta, config.utilization_weight)
            self.codec.encode_step(pending[b], env, prices, float(utilities[b]), out=steps[b])
            noise[b] = self.act_streams[b].standard_normal(self.action_dim)
            coins[b] = self.act_streams[b].uniform()
        use_rl = coins < eta
        sl_states = np.take(steps, self.codec.sl_columns, axis=1)
        flat = self.window.flat().copy()

        # 2. the batched learner step
        if learning and self._prev is not None:
            prev_flat, prev_raw, prev_cache, prev_use_rl = self._prev
            self.pool.td_step(prev_flat, flat, utilities, prev_raw, prev_cache, prev_use_rl)
        mu, L, actor_cache = self.pool.actor_forward(flat)
        zeta_raw = self.pool.sample_raw(mu, L, noise)
        executed = self._fractions(zeta_raw)
        if not use_rl.all():  # the behavioural model is asked only when someone needs it
            executed = np.where(use_rl[:, None], executed, self.behavior.predict(sl_states))
        if learning:
            self.behavior.store(sl_states, executed)
            if self.t % self.hyper.sl_train_interval == 0 and self.behavior.count >= self.behavior.batch_size:
                self.behavior.train_step(self.sl_streams)
        self._prev = (flat, zeta_raw, actor_cache, use_rl)
        self.t += 1

        # 3. one pass out
        return self._directives(executed, pending)

    # -- the action map ------------------------------------------------------------

    def _fractions(self, zeta_raw: np.ndarray) -> np.ndarray:
        """Executed fractions of raw samples (B, 2K): a sigmoid on each
        backoff component, and each price clipped to [0, budget] and then
        divided by the budget."""
        budgets = self.budgets[:, None]
        out = np.empty_like(zeta_raw)
        out[:, : self.k] = sigmoid(zeta_raw[:, : self.k])
        out[:, self.k :] = np.clip(zeta_raw[:, self.k :], 0.0, budgets) / budgets
        return out

    def _directives(self, fractions, pending) -> list[dict[str, tuple]]:
        """Directives for the pending types. Every fraction is in [0, 1] and
        rounding is monotone, so each price fraction * budget is in
        [0, budget]."""
        directives: list[dict[str, tuple]] = []
        for b, config in enumerate(self.configs):
            agent_directives = {}
            submitted: dict[str, float] = {}
            backed = 0
            for service_type, (work, _deadline) in pending[b].items():
                i = self.codec.index[service_type]
                alpha = float(fractions[b, i])
                if alpha > config.backoff_threshold:
                    agent_directives[service_type] = (SUBMIT, float(fractions[b, self.k + i]) * config.budget)
                    submitted[service_type] = valuation(work, config)
                else:
                    duration = max(1, round(alpha * config.max_backoff_ms))
                    agent_directives[service_type] = (BACKOFF, duration)
                    backed += 1
            self._last_actions[b] = (submitted, backed)
            directives.append(agent_directives)
        return directives


class PassiveFleet:
    """Non-learning baseline: every pending request is submitted right away
    at its valuation, a constant priority."""

    def __init__(self, configs: Sequence[AgentConfig]):
        self.configs = list(configs)
        self.B = len(configs)

    def act(self, feedbacks, pending, n_present, beta, phase) -> list[dict[str, tuple]]:
        directives = []
        for b, config in enumerate(self.configs):
            directives.append(
                {
                    service_type: (SUBMIT, valuation(work, config))
                    for service_type, (work, _deadline) in pending[b].items()
                }
            )
        return directives
