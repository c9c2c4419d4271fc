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
never perturbs an individual agent's trajectory.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..auction import FeedbackSignal
from ..engine import derive_stream
from .behavior import BehaviorPool
from .features import FeatureCodec, WindowBuffer
from .policy import ActorCriticPool, LearningRates, sigmoid, td_error
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
        # Last round's (S, raw sample, mu, L, actor cache, use_rl), which
        # this round's update scores.
        self._prev: Optional[tuple] = None
        self._last_submitted: list[dict[str, float]] = [{} for _ in range(self.B)]
        self._last_backed: list[int] = [0] * self.B
        self._step_buf = np.zeros((self.B, codec.step_dim))

    # -- mode switches ---------------------------------------------------------

    def freeze(self):
        """Stop all learning; keep acting with the mixing weight fixed at its
        current value."""
        self.frozen_eta = self.hyper.eta.eta(self.t)

    # -- the per-round step ------------------------------------------------------

    def round_utilities(self, feedbacks: Sequence[Optional[FeedbackSignal]], beta: float) -> np.ndarray:
        """Utility of last round's actions given this round's feedback."""
        u = np.zeros(self.B)
        for b, config in enumerate(self.configs):
            terms = []
            fb = feedbacks[b]
            for service_type, v in self._last_submitted[b].items():
                x = fb.outcomes.get(service_type, 0) if fb else 0
                p = fb.prices.get(service_type, 0.0) if fb else 0.0
                terms.append(utility_per_type(x, v, p, config.lost_bid_cost, config.backoff_cost, True))
            terms.extend([config.backoff_cost] * self._last_backed[b])
            u[b] = utility_total(terms, beta, config.utilization_weight)
        return u

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
        utilities = self.round_utilities(feedbacks, beta)

        env = (float(n_present), beta, phase)
        for b in range(self.B):
            fb = feedbacks[b]
            prices_prev = fb.prices if fb else {}
            self.codec.encode_step(pending[b], env, prices_prev, float(utilities[b]), out=self._step_buf[b])
        sl_states = np.take(self._step_buf, self.codec.sl_columns, axis=1)

        self.window.push(self._step_buf)
        flat = self.window.flat().copy()

        learning = self.frozen_eta is None
        if learning and self._prev is not None:
            prev_flat, *prev_sample, prev_use_rl = self._prev
            v_prev, v_now, critic_cache = self.pool.critic_eval(prev_flat, flat)
            delta = td_error(utilities, self.pool.avg_reward, v_now, v_prev)
            self.pool.update(delta, *prev_sample, critic_cache, prev_use_rl)
            self.pool.update_avg_reward(utilities)

        mu, L, actor_cache = self.pool.actor_forward(flat)
        noise = np.stack([s.standard_normal(self.action_dim) for s in self.act_streams])
        zeta_raw = self.pool.sample_raw(mu, L, noise)

        eta = self.hyper.eta.eta(self.t) if learning else self.frozen_eta
        use_rl = np.array([s.uniform() < eta for s in self.act_streams])

        executed = self._fractions(zeta_raw)
        if not use_rl.all():  # the behavioural model is asked only when someone needs it
            executed = np.where(use_rl[:, None], executed, self.behavior.predict(sl_states))

        if learning:
            self.behavior.store(sl_states, executed)
            if (
                self.t % self.hyper.sl_train_interval == 0
                and self.behavior.count >= self.behavior.batch_size
            ):
                self.behavior.train_step(self.sl_streams)

        directives = self._directives(executed, pending)

        self._prev = (flat, zeta_raw, mu, L, actor_cache, use_rl)
        self.t += 1
        return directives

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
            self._last_submitted[b] = submitted
            self._last_backed[b] = backed
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
