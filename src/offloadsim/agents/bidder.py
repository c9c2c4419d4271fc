"""Bidder agents: self-play mixing of a best-response learner with a
supervised behavioral model.

Each decision round an agent samples a candidate best-response action from
its Gaussian policy and queries the behavioral model for its average
strategy; with probability eta (1/t, optionally floored late in training)
it executes the best response, otherwise the behavioral action. Per service
type, a backoff component above the threshold submits the bid at the action
price; below it the bid is deferred for a duration linear in the component.

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
from .policy import ActorCriticPool, LearningRates, squash_action, td_error, unsquash_action
from .utility import AgentConfig, utility_per_type, utility_total, valuation


@dataclass
class EtaSchedule:
    """Best-response mixing weight: 1/t, optionally floored after a while."""

    strict: bool = False
    floor: float = 0.01
    floor_after: int = 100

    def eta(self, t: int) -> float:
        value = 1.0 / max(1, t)
        if self.strict or t <= self.floor_after:
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
        self.configs = list(configs)
        self.codec = codec
        self.hyper = hyper or LearnerHyper()
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
        self.frozen = False
        self.frozen_eta: Optional[float] = None
        self._prev_flat: Optional[np.ndarray] = None
        self._prev_zeta_raw: Optional[np.ndarray] = None
        self._prev_mu = None
        self._prev_L = None
        self._prev_actor_cache = None
        self._last_submitted: list[dict[str, float]] = [{} for _ in range(self.B)]
        self._last_backed: list[int] = [0] * self.B
        self._step_buf = np.zeros((self.B, codec.step_dim))
        self.last_diag: dict[str, float] = {}

    # -- mode switches ---------------------------------------------------------

    def freeze(self):
        """Stop all learning; keep acting with the mixing weight fixed at its
        current value."""
        self.frozen = True
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

        prev_flat = self._prev_flat
        self.window.push(self._step_buf)
        flat = self.window.flat().copy()

        if not self.frozen and prev_flat is not None:
            v_prev, critic_cache = self.pool.critic_eval(prev_flat)
            v_now, _ = self.pool.critic_eval(flat)
            delta = td_error(utilities, self.pool.avg_reward, v_now, v_prev)
            self.pool.update(
                delta, self._prev_zeta_raw, self._prev_mu, self._prev_L, self._prev_actor_cache, critic_cache
            )
            self.pool.update_avg_reward(utilities)
            self.last_diag = {
                "delta_mean_abs": float(np.abs(delta).mean()),
                "avg_reward_mean": float(self.pool.avg_reward.mean()),
                "actor_grad_norm": float(self.pool.actor.last_grad_norms.mean()),
            }

        mu, L, actor_cache = self.pool.actor_forward(flat)
        noise = np.stack([s.standard_normal(self.action_dim) for s in self.act_streams])
        zeta_raw = self.pool.sample_raw(mu, L, noise)
        zeta = squash_action(zeta_raw, self.action_dim, self.budgets)
        psi_norm = self.behavior.predict(sl_states)

        eta = self.frozen_eta if self.frozen else self.hyper.eta.eta(self.t)
        use_rl = np.array([s.uniform() < eta for s in self.act_streams])

        executed = np.where(use_rl[:, None], self._normalize(zeta), psi_norm)
        actions_abs = self._denormalize(executed)
        # raw form of the taken action: exact for the best-response branch,
        # squash preimage for the behavioral branch
        taken_raw = np.where(use_rl[:, None], zeta_raw, unsquash_action(actions_abs, self.action_dim))

        if not self.frozen:
            self.behavior.store(sl_states, executed)
            if (
                self.t % self.hyper.sl_train_interval == 0
                and self.behavior.count >= self.behavior.batch_size
            ):
                self.behavior.train_step(self.sl_streams)

        directives = self._directives(actions_abs, pending)

        self._prev_flat = flat
        self._prev_zeta_raw = taken_raw
        self._prev_mu = mu
        self._prev_L = L
        self._prev_actor_cache = actor_cache
        self.last_diag["eta"] = eta
        self.t += 1
        return directives

    # -- helpers ----------------------------------------------------------------

    def _normalize(self, actions_abs: np.ndarray) -> np.ndarray:
        out = actions_abs.copy()
        out[:, self.k :] /= self.budgets[:, None]
        return out

    def _denormalize(self, actions_norm: np.ndarray) -> np.ndarray:
        out = actions_norm.copy()
        out[:, self.k :] *= self.budgets[:, None]
        return out

    def _directives(self, actions_abs, pending) -> list[dict[str, tuple]]:
        directives: list[dict[str, tuple]] = []
        for b, config in enumerate(self.configs):
            agent_directives = {}
            submitted: dict[str, float] = {}
            backed = 0
            for service_type, (work, _deadline) in pending[b].items():
                i = self.codec.index[service_type]
                alpha = float(actions_abs[b, i])
                price = float(min(max(actions_abs[b, self.k + i], 0.0), config.budget))
                if alpha > config.backoff_threshold:
                    agent_directives[service_type] = (SUBMIT, price)
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
