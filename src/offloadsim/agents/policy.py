"""Average-reward actor-critic over a correlated Gaussian action policy.

The actor network outputs the action mean and the entries of a lower
triangular factor L (diagonal through softplus, so L L^T is always positive
definite). Raw actions are mu + L y with y standard normal; squashing to
the valid action box happens outside the density, so the score function
keeps the exact Gaussian form:

    d ln f / d mu = Sigma^-1 (x - mu)
    d ln f / d L  = tril(Sigma^-1 (x - mu) z^T) - diag(1 / L_ii),  z = L^-1 (x - mu)

(the mu-gradient uses the inverse covariance; finite-difference tests pin
this down). Updates are plain gradient steps weighted by the TD error
delta = u - u_bar + V(S') - V(S), with u_bar an exponential moving average
of past rewards.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..engine import RngStream
from .nets import NumericalInstabilityError, StackedMlp


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y: float) -> float:
    return float(np.log(np.expm1(y)))


@dataclass
class LearningRates:
    actor: float = 1e-4
    critic: float = 1e-3
    reward_smoothing: float = 0.99  # EMA retention for the average reward
    grad_clip: float = 100.0


def td_error(u: float, avg_reward: float, v_next: float, v_now: float) -> float:
    """delta = u - u_bar + V(S') - V(S)."""
    return u - avg_reward + v_next - v_now


class ActorCriticPool:
    """B independent actor-critic learners advanced in lock step.

    Critic: scalar head V(S, w). Actor: heads for the action mean (dim A)
    and the A(A+1)/2 lower-triangular factor entries.
    """

    def __init__(
        self,
        streams: Sequence[RngStream],
        input_dim: int,
        action_dim: int,
        hidden: tuple[int, ...] = (64, 32),
        rates: LearningRates = LearningRates(),
        init_std: float = 0.5,
        mu_bias_init=0.0,
    ):
        self.B = len(streams)
        self.A = action_dim
        self.input_dim = input_dim
        self.rates = rates
        self.tril_rows, self.tril_cols = np.tril_indices(action_dim)
        self.diag_positions = np.flatnonzero(self.tril_rows == self.tril_cols)
        n_l = len(self.tril_rows)
        l_bias = np.zeros(n_l)
        l_bias[self.diag_positions] = softplus_inv(init_std)
        self.actor = StackedMlp(
            streams,
            input_dim,
            hidden,
            heads={"mu": (action_dim, 0.01, mu_bias_init), "lraw": (n_l, 0.01, l_bias)},
        )
        self.critic = StackedMlp(streams, input_dim, hidden, heads={"v": (1, 0.01, 0.0)})
        self.avg_reward = np.zeros(self.B)

    # -- forward passes ------------------------------------------------------

    def critic_eval(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """V(S, w) for each agent, plus the activation cache for backprop."""
        outputs, cache = self.critic.forward(x)
        return outputs["v"][:, 0], cache

    def actor_forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
        """(mu (B,A), L (B,A,A), cache) with softplus-positive diagonal."""
        outputs, cache = self.actor.forward(x)
        mu = outputs["mu"]
        lraw = outputs["lraw"]
        L = np.zeros((self.B, self.A, self.A))
        values = lraw.copy()
        values[:, self.diag_positions] = softplus(lraw[:, self.diag_positions])
        L[:, self.tril_rows, self.tril_cols] = values
        cache["lraw"] = lraw
        return mu, L, cache

    def sample_raw(self, mu: np.ndarray, L: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """zeta = mu + L y for pre-drawn standard normal y (B, A)."""
        return mu + np.matmul(L, noise[:, :, None])[:, :, 0]

    # -- log-density machinery -------------------------------------------------

    def log_density(self, zeta_raw: np.ndarray, mu: np.ndarray, L: np.ndarray) -> np.ndarray:
        r = (zeta_raw - mu)[:, :, None]
        z = np.linalg.solve(L, r)[:, :, 0]
        diag = L[:, np.arange(self.A), np.arange(self.A)]
        return -0.5 * (z * z).sum(axis=1) - np.log(diag).sum(axis=1) - 0.5 * self.A * math.log(2 * math.pi)

    def _density_grads(self, zeta_raw, mu, L, lraw):
        """Per-agent gradients of ln f w.r.t. mu and the raw L entries."""
        r = (zeta_raw - mu)[:, :, None]
        z = np.linalg.solve(L, r)  # (B, A, 1)
        w = np.linalg.solve(L.transpose(0, 2, 1), z)[:, :, 0]  # Sigma^-1 (x - mu)
        d_mu = w
        outer = w[:, :, None] * z[:, None, :, 0]  # (B, A, A) = w z^T
        d_l = outer[:, self.tril_rows, self.tril_cols]
        diag = L[:, np.arange(self.A), np.arange(self.A)]
        d_l[:, self.diag_positions] -= 1.0 / diag
        d_l[:, self.diag_positions] *= _sigmoid(lraw[:, self.diag_positions])  # softplus chain
        return d_mu, d_l

    # -- updates -----------------------------------------------------------------

    def update(
        self,
        delta: np.ndarray,
        zeta_raw: np.ndarray,
        mu: np.ndarray,
        L: np.ndarray,
        actor_cache: dict,
        critic_cache: dict,
    ):
        """One actor and critic gradient step.

        critic_cache must be a fresh V(S) forward pass and actor_cache the
        pass that produced (mu, L) at S; delta is the per-agent TD error.
        """
        if not np.all(np.isfinite(delta)):
            raise NumericalInstabilityError(f"non-finite TD error: {delta}")
        critic_factors = self.critic.backward(critic_cache, {"v": np.ones((self.B, 1))})
        self.critic.apply_gradients(critic_factors, self.rates.critic * delta, clip_norm=self.rates.grad_clip)
        d_mu, d_l = self._density_grads(zeta_raw, mu, L, actor_cache["lraw"])
        actor_factors = self.actor.backward(actor_cache, {"mu": d_mu, "lraw": d_l})
        self.actor.apply_gradients(actor_factors, self.rates.actor * delta, clip_norm=self.rates.grad_clip)

    def update_avg_reward(self, u: np.ndarray):
        lam = self.rates.reward_smoothing
        self.avg_reward *= lam
        self.avg_reward += (1.0 - lam) * u


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def squash_action(zeta_raw: np.ndarray, action_dim: int, budgets: np.ndarray) -> np.ndarray:
    """Map raw samples into the action box.

    The first half of each action vector are backoff components (sigmoid to
    [0,1]); the second half are prices (clamped to [0, budget]).
    """
    half = action_dim // 2
    out = np.empty_like(zeta_raw)
    out[..., :half] = _sigmoid(zeta_raw[..., :half])
    budgets = np.asarray(budgets)
    cap = budgets[..., None] if budgets.ndim == 1 else budgets
    out[..., half:] = np.clip(zeta_raw[..., half:], 0.0, cap)
    return out


def unsquash_action(action: np.ndarray, action_dim: int, logit_cap: float = 4.0) -> np.ndarray:
    """Raw-space preimage of a boxed action (backoff via logit, price as is).

    Needed when the executed action came from the behavioral model, which
    emits boxed values directly; the logit is capped so boundary actions do
    not blow up the policy score.
    """
    half = action_dim // 2
    out = np.array(action, dtype=float, copy=True)
    alpha = np.clip(out[..., :half], 1e-9, 1.0 - 1e-9)
    out[..., :half] = np.clip(np.log(alpha / (1.0 - alpha)), -logit_cap, logit_cap)
    return out
