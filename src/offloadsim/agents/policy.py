"""Average-reward actor-critic over a correlated Gaussian action policy.

The actor network outputs the action mean and the entries of a lower
triangular factor L (diagonal through softplus, so L L^T is always positive
definite). Raw actions are mu + L y with y standard normal. This module
does not know what the action components mean: the caller maps a raw
sample to the action it executes (the bidders' map is
`LearningFleet._fractions`), outside the density, so the score function
keeps the exact Gaussian form:

    d ln f / d mu = Sigma^-1 (x - mu)
    d ln f / d L  = tril(Sigma^-1 (x - mu) z^T) - diag(1 / L_ii),  z = L^-1 (x - mu)

(the mu-gradient uses the inverse covariance; finite-difference tests pin
this down). Updates are plain gradient steps weighted by the TD error
delta = u - u_bar + V(S') - V(S), with u_bar an exponential moving average
of past rewards; `ActorCriticPool.td_step` is the whole step, from the
critic pass to the new u_bar. The critic steps for every agent. The actor
is scored and steps only for the agents that executed a sample of their
own at S, the rows of that `actor_forward` pass: the score of any other
action is not a policy gradient, so the caller runs no actor pass for an
agent that will execute another action.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..engine import RngStream
from .nets import NumericalInstabilityError, StackedMlp


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y: float) -> float:
    return float(np.log(np.expm1(y)))


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


CRITIC_RATE = 1e-3  # the critic's step size; the actor's is the caller's actor_rate
REWARD_SMOOTHING = 0.99  # EMA retention for the average reward
GRAD_CLIP = 100.0  # the largest norm of any agent's step, actor or critic


class ActorCriticPool:
    """B independent actor-critic learners advanced in lock step.

    Critic: scalar head V(S, w). Actor: heads for the action mean (dim A)
    and the A(A+1)/2 lower-triangular factor entries.

    Each agent's weights come from its stream in `streams`: `__init__`
    draws the actor, and `draw_critic`, given the same streams, draws the
    critic after it. Until then `critic` is None, so a pool that only acts
    never holds one; the caller drops it again by setting `critic` to None.
    """

    def __init__(
        self,
        streams: Sequence[RngStream],
        input_dim: int,
        action_dim: int,
        actor_rate: float,
        init_std: float,
        hidden: tuple[int, ...] = (64, 32),
        mu_bias_init=0.0,
    ):
        self.B = len(streams)
        self.A = action_dim
        self.actor_rate = actor_rate
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
        self.input_dim = input_dim
        self.hidden = hidden
        self.critic: Optional[StackedMlp] = None
        self.avg_reward = np.zeros(self.B)

    def draw_critic(self, streams: Sequence[RngStream]):
        """Draw the critic from `streams`, the ones the actor was drawn from."""
        self.critic = StackedMlp(streams, self.input_dim, self.hidden, heads={"v": (1, 0.01, 0.0)})

    # -- forward passes ------------------------------------------------------

    def critic_eval(self, x: np.ndarray, x_next: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
        """(V(S), V(S'), cache of S) for each agent, from one critic pass.

        x and x_next are (B, input_dim) states S and S'. They are stacked as
        (B, 2, 1, input_dim) and each agent's weights broadcast over the
        pair, so every weight array is read once for both values, and matmul
        makes the same per-(agent, state) product as a one-state pass: both
        values are bit-identical to two such passes. (Stacking as
        (B, 2, input_dim) would make it a matrix-matrix product, which
        rounds differently.) The cache is that of S alone, the one the
        critic's step backpropagates through.
        """
        outputs, cache = self.critic.forward(np.stack((x, x_next), axis=1)[:, :, None, :])
        v = outputs["v"][:, :, 0, 0]
        return v[:, 0], v[:, 1], self.critic.input_cache(cache, 0)

    def actor_forward(self, x: np.ndarray, agents=slice(None)) -> tuple[np.ndarray, np.ndarray, dict]:
        """(mu (n,A), L (n,A,A), cache) with softplus-positive diagonal, for
        the n agents selected by `agents` (row r of x is agent agents[r]).
        The cache also carries mu, L and the raw L entries, for `update`."""
        outputs, cache = self.actor.forward(x, agents)
        mu = outputs["mu"]
        lraw = outputs["lraw"]
        L = np.zeros((len(mu), self.A, self.A))
        values = lraw.copy()
        values[:, self.diag_positions] = softplus(lraw[:, self.diag_positions])
        L[:, self.tril_rows, self.tril_cols] = values
        cache.update(mu=mu, L=L, lraw=lraw)
        return mu, L, cache

    def sample_raw(self, mu: np.ndarray, L: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """zeta = mu + L y for pre-drawn standard normal y (B, A)."""
        return mu + np.matmul(L, noise[:, :, None])[:, :, 0]

    # -- score function ----------------------------------------------------------

    def _density_grads(self, zeta_raw, actor_cache):
        """Per-agent gradients of ln f w.r.t. mu and the raw L entries, at an `actor_forward` cache."""
        mu, L, lraw = actor_cache["mu"], actor_cache["L"], actor_cache["lraw"]
        r = (zeta_raw - mu)[:, :, None]
        z = np.linalg.solve(L, r)  # (B, A, 1)
        w = np.linalg.solve(L.transpose(0, 2, 1), z)[:, :, 0]  # Sigma^-1 (x - mu)
        d_mu = w
        outer = w[:, :, None] * z[:, None, :, 0]  # (B, A, A) = w z^T
        d_l = outer[:, self.tril_rows, self.tril_cols]
        diag = L[:, np.arange(self.A), np.arange(self.A)]
        d_l[:, self.diag_positions] -= 1.0 / diag
        d_l[:, self.diag_positions] *= sigmoid(lraw[:, self.diag_positions])  # softplus chain
        return d_mu, d_l

    # -- updates -----------------------------------------------------------------

    def td_step(self, x, x_next, u, scored: Optional[tuple] = None):
        """One average-reward TD step from state x (S) to x_next (S'), both
        (B, input_dim).

        u (B,) is the reward collected between them. delta = u - u_bar +
        V(S') - V(S) steps every agent's critic and, through `scored`, the
        actor of the agents that executed their sample at S; u then enters
        u_bar, which keeps `REWARD_SMOOTHING` of its old value. scored
        is (zeta_raw, actor_cache) for those agents (see `update`), or None
        when no agent executed one.
        """
        v, v_next, critic_cache = self.critic_eval(x, x_next)
        delta = u - self.avg_reward + v_next - v
        self.update(delta, critic_cache, scored)
        self.avg_reward *= REWARD_SMOOTHING
        self.avg_reward += (1.0 - REWARD_SMOOTHING) * u

    def update(self, delta: np.ndarray, critic_cache: dict, scored: Optional[tuple] = None):
        """One critic gradient step for every agent and, when `scored` is
        given, one actor step for each agent of its pass.

        critic_cache must be the S cache of a fresh `critic_eval`, and delta
        (B,) the per-agent TD error. scored is (zeta_raw, actor_cache): the
        `actor_forward` cache at S of the n agents that executed their
        sample, and those raw samples (n, A), drawn from that pass. Every
        agent of the pass steps, and `actor.last_grad_norms` holds the
        pre-clip norm of its step; an agent outside the pass keeps its
        actor and reads 0.0 there.
        """
        if scored is not None:
            zeta_raw, actor_cache = scored
            if zeta_raw.shape != actor_cache["mu"].shape:
                raise ValueError(
                    f"scored zeta_raw has shape {zeta_raw.shape} but its actor pass has "
                    f"{actor_cache['mu'].shape}: one sample per row of the pass"
                )
        if not np.all(np.isfinite(delta)):
            raise NumericalInstabilityError(f"non-finite TD error: {delta}")
        critic_factors = self.critic.backward(critic_cache, {"v": np.ones((self.B, 1))})
        self.critic.apply_gradients(critic_factors, CRITIC_RATE * delta, clip_norm=GRAD_CLIP)
        if scored is None:
            self.actor.last_grad_norms = np.zeros(self.B)
            return
        agents = actor_cache["agents"]
        d_mu, d_l = self._density_grads(zeta_raw, actor_cache)
        actor_factors = self.actor.backward(actor_cache, {"mu": d_mu, "lraw": d_l})
        self.actor.apply_gradients(
            actor_factors, self.actor_rate * delta[agents], clip_norm=GRAD_CLIP, agents=agents
        )
