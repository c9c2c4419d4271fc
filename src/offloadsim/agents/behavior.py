"""Behavioral strategy model: supervised regression from recent own
(state, action) pairs to the action actually taken.

Memory is a sliding window with uniform minibatch sampling, so the learned
strategy tracks recent behavior; actions are stored normalized to [0,1]
(backoff as-is, price divided by the agent's budget).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ..engine import RngStream
from .nets import AdamState, StackedMlp


class InsufficientDataError(RuntimeError):
    pass


class BehaviorPool:
    """One behavioral model per agent, trained side by side."""

    def __init__(
        self,
        streams: Sequence[RngStream],
        state_dim: int,
        action_dim: int,
        hidden: tuple[int, ...] = (32,),
        capacity: int = 10_000,
        batch_size: int = 64,
        lr: float = 1e-3,
    ):
        self.B = len(streams)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.capacity = capacity
        self.batch_size = batch_size
        self.net = StackedMlp(streams, state_dim, hidden, heads={"a": (action_dim, 0.1, 0.5)})
        self.opt = AdamState(self.net, lr=lr)
        self.states = np.zeros((self.B, capacity, state_dim))
        self.actions = np.zeros((self.B, capacity, action_dim))
        self.count = 0
        self._ptr = 0

    def store(self, states: np.ndarray, actions_norm: np.ndarray):
        self.states[:, self._ptr, :] = states
        self.actions[:, self._ptr, :] = actions_norm
        self._ptr = (self._ptr + 1) % self.capacity
        self.count = min(self.count + 1, self.capacity)

    def predict(self, states: np.ndarray) -> np.ndarray:
        """Normalized actions in [0,1]; states (B, state_dim)."""
        outputs, _ = self.net.forward(states)
        return np.clip(outputs["a"], 0.0, 1.0)

    def train_step(self, streams: Sequence[RngStream]) -> float:
        """One minibatch descent step per agent; returns the mean MSE."""
        if self.count < self.batch_size:
            raise InsufficientDataError(f"{self.count} samples stored, need {self.batch_size}")
        idx = np.stack([s.integer_array(0, self.count, self.batch_size) for s in streams])
        rows = np.arange(self.B)[:, None]
        x = self.states[rows, idx]
        target = self.actions[rows, idx]
        outputs, cache = self.net.forward(x)
        err = outputs["a"] - target
        factors = self.net.backward(cache, {"a": (2.0 / (self.batch_size * self.action_dim)) * err})
        self.opt.step(factors)
        return float((err * err).mean())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"sl_{k}": v for k, v in self.net.state_arrays().items()}

    def load_state(self, arrays):
        self.net.load_state({k[3:]: v for k, v in arrays.items() if k.startswith("sl_")})


def sl_train(
    states: np.ndarray,
    actions: np.ndarray,
    stream: RngStream,
    hidden: tuple[int, ...] = (32,),
    batch_size: int = 32,
    epochs: int = 200,
    lr: float = 1e-3,
) -> tuple[BehaviorPool, list[float]]:
    """Fit a fresh behavioral model to a fixed memory; returns per-epoch MSE.

    states (n, state_dim), actions (n, action_dim) normalized to [0,1].
    """
    n = len(states)
    if n < batch_size:
        raise InsufficientDataError(f"{n} samples, need at least {batch_size}")
    pool = BehaviorPool(
        [stream],
        state_dim=states.shape[1],
        action_dim=actions.shape[1],
        hidden=hidden,
        capacity=n,
        batch_size=batch_size,
        lr=lr,
    )
    pool.states[0, :n] = states
    pool.actions[0, :n] = actions
    pool.count = n
    losses = []
    x = states[None, :, :]
    target = actions[None, :, :]
    for _ in range(epochs):
        outputs, cache = pool.net.forward(x)
        err = outputs["a"] - target
        losses.append(float((err * err).mean()))
        factors = pool.net.backward(cache, {"a": (2.0 / (n * pool.action_dim)) * err})
        pool.opt.step(factors)
    return pool, losses
