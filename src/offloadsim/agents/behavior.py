"""Behavioral strategy model: supervised regression from recent own
(state, action) pairs to the action actually taken.

Memory is a sliding window with uniform minibatch sampling, so the learned
strategy tracks recent behavior. Actions are stored and predicted as the
executed fractions in [0, 1] that `LearningFleet._fractions` makes of a
policy sample; this module does not know their layout.
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

    def predict(self, states: np.ndarray, agents=slice(None)) -> np.ndarray:
        """Normalized actions in [0,1]; states (n, state_dim), row r for
        agent agents[r]."""
        outputs, _ = self.net.forward(states, agents)
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
