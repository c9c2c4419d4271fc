"""Behavioral strategy model: supervised regression from recent own
(state, action) pairs to the action actually taken.

Each agent's memory is its own sliding window, with its own write position
and count, and is sampled uniformly, so the learned strategy tracks that
agent's recent behavior. An agent gets a row only for a round it is stored
in (the fleet stores the agents that decided), and it trains only once it
holds a minibatch of its own: every other agent's parameters, Adam moments
and sl stream are left as they were. Actions are stored and predicted as
the executed fractions in [0, 1] that `LearningFleet._fractions` makes of
a policy sample; this module does not know their layout.
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
        self.count = np.zeros(self.B, dtype=np.int64)  # rows held, per agent
        self._ptr = np.zeros(self.B, dtype=np.int64)  # next row written, per agent

    def store(self, states: np.ndarray, actions_norm: np.ndarray, agents: Sequence[int]):
        """One row per agent in `agents` (distinct indices): row r of states
        (n, state_dim) and actions_norm (n, action_dim) for agent agents[r]."""
        ptr = self._ptr[agents]
        self.states[agents, ptr] = states
        self.actions[agents, ptr] = actions_norm
        self._ptr[agents] = (ptr + 1) % self.capacity
        self.count[agents] = np.minimum(self.count[agents] + 1, self.capacity)

    def predict(self, states: np.ndarray, agents=slice(None)) -> np.ndarray:
        """Normalized actions in [0,1]; states (n, state_dim), row r for
        agent agents[r]."""
        outputs, _ = self.net.forward(states, agents)
        return np.clip(outputs["a"], 0.0, 1.0)

    def train_step(self, streams: Sequence[RngStream]) -> float:
        """One minibatch descent step for each agent with at least
        batch_size rows of its own, its minibatch drawn from its stream in
        `streams` (one per agent); returns their mean MSE."""
        ready = np.flatnonzero(self.count >= self.batch_size)
        if ready.size == 0:
            raise InsufficientDataError(f"no agent holds {self.batch_size} samples; the most is {self.count.max()}")
        idx = np.stack([streams[b].integer_array(0, int(self.count[b]), self.batch_size) for b in ready])
        x = self.states[ready[:, None], idx]
        target = self.actions[ready[:, None], idx]
        outputs, cache = self.net.forward(x, ready)
        err = outputs["a"] - target
        factors = self.net.backward(cache, {"a": (2.0 / (self.batch_size * self.action_dim)) * err})
        self.opt.step(factors, ready)
        return float((err * err).mean())
