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

The memory is laid out time-major, (capacity, B, dim): row r of every agent
sits in one contiguous band. numpy advises huge pages (MADV_HUGEPAGE) on
large arrays, so under an agent-major layout each agent's first row would
fault in a 2 MB page of its own slab, and the resident set would grow with
the fleet size times the page size. Time-major, it grows with the rows the
busiest agent holds.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..engine import RngStream
from .nets import AdamState, StackedMlp


class BehaviorPool:
    """One behavioral model per agent, trained side by side.

    `__init__` sets up the memory and draws no weights: `draw` draws each
    agent's net from its stream in `streams` and zeroes its Adam moments,
    and `predict` and `train_step` need it drawn. `release_training`
    drops the memory and the moments and keeps the net, which is all that
    `predict` reads.
    """

    def __init__(
        self,
        n_agents: int,
        state_dim: int,
        action_dim: int,
        capacity: int,
        batch_size: int,
        lr: float,
        hidden: tuple[int, ...] = (32,),
    ):
        self.B = n_agents
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.capacity = capacity
        self.batch_size = batch_size
        self.lr = lr
        self.hidden = hidden
        self.net: Optional[StackedMlp] = None
        self.opt: Optional[AdamState] = None
        self.states = np.zeros((capacity, self.B, state_dim))  # time-major, see the module docstring
        self.actions = np.zeros((capacity, self.B, action_dim))
        self.count = np.zeros(self.B, dtype=np.int64)  # rows held, per agent
        self._ptr = np.zeros(self.B, dtype=np.int64)  # next row written, per agent

    def draw(self, streams: Sequence[RngStream]):
        """Draw each agent's net from its stream in `streams` (one per
        agent), with zero Adam moments."""
        self.net = StackedMlp(streams, self.state_dim, self.hidden, heads={"a": (self.action_dim, 0.1, 0.5)})
        self.opt = AdamState(self.net, lr=self.lr)

    def release_training(self):
        """Drop the memory and the Adam moments; the net still predicts."""
        self.states = self.actions = self.count = self._ptr = None
        self.opt = None

    def store(self, states: np.ndarray, actions_norm: np.ndarray, agents: Sequence[int]):
        """One row per agent in `agents` (distinct indices): row r of states
        (n, state_dim) and actions_norm (n, action_dim) for agent agents[r]."""
        ptr = self._ptr[agents]
        self.states[ptr, agents] = states
        self.actions[ptr, agents] = actions_norm
        self._ptr[agents] = (ptr + 1) % self.capacity
        self.count[agents] = np.minimum(self.count[agents] + 1, self.capacity)

    def predict(self, states: np.ndarray, agents=slice(None)) -> np.ndarray:
        """Normalized actions in [0,1]; states (n, state_dim), row r for
        agent agents[r]."""
        outputs, _ = self.net.forward(states, agents)
        return np.clip(outputs["a"], 0.0, 1.0)

    def train_step(self, streams: Sequence[RngStream]):
        """One minibatch descent step on the mean squared error for each
        agent with at least batch_size rows of its own, its minibatch drawn
        from its stream in `streams` (one per agent). With no such agent it
        draws nothing and changes nothing."""
        ready = np.flatnonzero(self.count >= self.batch_size)
        if ready.size == 0:
            return
        idx = np.stack([streams[b].integer_array(0, int(self.count[b]), self.batch_size) for b in ready])
        x = self.states[idx, ready[:, None]]
        target = self.actions[idx, ready[:, None]]
        outputs, cache = self.net.forward(x, ready)
        err = outputs["a"] - target
        factors = self.net.backward(cache, {"a": (2.0 / (self.batch_size * self.action_dim)) * err})
        self.opt.step(factors, ready)
