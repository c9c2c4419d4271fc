"""Numeric state encoding for the learners.

Each decision step is one fixed-width vector; the learner input is the
flattened window of the nu most recent steps, zero padded while the history
is still short.

Per-step layout (K catalog types in sorted id order):
  for each type k: [pending flag, work estimate / work_max,
                    deadline / deadline_max, previous price / price_max,
                    price-present flag]
  env:             [bidder count / fleet size, utilization beta,
                    round phase in a 1 s cycle]
  reward:          [previous round utility / budget_max]

The behavioral-model state is the request and env blocks of the step
vector, the fixed column index `sl_columns` = [0, 3K) + [5K, 5K+3). Take it
with `np.take(steps, sl_columns, axis=1)`: that returns a C-contiguous
array, while `steps[:, sl_columns]` does not, and matmul rounds the two
layouts differently.
"""
from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import numpy as np


class FeatureCodec:
    def __init__(
        self,
        type_ids: Sequence[str],
        work_max: float,
        deadline_max: float,
        price_max: float,
        fleet_size: int,
        window: int = 8,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        for name, value in (("work_max", work_max), ("deadline_max", deadline_max), ("price_max", price_max)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        self.type_ids = tuple(sorted(type_ids))
        self.index = {t: i for i, t in enumerate(self.type_ids)}
        self.work_max = float(work_max)
        self.deadline_max = float(deadline_max)
        self.price_max = float(price_max)
        self.fleet_size = max(1, int(fleet_size))
        self.window = int(window)
        self.k = len(self.type_ids)
        self.step_dim = 5 * self.k + 4
        self.sl_columns = np.r_[0 : 3 * self.k, 5 * self.k : 5 * self.k + 3]
        self.sl_dim = len(self.sl_columns)
        self.rl_input_dim = self.window * self.step_dim

    def encode_step(
        self,
        requests: Mapping[str, tuple[float, float]],
        env: tuple[float, float, float],
        prices_prev: Mapping[str, float],
        utility_prev: float,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """requests: type -> (work estimate, ms to deadline); env: (bidder
        count, beta, phase in [0,1)); prices_prev: only the types bid on last
        round."""
        if out is None:
            out = np.zeros(self.step_dim)
        else:
            out[:] = 0.0
        k = self.k
        for type_id, (work, deadline) in requests.items():
            i = self.index[type_id]
            out[i] = 1.0
            out[k + i] = work / self.work_max
            out[2 * k + i] = deadline / self.deadline_max
        for type_id, price in prices_prev.items():
            i = self.index[type_id]
            out[3 * k + i] = price / self.price_max
            out[4 * k + i] = 1.0
        count, beta, phase = env
        out[5 * k] = count / self.fleet_size
        out[5 * k + 1] = beta
        out[5 * k + 2] = phase
        out[5 * k + 3] = utility_prev / self.price_max
        return out

    def encode_idle(self, env: tuple[float, float, float], utilities: np.ndarray, out: np.ndarray) -> np.ndarray:
        """`encode_step` with no request and no previous price, in bulk:
        row r of out (n >= 1, step_dim) gets the step of reward utilities[r]."""
        self.encode_step({}, env, {}, 0.0, out=out[0])
        out[1:] = out[0]
        out[:, -1] = utilities / self.price_max  # the reward column
        return out


class WindowBuffer:
    """Per-agent ring of the nu most recent step vectors, zero padded."""

    def __init__(self, n_agents: int, window: int, step_dim: int):
        self.data = np.zeros((n_agents, window, step_dim))

    def shift(self) -> np.ndarray:
        """Shift every agent's window left by one; returns the (B, step_dim)
        view of the newest row, which the caller overwrites with the step."""
        self.data[:, :-1, :] = self.data[:, 1:, :]
        return self.data[:, -1, :]

    def flat(self) -> np.ndarray:
        """(B, window*step_dim) view suitable as learner input."""
        return self.data.reshape(self.data.shape[0], -1)
