"""Numeric state encoding for the learners.

Each decision step is one fixed-width vector; the learner input is the
flattened window of the nu most recent steps, zero padded while the history
is still short. `FeatureCodec.encode` is the only writer of a step. The
windows live in `LearningFleet`, which stores each step twice so that
`LearningFleet.history` is one (B, window, step_dim) view, per agent the
oldest step first.

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
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..engine import require_count


class FeatureCodec:
    def __init__(
        self,
        type_ids: Sequence[str],
        work_max: float,
        deadline_max: float,
        price_max: float,
        fleet_size: int,
        window: int,
    ):
        require_count("window", window, 1)
        for name, value in (("work_max", work_max), ("deadline_max", deadline_max), ("price_max", price_max)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        self.type_ids = tuple(sorted(type_ids))
        if not self.type_ids or len(set(self.type_ids)) != len(self.type_ids):
            raise ValueError(f"type_ids must be non-empty and distinct, got {list(type_ids)}")
        require_count("fleet_size", fleet_size, 1)
        self.index = {t: i for i, t in enumerate(self.type_ids)}
        self.work_max = float(work_max)
        self.deadline_max = float(deadline_max)
        self.price_max = float(price_max)
        self.fleet_size = int(fleet_size)
        self.window = int(window)
        self.k = len(self.type_ids)
        self.step_dim = 5 * self.k + 4
        self.sl_columns = np.r_[0 : 3 * self.k, 5 * self.k : 5 * self.k + 3]
        self.sl_dim = len(self.sl_columns)
        self.rl_input_dim = self.window * self.step_dim

    def encode(
        self,
        out: np.ndarray,
        env: tuple[float, float, float],
        utilities: np.ndarray,
        active: Iterable[tuple[int, Mapping[str, tuple[float, float]], Mapping[str, float]]],
    ):
        """Write the step of every row of out (n, step_dim): env is (bidder
        count, beta, phase in [0,1)), utilities (n,) the previous round's
        rewards. Rows without an entry in active get no request and no
        previous price; for (row, requests, prices_prev) in active, requests
        maps type -> (work estimate, ms to deadline) and prices_prev holds
        only the types bid on last round."""
        k = self.k
        out[:, : 5 * k] = 0.0
        count, beta, phase = env
        out[:, 5 * k] = count / self.fleet_size
        out[:, 5 * k + 1] = beta
        out[:, 5 * k + 2] = phase
        out[:, 5 * k + 3] = utilities / self.price_max
        for row, requests, prices_prev in active:
            step = out[row]
            for type_id, (work, deadline) in requests.items():
                i = self.index[type_id]
                step[i] = 1.0
                step[k + i] = work / self.work_max
                step[2 * k + i] = deadline / self.deadline_max
            for type_id, price in prices_prev.items():
                i = self.index[type_id]
                step[3 * k + i] = price / self.price_max
                step[4 * k + i] = 1.0
