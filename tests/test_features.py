import math

import numpy as np
import pytest

from offloadsim.agents import AgentConfig, FeatureCodec, LearningFleet


def codec(window=8):
    return FeatureCodec(
        type_ids=["F1-300", "F1-50"],
        work_max=30.0,
        deadline_max=300.0,
        price_max=100.0,
        fleet_size=10,
        window=window,
    )


def encode_one(c, requests=None, env=(4.0, 0.5, 0.25), prices_prev=None, utility_prev=1.0):
    """`encode` of one decision step on a one-row out."""
    requests = {"F1-300": (3.0, 150.0)} if requests is None else requests
    prices_prev = {"F1-300": 2.0} if prices_prev is None else prices_prev
    out = np.full((1, c.step_dim), np.nan)
    c.encode(out, env, np.array([utility_prev]), [(0, requests, prices_prev)])
    return out[0]


class TestEncoding:
    def test_step_dim(self):
        c = codec()
        assert c.step_dim == 5 * 2 + 4
        assert c.sl_dim == 3 * 2 + 3
        assert c.rl_input_dim == 8 * c.step_dim

    def test_request_block(self):
        c = codec()
        vec = encode_one(c)
        i = c.index["F1-300"]
        assert vec[i] == 1.0
        assert vec[c.k + i] == 3.0 / 30.0
        assert vec[2 * c.k + i] == 150.0 / 300.0

    def test_unrequested_type_is_zero_with_absent_flag(self):
        c = codec()
        vec = encode_one(c, prices_prev={})
        i = c.index["F1-50"]
        assert vec[3 * c.k + i] == 0.0  # price
        assert vec[4 * c.k + i] == 0.0  # presence flag
        # and the type bid on keeps its flag
        vec2 = encode_one(c)
        j = c.index["F1-300"]
        assert vec2[4 * c.k + j] == 1.0

    def test_env_and_reward_block(self):
        c = codec()
        vec = encode_one(c)
        base = 5 * c.k
        assert vec[base] == 0.4
        assert vec[base + 1] == 0.5
        assert vec[base + 2] == 0.25
        assert vec[base + 3] == 1.0 / 100.0

    def test_behavior_state_is_request_and_env_columns(self):
        c = codec()
        requests = {"F1-300": (3.0, 150.0), "F1-50": (7.5, 40.0)}
        env = (4.0, 0.5, 0.25)
        # the behavioral layout, written out: flags, work, deadlines, env
        expected = np.zeros(c.sl_dim)
        for type_id, (work, deadline) in requests.items():
            i = c.index[type_id]
            expected[i] = 1.0
            expected[c.k + i] = work / 30.0
            expected[2 * c.k + i] = deadline / 300.0
        expected[3 * c.k :] = [4.0 / 10, 0.5, 0.25]
        steps = np.stack(
            [
                encode_one(c, requests=requests, env=env),
                encode_one(c, requests={}, env=env, prices_prev={}, utility_prev=-3.0),
            ]
        )
        sl = np.take(steps, c.sl_columns, axis=1)
        assert sl.flags.c_contiguous
        assert np.array_equal(sl[0], expected)
        expected[: 3 * c.k] = 0.0
        assert np.array_equal(sl[1], expected)

    def test_idle_rows_carry_only_env_and_reward(self):
        # rows without an entry in active get the env and their own reward,
        # written out here, and zero request and price blocks; the active
        # row is what a one-row encode of that step writes
        c = codec()
        env = (4.0, 0.5, 0.25)
        utilities = np.array([1.0, 0.0, -3.5, 0.7])
        out = np.full((4, c.step_dim), np.nan)
        c.encode(out, env, utilities, [(2, {"F1-50": (7.5, 40.0)}, {"F1-300": 2.0})])
        for r in (0, 1, 3):
            expected = np.zeros(c.step_dim)
            expected[5 * c.k :] = [4.0 / 10, 0.5, 0.25, utilities[r] / 100.0]
            assert out[r].tobytes() == expected.tobytes(), r
        active = encode_one(c, requests={"F1-50": (7.5, 40.0)}, utility_prev=-3.5)
        assert out[2].tobytes() == active.tobytes()


class TestCodecParameters:
    # 0 makes encode divide by zero; NaN and inf make every scaled column nan or 0
    @pytest.mark.parametrize("name", ["work_max", "deadline_max", "price_max"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_bad_scale_rejected(self, name, value):
        kw = dict(type_ids=["F1-300"], work_max=30.0, deadline_max=300.0, price_max=100.0, fleet_size=4, window=8)
        kw[name] = value
        with pytest.raises(ValueError, match=name):
            FeatureCodec(**kw)

    @pytest.mark.parametrize("type_ids", [[], ["A", "A"]])
    def test_empty_or_repeated_type_ids_rejected(self, type_ids):
        # ["A", "A"] would give k = 2 with both types mapped to column 1
        with pytest.raises(ValueError, match="type_ids"):
            FeatureCodec(type_ids, work_max=30.0, deadline_max=300.0, price_max=100.0, fleet_size=4, window=8)

    @pytest.mark.parametrize("fleet_size", [0, -5, 2.5, True])
    def test_bad_fleet_size_rejected(self, fleet_size):
        with pytest.raises(ValueError, match="fleet_size"):
            FeatureCodec(
                ["F1-300"], work_max=30.0, deadline_max=300.0, price_max=100.0, fleet_size=fleet_size, window=8
            )

    @pytest.mark.parametrize("window", [0, -2, 2.5, True])
    def test_bad_window_rejected(self, window):
        # 2.5 used to be truncated to a window of 2, and True taken as 1
        with pytest.raises(ValueError, match="window"):
            FeatureCodec(["F1-300"], work_max=30.0, deadline_max=300.0, price_max=100.0, fleet_size=4, window=window)


class TestWindow:
    """The window is `LearningFleet.history`: per agent, the most recent
    steps with the oldest first."""

    def fleet(self, window, n=1):
        c = codec(window=window)
        cfgs = [AgentConfig(bidder_id=f"m{b}", budget=100.0) for b in range(n)]
        return LearningFleet(cfgs, c, root_seed=1)

    def test_fresh_window_is_zero_padded(self):
        f = self.fleet(8)
        f.act([None], [{"F1-300": (3.0, 150.0)}], n_present=4, beta=0.5, phase=0.25)
        data = f.history[0]
        assert np.all(data[:-1] == 0.0)
        assert data[-1].any()

    def test_history_is_read_only(self):
        f = self.fleet(3)
        f.act([None], [{"F1-300": (3.0, 150.0)}], n_present=4, beta=0.5, phase=0.25)
        before = f.history.copy()
        with pytest.raises(ValueError, match="read-only"):
            f.history[0, -1, 0] = 7.0
        assert f.history.tobytes() == before.tobytes()

    def test_window_shifts_one_step_per_push(self):
        # past several wraps of the window, after every push: each agent's
        # whole window is its last 3 steps oldest first, zero padded while
        # short, marked by the phase and by the agent's own work estimate
        window, n = 3, 2
        f = self.fleet(window, n)
        work_column = f.k + f.codec.index["F1-300"]
        phase_column = 5 * f.k + 2
        steps = []  # every push's newest rows, (n, step_dim)
        for r in range(3 * window + 2):
            phase = r / 20
            work = [1.0 + r + 10 * b for b in range(n)]
            f.act([None] * n, [{"F1-300": (w, 150.0)} for w in work], n_present=4, beta=0.5, phase=phase)
            newest = f.history[:, -1]
            assert list(newest[:, phase_column]) == [phase] * n, r
            assert list(newest[:, work_column]) == [w / 30.0 for w in work], r
            steps.append(newest.copy())
            recent = steps[-window:]
            expected = np.zeros((n, window, f.codec.step_dim))
            expected[:, window - len(recent) :] = np.stack(recent, axis=1)
            assert f.history.shape == expected.shape
            assert f.history.tobytes() == expected.tobytes(), r
