import numpy as np

from offloadsim.agents import FeatureCodec, RlStep, WindowBuffer


def codec(window=8):
    return FeatureCodec(
        type_ids=["F1-300", "F1-50"],
        work_max=30.0,
        deadline_max=300.0,
        price_max=100.0,
        fleet_size=10,
        window=window,
    )


def step(**kw):
    defaults = dict(
        requests={"F1-300": (3.0, 150.0)},
        env=(4.0, 0.5, 0.25),
        prices_prev={"F1-300": 2.0},
        utility_prev=1.0,
    )
    defaults.update(kw)
    return RlStep(**defaults)


class TestEncoding:
    def test_step_dim(self):
        c = codec()
        assert c.step_dim == 5 * 2 + 4
        assert c.sl_dim == 3 * 2 + 3
        assert c.rl_input_dim == 8 * c.step_dim

    def test_request_block(self):
        c = codec()
        vec = c.encode_step(step())
        i = c.index["F1-300"]
        assert vec[i] == 1.0
        assert vec[c.k + i] == 3.0 / 30.0
        assert vec[2 * c.k + i] == 150.0 / 300.0

    def test_unrequested_type_is_zero_with_absent_flag(self):
        c = codec()
        vec = c.encode_step(step(prices_prev={}))
        i = c.index["F1-50"]
        assert vec[3 * c.k + i] == 0.0  # price
        assert vec[4 * c.k + i] == 0.0  # presence flag
        # and the type bid on keeps its flag
        vec2 = c.encode_step(step())
        j = c.index["F1-300"]
        assert vec2[4 * c.k + j] == 1.0

    def test_env_and_reward_block(self):
        c = codec()
        vec = c.encode_step(step())
        base = 5 * c.k
        assert vec[base] == 0.4
        assert vec[base + 1] == 0.5
        assert vec[base + 2] == 0.25
        assert vec[base + 3] == 1.0 / 100.0


class TestWindow:
    def test_fresh_window_is_zero_padded(self):
        c = codec()
        buf = WindowBuffer(1, c.window, c.step_dim)
        buf.push(c.encode_step(step())[None, :])
        data = buf.data[0]
        assert np.all(data[:-1] == 0.0)
        assert data[-1].any()

    def test_window_shifts_one_step_per_push(self):
        c = codec(window=3)
        buf = WindowBuffer(1, 3, c.step_dim)
        marks = []
        for k in range(5):
            vec = c.encode_step(step(utility_prev=float(k)))
            marks.append(vec[-1])
            buf.push(vec[None, :])
        assert list(buf.data[0, :, -1]) == marks[-3:]
