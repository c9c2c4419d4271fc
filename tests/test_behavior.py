import numpy as np
import pytest

from offloadsim.agents import BehaviorPool, InsufficientDataError
from offloadsim.engine import derive_stream


class TestBehaviorPool:
    def test_sliding_memory_and_prediction(self):
        streams = [derive_stream(7, "agent/m0/init"), derive_stream(7, "agent/m1/init")]
        pool = BehaviorPool(streams, state_dim=3, action_dim=2, capacity=16, batch_size=8)
        target = np.array([[0.9, 0.1], [0.2, 0.6]])
        state = np.array([[0.5, 0.5, 0.5], [0.1, 0.2, 0.3]])
        for _ in range(32):
            pool.store(state, target)
        assert pool.count == 16
        train_streams = [derive_stream(7, "agent/m0/sl"), derive_stream(7, "agent/m1/sl")]
        for _ in range(500):
            pool.train_step(train_streams)
        pred = pool.predict(state)
        assert np.max(np.abs(pred - target)) < 0.02

    def test_two_clusters_match_least_squares_oracle(self):
        gen = derive_stream(3, "data")
        n = 200
        states = []
        actions = []
        for i in range(n):
            cluster = i % 2
            base = np.array([1.0, 0.0]) if cluster == 0 else np.array([0.0, 1.0])
            states.append(base + 0.01 * gen.standard_normal(2))
            actions.append(np.array([0.8, 0.2]) if cluster == 0 else np.array([0.3, 0.9]))
        states = np.array(states)
        actions = np.array(actions)
        pool = BehaviorPool(
            [derive_stream(2, "sl/init")], state_dim=2, action_dim=2, capacity=n, batch_size=32, lr=3e-3
        )
        for s, a in zip(states, actions):
            pool.store(s[None, :], a[None, :])
        train_streams = [derive_stream(2, "sl")]
        for _ in range(600):
            pool.train_step(train_streams)

        # independent oracle: linear least squares on the same features
        design = np.hstack([states, np.ones((n, 1))])
        coef, *_ = np.linalg.lstsq(design, actions, rcond=None)
        for base in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            oracle = np.hstack([base, 1.0]) @ coef
            pred = pool.predict(base[None, :])[0]
            assert np.max(np.abs(pred - oracle)) < 0.05

    def test_train_requires_enough_samples(self):
        streams = [derive_stream(7, "agent/m0/init")]
        pool = BehaviorPool(streams, state_dim=3, action_dim=2, capacity=16, batch_size=8)
        pool.store(np.zeros((1, 3)), np.zeros((1, 2)))
        with pytest.raises(InsufficientDataError):
            pool.train_step([derive_stream(7, "agent/m0/sl")])

    def test_predictions_stay_in_unit_box(self):
        streams = [derive_stream(9, "agent/m0/init")]
        pool = BehaviorPool(streams, state_dim=3, action_dim=2)
        rng = derive_stream(10, "x")
        preds = pool.predict(rng.standard_normal((1, 3)) * 10)
        assert np.all(preds >= 0.0) and np.all(preds <= 1.0)
