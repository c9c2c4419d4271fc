import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from offloadsim.agents import BehaviorPool
from offloadsim.engine import derive_stream

from netparams import flat_view


def drawn_pool(streams, **kw):
    """A pool whose nets are drawn from `streams`, one per agent."""
    pool = BehaviorPool(len(streams), **kw)
    pool.draw(streams)
    return pool


class TestBehaviorPool:
    def test_sliding_memory_and_prediction(self):
        streams = [derive_stream(7, "agent/m0/init"), derive_stream(7, "agent/m1/init")]
        pool = drawn_pool(streams, state_dim=3, action_dim=2, capacity=16, batch_size=8, lr=1e-3)
        target = np.array([[0.9, 0.1], [0.2, 0.6]])
        state = np.array([[0.5, 0.5, 0.5], [0.1, 0.2, 0.3]])
        for _ in range(32):
            pool.store(state, target, [0, 1])
        assert pool.count.tolist() == [16, 16]
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
        pool = drawn_pool(
            [derive_stream(2, "sl/init")], state_dim=2, action_dim=2, capacity=n, batch_size=32, lr=3e-3
        )
        for s, a in zip(states, actions):
            pool.store(s[None, :], a[None, :], [0])
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

    def test_train_without_a_minibatch_is_a_no_op(self):
        streams = [derive_stream(7, "agent/m0/init")]
        pool = drawn_pool(streams, state_dim=3, action_dim=2, capacity=16, batch_size=8, lr=1e-3)
        pool.store(np.zeros((1, 3)), np.zeros((1, 2)), [0])
        before = agent_state(pool, 0)
        sl = [derive_stream(7, "agent/m0/sl")]
        pool.train_step(sl)
        assert sl[0].draw_counter == 0
        assert_unchanged(pool, 0, before)

    def test_predictions_stay_in_unit_box(self):
        streams = [derive_stream(9, "agent/m0/init")]
        pool = drawn_pool(streams, state_dim=3, action_dim=2, capacity=16, batch_size=8, lr=1e-3)
        rng = derive_stream(10, "x")
        preds = pool.predict(rng.standard_normal((1, 3)) * 10)
        assert np.all(preds >= 0.0) and np.all(preds <= 1.0)


def three_agent_pool(batch_size=2):
    streams = [derive_stream(8, f"agent/m{b}/init") for b in range(3)]
    return drawn_pool(streams, state_dim=3, action_dim=2, capacity=4, batch_size=batch_size, lr=1e-3)


def sl_streams(n=3):
    return [derive_stream(8, f"agent/m{b}/sl") for b in range(n)]


def agent_state(pool, b):
    """Agent b's parameters, Adam moments and step count."""
    net = flat_view(pool.net, b)
    moments = [pool.opt.m[k][b].copy() for k in sorted(pool.opt.m)] + [pool.opt.v[k][b].copy() for k in sorted(pool.opt.v)]
    return net, moments, int(pool.opt.t[b])


def assert_unchanged(pool, b, before):
    """Agent b's parameters, moments and step count are as in `before`, an
    untrained agent's."""
    net, moments, t = agent_state(pool, b)
    assert np.array_equal(net, before[0])
    assert all(np.array_equal(m, m0) for m, m0 in zip(moments, before[1]))
    assert t == before[2] == 0


class TestPerAgentMemory:
    def test_rows_and_count_move_only_for_stored_agents(self):
        pool = three_agent_pool()
        rng = derive_stream(4, "rows")
        stored = [[0, 2], [2], [0, 1, 2], [2], [2], [2]]  # agent 2 wraps its capacity of 4
        rows = {b: [] for b in range(3)}
        for agents in stored:
            before = (pool.states.copy(), pool.actions.copy(), pool.count.copy())
            states = rng.standard_normal((len(agents), 3))
            actions = rng.standard_normal((len(agents), 2))
            pool.store(states, actions, agents)
            for b in range(3):
                if b in agents:
                    r = agents.index(b)
                    rows[b].append((states[r], actions[r]))
                else:
                    assert np.array_equal(pool.states[:, b], before[0][:, b])
                    assert np.array_equal(pool.actions[:, b], before[1][:, b])
                    assert pool.count[b] == before[2][b]
        assert pool.count.tolist() == [2, 1, 4]
        for b in range(3):
            # the last `capacity` rows of each agent, at slot (position mod capacity)
            for position, (state, action) in enumerate(rows[b]):
                if position >= len(rows[b]) - 4:
                    assert np.array_equal(pool.states[position % 4, b], state), (b, position)
                    assert np.array_equal(pool.actions[position % 4, b], action), (b, position)

    def test_agent_below_batch_size_is_left_as_it_was(self):
        pool = three_agent_pool(batch_size=2)
        for agents in ([0, 1], [1], [1, 2]):  # counts 1, 3, 1
            pool.store(np.ones((len(agents), 3)), np.full((len(agents), 2), 0.25), agents)
        streams = sl_streams()
        before = {b: agent_state(pool, b) for b in (0, 2)}
        trained_before = agent_state(pool, 1)
        pool.train_step(streams)
        assert [s.draw_counter for s in streams] == [0, 1, 0]
        for b in (0, 2):
            assert_unchanged(pool, b, before[b])
        net, _, t = agent_state(pool, 1)
        assert not np.array_equal(net, trained_before[0])
        assert t == 1

    def test_ready_agents_train_as_they_would_alone(self):
        # an agent's step is the same whichever agents are ready beside it
        together = three_agent_pool(batch_size=2)
        alone = three_agent_pool(batch_size=2)
        rng = derive_stream(5, "rows")
        for _ in range(3):
            states = rng.standard_normal((3, 3))
            actions = rng.standard_normal((3, 2))
            together.store(states, actions, [0, 1, 2])
            alone.store(states[1:2], actions[1:2], [1])
        together.train_step(sl_streams())
        alone.train_step(sl_streams())
        assert np.array_equal(flat_view(together.net, 1), flat_view(alone.net, 1))

    def test_no_agent_ready_no_draw_no_parameter_change(self):
        pool = three_agent_pool(batch_size=2)
        pool.store(np.zeros((3, 3)), np.zeros((3, 2)), [0, 1, 2])
        streams = sl_streams()
        before = {b: agent_state(pool, b) for b in range(3)}
        pool.train_step(streams)
        assert [s.draw_counter for s in streams] == [0, 0, 0]
        for b in range(3):
            assert_unchanged(pool, b, before[b])
        pool.store(np.zeros((1, 3)), np.zeros((1, 2)), [2])
        pool.train_step(streams)  # agent 2 is ready; the others are not
        assert [s.draw_counter for s in streams] == [0, 0, 1]


SRC = Path(__file__).resolve().parents[1] / "src"

# Resident growth of 100 stored rows for each of 32 agents, in a fresh
# process so that nothing else the test run allocated is counted.
STORE_GROWTH = """
import os

import numpy as np

from offloadsim.agents import BehaviorPool


def resident_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


n = 32
pool = BehaviorPool(n, 27, 16, capacity=10_000, batch_size=64, lr=1e-3)
states, actions, agents = np.ones((n, 27)), np.full((n, 16), 0.5), list(range(n))
before = resident_bytes()
for _ in range(100):
    pool.store(states, actions, agents)
print(resident_bytes() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
def test_memory_grows_with_the_rows_held():
    # numpy advises huge pages on arrays this large, so a layout that gave
    # each agent its own slab would fault in a 2 MB page per agent and array
    # on its first row (about 100 MB for this pool); time-major rows touch about 3 MB
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", STORE_GROWTH],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    growth_mb = int(out.stdout) / 2**20
    assert growth_mb < 16, f"100 rows for each of 32 agents grew the resident set by {growth_mb:.1f} MB"
