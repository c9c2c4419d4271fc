import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim.agents import ActorCriticPool, NumericalInstabilityError, StackedMlp
from offloadsim.engine import derive_stream

INPUT_DIM = 6
HIDDEN = (5, 4)
HEADS = {"m": (3, 0.5, 0.1), "s": (2, 0.5, -0.2)}


def make_net(n_agents, seed=0):
    return StackedMlp([derive_stream(seed, f"agent/m{b}/init") for b in range(n_agents)], INPUT_DIM, HIDDEN, HEADS)


def reference_gradients(params, b, x, head_grads):
    """Agent b's dense gradients of sum_h <head_grads[h], head_h(x)>, one
    sample, by a plain per-agent backward pass with explicit outer products."""
    p = {k: v[b] for k, v in params.items()}
    acts = [x]
    for layer in range(len(HIDDEN)):
        acts.append(np.tanh(acts[-1] @ p[f"W{layer}"] + p[f"b{layer}"]))
    grads = {}
    dh = np.zeros(HIDDEN[-1])
    for name, g in head_grads.items():
        grads[f"W_{name}"] = np.outer(acts[-1], g)
        grads[f"b_{name}"] = g.copy()
        dh = dh + p[f"W_{name}"] @ g
    for layer in reversed(range(len(HIDDEN))):
        dz = dh * (1.0 - acts[layer + 1] ** 2)
        grads[f"W{layer}"] = np.outer(acts[layer], dz)
        grads[f"b{layer}"] = dz
        dh = p[f"W{layer}"] @ dz
    return grads


def reference_step(params, x, head_grads, step_size, clip_norm):
    """Parameters after the clipped ascent step, and the per-agent gradient norms."""
    after = {k: v.copy() for k, v in params.items()}
    norms = np.zeros(len(x))
    for b in range(len(x)):
        grads = reference_gradients(params, b, x[b], {h: g[b] for h, g in head_grads.items()})
        norms[b] = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        scale = min(1.0, clip_norm / norms[b])
        for k, g in grads.items():
            after[k][b] += step_size[b] * scale * g
    return after, norms


def head_grads_for(rng, n_agents, n=None):
    shape = (n_agents,) if n is None else (n_agents, n)
    return {h: rng.standard_normal((*shape, spec[0])) for h, spec in HEADS.items()}


class TestApplyGradients:
    def test_matches_dense_reference(self):
        net = make_net(3, seed=4)
        rng = derive_stream(5, "x")
        x = rng.standard_normal((3, INPUT_DIM))
        head_grads = head_grads_for(rng, 3)
        step = np.array([0.3, -0.05, 0.7])
        _, norms = reference_step(net.params, x, head_grads, step, np.inf)
        clip = 0.5 * (norms.min() + np.median(norms))  # clips the top two agents, not the lowest
        assert (norms > clip).sum() == 2
        expected, expected_norms = reference_step(net.params, x, head_grads, step, clip)

        _, cache = net.forward(x)
        net.apply_gradients(net.backward(cache, head_grads), step, clip_norm=clip)

        np.testing.assert_allclose(net.last_grad_norms, expected_norms, rtol=1e-12, atol=0)
        for k, p in net.params.items():
            np.testing.assert_allclose(p, expected[k], rtol=1e-12, atol=0, err_msg=k)

    def test_minibatch_cache_is_rejected(self):
        net = make_net(3)
        rng = derive_stream(6, "x")
        _, cache = net.forward(rng.standard_normal((3, 2, INPUT_DIM)))
        factors = net.backward(cache, head_grads_for(rng, 3, n=2))
        before = {k: v.copy() for k, v in net.params.items()}
        with pytest.raises(ValueError, match="one sample per agent"):
            net.apply_gradients(factors, np.ones(3), clip_norm=1.0)
        for k, p in net.params.items():
            assert np.array_equal(p, before[k])

    def test_nonfinite_norm_names_agent_and_layer(self):
        pool = ActorCriticPool(
            [derive_stream(b, f"agent/m{b}/init") for b in range(3)], input_dim=INPUT_DIM, action_dim=2, hidden=HIDDEN
        )
        x = derive_stream(7, "x").standard_normal((3, INPUT_DIM))
        x[1, 2] = np.inf
        _, critic_cache = pool.critic_eval(x)
        mu, L, actor_cache = pool.actor_forward(x)
        zeta = pool.sample_raw(mu, L, np.ones((3, 2)))
        before = pool.critic.flat_view(1)
        with np.errstate(invalid="ignore"), pytest.raises(
            NumericalInstabilityError, match=r"agents \[1\]: W0 of agents \[1\]"
        ):
            pool.update(np.full(3, 0.5), zeta, mu, L, actor_cache, critic_cache, np.ones(3, dtype=bool))
        assert np.array_equal(pool.critic.flat_view(1), before)


agent_rows = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False), min_size=INPUT_DIM, max_size=INPUT_DIM
)
step_sizes = st.floats(0.05, 2.0).flatmap(lambda s: st.sampled_from([s, -s]))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(agent_rows, min_size=2, max_size=4),
    other_row=agent_rows,
    steps=st.lists(step_sizes, min_size=4, max_size=4),
    clip=st.floats(0.5, 20.0),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_step_is_clipped_and_isolated_per_agent(rows, other_row, steps, clip, seed, data):
    n_agents = len(rows)
    j = data.draw(st.integers(0, n_agents - 1), label="perturbed agent")
    x = np.array(rows)
    x_other = x.copy()
    x_other[j] = other_row
    step = np.array(steps[:n_agents])
    head_grads = head_grads_for(derive_stream(seed, "head_grads"), n_agents)

    nets = []
    for inputs in (x, x_other):
        net = make_net(n_agents, seed=seed)
        before = {k: v.copy() for k, v in net.params.items()}
        _, cache = net.forward(inputs)
        net.apply_gradients(net.backward(cache, head_grads), step, clip_norm=clip)
        nets.append(net)
        for b in range(n_agents):
            change = np.sqrt(sum(float(((net.params[k][b] - before[k][b]) ** 2).sum()) for k in before))
            assert change <= abs(step[b]) * clip * (1 + 1e-12)

    for b in range(n_agents):
        if b != j:
            for k in nets[0].params:
                assert np.array_equal(nets[0].params[k][b], nets[1].params[k][b]), (b, k)
