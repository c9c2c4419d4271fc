import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offloadsim.agents import ActorCriticPool, NumericalInstabilityError, StackedMlp
from offloadsim.engine import derive_stream

from netparams import flat_view, load_flat
from oracles import reference_generator

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


def unblocked_step(params, factors, step_size, norms, clip_norm):
    """Parameters after the dense rank-1 step added to every agent and every
    weight row at once, zero steps and zero inputs included, with the clip
    scale taken from the given norms."""
    step = (step_size * np.minimum(1.0, clip_norm / np.maximum(norms, 1e-12)))[:, None]
    after = {k: v.copy() for k, v in params.items()}
    for w_name, (x, dz) in factors.items():
        x = x[:, 0, :]
        dz = dz[:, 0, :]
        after[w_name] += np.einsum("bi,bj->bij", step * x, dz)
        after["b" + w_name[1:]] += step * dz
    return after


def head_grads_for(rng, n_agents, n=None):
    shape = (n_agents,) if n is None else (n_agents, n)
    return {h: rng.standard_normal((*shape, spec[0])) for h, spec in HEADS.items()}


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lead", [(), (3,), (2, 3), (2, 1)], ids=["2-D", "3-D", "4-D", "4-D one sample"])
@pytest.mark.parametrize(
    "agents", [[4, 0, 2], [3], np.array([1, 3]), np.array([2, 4, 1, 0, 3])], ids=["list", "one", "array", "all"]
)
def test_subset_forward_is_the_full_passes_rows_bit_for_bit(lead, agents):
    # a subset reads each agent's weights in place, one matmul per agent and
    # layer; the full pass runs each layer as one batched matmul
    net = make_net(5, seed=21)
    x = derive_stream(22, "x").standard_normal((5, *lead, INPUT_DIM))
    full, full_cache = net.forward(x)
    sub, sub_cache = net.forward(x[agents], agents)
    assert sub.keys() == full.keys() == HEADS.keys()
    for name in HEADS:
        assert same_bits(sub[name], full[name][agents]), name
    assert len(sub_cache["acts"]) == len(full_cache["acts"]) == len(HIDDEN) + 1
    for layer, (s, f) in enumerate(zip(sub_cache["acts"], full_cache["acts"])):
        assert same_bits(s, f[agents]), layer
    assert sub_cache["squeeze"] == full_cache["squeeze"] == (lead == ())
    assert sub_cache["agents"] is agents


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

    def test_backward_needs_every_head(self):
        # without head "s", the trunk would get only head "m"'s gradient
        net = make_net(3)
        rng = derive_stream(6, "x")
        _, cache = net.forward(rng.standard_normal((3, INPUT_DIM)))
        with pytest.raises(KeyError, match="'s'"):
            net.backward(cache, {"m": head_grads_for(rng, 3)["m"]})

    def test_zero_step_agent_is_untouched_but_normed(self):
        n_agents = 6  # zero-step agents between and after the stepping ones, the last included
        net = make_net(n_agents, seed=8)
        rng = derive_stream(9, "x")
        x = rng.standard_normal((n_agents, INPUT_DIM))
        head_grads = head_grads_for(rng, n_agents)
        step = np.zeros(n_agents)
        step[0] = 0.4
        step[2] = -0.3
        expected, expected_norms = reference_step(net.params, x, head_grads, step, 2.0)
        before = {k: v.copy() for k, v in net.params.items()}

        _, cache = net.forward(x)
        net.apply_gradients(net.backward(cache, head_grads), step, clip_norm=2.0)

        np.testing.assert_allclose(net.last_grad_norms, expected_norms, rtol=1e-12, atol=0)
        for k, p in net.params.items():
            for b in range(n_agents):
                if step[b] == 0.0:
                    assert np.array_equal(p[b], before[k][b]), (b, k)
                else:
                    np.testing.assert_allclose(p[b], expected[k][b], rtol=1e-12, atol=0, err_msg=f"{k}[{b}]")

    def test_nonfinite_norm_of_zero_step_agent_is_still_caught(self):
        n_agents = 6
        net = make_net(n_agents, seed=10)
        x = derive_stream(11, "x").standard_normal((n_agents, INPUT_DIM))
        x[-1, 2] = np.inf
        step = np.zeros(n_agents)
        step[0] = 0.5  # the non-finite agent is the last one, with a zero step
        before = {k: v.copy() for k, v in net.params.items()}
        with np.errstate(invalid="ignore"):
            _, cache = net.forward(x)
            factors = net.backward(cache, head_grads_for(derive_stream(12, "g"), n_agents))
            with pytest.raises(NumericalInstabilityError, match=rf"agents \[{n_agents - 1}\]: W0 of agents"):
                net.apply_gradients(factors, step, clip_norm=1.0)
        for k, p in net.params.items():
            assert np.array_equal(p, before[k])

    @pytest.mark.parametrize("step_of_m1", [0.3, 0.0])
    def test_subset_pass_steps_only_its_agents(self, step_of_m1):
        # a forward pass over agents [3, 1] steps only those two, as the full
        # batch would; the rest keep their parameters and read norm 0.0
        n_agents, agents = 5, [3, 1]
        net = make_net(n_agents, seed=16)
        rng = derive_stream(17, "x")
        x = rng.standard_normal((n_agents, INPUT_DIM))
        head_grads = head_grads_for(rng, n_agents)
        step = np.array([0.2, step_of_m1, -0.4, 0.5, 0.1])
        expected, expected_norms = reference_step(net.params, x, head_grads, step, 2.0)
        before = {k: v.copy() for k, v in net.params.items()}

        _, cache = net.forward(x[agents], agents)
        factors = net.backward(cache, {h: g[agents] for h, g in head_grads.items()})
        net.apply_gradients(factors, step[agents], clip_norm=2.0, agents=agents)

        assert net.last_grad_norms.shape == (n_agents,)
        for b in range(n_agents):
            if b in agents:
                np.testing.assert_allclose(net.last_grad_norms[b], expected_norms[b], rtol=1e-12, atol=0)
            else:
                assert net.last_grad_norms[b] == 0.0
            for k, p in net.params.items():
                if b in agents and step[b] != 0.0:
                    np.testing.assert_allclose(p[b], expected[k][b], rtol=1e-12, atol=0, err_msg=f"{k}[{b}]")
                else:
                    assert np.array_equal(p[b], before[k][b]), (b, k)

    def test_nonfinite_norm_of_subset_names_the_agent(self):
        net = make_net(5, seed=18)
        x = derive_stream(19, "x").standard_normal((2, INPUT_DIM))
        x[0, 1] = np.inf  # the row of agent 4
        with np.errstate(invalid="ignore"):
            _, cache = net.forward(x, [4, 2])
            factors = net.backward(cache, head_grads_for(derive_stream(20, "g"), 2))
            with pytest.raises(NumericalInstabilityError, match=r"agents \[4\]: W0 of agents \[4\]"):
                net.apply_gradients(factors, np.ones(2), clip_norm=1.0, agents=[4, 2])

    def test_nonfinite_norm_names_agent_and_layer(self):
        streams = [derive_stream(b, f"agent/m{b}/init") for b in range(3)]
        pool = ActorCriticPool(
            streams,
            input_dim=INPUT_DIM,
            action_dim=2,
            actor_rate=1e-4,
            init_std=0.5,
            hidden=HIDDEN,
        )
        pool.draw_critic(streams)
        x = derive_stream(7, "x").standard_normal((3, INPUT_DIM))
        x[1, 2] = np.inf
        _, _, critic_cache = pool.critic_eval(x, x)
        mu, L, actor_cache = pool.actor_forward(x)
        zeta = pool.sample_raw(mu, L, np.ones((3, 2)))
        before = flat_view(pool.critic, 1)
        with np.errstate(invalid="ignore"), pytest.raises(
            NumericalInstabilityError, match=r"agents \[1\]: W0 of agents \[1\]"
        ):
            pool.update(np.full(3, 0.5), critic_cache, (zeta, actor_cache))
        assert np.array_equal(flat_view(pool.critic, 1), before)


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


steps_with_zeros = st.one_of(st.just(0.0), step_sizes)


def with_random_biases(net, seed):
    """Nonzero biases, so that an all-zero input still drives the deeper layers."""
    rng = derive_stream(seed, "biases")
    for k, p in net.params.items():
        if k.startswith("b"):
            p += rng.standard_normal(p.shape)
    return net


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(steps_with_zeros, min_size=5, max_size=12),
    clip=st.floats(0.5, 20.0),
    seed=st.integers(0, 2**16),
    perturbed=st.integers(0, 11),
    zero_rows=st.sets(st.integers(0, 11)),
    zero_cells=st.sets(st.integers(0, 12 * INPUT_DIM - 1)),
)
# Every step zero, a zero-step run before mixed steps, and a zero-step and a
# stepping last agent, whatever the random draws cover; then stepping agents
# with an all-zero input (the first and the last) beside a sparse row and a
# zero-step agent; then every agent stepping (the whole-fleet slice, as in
# every critic call), one of them with an all-zero input. Each case also runs
# as passes over a shuffled agent list, the actor's path.
@example(steps=[0.0, 0.0, 0.0, 0.0, 0.0], clip=1.0, seed=2, perturbed=3, zero_rows=set(), zero_cells=set())
@example(
    steps=[0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, -0.3, 0.0],
    clip=1.0,
    seed=0,
    perturbed=4,
    zero_rows=set(),
    zero_cells=set(),
)
@example(
    steps=[0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.2],
    clip=5.0,
    seed=1,
    perturbed=9,
    zero_rows=set(),
    zero_cells=set(),
)
@example(steps=[0.6, -0.4, 0.0, 1.1, 0.9], clip=5.0, seed=3, perturbed=2, zero_rows={0, 4}, zero_cells={6, 8, 10, 13})
@example(steps=[0.5, -0.3, 1.2, 0.8, -1.5, 0.1], clip=2.0, seed=5, perturbed=1, zero_rows={2}, zero_cells={0, 7, 13})
def test_zero_steps_are_skipped_bit_identically(steps, clip, seed, perturbed, zero_rows, zero_cells):
    n_agents = len(steps)
    j = perturbed % n_agents
    rng = derive_stream(seed, "inputs")
    x = rng.standard_normal((n_agents, INPUT_DIM))
    x_other = x.copy()
    x_other[j] = rng.standard_normal(INPUT_DIM)
    cells = np.arange(n_agents * INPUT_DIM).reshape(n_agents, INPUT_DIM)
    zero = np.isin(cells, list(zero_cells)) | np.isin(np.arange(n_agents), list(zero_rows))[:, None]
    for inputs in (x, x_other):
        inputs[zero] *= 0.0  # exact zeros, signed as the draws were
    step = np.array(steps)
    head_grads = head_grads_for(derive_stream(seed, "head_grads"), n_agents)

    nets = []
    for inputs in (x, x_other):
        net = with_random_biases(make_net(n_agents, seed=seed), seed)
        before = {k: v.copy() for k, v in net.params.items()}
        _, cache = net.forward(inputs)
        factors = net.backward(cache, head_grads)
        net.apply_gradients(factors, step, clip_norm=clip)
        nets.append(net)
        _, expected_norms = reference_step(before, inputs, head_grads, step, clip)
        np.testing.assert_allclose(net.last_grad_norms, expected_norms, rtol=1e-12, atol=0)
        expected = unblocked_step(before, factors, step, net.last_grad_norms, clip)
        for k in before:
            assert np.array_equal(net.params[k], expected[k]), k
        for b in range(n_agents):
            change = np.sqrt(sum(float(((net.params[k][b] - before[k][b]) ** 2).sum()) for k in before))
            assert change <= abs(step[b]) * clip * (1 + 1e-12)
            if step[b] != 0.0 and zero[b].all():
                # A live agent with an all-zero input keeps W0 and steps the rest.
                for k in before:
                    assert np.array_equal(net.params[k][b], before[k][b]) == (k == "W0"), (b, k)

    for b in range(n_agents):
        if b != j:
            for k in nets[0].params:
                assert np.array_equal(nets[0].params[k][b], nets[1].params[k][b]), (b, k)

    # A pass over a shuffled list of the agents, all of them or the first
    # half, steps each of them as the whole-fleet pass did and leaves the
    # rest as they were.
    order = derive_stream(seed, "order").permutation(n_agents).tolist()
    for agents in (order, order[: (n_agents + 1) // 2]):
        net = with_random_biases(make_net(n_agents, seed=seed), seed)
        before = {k: v.copy() for k, v in net.params.items()}
        _, cache = net.forward(x[agents], agents)
        factors = net.backward(cache, {h: g[agents] for h, g in head_grads.items()})
        net.apply_gradients(factors, step[agents], clip_norm=clip, agents=agents)
        for b in range(n_agents):
            given = b in agents
            assert net.last_grad_norms[b] == (nets[0].last_grad_norms[b] if given else 0.0), (agents, b)
            for k in before:
                expected = nets[0].params[k][b] if given else before[k][b]
                assert np.array_equal(net.params[k][b], expected), (agents, b, k)


def test_non_contiguous_parameters_are_stepped_in_place():
    net = make_net(4, seed=13)
    w0 = np.asfortranarray(net.params["W0"])
    net.params["W0"] = w0
    x = derive_stream(14, "x").standard_normal((4, INPUT_DIM))
    x[1, :3] = 0.0
    step = np.array([0.3, -0.2, 0.0, 0.5])
    before = {k: v.copy() for k, v in net.params.items()}
    _, cache = net.forward(x)
    factors = net.backward(cache, head_grads_for(derive_stream(15, "g"), 4))
    net.apply_gradients(factors, step, clip_norm=2.0)
    assert net.params["W0"] is w0
    assert not w0.flags.c_contiguous
    expected = unblocked_step(before, factors, step, net.last_grad_norms, 2.0)
    for k in before:
        assert np.array_equal(net.params[k], expected[k]), k


def test_weights_are_scaled_normal_draws_from_each_agents_stream():
    # agent b's weights are its own stream's draws, layer by layer and then
    # head by head, each times scale / sqrt(fan_in); biases start at their
    # init. The reference draws from a Generator seeded the documented way,
    # not through the RngStream call the init makes.
    net = make_net(3, seed=16)
    dims = (INPUT_DIM, *HIDDEN)
    layers = [(f"W{i}", dims[i], dims[i + 1], 1.0) for i in range(len(HIDDEN))]
    layers += [(f"W_{name}", HIDDEN[-1], out_dim, scale) for name, (out_dim, scale, _) in HEADS.items()]
    for b in range(3):
        rng = reference_generator(16, f"agent/m{b}/init")
        for name, fan_in, fan_out, scale in layers:
            expected = rng.standard_normal((fan_in, fan_out)) * (scale / np.sqrt(fan_in))
            assert np.array_equal(net.params[name][b], expected), (b, name)
        for name, (out_dim, _, bias_init) in HEADS.items():
            assert np.array_equal(net.params[f"b_{name}"][b], np.full(out_dim, bias_init)), (b, name)
        for i in range(len(HIDDEN)):
            assert np.array_equal(net.params[f"b{i}"][b], np.zeros(HIDDEN[i])), (b, i)


@pytest.mark.parametrize("extra", [-1, 1])
def test_wrong_length_vector_leaves_the_net_unchanged(extra):
    # the length used to be checked only after every block was written
    net = make_net(2, seed=21)
    before = flat_view(net, 1)
    flat = derive_stream(22, "flat").standard_normal(before.size + extra)
    with pytest.raises(ValueError, match=f"has {before.size + extra} entries, expected {before.size}"):
        load_flat(net, 1, flat)
    assert np.array_equal(flat_view(net, 1), before)
    load_flat(net, 1, flat[: before.size] if extra > 0 else np.append(flat, 0.0))
    assert not np.array_equal(flat_view(net, 1), before)
