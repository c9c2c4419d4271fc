import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offloadsim.agents import ActorCriticPool, NumericalInstabilityError
from offloadsim.agents.nets import dense_gradients
from offloadsim.agents.policy import REWARD_SMOOTHING, softplus_inv
from offloadsim.engine import derive_stream

from netparams import flat_view, load_flat


def drawn_pool(streams, input_dim=12, action_dim=4, hidden=(6, 5), init_std=0.5, **kw):
    """A pool whose actor and then critic are drawn from `streams`."""
    pool = ActorCriticPool(
        streams,
        input_dim=input_dim,
        action_dim=action_dim,
        actor_rate=1e-4,
        init_std=init_std,
        hidden=hidden,
        **kw,
    )
    pool.draw_critic(streams)
    return pool


def small_pool(seed=0, **kw):
    return drawn_pool([derive_stream(seed, "agent/m0/init")], **kw)


def flat_grads(net, factors):
    grads = dense_gradients(factors)
    return np.concatenate([grads[k][0].ravel() for k in sorted(net.params)])


def log_density(zeta_raw, mu, L):
    """ln f(zeta_raw) of the Gaussian N(mu, L L^T), per agent: the oracle the
    score-function gradient is checked against by finite differences."""
    a = mu.shape[1]
    r = (zeta_raw - mu)[:, :, None]
    z = np.linalg.solve(L, r)[:, :, 0]
    diag = L[:, np.arange(a), np.arange(a)]
    return -0.5 * (z * z).sum(axis=1) - np.log(diag).sum(axis=1) - 0.5 * a * math.log(2 * math.pi)


def central_difference(f, flat, h=1e-6):
    grad = np.zeros_like(flat)
    for i in range(len(flat)):
        up = flat.copy()
        up[i] += h
        down = flat.copy()
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2 * h)
    return grad


class TestCritic:
    def test_zero_parameters_give_zero_value(self):
        pool = small_pool()
        for k in pool.critic.params:
            pool.critic.params[k][:] = 0.0
        x = derive_stream(3, "x").standard_normal((1, 12))
        v, v_next, _ = pool.critic_eval(x, -x)
        assert v[0] == 0.0
        assert v_next[0] == 0.0

    def test_value_is_finite(self):
        pool = small_pool()
        rng = derive_stream(5, "x")
        for _ in range(50):
            v, v_next, _ = pool.critic_eval(rng.standard_normal((1, 12)), rng.standard_normal((1, 12)))
            assert np.isfinite(v[0])
            assert np.isfinite(v_next[0])

    def test_gradient_matches_finite_differences(self):
        pool = small_pool(seed=9)
        rng = derive_stream(7, "x")
        for trial in range(5):
            x = rng.standard_normal((1, 12))
            x_next = rng.standard_normal((1, 12))
            flat0 = flat_view(pool.critic, 0)

            def f(flat):
                load_flat(pool.critic, 0, flat)
                v, _, _ = pool.critic_eval(x, x_next)
                return float(v[0])

            fd = central_difference(f, flat0)
            load_flat(pool.critic, 0, flat0)
            _, _, cache = pool.critic_eval(x, x_next)  # the cache of S, not of S'
            factors = pool.critic.backward(cache, {"v": np.ones((1, 1))})
            analytic = flat_grads(pool.critic, factors)
            assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-4


@settings(max_examples=40, deadline=None)
@given(
    n_agents=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    zero_tenths=st.sampled_from([0, 5, 9, 10]),
    step_size=st.floats(-2.0, 2.0),
)
@example(n_agents=8, seed=0, zero_tenths=9, step_size=0.5)
def test_two_state_critic_eval_matches_one_state_passes(n_agents, seed, zero_tenths, step_size):
    # the benchmark's critic shape: a 352-wide zero-padded window, (64, 32) hidden
    streams = [derive_stream(seed, f"agent/m{b}/init") for b in range(n_agents)]
    pool = drawn_pool(streams, input_dim=352, hidden=(64, 32))
    rng = derive_stream(seed, "states")
    x, x_next = rng.standard_normal((2, n_agents, 352))
    zero = rng.integer_array(0, 10, (2, n_agents, 352)) < zero_tenths
    x[zero[0]] *= 0.0  # exact zeros, signed as the draws were
    x_next[zero[1]] *= 0.0

    v, v_next, cache = pool.critic_eval(x, x_next)
    one_s, one_cache = pool.critic.forward(x)
    one_next, _ = pool.critic.forward(x_next)
    assert np.array_equal(v, one_s["v"][:, 0])
    assert np.array_equal(v_next, one_next["v"][:, 0])

    head_grads = {"v": np.ones((n_agents, 1))}
    factors = pool.critic.backward(cache, head_grads)
    one_factors = pool.critic.backward(one_cache, head_grads)
    assert factors.keys() == one_factors.keys()
    for name, (a, dz) in factors.items():
        assert np.array_equal(a, one_factors[name][0]), name
        assert np.array_equal(dz, one_factors[name][1]), name

    stepped = copy.deepcopy(pool.critic)
    stepped.apply_gradients(factors, np.full(n_agents, step_size), clip_norm=10.0)
    pool.critic.apply_gradients(one_factors, np.full(n_agents, step_size), clip_norm=10.0)
    assert np.array_equal(stepped.last_grad_norms, pool.critic.last_grad_norms)
    for k, p in pool.critic.params.items():
        assert np.array_equal(stepped.params[k], p), k


class TestActorForward:
    def test_softplus_diagonal_at_zero_raw(self):
        pool = small_pool(init_std=math.log(2.0))
        pool.actor.params["W_lraw"][:] = 0.0  # kill input dependence
        assert pool.actor.params["b_lraw"][0, 0] == pytest.approx(softplus_inv(math.log(2.0)))
        x = derive_stream(3, "x").standard_normal((1, 12))
        _, L, _ = pool.actor_forward(x)
        assert np.allclose(np.diag(L[0]), math.log(2.0))

    def test_off_diagonal_unconstrained(self):
        pool = small_pool()
        pool.actor.params["W_lraw"][:] = 0.0
        off = [i for i, (r, c) in enumerate(zip(pool.tril_rows, pool.tril_cols)) if r != c]
        pool.actor.params["b_lraw"][0, off] = -1.5
        x = derive_stream(3, "x").standard_normal((1, 12))
        _, L, _ = pool.actor_forward(x)
        assert L[0, 1, 0] == -1.5

    def test_covariance_factor_is_positive_definite(self):
        streams = [derive_stream(s, f"agent/m{s}/init") for s in range(200)]
        pool = ActorCriticPool(
            streams, input_dim=12, action_dim=4, actor_rate=1e-4, hidden=(6, 5), init_std=0.3
        )
        rng = derive_stream(11, "x")
        for _ in range(5):
            x = rng.standard_normal((200, 12))
            _, L, _ = pool.actor_forward(x)
            sigma = np.matmul(L, L.transpose(0, 2, 1))
            np.linalg.cholesky(sigma)  # raises if any factor is not PD


class TestSampling:
    def test_zero_noise_returns_mean(self):
        pool = small_pool()
        x = derive_stream(3, "x").standard_normal((1, 12))
        mu, L, _ = pool.actor_forward(x)
        zeta = pool.sample_raw(mu, L, np.zeros((1, 4)))
        assert np.array_equal(zeta, mu)

    def test_identity_factor_covariance(self):
        rng = derive_stream(13, "y")
        mu = np.zeros(4)
        y = rng.standard_normal((100_000, 4))
        samples = mu + y  # L = I
        cov = np.cov(samples.T)
        assert np.max(np.abs(cov - np.eye(4))) < 0.02

    def test_sample_covariance_matches_factor(self):
        rng = derive_stream(17, "y")
        L = np.array(
            [
                [0.8, 0.0, 0.0],
                [0.3, 1.1, 0.0],
                [-0.4, 0.2, 0.6],
            ]
        )
        y = rng.standard_normal((100_000, 3))
        samples = y @ L.T
        cov = np.cov(samples.T)
        assert np.max(np.abs(cov - L @ L.T)) < 0.05


class TestScoreGradients:
    def test_scalar_gaussian_score(self):
        # one action dim: d ln f / d mu must equal (x - mu) / sigma^2
        pool = small_pool(action_dim=1)
        x = derive_stream(3, "x").standard_normal((1, 12))
        mu, L, cache = pool.actor_forward(x)
        zeta = mu + 0.37
        d_mu, _ = pool._density_grads(zeta, cache)
        sigma2 = float(L[0, 0, 0]) ** 2
        assert d_mu[0, 0] == pytest.approx(0.37 / sigma2)

    def test_log_density_gradient_matches_finite_differences(self):
        rng = derive_stream(7, "x")
        for seed in range(3):
            pool = small_pool(seed=seed + 20)
            x = rng.standard_normal((1, 12))
            mu0, L0, _ = pool.actor_forward(x)
            zeta = pool.sample_raw(mu0, L0, rng.standard_normal((1, 4)))
            flat0 = flat_view(pool.actor, 0)

            def f(flat):
                load_flat(pool.actor, 0, flat)
                mu, L, _ = pool.actor_forward(x)
                return float(log_density(zeta, mu, L)[0])

            fd = central_difference(f, flat0)
            load_flat(pool.actor, 0, flat0)
            mu, L, cache = pool.actor_forward(x)
            d_mu, d_l = pool._density_grads(zeta, cache)
            factors = pool.actor.backward(cache, {"mu": d_mu, "lraw": d_l})
            analytic = flat_grads(pool.actor, factors)
            assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-4


class TestUpdates:
    def test_zero_td_error_changes_nothing(self):
        pool = small_pool()
        x = derive_stream(3, "x").standard_normal((1, 12))
        _, _, critic_cache = pool.critic_eval(x, x)
        mu, L, actor_cache = pool.actor_forward(x)
        zeta = pool.sample_raw(mu, L, np.ones((1, 4)))
        before_actor = flat_view(pool.actor, 0)
        before_critic = flat_view(pool.critic, 0)
        pool.update(np.zeros(1), critic_cache, (zeta, actor_cache))
        assert np.array_equal(flat_view(pool.actor, 0), before_actor)
        assert np.array_equal(flat_view(pool.critic, 0), before_critic)

    def test_actor_steps_only_for_sampled_agents(self):
        # agent 1 executed its sample and is the whole actor pass; agent 0
        # executed another action, so it has no row there
        pool = drawn_pool([derive_stream(0, f"agent/m{b}/init") for b in range(2)])
        x = derive_stream(3, "x").standard_normal((2, 12))
        _, _, critic_cache = pool.critic_eval(x, x)
        mu, L, actor_cache = pool.actor_forward(x[[1]], [1])
        zeta = pool.sample_raw(mu, L, np.ones((1, 4)))
        actor_before = [flat_view(pool.actor, b) for b in range(2)]
        critic_before = [flat_view(pool.critic, b) for b in range(2)]
        pool.update(np.full(2, 0.5), critic_cache, (zeta, actor_cache))
        assert np.array_equal(flat_view(pool.actor, 0), actor_before[0])
        assert not np.array_equal(flat_view(pool.actor, 1), actor_before[1])
        assert pool.actor.last_grad_norms[0] == 0.0 and pool.actor.last_grad_norms[1] > 0.0
        for b in range(2):
            assert not np.array_equal(flat_view(pool.critic, b), critic_before[b])

    def test_actor_is_scored_only_on_its_pass_rows(self):
        pool = drawn_pool([derive_stream(0, f"agent/m{b}/init") for b in range(3)])
        x = derive_stream(3, "x").standard_normal((3, 12))
        actor_before = [flat_view(pool.actor, b) for b in range(3)]
        critic_before = [flat_view(pool.critic, b) for b in range(3)]
        _, _, critic_cache = pool.critic_eval(x, x)
        pool.update(np.full(3, 0.5), critic_cache)  # no agent drew a sample
        assert pool.actor.last_grad_norms.tolist() == [0.0, 0.0, 0.0]
        for b in range(3):
            assert np.array_equal(flat_view(pool.actor, b), actor_before[b])
            assert not np.array_equal(flat_view(pool.critic, b), critic_before[b])
        _, _, critic_cache = pool.critic_eval(x, x)
        mu, L, actor_cache = pool.actor_forward(x[[2, 0]], [2, 0])
        zeta = pool.sample_raw(mu, L, np.ones((2, 4)))
        pool.update(np.full(3, 0.5), critic_cache, (zeta, actor_cache))
        norms = pool.actor.last_grad_norms
        assert norms[1] == 0.0 and norms[0] > 0.0 and norms[2] > 0.0
        for b in (0, 2):  # every row of the pass steps
            assert not np.array_equal(flat_view(pool.actor, b), actor_before[b])
        assert np.array_equal(flat_view(pool.actor, 1), actor_before[1])  # agent 1 drew no sample

    @pytest.mark.parametrize("rows", [1, 3])
    def test_samples_must_match_the_pass_rows(self, rows):
        # one sample against a two-row pass used to broadcast against both rows
        pool = drawn_pool([derive_stream(0, f"agent/m{b}/init") for b in range(3)])
        x = derive_stream(3, "x").standard_normal((3, 12))
        mu, L, actor_cache = pool.actor_forward(x[[2, 0]], [2, 0])
        zeta = pool.sample_raw(mu[:1], L[:1], np.ones((1, 4))).repeat(rows, axis=0)
        before = [(flat_view(pool.actor, b), flat_view(pool.critic, b)) for b in range(3)]
        _, _, critic_cache = pool.critic_eval(x, x)
        with pytest.raises(ValueError, match=rf"zeta_raw has shape \({rows}, 4\) but its actor pass has \(2, 4\)"):
            pool.update(np.full(3, 0.5), critic_cache, (zeta, actor_cache))
        with pytest.raises(ValueError, match="zeta_raw"):
            pool.td_step(x, x, np.ones(3), (zeta, actor_cache))
        for b in range(3):
            assert np.array_equal(flat_view(pool.actor, b), before[b][0])
            assert np.array_equal(flat_view(pool.critic, b), before[b][1])
        assert pool.avg_reward.tolist() == [0.0, 0.0, 0.0]

    def test_nonfinite_delta_raises(self):
        pool = small_pool()
        x = derive_stream(3, "x").standard_normal((1, 12))
        _, _, critic_cache = pool.critic_eval(x, x)
        mu, L, actor_cache = pool.actor_forward(x)
        zeta = pool.sample_raw(mu, L, np.ones((1, 4)))
        with pytest.raises(NumericalInstabilityError):
            pool.update(np.array([np.inf]), critic_cache, (zeta, actor_cache))


class TestTdError:
    # td_step from S to S' = S, so V(S') - V(S) cancels: delta is u - u_bar
    @staticmethod
    def deltas(pool):
        """The TD errors that `td_step` hands to `update`, one per call."""
        seen = []
        update = pool.update

        def recorded(delta, critic_cache, scored=None):
            seen.append(delta.copy())
            return update(delta, critic_cache, scored)

        pool.update = recorded
        return seen

    def test_balanced_terms_cancel(self):
        pool = small_pool()
        seen = self.deltas(pool)
        pool.avg_reward[:] = 2.0
        x = derive_stream(4, "x").standard_normal((1, 12))
        pool.td_step(x, x, np.array([2.0]))
        assert seen[0].tolist() == [0.0]

    def test_pure_reward_surprise(self):
        pool = small_pool()
        seen = self.deltas(pool)
        x = derive_stream(4, "x").standard_normal((1, 12))
        pool.td_step(x, x, np.array([1.0]))
        assert seen[0][0] == pytest.approx(1.0, rel=0, abs=1e-15)

    def test_average_reward_converges_geometrically(self):
        # the EMA reads only the rewards, so the critic's steps do not move it
        pool = small_pool()
        x = derive_stream(4, "x").standard_normal((1, 12))
        c = 4.0
        for n in range(1, 60):
            pool.td_step(x, x, np.array([c]))
            assert abs(pool.avg_reward[0] - c) == pytest.approx(c * REWARD_SMOOTHING**n, rel=1e-9)

