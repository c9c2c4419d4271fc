"""Small fully-connected approximators with manual backpropagation.

All arrays carry a leading agent axis B: one call advances every agent's
independent network at once. Row b only ever sees row b's data, so the
batched math is equivalent to B separate single-agent networks; tanh
activations keep the mapping smooth enough for finite-difference checks.

Gradients are kept factored. For n samples per agent, a linear layer with
input activation x (B, n, in) and pre-activation gradient dz (B, n, out)
has dW = x^T dz and db = sum_n dz; `backward` returns the pair (x, dz) per
layer and never the dense (B, in, out) gradient. The actor-critic step
learns from one sample per agent (n = 1), so each dW is the outer product
x dz^T, and `apply_gradients` uses the per-example identity
||x dz^T||_F^2 = ||x||^2 ||dz||^2 (Goodfellow, arXiv:1510.01799) for the
clip norm and adds the clipped step as a rank-1 update. The minibatch
optimizer (`AdamState`) builds dense gradients with `dense_gradients`.

A pass may run for a subset of the agents (`forward`'s `agents`, which the
cache records), and `backward` and `apply_gradients` then read and step
only those agents. For an index list `forward` copies no weight: it runs
one matmul per agent and layer on a view of that agent's weights, while a
slice runs each layer as one batched matmul. The actor's pass holds only
the agents that executed its sample (see `ActorCriticPool.update`), so
every row given to `apply_gradients` is meant to step. The input layer W0
is fed by the caller's input, a zero-padded window that is mostly 0.0, so
its weight step is one indexed add at the (agent, input row) pairs where
s x_i is nonzero, w[a, i] += (s x_i) dz, which steps the weights in place
whatever their memory layout. Every deeper layer and head is fed by tanh
activations, which are almost never exactly zero, so its weight step is
added densely over the given agents, as one (agent, in, out) outer
product of s x and dz; the biases too.

Both are bit-identical to the dense step over every agent and row. The
added entries are the same two products, s x_i first, then times dz_j.
Once the norms are finite, a skipped entry would add (s x_i) dz_j = +-0 to
a finite parameter, which changes it only if it is -0.0. None is: biases
start at +0.0, weights are normal draws, and a sum x + (-x) rounds to
+0.0, so no update makes a -0.0. For the same reason a row whose step s is
zero (a zero TD error or rate) keeps its parameters, though its dense adds
run.
"""
from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from ..engine import RngStream

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # AdamState's moment decays and denominator guard


class NumericalInstabilityError(FloatingPointError):
    """Gradients stopped being finite: learning rates are diverging."""


def _init_weights(streams: Sequence[RngStream], fan_in: int, fan_out: int, scale: float) -> np.ndarray:
    """(B, fan_in, fan_out) normal draws times scale / sqrt(fan_in), agent b's
    from streams[b], each drawn straight into its slice and scaled there, so
    that set-up holds every weight once."""
    w = np.empty((len(streams), fan_in, fan_out))
    factor = scale / math.sqrt(fan_in)
    for rng, out in zip(streams, w):
        rng.standard_normal(out=out)
        out *= factor
    return w


class StackedMlp:
    """B parallel tanh networks, one hidden layer per entry of `hidden`
    (the actor and the critic have two, the behavioural model one, and
    `hidden=()` gives a linear map), with named linear heads.

    heads maps name -> (output_dim, weight_scale, bias_init). bias_init may
    be a scalar or a per-dim vector.
    """

    def __init__(
        self,
        streams: Sequence[RngStream],
        input_dim: int,
        hidden: tuple[int, ...],
        heads: Mapping[str, tuple],
    ):
        self.B = len(streams)
        self.hidden = tuple(hidden)
        self.head_names = tuple(heads)
        self.last_grad_norms = np.zeros(self.B)
        self.params: dict[str, np.ndarray] = {}
        dims = (input_dim, *hidden)
        for layer in range(len(hidden)):
            self.params[f"W{layer}"] = _init_weights(streams, dims[layer], dims[layer + 1], 1.0)
            self.params[f"b{layer}"] = np.zeros((self.B, dims[layer + 1]))
        for name, spec in heads.items():
            out_dim, head_scale, bias_init = spec
            self.params[f"W_{name}"] = _init_weights(streams, dims[-1], out_dim, head_scale)
            b = np.zeros((self.B, out_dim))
            b += np.asarray(bias_init)
            self.params[f"b_{name}"] = b

    # -- forward / backward ---------------------------------------------------
    #
    # Inputs may be (B, input_dim) for one sample per agent,
    # (B, n, input_dim) for per-agent minibatches, or (B, m, n, input_dim)
    # for m such inputs per agent through the same weights; outputs match.
    # `agents` selects whose networks run: a slice, or an index list or
    # array, in any order. Row r of x then belongs to agent agents[r], and
    # only those agents' weights are read. The cache records `agents`, so
    # `backward` reads the same agents' weights.

    def forward(self, x: np.ndarray, agents=slice(None)) -> tuple[dict[str, np.ndarray], dict]:
        squeeze = x.ndim == 2
        if squeeze:
            x = x[:, None, :]
        acts = [x]
        h = x
        for layer in range(len(self.hidden)):
            h = np.tanh(self._affine(h, str(layer), agents))
            acts.append(h)
        outputs = {}
        for name in self.head_names:
            y = self._affine(h, f"_{name}", agents)
            outputs[name] = y[:, 0, :] if squeeze else y
        return outputs, {"acts": acts, "squeeze": squeeze, "agents": agents}

    def _affine(self, h: np.ndarray, suffix: str, agents) -> np.ndarray:
        """h @ W + b for the weight "W<suffix>" and bias "b<suffix>", row r
        of h (k, n, in) or (k, m, n, in) for agent agents[r].

        Each agent's weights broadcast over a stacked-input axis, so matmul
        makes the same (n, in) @ (in, out) product per agent and input as a
        pass over that input alone, while the agent's weights are hot. A
        slice runs as one batched matmul on a view of the weights. For an
        index list, each agent's product runs on a view of its own weights
        into its row of the result, so no weight is copied. The product of
        one agent is the same whichever agents run with it.
        """
        w, b = self.params["W" + suffix], self.params["b" + suffix]
        agent = (agents,) + (None,) * (h.ndim - 3)
        if isinstance(agents, slice):
            z = np.matmul(h, w[agent])
        else:
            z = np.empty(h.shape[:-1] + w.shape[-1:])
            for r, a in enumerate(agents):
                np.matmul(h[r], w[a], out=z[r])
        z += b[agent][..., None, :]
        return z

    @staticmethod
    def input_cache(cache: dict, index: int) -> dict:
        """The cache of input `index` of a (B, m, 1, input_dim) forward pass:
        what a pass over that (B, input_dim) input alone returns, for
        `backward`."""
        return {"acts": [a[:, index] for a in cache["acts"]], "squeeze": True, "agents": cache["agents"]}

    def backward(
        self, cache: dict, head_grads: Mapping[str, np.ndarray]
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Gradient factors of sum over agents and samples of <head_grad, head_out>.

        head_grads holds a gradient for every head. Maps each layer's weight
        name to (x, dz): the layer's input activation (B, n, in) and its
        pre-activation gradient (B, n, out), row r for agent agents[r] of the
        cache's forward pass. The bias of weight "W<s>" is "b<s>".
        """
        acts = cache["acts"]
        squeeze = cache["squeeze"]
        agents = cache["agents"]
        factors: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        top = acts[-1]
        dh = None
        for name in self.head_names:
            dy = head_grads[name]
            if squeeze:
                dy = dy[:, None, :]
            factors[f"W_{name}"] = (top, dy)
            contrib = np.matmul(dy, self.params[f"W_{name}"][agents].transpose(0, 2, 1))
            dh = contrib if dh is None else dh + contrib
        for layer in reversed(range(len(self.hidden))):
            h = acts[layer + 1]
            dz = dh * (1.0 - h * h)
            factors[f"W{layer}"] = (acts[layer], dz)
            if layer > 0:
                dh = np.matmul(dz, self.params[f"W{layer}"][agents].transpose(0, 2, 1))
        return factors

    # -- updates ----------------------------------------------------------------

    def apply_gradients(
        self, factors: Mapping[str, tuple[np.ndarray, np.ndarray]], step_size, clip_norm: float, agents=slice(None)
    ):
        """In-place ascent step: params += step_size * grads for `agents`,
        the agents of the forward pass the factors come from (row r for
        agent agents[r]), with per-row step sizes and a per-agent norm clip.

        factors come from `backward` on a one-sample-per-agent cache, so each
        weight gradient is the outer product x dz^T: its squared norm is
        ||x||^2 ||dz||^2 and the step is added as a rank-1 update. Every
        given agent's norm is checked and stored in `last_grad_norms` (B,),
        which holds 0.0 for the agents not given. "W0" gets its weight step
        only where s x_i is nonzero; the other layers and the biases get it
        densely (module docstring).
        """
        ids = np.arange(self.B)[agents]  # the agent of each factor row
        vectors = {}
        sq_by_param = {}
        for w_name, (x, dz) in factors.items():
            if x.shape[1] != 1:
                raise ValueError(
                    f"apply_gradients takes one sample per agent; the cache of {w_name} holds {x.shape[1]}"
                )
            x = x[:, 0, :]
            dz = dz[:, 0, :]
            dz_sq = np.einsum("bj,bj->b", dz, dz)
            vectors[w_name] = (x, dz)
            sq_by_param[w_name] = np.einsum("bi,bi->b", x, x) * dz_sq
            sq_by_param["b" + w_name[1:]] = dz_sq
        norms = np.sqrt(sum(sq_by_param.values()))
        if not np.all(np.isfinite(norms)):
            culprits = "; ".join(
                f"{name} of agents {ids[~np.isfinite(sq)].tolist()}"
                for name, sq in sq_by_param.items()
                if not np.all(np.isfinite(sq))
            )
            raise NumericalInstabilityError(
                f"non-finite gradient norm for agents {ids[~np.isfinite(norms)].tolist()}: {culprits}"
            )
        self.last_grad_norms = np.zeros(self.B)
        self.last_grad_norms[agents] = norms
        scale = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-12))
        s = (np.asarray(step_size) * scale)[:, None]
        for w_name, (x, dz) in vectors.items():
            sx = s * x
            w = self.params[w_name]
            if w_name == "W0":  # the caller's input, mostly zero padding
                # the nonzero entries (r, i) of sx, factor row r being agent
                # ids[r]; flatnonzero and divmod cost less than a 2-D nonzero
                r, i = np.divmod(np.flatnonzero(sx), sx.shape[1])
                step = dz[r]
                step *= sx[r, i, None]  # in place: one (nonzero, out) temporary fewer
                w[ids[r], i] += step
            else:  # tanh activations, dense
                w[agents] += np.einsum("bi,bj->bij", sx, dz)
            self.params["b" + w_name[1:]][agents] += s * dz


def dense_gradients(factors: Mapping[str, tuple[np.ndarray, np.ndarray]]) -> dict[str, np.ndarray]:
    """Dense per-agent gradients dW = x^T dz, db = sum_n dz from `backward` factors."""
    grads = {}
    for w_name, (x, dz) in factors.items():
        grads[w_name] = np.matmul(x.transpose(0, 2, 1), dz)
        grads["b" + w_name[1:]] = dz.sum(axis=1)
    return grads


class AdamState:
    """Adam moments and a step count per agent for one StackedMlp (used by
    the behavioral model)."""

    def __init__(self, net: StackedMlp, lr: float):
        self.net = net
        self.lr = lr
        self.t = np.zeros(net.B, dtype=np.int64)
        self.m = {k: np.zeros_like(v) for k, v in net.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in net.params.items()}

    def step(self, factors: Mapping[str, tuple[np.ndarray, np.ndarray]], agents=slice(None)):
        """Descent step for `agents` on the gradients given as
        `StackedMlp.backward` factors of a forward pass over those agents;
        every other agent keeps its parameters, moments and step count."""
        self.t[agents] += 1
        steps = self.t[agents].tolist()
        bias1 = np.array([1.0 - ADAM_BETA1**t for t in steps])
        bias2 = np.array([1.0 - ADAM_BETA2**t for t in steps])
        for k, g in dense_gradients(factors).items():
            per_agent = (-1,) + (1,) * (g.ndim - 1)
            m = self.m[k][agents] * ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v = self.v[k][agents] * ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            self.m[k][agents] = m
            self.v[k][agents] = v
            m_hat = m / bias1.reshape(per_agent)
            v_hat = v / bias2.reshape(per_agent)
            self.net.params[k][agents] -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
