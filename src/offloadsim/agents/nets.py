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

Most of a step is zero, and `apply_gradients` adds only what it must. An
agent that executed its behavioural action gets step 0.0 (see
`ActorCriticPool.update`), so `apply_gradients` takes every agent's norm
but adds nothing for an agent whose step s is zero. For the others, the
rule depends on what feeds the layer:

- The input layer W0 is fed by the caller's input, a zero-padded window
  that is mostly 0.0. Its weight step is added only at the (agent, input
  row) pairs where s x_i is nonzero.
- Every deeper layer and head is fed by tanh activations, which are
  almost never exactly zero, so its weight step is added densely, as one
  (agent, in, out) outer product of s x and dz.

Both are bit-identical to the dense step over every agent and row. The
added entries are the same two products, s x_i first, then times dz_j.
Once the norms are finite, a skipped entry would add (s x_i) dz_j = +-0 to
a finite parameter, which changes it only if it is -0.0. None is: biases
start at +0.0, weights are normal draws, and a sum x + (-x) rounds to
+0.0, so no update makes a -0.0.
"""
from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from ..engine import RngStream

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # AdamState's moment decays and denominator guard


class NumericalInstabilityError(FloatingPointError):
    """Gradients stopped being finite: learning rates are diverging."""


def _init_weight(rng: RngStream, fan_in: int, fan_out: int, scale: float) -> np.ndarray:
    return rng.standard_normal((fan_in, fan_out)) * (scale / math.sqrt(fan_in))


class StackedMlp:
    """B parallel two-hidden-layer tanh networks with named linear heads.

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
            w = np.stack([_init_weight(s, dims[layer], dims[layer + 1], 1.0) for s in streams])
            self.params[f"W{layer}"] = w
            self.params[f"b{layer}"] = np.zeros((self.B, dims[layer + 1]))
        for name, spec in heads.items():
            out_dim, head_scale, bias_init = spec
            w = np.stack([_init_weight(s, dims[-1], out_dim, head_scale) for s in streams])
            b = np.zeros((self.B, out_dim))
            b += np.asarray(bias_init)
            self.params[f"W_{name}"] = w
            self.params[f"b_{name}"] = b

    # -- forward / backward ---------------------------------------------------
    #
    # Inputs may be (B, input_dim) for one sample per agent,
    # (B, n, input_dim) for per-agent minibatches, or (B, m, n, input_dim)
    # for m such inputs per agent through the same weights; outputs match.

    def forward(self, x: np.ndarray) -> tuple[dict[str, np.ndarray], dict]:
        squeeze = x.ndim == 2
        if squeeze:
            x = x[:, None, :]
        # Each agent's weights broadcast over a stacked-input axis, so matmul
        # makes the same (n, in) @ (in, out) product per agent and input as
        # a pass over that input alone, while the agent's weights are hot.
        agent = (slice(None),) + (None,) * (x.ndim - 3)
        acts = [x]
        h = x
        for layer in range(len(self.hidden)):
            z = np.matmul(h, self.params[f"W{layer}"][agent]) + self.params[f"b{layer}"][agent][..., None, :]
            h = np.tanh(z)
            acts.append(h)
        outputs = {}
        for name in self.head_names:
            y = np.matmul(h, self.params[f"W_{name}"][agent]) + self.params[f"b_{name}"][agent][..., None, :]
            outputs[name] = y[:, 0, :] if squeeze else y
        return outputs, {"acts": acts, "squeeze": squeeze}

    @staticmethod
    def input_cache(cache: dict, index: int) -> dict:
        """The cache of input `index` of a (B, m, 1, input_dim) forward pass:
        what a pass over that (B, input_dim) input alone returns, for
        `backward`."""
        return {"acts": [a[:, index] for a in cache["acts"]], "squeeze": True}

    def backward(
        self, cache: dict, head_grads: Mapping[str, np.ndarray]
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Gradient factors of sum over agents and samples of <head_grad, head_out>.

        Maps each layer's weight name to (x, dz): the layer's input
        activation (B, n, in) and its pre-activation gradient (B, n, out).
        The bias of weight "W<s>" is "b<s>".
        """
        acts = cache["acts"]
        squeeze = cache["squeeze"]
        factors: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        top = acts[-1]
        dh = None
        for name in self.head_names:
            dy = head_grads.get(name)
            if dy is None:
                continue
            if squeeze:
                dy = dy[:, None, :]
            factors[f"W_{name}"] = (top, dy)
            contrib = np.matmul(dy, self.params[f"W_{name}"].transpose(0, 2, 1))
            dh = contrib if dh is None else dh + contrib
        for layer in reversed(range(len(self.hidden))):
            h = acts[layer + 1]
            dz = dh * (1.0 - h * h)
            factors[f"W{layer}"] = (acts[layer], dz)
            if layer > 0:
                dh = np.matmul(dz, self.params[f"W{layer}"].transpose(0, 2, 1))
        return factors

    # -- updates ----------------------------------------------------------------

    def apply_gradients(self, factors: Mapping[str, tuple[np.ndarray, np.ndarray]], step_size, clip_norm: float):
        """In-place ascent step: params += step_size * grads (per-agent step
        sizes accepted as a (B,) vector), with a per-agent norm clip.

        factors come from `backward` on a one-sample-per-agent cache, so each
        weight gradient is the outer product x dz^T: its squared norm is
        ||x||^2 ||dz||^2 and the step is added as a rank-1 update.

        Every agent's norm is checked and stored in `last_grad_norms`. Steps
        are then added only for agents whose step s is nonzero (all of them
        through a slice when every agent steps). The input layer "W0" gets
        its weight step only where the row factor s x_i is nonzero, since
        its input is mostly zero padding; the layers fed by tanh activations
        get the dense outer product. Each skipped entry would add +-0 to a
        finite parameter, which leaves it bit-identical (module docstring).
        The added entries are the same two products as the dense update,
        s x_i first, then times dz_j.
        """
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
                f"{name} of agents {np.flatnonzero(~np.isfinite(sq)).tolist()}"
                for name, sq in sq_by_param.items()
                if not np.all(np.isfinite(sq))
            )
            raise NumericalInstabilityError(
                f"non-finite gradient norm for agents {np.flatnonzero(~np.isfinite(norms)).tolist()}: {culprits}"
            )
        self.last_grad_norms = norms
        scale = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-12))
        step = np.asarray(step_size) * scale
        live = np.flatnonzero(step)
        if live.size == 0:  # most actor calls once eta is at its floor
            return
        rows = slice(None) if live.size == self.B else live  # every critic call steps all
        s = step[rows, None]
        for w_name, (x, dz) in vectors.items():
            sx = s * x[rows]
            w = self.params[w_name]
            if w_name == "W0":  # the caller's input, mostly zero padding
                k, i = np.nonzero(sx)  # entry k of `live`, input row i
                agents = live[k]
                rank1 = dz[agents]
                rank1 *= sx[k, i, None]
                w[agents, i] += rank1
            else:  # tanh activations, dense
                w[rows] += np.einsum("bi,bj->bij", sx, dz[rows])
            self.params["b" + w_name[1:]][rows] += s * dz[rows]

    # -- persistence / introspection ---------------------------------------------

    def flat_view(self, agent: int) -> np.ndarray:
        """Concatenated copy of one agent's parameters (fixed name order)."""
        return np.concatenate([self.params[k][agent].ravel() for k in sorted(self.params)])

    def load_flat(self, agent: int, flat: np.ndarray):
        offset = 0
        for k in sorted(self.params):
            block = self.params[k][agent]
            n = block.size
            block[...] = flat[offset : offset + n].reshape(block.shape)
            offset += n
        if offset != flat.size:
            raise ValueError(f"parameter vector has {flat.size} entries, expected {offset}")


def dense_gradients(factors: Mapping[str, tuple[np.ndarray, np.ndarray]]) -> dict[str, np.ndarray]:
    """Dense per-agent gradients dW = x^T dz, db = sum_n dz from `backward` factors."""
    grads = {}
    for w_name, (x, dz) in factors.items():
        grads[w_name] = np.matmul(x.transpose(0, 2, 1), dz)
        grads["b" + w_name[1:]] = dz.sum(axis=1)
    return grads


class AdamState:
    """Adam moments for one StackedMlp (used by the behavioral model)."""

    def __init__(self, net: StackedMlp, lr: float = 1e-3):
        self.net = net
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in net.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in net.params.items()}

    def step(self, factors: Mapping[str, tuple[np.ndarray, np.ndarray]]):
        """Descent step on the gradients given as `StackedMlp.backward` factors."""
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
        for k, g in dense_gradients(factors).items():
            m = self.m[k]
            v = self.v[k]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            self.net.params[k] -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
