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
"""
from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from ..engine import RngStream


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
        self.input_dim = input_dim
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
    # Inputs may be (B, input_dim) for one sample per agent or
    # (B, n, input_dim) for per-agent minibatches; outputs match.

    def forward(self, x: np.ndarray) -> tuple[dict[str, np.ndarray], dict]:
        squeeze = x.ndim == 2
        if squeeze:
            x = x[:, None, :]
        acts = [x]
        h = x
        for layer in range(len(self.hidden)):
            z = np.matmul(h, self.params[f"W{layer}"]) + self.params[f"b{layer}"][:, None, :]
            h = np.tanh(z)
            acts.append(h)
        outputs = {}
        for name in self.head_names:
            y = np.matmul(h, self.params[f"W_{name}"]) + self.params[f"b_{name}"][:, None, :]
            outputs[name] = y[:, 0, :] if squeeze else y
        return outputs, {"acts": acts, "squeeze": squeeze}

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
        step = (np.asarray(step_size) * scale)[:, None]
        for w_name, (x, dz) in vectors.items():
            self.params[w_name] += np.einsum("bi,bj->bij", step * x, dz)
            self.params["b" + w_name[1:]] += step * dz

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

    def __init__(self, net: StackedMlp, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.net = net
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in net.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in net.params.items()}

    def step(self, factors: Mapping[str, tuple[np.ndarray, np.ndarray]]):
        """Descent step on the gradients given as `StackedMlp.backward` factors."""
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for k, g in dense_gradients(factors).items():
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            self.net.params[k] -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
