"""One agent's parameters of a `StackedMlp` as a flat vector, for the tests'
finite-difference checks and before/after weight comparisons.

The vector concatenates the agent's slice of every entry of `net.params`,
raveled, in sorted-name order.
"""
import numpy as np


def flat_view(net, agent: int) -> np.ndarray:
    """A concatenated copy of agent `agent`'s parameters."""
    return np.concatenate([net.params[k][agent].ravel() for k in sorted(net.params)])


def load_flat(net, agent: int, flat: np.ndarray):
    """Write a `flat_view` vector back; one of the wrong length changes nothing."""
    blocks = [net.params[k][agent] for k in sorted(net.params)]
    expected = sum(block.size for block in blocks)
    if flat.size != expected:
        raise ValueError(f"parameter vector has {flat.size} entries, expected {expected}")
    offset = 0
    for block in blocks:
        block[...] = flat[offset : offset + block.size].reshape(block.shape)
        offset += block.size
