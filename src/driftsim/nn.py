"""Layer helpers shared by the models: Glorot init, a dense stack and one
LSTM cell."""
from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = ["glorot", "dense_params", "mlp", "lstm_cell"]


def glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform (fan_in, fan_out) weight matrix drawn from `rng`."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def dense_params(rng, dims) -> list:
    """[w1, b1, w2, b2, ...] for layers dims[0] -> dims[1] -> ...: Glorot
    weights drawn in layer order, zero (1, fan_out) biases."""
    params = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        params += [glorot(rng, fan_in, fan_out), np.zeros((1, fan_out))]
    return params


def mlp(params, x, act):
    """Apply the [w, b] pairs of `params` in order, with `act` after every
    pair except the last, which stays linear."""
    for i in range(0, len(params) - 2, 2):
        x = act(x @ params[i] + params[i + 1])
    return x @ params[-2] + params[-1]


def lstm_cell(gates, c_prev, hidden: int):
    """One LSTM step from gate pre-activations laid out [input|forget|cell|output].

    `c_prev` is None on the first step of a sequence (zero cell state).
    Returns the new (h, c).
    """
    i = ad.sigmoid(gates[:, 0:hidden])
    f = ad.sigmoid(gates[:, hidden:2 * hidden])
    g = ad.tanh(gates[:, 2 * hidden:3 * hidden])
    o = ad.sigmoid(gates[:, 3 * hidden:4 * hidden])
    c = i * g if c_prev is None else f * c_prev + i * g
    return o * ad.tanh(c), c
