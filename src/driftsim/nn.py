"""Layer helpers shared by the models: Glorot init, a dense stack, the LSTM
stack that the correlation forecaster and the density baseline run, and the
clipped binary cross-entropy of the forecaster and the downstream model."""
from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = ["CLAMP", "glorot", "dense_params", "mlp", "lstm_params",
           "lstm_stack", "bce"]

CLAMP = 1e-6  # probabilities are clipped to [CLAMP, 1 - CLAMP] before a log


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
        x = ad.dense(x, params[i], params[i + 1], act)
    return ad.dense(x, params[-2], params[-1])


def lstm_params(rng, in_dim: int, hidden: int, layers: int) -> list:
    """[w1, b1, w2, b2, ...] for `lstm_stack`: per layer one Glorot draw of
    shape (input + hidden, 4 * hidden) and a zero bias but for a +1 forget gate."""
    params = []
    for fan_in in [in_dim] + [hidden] * (layers - 1):
        bias = np.zeros((1, 4 * hidden))
        bias[0, hidden:2 * hidden] = 1.0
        params += [glorot(rng, fan_in + hidden, 4 * hidden), bias]
    return params


def lstm_stack(params, rows) -> list:
    """The top layer's hidden state after each row: every layer's step is
    `lstm_cell(dense(concat([x, h]), w, b))` from a zero h and no cell state,
    and its new h is the input of the layer above. The hidden width is a
    quarter of the first bias's."""
    layers = len(params) // 2
    hidden = params[1].shape[1] // 4
    h, c = [ad.constant(np.zeros((1, hidden)))] * layers, [None] * layers
    states = []
    for x in rows:
        for k in range(layers):
            gates = ad.dense(ad.concat([x, h[k]], axis=1), params[2 * k], params[2 * k + 1])
            h[k], c[k] = ad.lstm_cell(gates, c[k])
            x = h[k]
        states.append(x)
    return states


def bce(p, t):
    """Elementwise -(t log q + (1 - t) log(1 - q)) of probabilities `p`
    clipped to q in [CLAMP, 1 - CLAMP], against targets `t`."""
    q = ad.clip(p, CLAMP, 1.0 - CLAMP)
    return -(t * ad.log(q) + (1.0 - t) * ad.log(1.0 - q))
