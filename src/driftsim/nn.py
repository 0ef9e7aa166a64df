"""Parameter init shared by the models: Glorot draws, the [w, b] pairs of a
dense stack (`autodiff.stack`, which every model runs) and of the LSTM stack
that the correlation forecaster and the density baseline run
(`autodiff.lstm`)."""
from __future__ import annotations

import numpy as np

__all__ = ["glorot", "dense_params", "lstm_params"]


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


def lstm_params(rng, in_dim: int, hidden: int, layers: int) -> list:
    """[w1, b1, w2, b2, ...] for an LSTM stack: per layer one Glorot draw of
    shape (input + hidden, 4 * hidden) and a zero bias but for a +1 forget gate."""
    params = []
    for fan_in in [in_dim] + [hidden] * (layers - 1):
        bias = np.zeros((1, 4 * hidden))
        bias[0, hidden:2 * hidden] = 1.0
        params += [glorot(rng, fan_in + hidden, 4 * hidden), bias]
    return params

