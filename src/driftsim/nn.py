"""Layer helpers shared by the models: Glorot init and a dense stack."""
from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = ["glorot", "dense_params", "mlp"]


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

