"""Layer helpers shared by the models: Glorot init and one LSTM cell."""
from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = ["glorot", "lstm_cell"]


def glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform (fan_in, fan_out) weight matrix drawn from `rng`."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


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
