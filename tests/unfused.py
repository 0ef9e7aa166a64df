"""The LSTM written with autodiff primitives only: the composition that the
fused `ad.dense`, `ad.lstm_cell` and `nn.lstm_stack` must match bit for bit."""
import numpy as np

from driftsim import autodiff as ad


def lstm_cell(gates, c_prev, hidden):
    """`ad.lstm_cell` as sigmoid/tanh nodes on gate slices."""
    i = ad.sigmoid(gates[:, 0:hidden])
    f = ad.sigmoid(gates[:, hidden:2 * hidden])
    g = ad.tanh(gates[:, 2 * hidden:3 * hidden])
    o = ad.sigmoid(gates[:, 3 * hidden:4 * hidden])
    c = i * g if c_prev is None else f * c_prev + i * g
    return o * ad.tanh(c), c


def lstm_stack(params, rows, hidden):
    """`nn.lstm_stack` with each step's gates as `concat([x, h]) @ w + b`
    and its cell as `lstm_cell` above."""
    layers = len(params) // 2
    h_states = [ad.constant(np.zeros((1, hidden)))] * layers
    c_states = [None] * layers
    states = []
    for x in rows:
        for layer in range(layers):
            w, b = params[2 * layer], params[2 * layer + 1]
            gates = ad.concat([x, h_states[layer]], axis=1) @ w + b
            x, c_states[layer] = lstm_cell(gates, c_states[layer], hidden)
            h_states[layer] = x
        states.append(x)
    return states
