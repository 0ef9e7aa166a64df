"""References that the fused code must match bit for bit: the LSTM written
with autodiff primitives only (for `ad.dense`, `ad.lstm_cell` and
`nn.lstm_stack`), and the full-batch loop that `optim.fit` runs on
`optim.train`."""
import copy

import numpy as np

from driftsim import autodiff as ad
from driftsim.optim import TOL, Adam


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


def fit(loss_fn, params, config):
    """`optim.fit` as its own loop: score, keep a copy on a record, step. It
    also takes a last step after the final readout, which nothing reads."""
    opt = Adam([p.shape for p in params], lr=config.learning_rate)
    best_loss = np.inf
    best_params = copy.deepcopy(params)
    stale = 0
    history = []
    for _ in range(config.max_epochs):
        loss, grads = ad.evaluate_with_gradients(loss_fn, params)
        history.append(loss)
        if loss < best_loss - TOL:
            best_loss, best_params, stale = loss, copy.deepcopy(params), 0
        else:
            stale += 1
            if stale >= config.patience:
                break
        opt.step(params, grads)
    return best_params, history
