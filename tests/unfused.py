"""References that the fused code must match bit for bit: a dense stack, the
LSTM, the simulator's loss and the density baseline's KDE-KL written with
autodiff primitives only (for `ad.dense`, `ad.lstm_stack`,
`ad.gaussian_elbo`, `ad.correlation_pull` and `ad.kde_kl`), Adam as one
update per parameter array (for `optim.Adam`), and the full-batch loop that
`optim.fit` runs on `optim.train`. Also the transpose node that these
compositions and the KDE oracles of the tests build, `same_bits`, the
comparison they are held to, and `interior_nodes`, the tape count that the
node-count tests pin."""
import numpy as np

from driftsim import autodiff as ad
from driftsim.autodiff import _accumulate, _node, _val
from driftsim.datasets import CLASSIFICATION
from driftsim.optim import BETA1, BETA2, EPS, TOL, Adam, flat
from driftsim.simulator import EPS_VAR


def same_bits(a, b) -> bool:
    """Equal shapes and float64 bit patterns (so -0.0 differs from +0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def interior_nodes(out) -> int:
    """The tape nodes behind `out` that have parents, `out` included."""
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += bool(node._parents)
            stack.extend(node._parents)
    return count


def transpose(a):
    """`a.T` as a tape node."""
    def vjp(g):
        _accumulate(a, g.T)

    return _node(_val(a).T.copy(), (a,), vjp)


def dense(params, x, act=None, last=None):
    """`ad.dense` as a chain of per-layer matmul, add and activation nodes,
    each allocating its result."""
    for i in range(0, len(params), 2):
        x = ad.matmul(x, params[i]) + params[i + 1]
        layer_act = act if i + 2 < len(params) else last
        if layer_act is not None:
            x = layer_act(x)
    return x


def pearson(batch, eps):
    """The Pearson matrix inside `ad.correlation_pull` as the composition of
    mean, matmul, sqrt and divide nodes."""
    n = batch.shape[0]
    centered = batch - ad.reduce_mean(batch, axis=0, keepdims=True)
    cov = transpose(centered) @ centered * (1.0 / n)
    var = ad.reduce_mean(centered * centered, axis=0, keepdims=True)
    std = ad.sqrt(var + eps)
    return cov / (transpose(std) @ std)


def encode(params, config, rows):
    """(mu, logvar) of the simulator's q(z | rows): a tanh trunk and two
    linear heads."""
    k = 2 * config.encoder_layers
    h = dense(params[:k], rows, ad.tanh, ad.tanh)
    return dense(params[k:k + 2], h), dense(params[k + 2:k + 4], h)


def decode(decoder, z, task):
    """The simulator's decoder params `decoder` applied to `z`, the output
    split by slicing nodes."""
    out = dense(decoder, z, ad.tanh)
    m = out.shape[1]
    features = ad.tanh(out[:, 0:m - 1])
    label = ad.sigmoid(out[:, m - 1:m]) if task == CLASSIFICATION \
        else ad.tanh(out[:, m - 1:m])
    return ad.concat([features, label], axis=1)


def neg_elbo(params, config, rows, noise, task):
    """`ad.gaussian_elbo` as elementwise, reduction and dense nodes."""
    mu, logvar = encode(params, config, rows)
    sigma = ad.exp(logvar * 0.5)
    z = mu + sigma * noise
    recon = decode(params[2 * config.encoder_layers + 4:], z, task)
    diff = recon - rows
    recon_term = ad.reduce_sum(diff * diff) * (0.5 / config.obs_variance)
    kl = (ad.reduce_sum(mu * mu) + ad.reduce_sum(ad.exp(logvar))
          - ad.reduce_sum(logvar)) * 0.5 - 0.5 * mu.shape[0] * mu.shape[1]
    n = rows.shape[0]
    return (recon_term + kl) * (1.0 / n)


def regularizer(batch, target):
    """The L1 inside `ad.correlation_pull`, on a batch of rows."""
    return ad.reduce_sum(ad.absolute(pearson(batch, EPS_VAR) - target))


def objective(params, config, task, rows, noise, z=None, target=None):
    """`simulator._objective` as the composition of the three above."""
    loss = neg_elbo(params, config, rows, noise, task)
    if z is None:
        return loss
    gen = decode(params[2 * config.encoder_layers + 4:], z, task)
    return loss + regularizer(gen, target) * config.lambda_c


def kde_kl_term(rows, column, idx, grid, bandwidth, prior, log_q):
    """One KDE-KL term of the density baseline, as its loss composed it from
    primitives before the term was fused."""
    col = rows[:, column:column + 1]
    vals = transpose(col[idx.tolist(), :])
    diff = (grid[:, None] - vals) * (1.0 / bandwidth)
    dens = ad.reduce_sum(ad.exp(diff * diff * (-0.5)), axis=1)
    p = dens * (1.0 / ad.reduce_sum(dens)) * prior
    return ad.reduce_sum(p * (ad.log(p) - log_q))


def kde_kl(rows, classes, grid, truth_sides):
    """`ad.kde_kl` as a chain of the terms above: summed per domain in
    feature-then-class order, the domain sums left to right, then scaled by
    1 / (truth domains)."""
    loss = None
    for r, side in zip(rows, truth_sides, strict=True):
        domain = None
        for column, per_class in enumerate(side):
            for idx, (prior, bandwidth, log_q) in zip(classes, per_class, strict=True):
                term = kde_kl_term(r, column, idx, grid, bandwidth, prior, log_q)
                domain = term if domain is None else domain + term
        loss = domain if loss is None else loss + domain
    return loss * (1.0 / len(rows))


class PerArrayAdam:
    """`optim.Adam` with one moment array per parameter, updated slot by slot."""

    def __init__(self, shapes, lr):
        self.lr, self.t = lr, 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads):
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * (g * g)
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
        return params


def lstm_cell(gates, c_prev, hidden):
    """One step of a cell of `ad.lstm_stack`, as sigmoid/tanh nodes on gate
    slices; `c_prev` is None on a layer's first step."""
    i = ad.sigmoid(gates[:, 0:hidden])
    f = ad.sigmoid(gates[:, hidden:2 * hidden])
    g = ad.tanh(gates[:, 2 * hidden:3 * hidden])
    o = ad.sigmoid(gates[:, 3 * hidden:4 * hidden])
    c = i * g if c_prev is None else f * c_prev + i * g
    return o * ad.tanh(c), c


def lstm_stack(params, rows, hidden):
    """`ad.lstm_stack` cell by cell, each step's gates as
    `concat([x, h]) @ w + b` and its cell as `lstm_cell` above."""
    layers = len(params) // 2
    h_states = [np.zeros((1, hidden))] * layers
    c_states = [None] * layers
    states = []
    for x in rows:
        for layer in range(layers):
            w, b = params[2 * layer], params[2 * layer + 1]
            gates = ad.matmul(ad.concat([x, h_states[layer]], axis=1), w) + b
            x, c_states[layer] = lstm_cell(gates, c_states[layer], hidden)
            h_states[layer] = x
        states.append(x)
    return states


def fit(loss_fn, params, config):
    """`optim.fit` as its own loop: score, keep a copy on a record, step. It
    also takes a last step after the final readout, which nothing reads."""
    theta, params = flat(params)
    opt = Adam(theta.size, lr=config.learning_rate)
    best_loss = np.inf
    best = theta.copy()
    stale = 0
    history = []
    for _ in range(config.max_epochs):
        loss, grad = ad.evaluate_with_gradients(loss_fn, params)
        history.append(loss)
        if loss < best_loss - TOL:
            best_loss, best, stale = loss, theta.copy(), 0
        else:
            stale += 1
            if stale >= config.patience:
                break
        opt.step(theta, grad)
    np.copyto(theta, best)
    return params, history
