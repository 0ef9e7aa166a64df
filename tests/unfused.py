"""The reverse-mode tape, the generic language written on it, and the
references written in that language that the program's losses must match
bit for bit.

The tape: `Tensor`, a node with parent links and a vector-Jacobian product
(VJP); `_node`, which records one over the parents that are Tensors, or
gives the plain value when none is; `_accumulate`, which sums the gradients
that reach a node; and `backward`, which replays the tape in reverse
topological order from a scalar. `taped(build)` turns a composition on it
into a loss of the program's protocol, `(value, VJP)`, so that
`ad.evaluate_with_gradients` runs it like any loss, and `node` records one
of the program's forward/VJP pairs as one tape node (`dense_node`,
`lstm_node`, `mix_decode_node`, `kde_kl_node`, `correlation_pull`).

The language: differentiable primitives on `Tensor` nodes (`add` ...
`concat`, slicing by `getitem`, `transpose`), with numpy broadcasting on
the elementwise binaries, and the operators `+ - * / @`, unary `-`,
indexing and `shape` installed on `Tensor` (`OPERATORS`), so that a
composition reads as the maths. The program has no `Tensor`: every loss
there is one value-and-VJP pair.

The references, written with it: a dense stack (for `ad.dense`), the LSTM
(for `ad.lstm`), the forecaster's forward and loss (for `predictor._forecast`
and `predictor._sequence_loss`), the downstream loss (for `harness.mlp_loss`),
the density baseline's decode, KDE-KL and loss (for
`density_baseline._mix_decode`, `density_baseline.kde_kl` and
`density_baseline.prelim_loss`), the simulator's loss (for
`simulator._objective`), Adam as
one update per parameter array (for `optim.Adam`), and the full-batch loop
that `optim.fit` runs on `optim.train`. Also `same_bits`, the comparison
they are held to."""
from typing import Sequence

import numpy as np

from driftsim import autodiff as ad
from driftsim import density_baseline, simulator
from driftsim.autodiff import unbroadcast
from driftsim.datasets import CLASSIFICATION
from driftsim.optim import BETA1, BETA2, EPS, TOL, Adam, flat
from driftsim.predictor import FRO_GUARD
from driftsim.simulator import EPS_VAR


def same_bits(a, b) -> bool:
    """Equal shapes and float64 bit patterns (so -0.0 differs from +0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# -- the tape --------------------------------------------------------------

class Tensor:
    """One node of the compute tape: a value that depends on a parameter.

    `value` is a C-contiguous float64 ndarray (row-major flat storage plus a
    shape).  Interior nodes carry a `_vjp` closure that scatters the incoming
    gradient onto their `_parents`, the inputs that are Tensors; a boxed
    parameter has neither.
    """

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents: tuple = (), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def _val(x) -> np.ndarray:
    """The array behind `x`: a Tensor's value, else `x` as float64."""
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _node(value, parents, vjp):
    """A tape node over the parents that are Tensors, or, with none, the
    plain value."""
    parents = tuple(p for p in parents if isinstance(p, Tensor))
    return Tensor(value, parents, vjp) if parents else value


def _accumulate(t, g: np.ndarray) -> None:
    if not isinstance(t, Tensor):
        return
    # no VJP writes into a gradient and every sum below is out of place, so
    # the first gradient can be kept without a copy
    if t.grad is None:
        t.grad = np.asarray(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def backward(loss: Tensor, g=1.0) -> None:
    """Backpropagate `g` from a scalar node, populating `.grad` on the tape."""
    if loss.value.shape != ():
        raise ValueError(f"backward expects a scalar, got shape {loss.value.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.asarray(g, dtype=np.float64)
    for node in reversed(topo):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)


def taped(build):
    """`build(params)`, a composition on the tape, as a loss function of the
    program's protocol: it boxes each param in a Tensor and returns the
    output's value and a VJP that replays the tape from the output and gives
    each param's gradient (None where the replay never reached)."""
    def loss_fn(params):
        boxed = [Tensor(p) for p in params]
        out = build(boxed)

        def vjp(g):
            if isinstance(out, Tensor):
                backward(out, g)
            return [p.grad for p in boxed]

        return _val(out), vjp

    return loss_fn


def node(value, vjp, parents):
    """A forward/VJP pair of the program as one tape node over `parents`:
    `vjp(g)` gives one gradient per parent, in order (None for none), and
    the replay reaches the parents in that order."""
    def tape_vjp(g):
        for p, gp in zip(parents, vjp(g), strict=True):
            _accumulate(p, gp)

    return _node(value, parents, tape_vjp)


def dense_node(params, x, act=None, last=None):
    """`ad.dense` as one node over x, then the params, from `ad.stack` and
    `ad.stack_vjp`."""
    values = [_val(p) for p in params]
    acts = ad.stack(values, _val(x), act, last)

    def vjp(g):
        gx, grads = ad.stack_vjp(g, values, acts, act, last, isinstance(x, Tensor))
        return [gx, *grads]

    return node(acts[-1], vjp, (x, *params))


def lstm_node(params, rows):
    """`ad.lstm` as one node over the rows from last to first, then the
    params, with one view node per step's output."""
    outputs, lstm_vjp = ad.lstm([_val(p) for p in params], [_val(r) for r in rows])

    def vjp(g):
        grads, g_rows = lstm_vjp(list(g))
        return [*reversed(g_rows), *grads]

    stack = node(np.stack(outputs), vjp, (*reversed(rows), *params))
    if not isinstance(stack, Tensor):
        return outputs

    def view(t):
        def out_vjp(g_out):
            padded = np.full_like(stack.value, -0.0)
            padded[t] = g_out
            _accumulate(stack, padded)

        return _node(outputs[t], (stack,), out_vjp)

    return [view(t) for t in range(len(rows))]


def mix_decode_node(params, state):
    """`density_baseline._mix_decode` as one node over the state, then the
    params."""
    rows, decode_vjp = density_baseline._mix_decode([_val(p) for p in params], _val(state))

    def vjp(g):
        grads, g_state = decode_vjp(g)
        return [g_state, *grads]

    return node(rows, vjp, (state, *params))


def kde_kl_node(rows, classes, grid, truth_sides):
    """`density_baseline.kde_kl` as one node over the rows of every truth
    domain."""
    value, vjp = density_baseline.kde_kl([_val(r) for r in rows], classes, grid, truth_sides)
    return node(value, vjp, tuple(rows))


# -- primitives ------------------------------------------------------------

def add(a, b):
    av, bv = _val(a), _val(b)

    def vjp(g):
        _accumulate(a, unbroadcast(g, av.shape))
        _accumulate(b, unbroadcast(g, bv.shape))

    return _node(av + bv, (a, b), vjp)


def sub(a, b):
    av, bv = _val(a), _val(b)

    def vjp(g):
        _accumulate(a, unbroadcast(g, av.shape))
        if isinstance(b, Tensor):
            _accumulate(b, unbroadcast(-g, bv.shape))

    return _node(av - bv, (a, b), vjp)


def mul(a, b):
    av, bv = _val(a), _val(b)

    def vjp(g):
        if isinstance(a, Tensor):
            _accumulate(a, unbroadcast(g * bv, av.shape))
        if isinstance(b, Tensor):
            _accumulate(b, unbroadcast(g * av, bv.shape))

    return _node(av * bv, (a, b), vjp)


def div(a, b):
    av, bv = _val(a), _val(b)

    def vjp(g):
        if isinstance(a, Tensor):
            _accumulate(a, unbroadcast(g / bv, av.shape))
        if isinstance(b, Tensor):
            _accumulate(b, unbroadcast(-g * av / (bv * bv), bv.shape))

    return _node(av / bv, (a, b), vjp)


def neg(a):
    def vjp(g):
        _accumulate(a, -g)

    return _node(-_val(a), (a,), vjp)


def matmul(a, b):
    av, bv = _val(a), _val(b)
    ad._check_matmul(av, bv)

    def vjp(g):
        _accumulate(a, g @ bv.T)
        _accumulate(b, av.T @ g)

    return _node(av @ bv, (a, b), vjp)


def tanh(a):
    out = np.tanh(_val(a))

    def vjp(g):
        _accumulate(a, g * (1.0 - out * out))

    return _node(out, (a,), vjp)


def sigmoid(a):
    out = ad.sigmoid(_val(a))

    def vjp(g):
        _accumulate(a, g * out * (1.0 - out))

    return _node(out, (a,), vjp)


def exp(a):
    out = np.exp(_val(a))

    def vjp(g):
        _accumulate(a, g * out)

    return _node(out, (a,), vjp)


def log(a):
    av = _val(a)

    def vjp(g):
        _accumulate(a, g / av)

    return _node(np.log(av), (a,), vjp)


def sqrt(a):
    out = np.sqrt(_val(a))

    def vjp(g):
        _accumulate(a, g * 0.5 / out)

    return _node(out, (a,), vjp)


def relu(a):
    av = _val(a)
    mask = av > 0.0

    def vjp(g):
        _accumulate(a, g * mask)

    return _node(av * mask, (a,), vjp)


def absolute(a):
    # subgradient 0 at the kink
    av = _val(a)
    s = np.sign(av)

    def vjp(g):
        _accumulate(a, g * s)

    return _node(np.abs(av), (a,), vjp)


def clip(a, lo: float, hi: float):
    """Clamp with zero gradient outside [lo, hi]."""
    av = _val(a)
    mask = (av >= lo) & (av <= hi)

    def vjp(g):
        _accumulate(a, g * mask)

    return _node(np.clip(av, lo, hi), (a,), vjp)


def reduce_sum(a, axis: int | None = None, keepdims: bool = False):
    av = _val(a)

    def vjp(g):
        g = np.asarray(g, dtype=np.float64)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, av.shape))

    return _node(av.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def reduce_mean(a, axis: int | None = None, keepdims: bool = False):
    av = _val(a)
    n = av.size if axis is None else av.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def concat(tensors: Sequence, axis: int = 0):
    values = [_val(t) for t in tensors]
    offsets = np.cumsum([0] + [v.shape[axis] for v in values])

    def vjp(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _node(np.concatenate(values, axis=axis), tuple(tensors), vjp)


def getitem(a, key):
    """`a[key]` as a node; a repeated index receives every gradient."""
    out = _val(a)[key]

    def vjp(g):
        full = np.zeros_like(a.value)
        np.add.at(full, key, g)
        _accumulate(a, full)

    return _node(out.copy(), (a,), vjp)


def transpose(a):
    """`a.T` as a tape node."""
    def vjp(g):
        _accumulate(a, g.T)

    return _node(_val(a).T.copy(), (a,), vjp)


OPERATORS = {
    "__add__": add,
    "__radd__": lambda a, b: add(b, a),
    "__sub__": sub,
    "__rsub__": lambda a, b: sub(b, a),
    "__mul__": mul,
    "__rmul__": lambda a, b: mul(b, a),
    "__truediv__": div,
    "__rtruediv__": lambda a, b: div(b, a),
    "__neg__": neg,
    "__matmul__": matmul,
    "__getitem__": getitem,
    "__array_ufunc__": None,  # so `array op tensor` calls the reflected operators
    "shape": property(lambda a: a.value.shape),
}
for _name, _attr in OPERATORS.items():
    setattr(Tensor, _name, _attr)

# the primitive behind each activation that `ad.dense` accepts
ACTIVATIONS = {None: None, ad.tanh: tanh, ad.relu: relu}


# -- references ------------------------------------------------------------

def dense(params, x, act=None, last=None):
    """`ad.dense` as a chain of per-layer matmul, add and activation nodes,
    each allocating its result."""
    for i in range(0, len(params), 2):
        x = matmul(x, params[i]) + params[i + 1]
        layer_act = ACTIVATIONS[act if i + 2 < len(params) else last]
        if layer_act is not None:
            x = layer_act(x)
    return x


def bce(p, t):
    """Elementwise -(t log q + (1 - t) log(1 - q)) of probabilities `p`
    clipped to q in [CLAMP, 1 - CLAMP], against targets `t`."""
    q = clip(p, ad.CLAMP, 1.0 - ad.CLAMP)
    return -(t * log(q) + (1.0 - t) * log(1.0 - q))


def forward_sequence(params, rows):
    """`predictor._forecast` written with primitives only, on the
    forecaster's flat params: the embedding's matmul and add, `lstm_stack`
    below, and the head's matmul, add and tanh, per step."""
    w_embed, b_embed, w_head, b_head = params[0], params[1], params[-2], params[-1]
    states = lstm_stack(params[2:-2], [matmul(row, w_embed) + b_embed for row in rows],
                        _val(params[3]).shape[1] // 4)
    return [tanh(x @ w_head + b_head) for x in states]


def sequence_loss(params, rows, tgt, m, config):
    """`predictor._sequence_loss` as the composition over the stacked head
    outputs of `forward_sequence`: per step Frobenius + elementwise-L1 +
    lambda_ce * mean BCE."""
    pred = concat(forward_sequence(params, rows), axis=0)
    diff = pred - tgt
    # one Frobenius norm per step, then their sum
    fro = reduce_sum(sqrt(reduce_sum(diff * diff, axis=1) * 2.0 + FRO_GUARD))
    l1 = reduce_sum(absolute(diff)) * 2.0
    bce_off = bce((pred + 1.0) * 0.5, (tgt + 1.0) * 0.5)
    diag_const = -m * np.log(1.0 - ad.CLAMP) * len(rows)
    mean_bce = (reduce_sum(bce_off) * 2.0 + diag_const) * (1.0 / (m * m))
    return fro + l1 + mean_bce * config.lambda_ce


def mlp_loss(params, x, y, task):
    """`harness.mlp_loss` as `dense` and the composition of its loss: the
    clipped BCE mean of the sigmoid, or the mean squared error."""
    out = dense(params, x, ad.relu)
    if task == CLASSIFICATION:
        return reduce_mean(bce(sigmoid(out), y))
    diff = out - y
    return reduce_mean(diff * diff)


def decode_rows(params, state):
    """The rows that prelim decodes from `state`, given all its params (the
    LSTM's, then the decoder's), as the mixing layer's composition, then
    `dense` (for `density_baseline._mix_decode`)."""
    _, _, embed, w_e, w_s, b_mix = params[:6]
    mix = tanh(matmul(embed, w_e) + matmul(state, w_s) + b_mix)
    return dense(params[6:], mix, last=ad.tanh)


def correlation_pull(decoder, z, label, target, eps):
    """The pull term of `simulator._objective` alone, as one node over the
    decoder params, from its own forward and VJP, `simulator._correlation_pull`."""
    value, pull_vjp = simulator._correlation_pull([_val(p) for p in decoder], _val(z),
                                                  label, target, eps)
    return node(value, pull_vjp, tuple(decoder))


def pearson(batch, eps):
    """The Pearson matrix inside the correlation pull as the composition of
    mean, matmul, sqrt and divide nodes."""
    n = batch.shape[0]
    centered = batch - reduce_mean(batch, axis=0, keepdims=True)
    cov = transpose(centered) @ centered * (1.0 / n)
    var = reduce_mean(centered * centered, axis=0, keepdims=True)
    std = sqrt(var + eps)
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
    features = tanh(out[:, 0:m - 1])
    label = sigmoid(out[:, m - 1:m]) if task == CLASSIFICATION else tanh(out[:, m - 1:m])
    return concat([features, label], axis=1)


def neg_elbo(params, config, rows, noise, task):
    """The negative ELBO of `simulator._objective` as elementwise,
    reduction and dense nodes."""
    mu, logvar = encode(params, config, rows)
    sigma = exp(logvar * 0.5)
    z = mu + sigma * noise
    recon = decode(params[2 * config.encoder_layers + 4:], z, task)
    diff = recon - rows
    recon_term = reduce_sum(diff * diff) * (0.5 / config.obs_variance)
    kl = (reduce_sum(mu * mu) + reduce_sum(exp(logvar))
          - reduce_sum(logvar)) * 0.5 - 0.5 * mu.shape[0] * mu.shape[1]
    n = rows.shape[0]
    return (recon_term + kl) * (1.0 / n)


def regularizer(batch, target):
    """The L1 of the correlation pull, on a batch of rows."""
    return reduce_sum(absolute(pearson(batch, EPS_VAR) - target))


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
    dens = reduce_sum(exp(diff * diff * (-0.5)), axis=1)
    p = dens * (1.0 / reduce_sum(dens)) * prior
    return reduce_sum(p * (log(p) - log_q))


def kde_kl(rows, classes, grid, truth_sides):
    """`density_baseline.kde_kl` as a chain of the terms above: summed per
    domain in feature-then-class order, the domain sums left to right, then
    scaled by 1 / (truth domains)."""
    loss = None
    for r, side in zip(rows, truth_sides, strict=True):
        domain = None
        for column, per_class in enumerate(side):
            for idx, (prior, bandwidth, log_q) in zip(classes, per_class, strict=True):
                term = kde_kl_term(r, column, idx, grid, bandwidth, prior, log_q)
                domain = term if domain is None else domain + term
        loss = domain if loss is None else loss + domain
    return loss * (1.0 / len(rows))


def prelim_loss(params, summaries, classes, grid, truth_sides):
    """`density_baseline.prelim_loss` as `lstm_stack` over the summaries,
    `decode_rows` of each state and `kde_kl` of them."""
    states = lstm_stack(params[:2], summaries, _val(params[1]).shape[1] // 4)
    return kde_kl([decode_rows(params, s) for s in states], classes, grid, truth_sides)


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
    """One step of a cell of `ad.lstm`, as sigmoid/tanh nodes on gate
    slices; `c_prev` is None on a layer's first step."""
    i = sigmoid(gates[:, 0:hidden])
    f = sigmoid(gates[:, hidden:2 * hidden])
    g = tanh(gates[:, 2 * hidden:3 * hidden])
    o = sigmoid(gates[:, 3 * hidden:4 * hidden])
    c = i * g if c_prev is None else f * c_prev + i * g
    return o * tanh(c), c


def lstm_stack(params, rows, hidden):
    """`ad.lstm` cell by cell, each step's gates as
    `concat([x, h]) @ w + b` and its cell as `lstm_cell` above."""
    layers = len(params) // 2
    h_states = [np.zeros((1, hidden))] * layers
    c_states = [None] * layers
    states = []
    for x in rows:
        for layer in range(layers):
            w, b = params[2 * layer], params[2 * layer + 1]
            gates = matmul(concat([x, h_states[layer]], axis=1), w) + b
            x, c_states[layer] = lstm_cell(gates, c_states[layer], hidden)
            h_states[layer] = x
        states.append(x)
    return states


def fit(loss_fn, params, config):
    """`optim.fit` as its own loop: score, keep a copy on a record, step. It
    also takes a last step after the final readout, which nothing reads."""
    theta, params = flat(params)
    grad = np.empty_like(theta)
    grads = ad.views(grad, params)
    opt = Adam(theta.size, lr=config.learning_rate)
    best_loss = np.inf
    best = theta.copy()
    stale = 0
    history = []
    for _ in range(config.max_epochs):
        loss = ad.evaluate_with_gradients(loss_fn, params, grads)
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
