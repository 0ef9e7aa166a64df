"""Reverse-mode automatic differentiation over small dense float64 tensors.

A `Tensor` is a value on the gradient path, and nothing else: a tape node
with parent links and a vector-Jacobian product, with no operators.
`evaluate_with_gradients` boxes each parameter in a `Tensor`; the model
functions call fused nodes that take and return plain float64 ndarrays and
record a `Tensor` node only when one of their inputs is a `Tensor`. So a
forward-only pass, `evaluate_value` or a model function called on the
parameter arrays themselves, records no tape. `backward` replays the tape in
reverse topological order. Float64 only, no GPU.

Each node computes a whole piece of a model's loss with a hand-written VJP:
`dense` a stack of `act(x @ w + b)` layers; `lstm_stack` a stacked LSTM over
a whole sequence (with one view node per step's output); `forecast_loss` the
forecaster's Frobenius + L1 + weighted BCE over every step; `mlp_loss` the
downstream ReLU net with its clipped BCE or squared-error mean;
`mix_decode` the density baseline's mixing layer and output stack;
`gaussian_elbo` the simulator's negative ELBO (encoder, reparameterization,
decoder, reconstruction and KL), optionally plus a weighted L1 between the
Pearson matrix of decoded prior draws and a target; and `kde_kl` the density
baseline's whole KDE-KL, every class-conditional term of every truth
domain, over the rows generated for those domains. Every feed-forward layer
runs one stack forward and VJP (`_stack`, `_stack_vjp`, over `_layer`,
`_layer_vjp`), and both BCE losses run one clipped BCE (`_bce`). The VJPs
repeat the elementwise arithmetic of the composition of generic primitives
in `tests/unfused.py` in the same order, sum the gradients of a value that
reached several of its nodes in the order `backward` reached those nodes,
and list their parents in the order `backward`'s depth-first search reached
them, so every gradient, and every trained parameter, is bit-identical to
what that composition gives. `kde_kl` is a sum of independent terms, so it
forms each term's gradient in the forward, right after the term's value,
for the upstream gradient the loss root hands it, and drops the term's
kernel matrix before the next; its VJP only scales those gradients, which
is exact at the root.  No VJP writes into the gradient it is given.

`tanh`, `relu` and `sigmoid` name the activations that `dense`, `decode`
and the simulator's node accept; called on an array, each is that function.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "Tensor",
    "NonFiniteLossError",
    "CLAMP",
    "FRO_GUARD",
    "evaluate_with_gradients",
    "evaluate_value",
    "backward",
    "tanh",
    "relu",
    "sigmoid",
    "dense",
    "lstm_stack",
    "forecast_loss",
    "mlp_loss",
    "mix_decode",
    "decode",
    "gaussian_elbo",
    "kde_kl",
]

CLAMP = 1e-6  # probabilities are clipped to [CLAMP, 1 - CLAMP] before a log
FRO_GUARD = 1e-24  # keeps the Frobenius norm's sqrt differentiable at zero


class NonFiniteLossError(ArithmeticError):
    """Raised when a scalar loss evaluates to NaN or infinity."""


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


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape`, inverting numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_matmul(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")


# -- activations -----------------------------------------------------------

def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def relu(x: np.ndarray) -> np.ndarray:
    return x * (x > 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


# -- fused nodes -----------------------------------------------------------

def _layer(x: np.ndarray, w: np.ndarray, b: np.ndarray, act) -> np.ndarray:
    """`act(x @ w + b)` with `act` None (linear), `tanh` or `relu`: the bias
    is added and the activation applied in place on the fresh product."""
    out = x @ w
    out += b
    if act is tanh:
        np.tanh(out, out=out)
    elif act is relu:
        out *= out > 0.0
    return out


def _layer_vjp(g, x, w, b, out, act, x_grad: bool = True) -> tuple:
    """(x, w, b) gradients of `out = _layer(x, w, b, act)` given `g`: the
    activation's derivative in one new buffer, then the `add` and `matmul`
    VJPs, so each equals the three-node composition's bit for bit. The x
    gradient is None unless `x_grad`."""
    if act is tanh:
        d = out * out
        np.subtract(1.0, d, out=d)
        g = np.multiply(d, g, out=d)
    elif act is relu:
        g = g * (out > 0.0)  # where x @ w + b > 0: relu keeps exactly those
    return (g @ w.T if x_grad else None), x.T @ g, _unbroadcast(g, b.shape)


def lstm_stack(params, rows) -> list:
    """The top layer's hidden state after each row of a stacked LSTM, the
    whole stack over the sequence recorded as one node.

    `params` is [w1, b1, w2, b2, ...]: per layer a (input + hidden, 4 *
    hidden) weight and a (1, 4 * hidden) bias, gates laid out
    [input|forget|cell|output]. Each 1-row `rows` entry feeds layer 0; every
    layer starts from a zero h and no cell state, and its h feeds the layer
    above. Cell (k, t) computes `concat([x, h]) @ w_k + b_k`, then
    c = f * c_prev + i * g (i * g at t = 0) and h = o * tanh(c).

    The value is the grid of hidden states in wavefront order: `value[d + 1,
    k]` is layer k's h at step d - k (zeros before a layer's first step).
    A diagonal's cells need only the diagonal before, so the forward and
    the VJP sweep one diagonal at a time: layers 1.. as one stacked matmul,
    layer 0 (another input width) beside them. Each step's output is a view
    node on the grid, or, when no param or row is a Tensor, a plain view.

    The VJP repeats the arithmetic of the per-cell composition of matmul,
    concat, sigmoid and tanh nodes (`tests/unfused.py`): every h and c sums its at
    most two gradients, each gate gradient is the zero-padded sum of its h
    and c parts, and each w_k and b_k sums its steps from the last to the
    first, the order the per-cell tape forced; accumulators start at -0.0,
    the identity of IEEE addition. The rows are parents from last to first,
    the order `backward` reached them through the per-cell tape. So the
    gradients are bit-identical to that tape's, provided the params and the
    rows feed nothing else.
    """
    values = [_val(p) for p in params]
    row_values = [_val(r) for r in rows]
    w = values[0::2]
    b = np.stack(values[1::2])
    layers, steps = len(w), len(rows)
    n, rest = divmod(b.shape[2], 4)
    if rest:
        raise ValueError(f"gate width {b.shape[2]} is not a multiple of 4")
    n_in = w[0].shape[0] - n
    if any(r.shape != (1, n_in) for r in row_values):
        raise ValueError(f"lstm_stack rows must each be of shape (1, {n_in})")
    w_up = np.stack(w[1:]) if layers > 1 else None
    diagonals = steps + layers - 1
    spans = [(max(0, d - steps + 1), min(layers - 1, d)) for d in range(diagonals)]
    # cell (k, t) is at [t + k, k]: its gate sigmoids, tanh(g) and tanh(c);
    # its h and c are at [t + k + 1, k]
    h = np.zeros((diagonals + 1, layers, n))
    c = np.zeros_like(h)
    sig = np.zeros((diagonals, layers, 4 * n))
    g = np.zeros((diagonals, layers, n))
    tc = np.zeros_like(g)
    for d, (lo, hi) in enumerate(spans):
        up = max(lo, 1)
        z = np.empty((hi - lo + 1, 1, 4 * n))
        if lo == 0:
            x = np.concatenate([row_values[d], h[d, 0:1]], axis=1)
            np.matmul(x, w[0], out=z[0])
        if up <= hi:
            x = np.concatenate([h[d, up - 1:hi], h[d, up:hi + 1]], axis=1)
            np.matmul(x.reshape(hi - up + 1, 1, 2 * n), w_up[up - 1:hi], out=z[up - lo:])
        z += b[lo:hi + 1]
        z = z.reshape(hi - lo + 1, 4 * n)
        s = np.negative(z, out=sig[d, lo:hi + 1])      # sigmoid, as 1 / (1 + exp(-z))
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        gd = np.tanh(z[:, 2 * n:3 * n], out=g[d, lo:hi + 1])
        cd = np.multiply(s[:, n:2 * n], c[d, lo:hi + 1], out=c[d + 1, lo:hi + 1])
        ig = s[:, :n] * gd
        cd += ig
        if hi == d:                                      # layer d's first step
            cd[-1] = ig[-1]
        np.tanh(cd, out=tc[d, lo:hi + 1])
        np.multiply(s[:, 3 * n:], tc[d, lo:hi + 1], out=h[d + 1, lo:hi + 1])

    def vjp(grad):
        gh_all = grad.copy()
        gc_all = np.full_like(grad, -0.0)
        i, f, o = sig[..., :n], sig[..., n:2 * n], sig[..., 3 * n:]
        dtc = tc * tc                                    # 1 - tanh(c)^2
        np.subtract(1.0, dtc, out=dtc)
        dg = g * g                                       # 1 - tanh(g)^2
        np.subtract(1.0, dg, out=dg)
        # per gate block, the three factors after the cell's gc (gh for o):
        # i: g, i, 1 - i; f: c_prev, f, 1 - f; g: i, 1 - g^2, 1; o: tanh(c), o, 1 - o
        first = np.concatenate([g, c[:-1], i, tc], axis=2)
        second = np.concatenate([i, f, dg, o], axis=2)
        third = np.subtract(1.0, second)
        third[..., 2 * n:3 * n] = 1.0
        dz_all = np.zeros_like(sig)
        g_rows = [None] * steps
        w0_t = w[0].T
        w_up_t = w_up.swapaxes(1, 2) if layers > 1 else None
        for d in reversed(range(diagonals)):
            lo, hi = spans[d]
            up = max(lo, 1)
            cells = slice(lo, hi + 1)
            gh = gh_all[d + 1, cells]
            gc = gh * o[d, cells]
            gc *= dtc[d, cells]
            gc += gc_all[d + 1, cells]
            dz = np.concatenate([gc, gc, gc, gh], axis=1, out=dz_all[d, cells])
            dz *= first[d, cells]
            dz *= second[d, cells]
            dz *= third[d, cells]
            if hi == d:                                  # no c_prev: the f block stays 0
                dz[-1, n:2 * n] = 0.0
            dz += 0.0                                    # the zero padding: -0.0 -> +0.0
            gc *= f[d, cells]
            gc_all[d, cells] += gc
            if lo == 0:
                gx = dz[0:1] @ w0_t
                g_rows[d] = gx[:, :n_in]
                gh_all[d, 0] += gx[0, n_in:]
            if up <= hi:
                k = hi - up + 1
                gx = (dz[up - lo:].reshape(k, 1, 4 * n) @ w_up_t[up - 1:hi]).reshape(k, 2 * n)
                gh_all[d, up - 1:hi] += gx[:, :n]
                gh_all[d, up:hi + 1] += gx[:, n:]
        # per layer and step, in (k, t) order: the gate gradient and the
        # matmul input, whose outer products sum into w_k from t = T-1 down
        t_idx = np.arange(steps)
        k_idx = np.arange(layers)[:, None]
        dz_kt = dz_all[t_idx + k_idx, k_idx]
        x0 = np.concatenate([np.concatenate(row_values), h[t_idx, 0]], axis=1)
        gb = np.full_like(b, -0.0)
        gw = [np.full_like(w[0], -0.0)]
        if layers > 1:
            k_up = k_idx[1:]
            x_up = np.concatenate([h[t_idx + k_up, k_up - 1], h[t_idx + k_up, k_up]], axis=2)
            gw.append(np.full_like(w_up, -0.0))
        for t in reversed(range(steps)):
            gb += dz_kt[:, t, None]
            gw[0] += x0[t].reshape(-1, 1) @ dz_kt[0, t].reshape(1, 4 * n)
            if layers > 1:
                gw[1] += (x_up[:, t].reshape(layers - 1, 2 * n, 1)
                          @ dz_kt[1:, t].reshape(layers - 1, 1, 4 * n))
        _accumulate(params[0], gw[0])
        for k in range(layers):
            if k:
                _accumulate(params[2 * k], gw[1][k - 1])
            _accumulate(params[2 * k + 1], gb[k])
        for row, g_row in zip(rows, g_rows):
            _accumulate(row, g_row)

    node = _node(h, (*reversed(rows), *params), vjp)
    if not isinstance(node, Tensor):
        return [h[d + 1, layers - 1:layers] for d in range(layers - 1, diagonals)]

    def output(t):
        d = t + layers - 1

        def out_vjp(g_out):
            if node.grad is None:
                node.grad = np.full_like(h, -0.0)
            node.grad[d + 1, layers - 1] += g_out[0]

        return _node(h[d + 1, layers - 1:layers], (node,), out_vjp)

    return [output(t) for t in range(steps)]


def _stack(params, x, act, last) -> list:
    """The input and each layer's output of the [w, b] pairs of `params`
    applied to `x`: `act` after every pair but the last, `last` after it."""
    acts = [x]
    for i in range(0, len(params), 2):
        _check_matmul(acts[-1], params[i])
        acts.append(_layer(acts[-1], params[i], params[i + 1],
                           act if i + 2 < len(params) else last))
    return acts


def _stack_vjp(g, params, acts, act, last, x_grad: bool) -> tuple:
    """(input gradient or None, one gradient per param) of `_stack`, given
    the gradient `g` of its last output: `_layer_vjp` from the top layer down."""
    grads = [None] * len(params)
    for i in reversed(range(0, len(params), 2)):
        g, grads[i], grads[i + 1] = _layer_vjp(g, acts[i // 2], params[i], params[i + 1],
                                               acts[i // 2 + 1],
                                               act if i + 2 < len(params) else last,
                                               x_grad or i > 0)
    return g, grads


def dense(params, x, act=None, last=None):
    """The [w, b] pairs of `params` applied to `x` as one node: `act` after
    every pair but the last, `last` after it, each None (linear), `tanh` or
    `relu`.

    The value and the gradients equal those of the chain of per-layer
    matmul, add and activation nodes bit for bit: the VJP makes the same
    `_layer_vjp` calls, in the order `backward` ran that chain.
    """
    if act not in (None, tanh, relu) or last not in (None, tanh, relu):
        raise ValueError("dense activations must be None, tanh or relu")
    values = [_val(p) for p in params]
    acts = _stack(values, _val(x), act, last)

    def vjp(g):
        gx, grads = _stack_vjp(g, values, acts, act, last, isinstance(x, Tensor))
        _accumulate(x, gx)
        for p, gp in zip(params, grads):
            _accumulate(p, gp)

    # backward's search reaches the last b first and x last, as it did
    # through the chain of add and matmul nodes
    return _node(acts[-1], (x, *params), vjp)


def _bce(p: np.ndarray, t: np.ndarray) -> tuple:
    """(the elementwise -(t log q + (1 - t) log(1 - q)) of probabilities `p`
    clipped to q in [CLAMP, 1 - CLAMP] against targets `t`, its VJP: the
    gradient of `p` given that of the values). The VJP takes the negation,
    then log q, then log(1 - q) and the clip, as `backward` ran them."""
    q = np.clip(p, CLAMP, 1.0 - CLAMP)
    q_c = 1.0 - q
    value = -(t * np.log(q) + (1.0 - t) * np.log(q_c))

    def vjp(g):
        g = -g
        g_q = g * t / q
        g_q = g_q + -(g * (1.0 - t) / q_c)
        return g_q * ((p >= CLAMP) & (p <= 1.0 - CLAMP))

    return value, vjp


def forecast_loss(heads, target, m: int, lambda_ce: float):
    """The forecaster's loss over its one-step-ahead forecasts as one node
    over the (1, p) head outputs `heads`, the flattened upper triangles of m x
    m matrices, against the rows of `target`: summed over the steps, the
    Frobenius norm and the elementwise L1 of the full matrix's error (each
    off-diagonal entry counts twice; `FRO_GUARD` under the square root),
    plus `lambda_ce` times the clipped BCE mean over the m² entries mapped
    from [-1, 1] to [0, 1]. The diagonal is exactly 1 on both sides, so it
    adds nothing to the norms and one clamp constant per step to the BCE.

    The forward and the VJP repeat the composition in `tests/unfused.py`
    (the heads concatenated, then elementwise and reduction nodes) in the
    order `backward` ran it, so the value and every gradient are
    bit-identical to it: the error sums its gradient from its square, then
    from its absolute value, and the stacked heads from the error, then from
    the BCE.
    """
    pred = np.concatenate([_val(h) for h in heads], axis=0)
    diff = pred - target
    norms = np.sqrt((diff * diff).sum(axis=1) * 2.0 + FRO_GUARD)
    bce, bce_vjp = _bce((pred + 1.0) * 0.5, (target + 1.0) * 0.5)
    diag = -m * np.log(1.0 - CLAMP) * len(heads)
    inv_mm = 1.0 / (m * m)
    value = ((norms.sum() + np.abs(diff).sum() * 2.0)
             + (bce.sum() * 2.0 + diag) * inv_mm * lambda_ce)

    def vjp(g):
        g_sq = (g * 0.5 / norms * 2.0)[:, None]
        g_pred = g_sq * diff
        g_pred = g_pred + g_sq * diff
        g_pred = g_pred + g * 2.0 * np.sign(diff)
        g_bce = np.broadcast_to(g * lambda_ce * inv_mm * 2.0, bce.shape)
        g_pred = g_pred + bce_vjp(g_bce) * 0.5
        for i, h in enumerate(heads):
            _accumulate(h, g_pred[i:i + 1])

    return _node(value, tuple(heads), vjp)


def mlp_loss(params, x, y, classify: bool):
    """The downstream model's loss as one node over the [w, b] pairs of
    `params`: the mean, over the entries of `out = dense(params, x, relu)`,
    of the clipped BCE of `sigmoid(out)` against the 0/1 targets `y` when
    `classify`, else of the squared error `(out - y)²`.

    The forward and the VJP repeat the composition in `tests/unfused.py`
    (`dense`, the sigmoid and the BCE or the difference and its square, then
    the mean) in the order `backward` ran it, so the value and every
    gradient are bit-identical to it.
    """
    values = [_val(p) for p in params]
    acts = _stack(values, _val(x), relu, None)
    out = acts[-1]
    inv_n = 1.0 / out.size
    if classify:
        prob = sigmoid(out)
        terms, bce_vjp = _bce(prob, y)
    else:
        diff = out - y
        terms = diff * diff
    value = terms.sum() * inv_n

    def vjp(g):
        g_terms = np.broadcast_to(g * inv_n, terms.shape)
        if classify:
            g_out = bce_vjp(g_terms) * prob * (1.0 - prob)
        else:  # the square reaches the difference twice
            g_out = g_terms * diff
            g_out = g_out + g_terms * diff
        gx, grads = _stack_vjp(g_out, values, acts, relu, None, isinstance(x, Tensor))
        _accumulate(x, gx)
        for p, gp in zip(params, grads):
            _accumulate(p, gp)

    return _node(value, (x, *params), vjp)


def mix_decode(params, state):
    """The density baseline's decoded rows as one node: `params` is [embed,
    w_e, w_s, b, then [w, b] pairs]; each row of `embed` is mixed with the
    (1, hidden) `state` as `tanh(embed @ w_e + state @ w_s + b)`, and the
    pairs map the mix as `dense(pairs, mix, last=tanh)`.

    The forward and the VJP repeat the composition in `tests/unfused.py`
    (two matmuls, two broadcasting adds, tanh, then `dense`) in the order
    `backward` ran it, so the value and every gradient are bit-identical to
    it.
    """
    values = [_val(p) for p in params]
    embed, w_e, w_s, b = values[:4]
    s = _val(state)
    mix = np.tanh(embed @ w_e + s @ w_s + b)
    acts = _stack(values[4:], mix, None, tanh)

    def vjp(g):
        g_mix, g_out = _stack_vjp(g, values[4:], acts, None, tanh, True)
        g_mix = g_mix * (1.0 - mix * mix)
        g_s = _unbroadcast(g_mix, (s.shape[0], w_s.shape[1]))
        _accumulate(state, g_s @ w_s.T)
        for p, gp in zip(params, (g_mix @ w_e.T, embed.T @ g_mix, s.T @ g_s,
                                  _unbroadcast(g_mix, b.shape), *g_out)):
            _accumulate(p, gp)

    return _node(acts[-1], (state, *params), vjp)


def _decode(decoder, z, label) -> tuple:
    """(the decoder stack's activations, its rows). The stack ends linear;
    each row's last column goes through `label` (`sigmoid` or `tanh`) and
    the others through `tanh`, each part from a copy of its columns, as the
    slicing node made it."""
    acts = _stack(decoder, z, tanh, None)
    out = acts[-1]
    features = out[:, :-1].copy()
    np.tanh(features, out=features)
    last = out[:, -1:].copy()
    last = sigmoid(last) if label is sigmoid else np.tanh(last, out=last)
    return acts, np.concatenate([features, last], axis=1)


def _decode_vjp(g, decoder, acts, rows, label, z_grad: bool) -> tuple:
    """`_stack_vjp` of `_decode` given the gradient `g` of its rows."""
    features, last = rows[:, :-1], rows[:, -1:]
    g_out = np.concatenate([g[:, :-1] * (1.0 - features * features),
                            g[:, -1:] * last * (1.0 - last) if label is sigmoid
                            else g[:, -1:] * (1.0 - last * last)], axis=1)
    g_out += 0.0  # the slicing nodes' zero padding: -0.0 -> +0.0
    return _stack_vjp(g_out, decoder, acts, tanh, None, z_grad)


def decode(decoder, z, label) -> np.ndarray:
    """The rows that the decoder params `decoder` ([w, b] pairs: tanh
    layers, then a linear output) make of the latent draws `z`: the last
    column through `label` (`sigmoid` or `tanh`), the others through tanh.
    Plain arrays in and out; `gaussian_elbo` decodes the same way."""
    return _decode([_val(p) for p in decoder], _val(z), label)[1]


def _elbo(enc, dec, rows, noise, obs_variance: float, label) -> tuple:
    """(the mean negative ELBO of `rows`, its VJP: the gradient of the value
    -> (one gradient per `enc` array, one per `dec` array)); see
    `gaussian_elbo`."""
    n = rows.shape[0]
    trunk = _stack(enc[:-4], rows, tanh, tanh)
    h = trunk[-1]
    mu = _layer(h, enc[-4], enc[-3], None)
    logvar = _layer(h, enc[-2], enc[-1], None)
    sigma = np.exp(logvar * 0.5)
    z = mu + sigma * noise
    acts, recon = _decode(dec, z, label)
    diff = recon - rows
    scale = 0.5 / obs_variance
    var = np.exp(logvar)
    kl = ((mu * mu).sum() + var.sum() - logvar.sum()) * 0.5 - 0.5 * mu.shape[0] * mu.shape[1]
    value = ((diff * diff).sum() * scale + kl) * (1.0 / n)

    def vjp(g):
        g = g * (1.0 / n)                # reaches the reconstruction and the KL
        g_diff = (g * scale) * diff      # diff * diff reaches diff twice
        g_diff += g_diff
        g_z, g_dec = _decode_vjp(g_diff, dec, acts, recon, label, True)
        g_kl = g * 0.5
        g_mu = g_kl * mu
        g_mu = (g_z + g_mu) + g_mu
        g_logvar = ((g_z * noise) * sigma) * 0.5
        g_logvar += g_kl * var
        g_logvar += -g_kl
        g_h, g_mu_w, g_mu_b = _layer_vjp(g_mu, h, enc[-4], enc[-3], mu, None)
        g_h2, g_lv_w, g_lv_b = _layer_vjp(g_logvar, h, enc[-2], enc[-1], logvar, None)
        _, g_enc = _stack_vjp(g_h + g_h2, enc[:-4], trunk, tanh, tanh, False)
        return [*g_enc, g_mu_w, g_mu_b, g_lv_w, g_lv_b], g_dec

    return value, vjp


def _correlation_pull(dec, z, label, target, eps: float) -> tuple:
    """(the elementwise L1 between the Pearson matrix of `decode(dec, z,
    label)` and `target`, its VJP: the gradient of the value -> one gradient
    per `dec` array). Each column's variance is guarded by `eps` inside the
    square root.

    The forward and the VJP repeat the arithmetic of the composition in
    `tests/unfused.py` (`centered = batch - mean(batch)`,
    `cov = centeredᵀ @ centered * (1 / n)`,
    `std = sqrt(mean(centered * centered) + eps)`, `cov / (stdᵀ @ std)`,
    then `sum(abs(· - target))`) in the order `backward` ran it.
    """
    acts, batch = _decode(dec, z, label)
    inv_n = 1.0 / batch.shape[0]
    centered = batch.sum(axis=0, keepdims=True)
    centered *= inv_n
    centered = np.subtract(batch, centered)
    centered_t = centered.T.copy()
    cov = centered_t @ centered
    cov *= inv_n
    sq = centered * centered
    std = sq.sum(axis=0, keepdims=True)
    std *= inv_n
    std += eps
    np.sqrt(std, out=std)
    std_t = std.T.copy()
    den = std_t @ std
    diff = cov / den
    diff -= target

    def vjp(g):
        g = g * np.sign(diff)
        # pearson = cov / den
        g_cov = g / den
        g_den = -g * cov
        g_den /= den * den
        # den = std_t @ std, then std_t = transpose(std)
        g_std = std_t.T @ g_den
        g_std += (g_den @ std.T).T
        # std = sqrt(mean(centered * centered) + eps)
        g_std *= 0.5
        g_std /= std
        g_std *= inv_n
        # cov = (centered_t @ centered) * inv_n, then centered_t = transpose(centered)
        g_cov *= inv_n
        g_c = centered_t.T @ g_cov
        g_c += (g_cov @ centered.T).T
        # centered * centered reaches centered twice
        via_sq = g_std * centered
        g_c += via_sq
        g_c += via_sq
        # centered = batch - mean(batch)
        g_mean = (-g_c).sum(axis=0, keepdims=True)
        g_mean *= inv_n
        g_c += g_mean
        return _decode_vjp(g_c, dec, acts, batch, label, False)[1]

    return np.abs(diff).sum(), vjp


def gaussian_elbo(encoder, decoder, rows, noise, obs_variance: float, label, pull=None):
    """The simulator's loss as one node over the params of `encoder` and
    `decoder`: the mean negative ELBO of `rows`, ½‖x − x̂‖²/`obs_variance`
    plus KL(q(z|x) ‖ N(0, I)), and, when `pull` = (z, target, eps, weight)
    is given, plus `weight` times the correlation pull: the elementwise L1
    between the Pearson matrix of `decode(decoder, z, label)` and `target`,
    each column's variance guarded by `eps` inside the square root.

    `encoder` is the [w, b] pairs of a tanh trunk, then those of the mean
    head and of the log-variance head (both linear). The latent draw is
    `z = mu + exp(logvar * 0.5) * noise`, and x̂ is `decode(decoder, z, label)`.
    The forward and the VJP repeat the arithmetic of the composition in
    `tests/unfused.py` in the order `backward` ran it, so the value and every
    gradient are bit-identical to it. Where a value reached three nodes the
    order matters: `mu` sums its gradient from `z`, then twice from
    `mu * mu`; `logvar` from `exp(logvar * 0.5)`, then `exp(logvar)`, then
    the `-logvar` of the KL. A decoder param sums the ELBO's gradient, then
    the pull's.
    """
    enc = [_val(p) for p in encoder]
    dec = [_val(p) for p in decoder]
    value, elbo_vjp = _elbo(enc, dec, _val(rows), _val(noise), obs_variance, label)
    if pull is not None:
        z, target, eps, weight = pull
        l1, pull_vjp = _correlation_pull(dec, _val(z), label, target, eps)
        value = value + l1 * weight

    def vjp(g):
        g_enc, g_dec = elbo_vjp(g)
        if pull is not None:
            g_dec = [a + b for a, b in zip(g_dec, pull_vjp(g * weight))]
        for p, gp in zip((*encoder, *decoder), (*g_enc, *g_dec)):
            _accumulate(p, gp)

    return _node(value, (*encoder, *decoder), vjp)


def _kde_kl_term(vals, grid, bandwidth: float, prior: float, log_q, g):
    """(`sum(p * (log p - log_q))`, its gradient with respect to `vals` given
    the upstream gradient `g`, or None without one). `p` is `prior` times
    the Gaussian-kernel masses of the samples `vals` on `grid`, normalized
    to sum 1; `diff` and the kernel matrix `e` (grid × samples) live only
    in this call."""
    scale = 1.0 / bandwidth
    diff = np.subtract(grid[:, None], vals)
    diff *= scale
    e = diff * diff
    e *= -0.5
    np.exp(e, out=e)
    dens = e.sum(axis=1)
    total = dens.sum()
    inv = 1.0 / total
    p = dens * inv
    p *= prior
    r = np.log(p)
    r -= log_q
    value = (p * r).sum()
    if g is None:
        return value, None
    # p: through the product, then through log(p)
    gp = g * r
    via_log = g * p
    via_log /= p
    gp += via_log
    gp *= prior
    # dens: through dens * inv, then through inv = 1 / sum(dens)
    gdens = gp * inv
    gdens += -(gp * dens).sum() / (total * total)
    buf = np.multiply(gdens[:, None], e, out=e)
    buf *= -0.5
    buf *= diff
    buf += buf      # diff * diff reaches diff twice
    buf *= scale
    np.negative(buf, out=buf)
    return value, buf.sum(axis=0)


def kde_kl(rows, classes, grid, truth_sides):
    """The density baseline's KDE-KL as one node over the rows generated
    for every truth domain: the mean over domains t of the sum, over
    features `column` and classes c, of `sum(p * (log p - log_q))`.

    `rows[t]` holds the (n, d) rows scored against domain t, and
    `truth_sides[t][column][c]` that domain's (prior, bandwidth, log_q). `p`
    is `prior` times the Gaussian-kernel masses of `rows[t][classes[c],
    column]` (`classes` are disjoint arrays of distinct row indices) on
    `grid`, normalized to sum 1. Each term repeats the composition in
    `tests/unfused.py`; the terms are summed per domain in feature-then-class
    order, the domain sums left to right, then scaled by `1 / len(rows)`, as
    that chain of per-term nodes and `add`s did.

    Where `rows[t]` is a Tensor, each term's gradient is formed right after
    its value, for the upstream gradient `1 / len(rows)` that the chain
    hands every term when the loss is the root of `backward`, so no kernel
    matrix outlives its term; the domain keeps one (n, d) gradient. The VJP
    scales those by the gradient it is given: at `g = 1` the value and every
    gradient are bit-identical to the chain's, otherwise equal up to
    rounding. Plain-array rows record no node and form no gradient.
    """
    weight = 1.0 / len(rows)
    loss, grads = None, []
    for r, side in zip(rows, truth_sides, strict=True):
        rv = _val(r)
        full = np.zeros_like(rv) if isinstance(r, Tensor) else None
        domain = None
        for column, per_class in enumerate(side):
            for idx, (prior, bandwidth, log_q) in zip(classes, per_class, strict=True):
                term, g_vals = _kde_kl_term(rv[idx, column], grid, bandwidth, prior,
                                            log_q, None if full is None else weight)
                if full is not None:
                    full[idx, column] = g_vals
                domain = term if domain is None else domain + term
        grads.append(full)
        loss = domain if loss is None else loss + domain
    loss = loss * weight

    def vjp(g):
        for r, full in zip(rows, grads):
            if full is not None:
                _accumulate(r, full * g)

    return _node(loss, tuple(rows), vjp)


# -- tape replay ----------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar node, populating `.grad` on the tape."""
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
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(topo):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)


# loss_fn(params) -> scalar, closing over its data as arrays. Given boxed
# params it records a tape, given the arrays it records none; each call
# re-runs it, so it may contain data-dependent Python control flow
LossFn = Callable[[list], object]


def _scalar(out) -> float:
    """The loss `out` as a float, refused unless it is one finite number."""
    value = _val(out)
    if value.shape != ():
        raise ValueError(f"loss output must be scalar, got shape {value.shape}")
    loss = float(value)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss is non-finite: {loss}")
    return loss


def evaluate_value(loss_fn: LossFn, params) -> float:
    """`loss_fn(params)` as a float, with no tape: the params stay arrays.

    Raises NonFiniteLossError when the loss is NaN/inf and ValueError on a
    non-scalar output; an overflow on the way is that error, not a warning.
    """
    with np.errstate(all="ignore"):
        return _scalar(loss_fn(params))


def evaluate_with_gradients(loss_fn: LossFn, params):
    """Evaluate a scalar loss function on one Tensor per param and
    return (loss, gradient), the gradient one new float64 vector laid out
    like `optim.flat(params)`: each param's gradient in order, raveled,
    zeros where `backward` never reached.

    Raises NonFiniteLossError when the loss is NaN/inf (diverged training)
    and ValueError on a non-scalar output; an overflow on the way is that
    error, or a non-finite gradient that `optim.Adam` refuses, not a
    warning. The params are not checked: `optim.flat` refuses non-finite
    entries once per fit.
    """
    boxed = [Tensor(p) for p in params]
    with np.errstate(all="ignore"):
        out = loss_fn(boxed)
        loss = _scalar(out)
        if isinstance(out, Tensor):
            backward(out)
    grad = np.concatenate([p.grad if p.grad is not None else np.zeros(p.value.size)
                           for p in boxed], axis=None)
    return loss, grad
