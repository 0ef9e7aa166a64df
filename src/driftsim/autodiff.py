"""Reverse-mode automatic differentiation over small dense float64 tensors.

A `Tensor` is a value on the gradient path, and nothing else. Primitives
take and return plain float64 ndarrays; `evaluate_with_gradients` boxes
each parameter in a `Tensor`, and a primitive records a `Tensor` node
(parent links and a local vector-Jacobian product) only when one of its
inputs is a `Tensor`. So a forward-only pass, `evaluate_value` or a model
function called on the parameter arrays themselves, records no tape.
`backward` replays the tape in reverse topological order. The engine is
deliberately minimal: float64 only, 0-2d arrays, numpy broadcasting on
elementwise binaries, and exactly the primitives the models in this package
need. No GPU.

Five fused primitives cut the tape where the models spend their time:
`dense` records a whole stack of `act(x @ w + b)` layers as one node,
`lstm_stack` records a stacked LSTM over a whole sequence as one node (with
one view node per step's output), `gaussian_elbo` records the simulator's
negative ELBO (encoder, reparameterization, decoder, reconstruction and KL)
as one node, `correlation_pull` records the L1 between the Pearson matrix of
decoded prior draws and a target as one node, and `kde_kl` records the
density baseline's whole KDE-KL, every class-conditional term of every
truth domain, as one node over the rows generated for those domains. Every
feed-forward layer, in `dense` and in the two simulator nodes, runs one
stack forward and VJP (`_stack`, `_stack_vjp`, over `_layer`,
`_layer_vjp`).  Their VJPs repeat the elementwise arithmetic of the
unfused composition in the same order, sum the gradients of a value that
reached several unfused nodes in the order `backward` reached those nodes,
and list their parents in the order `backward`'s depth-first search
reached the unfused nodes, so every gradient, and every trained parameter,
is bit-identical to what the composition of primitives gives. `kde_kl` is
a sum of independent terms, so it forms each term's gradient in the
forward, right after the term's value, for the upstream gradient the loss
root hands it, and drops the term's kernel matrix before the next; its VJP
only scales those gradients, which is exact at the root.  No VJP writes
into the gradient it is given.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "NonFiniteLossError",
    "evaluate_with_gradients",
    "evaluate_value",
    "backward",
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "tanh",
    "sigmoid",
    "exp",
    "log",
    "sqrt",
    "relu",
    "absolute",
    "clip",
    "reduce_sum",
    "reduce_mean",
    "concat",
    "dense",
    "lstm_stack",
    "decode",
    "gaussian_elbo",
    "correlation_pull",
    "kde_kl",
]


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
    __array_ufunc__ = None  # so `array op tensor` calls the reflected operators below

    def __init__(self, value, parents: tuple = (), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return _getitem(self, key)

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


# -- primitive operations ------------------------------------------------

def add(a, b):
    av, bv = _val(a), _val(b)

    def vjp(g):
        _accumulate(a, _unbroadcast(g, av.shape))
        _accumulate(b, _unbroadcast(g, bv.shape))

    return _node(av + bv, (a, b), vjp)


def sub(a, b):
    av, bv = _val(a), _val(b)

    def vjp(g):
        _accumulate(a, _unbroadcast(g, av.shape))
        if isinstance(b, Tensor):
            _accumulate(b, _unbroadcast(-g, bv.shape))

    return _node(av - bv, (a, b), vjp)


def mul(a, b):
    av, bv = _val(a), _val(b)

    def vjp(g):
        if isinstance(a, Tensor):
            _accumulate(a, _unbroadcast(g * bv, av.shape))
        if isinstance(b, Tensor):
            _accumulate(b, _unbroadcast(g * av, bv.shape))

    return _node(av * bv, (a, b), vjp)


def div(a, b):
    av, bv = _val(a), _val(b)

    def vjp(g):
        if isinstance(a, Tensor):
            _accumulate(a, _unbroadcast(g / bv, av.shape))
        if isinstance(b, Tensor):
            _accumulate(b, _unbroadcast(-g * av / (bv * bv), bv.shape))

    return _node(av / bv, (a, b), vjp)


def neg(a):
    av = _val(a)

    def vjp(g):
        _accumulate(a, -g)

    return _node(-av, (a,), vjp)


def _check_matmul(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")


def matmul(a, b):
    av, bv = _val(a), _val(b)
    _check_matmul(av, bv)

    def vjp(g):
        _accumulate(a, g @ bv.T)
        _accumulate(b, av.T @ g)

    return _node(av @ bv, (a, b), vjp)


def tanh(a):
    out = np.tanh(_val(a))

    def vjp(g):
        _accumulate(a, g * (1.0 - out * out))

    return _node(out, (a,), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a):
    out = _sigmoid(_val(a))

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
    return reduce_sum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def concat(tensors: Sequence, axis: int = 0):
    values = [_val(t) for t in tensors]
    offsets = np.cumsum([0] + [v.shape[axis] for v in values])

    def vjp(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _node(np.concatenate(values, axis=axis), tuple(tensors), vjp)


def _getitem(a: Tensor, key) -> Tensor:
    out = a.value[key]

    def vjp(g):
        full = np.zeros_like(a.value)
        np.add.at(full, key, g)  # a repeated index receives every gradient
        _accumulate(a, full)

    return _node(out.copy(), (a,), vjp)


# -- fused primitives ------------------------------------------------------

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

    The VJP repeats the arithmetic of `dense`, `concat` and the per-cell
    sigmoid/tanh composition (`tests/unfused.py`): every h and c sums its at
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
    last = _sigmoid(last) if label is sigmoid else np.tanh(last, out=last)
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
    Plain arrays in and out; the two loss nodes below decode the same way."""
    return _decode([_val(p) for p in decoder], _val(z), label)[1]


def gaussian_elbo(encoder, decoder, rows, noise, obs_variance: float, label):
    """The mean negative ELBO of `rows` as one node over the params of
    `encoder` and `decoder`: ½‖x − x̂‖²/`obs_variance` plus KL(q(z|x) ‖ N(0, I)).

    `encoder` is the [w, b] pairs of a tanh trunk, then those of the mean
    head and of the log-variance head (both linear). The latent draw is
    `z = mu + exp(logvar * 0.5) * noise`, and x̂ is `decode(decoder, z, label)`.
    The forward and the VJP repeat the arithmetic of the composition in
    `tests/unfused.py` in the order `backward` ran it, so the value and every
    gradient are bit-identical to it. Where a value reached three nodes the
    order matters: `mu` sums its gradient from `z`, then twice from
    `mu * mu`; `logvar` from `exp(logvar * 0.5)`, then `exp(logvar)`, then
    the `-logvar` of the KL.
    """
    enc = [_val(p) for p in encoder]
    dec = [_val(p) for p in decoder]
    rows, noise = _val(rows), _val(noise)
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
        for p, gp in zip((*encoder, *decoder),
                         (*g_enc, g_mu_w, g_mu_b, g_lv_w, g_lv_b, *g_dec)):
            _accumulate(p, gp)

    return _node(value, (*encoder, *decoder), vjp)


def correlation_pull(decoder, z, label, target, eps: float):
    """The elementwise L1 between the Pearson matrix of `decode(decoder, z,
    label)` and `target`, as one node over the params of `decoder`. Each
    column's variance is guarded by `eps` inside the square root.

    The forward and the VJP repeat the arithmetic of the composition in
    `tests/unfused.py` (`centered = batch - mean(batch)`,
    `cov = centeredᵀ @ centered * (1 / n)`,
    `std = sqrt(mean(centered * centered) + eps)`, `cov / (stdᵀ @ std)`,
    then `sum(abs(· - target))`) in the order `backward` ran it, so the
    value and every gradient are bit-identical to it.
    """
    dec = [_val(p) for p in decoder]
    acts, batch = _decode(dec, _val(z), label)
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
        _, g_dec = _decode_vjp(g_c, dec, acts, batch, label, False)
        for p, gp in zip(decoder, g_dec):
            _accumulate(p, gp)

    return _node(np.abs(diff).sum(), tuple(decoder), vjp)


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
        if full is not None:
            full += 0.0  # the chain summed 2 or more disjoint term gradients: -0.0 -> +0.0
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
