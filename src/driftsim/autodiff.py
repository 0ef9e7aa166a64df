"""Reverse-mode gradients of small dense float64 models, with no tape: the
forward/VJP pairs that two or more models' losses share, and the path that
evaluates a loss.

A loss function `loss_fn(params)` returns the scalar loss and its VJP
(vector-Jacobian product), a closure that maps the gradient of the loss to
one gradient per parameter array, or None for a parameter the loss does not
reach: the interface of JAX's `vjp`. Each model's loss is one such pair in
the model's own module, beside its parameter layout (`predictor`,
`simulator`, `density_baseline`, `harness`), chained from the pairs here:
`stack`/`stack_vjp` for every feed-forward stack (over `layer`/`layer_vjp`),
`lstm` for a stacked LSTM and `bce` for the clipped BCE. `dense` is a
stack's plain forward, `sums` adds a param's gradients from the places it
reached, and `unbroadcast` inverts numpy broadcasting.

`evaluate_with_gradients` runs a loss once and `backward` writes its VJP's
gradients into views of one flat vector laid out like `optim.flat` (`views`
makes them), which a trainer allocates once per fit; `evaluate_value` leaves
the VJP uncalled. Float64 only, no GPU.

Each VJP repeats the elementwise arithmetic of the composition of generic
primitives in `tests/unfused.py` in the same order, and sums the gradients
of a value that reached several places in the order that composition's tape
replay reached them, so every gradient, and every trained parameter, is
bit-identical to what the tape gives. No VJP writes into the gradient it is
given.

`tanh`, `relu` and `sigmoid` name the activations that the stacks and the
simulator's decode accept; called on an array, each is that function.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "NonFiniteLossError",
    "CLAMP",
    "evaluate_with_gradients",
    "evaluate_value",
    "backward",
    "views",
    "tanh",
    "relu",
    "sigmoid",
    "layer",
    "layer_vjp",
    "lstm",
    "stack",
    "stack_vjp",
    "dense",
    "bce",
    "sums",
    "unbroadcast",
]

CLAMP = 1e-6  # probabilities are clipped to [CLAMP, 1 - CLAMP] before a log


class NonFiniteLossError(ArithmeticError):
    """Raised when a scalar loss evaluates to NaN or infinity."""


def sums(per_place) -> list:
    """Per param, its gradients from each place in `per_place` (one list of
    gradients per place) summed left to right, as the tape accumulated them."""
    return [sum(grads[1:], grads[0]) for grads in zip(*per_place)]


def unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
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


# -- forward/VJP pairs -----------------------------------------------------

def layer(x: np.ndarray, w: np.ndarray, b: np.ndarray, act) -> np.ndarray:
    """`act(x @ w + b)` with `act` None (linear), `tanh` or `relu`: the bias
    is added and the activation applied in place on the fresh product."""
    out = x @ w
    out += b
    if act is tanh:
        np.tanh(out, out=out)
    elif act is relu:
        out *= out > 0.0
    return out


def layer_vjp(g, x, w, b, out, act, x_grad: bool = True) -> tuple:
    """(x, w, b) gradients of `out = layer(x, w, b, act)` given `g`: the
    activation's derivative in one new buffer, then the `add` and `matmul`
    VJPs, so each equals the three-node composition's bit for bit. The x
    gradient is None unless `x_grad`."""
    if act is tanh:
        d = out * out
        np.subtract(1.0, d, out=d)
        g = np.multiply(d, g, out=d)
    elif act is relu:
        g = g * (out > 0.0)  # where x @ w + b > 0: relu keeps exactly those
    return (g @ w.T if x_grad else None), x.T @ g, unbroadcast(g, b.shape)


def lstm(params, rows) -> tuple:
    """(the top layer's hidden state after each row of a stacked LSTM, its
    VJP: the gradients of those states -> (one gradient per param, one per
    row)).

    `params` is [w1, b1, w2, b2, ...]: per layer a (input + hidden, 4 *
    hidden) weight and a (1, 4 * hidden) bias, gates laid out
    [input|forget|cell|output]. Each 1-row `rows` entry feeds layer 0; every
    layer starts from a zero h and no cell state, and its h feeds the layer
    above. Cell (k, t) computes `concat([x, h]) @ w_k + b_k`, then
    c = f * c_prev + i * g (i * g at t = 0) and h = o * tanh(c).

    The states live in a grid in wavefront order: `h[d + 1, k]` is layer k's
    h at step d - k (zeros before a layer's first step), and each step's
    output is a view of it. A diagonal's cells need only the diagonal
    before, so the forward and the VJP sweep one diagonal at a time: layers
    1.. as one stacked matmul, layer 0 (another input width) beside them.

    The VJP repeats the arithmetic of the per-cell composition of matmul,
    concat, sigmoid and tanh nodes (`tests/unfused.py`): every h and c sums its at
    most two gradients, each gate gradient is the zero-padded sum of its h
    and c parts, and each w_k and b_k sums its steps from the last to the
    first, the order the per-cell tape forced; accumulators start at -0.0,
    the identity of IEEE addition. So the gradients are bit-identical to
    that tape's, provided the params and the rows feed nothing else.
    """
    w = params[0::2]
    b = np.stack(params[1::2])
    layers, steps = len(w), len(rows)
    n, rest = divmod(b.shape[2], 4)
    if rest:
        raise ValueError(f"gate width {b.shape[2]} is not a multiple of 4")
    n_in = w[0].shape[0] - n
    if any(r.shape != (1, n_in) for r in rows):
        raise ValueError(f"LSTM rows must each be of shape (1, {n_in})")
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
            x = np.concatenate([rows[d], h[d, 0:1]], axis=1)
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

    def vjp(g_outputs):
        gh_all = np.full_like(h, -0.0)
        for d, g_out in enumerate(g_outputs, layers - 1):
            gh_all[d + 1, layers - 1] = g_out[0]
        gc_all = np.full_like(h, -0.0)
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
        x0 = np.concatenate([np.concatenate(rows), h[t_idx, 0]], axis=1)
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
        grads = [gw[0], gb[0]]
        for k in range(1, layers):
            grads += [gw[1][k - 1], gb[k]]
        return grads, g_rows

    return [h[d + 1, layers - 1:layers] for d in range(layers - 1, diagonals)], vjp


def stack(params, x, act, last) -> list:
    """The input and each layer's output of the [w, b] pairs of `params`
    applied to `x`: `act` after every pair but the last, `last` after it."""
    acts = [x]
    for i in range(0, len(params), 2):
        _check_matmul(acts[-1], params[i])
        acts.append(layer(acts[-1], params[i], params[i + 1],
                          act if i + 2 < len(params) else last))
    return acts


def stack_vjp(g, params, acts, act, last, x_grad: bool) -> tuple:
    """(input gradient or None, one gradient per param) of `stack`, given
    the gradient `g` of its last output: `layer_vjp` from the top layer down."""
    grads = [None] * len(params)
    for i in reversed(range(0, len(params), 2)):
        g, grads[i], grads[i + 1] = layer_vjp(g, acts[i // 2], params[i], params[i + 1],
                                              acts[i // 2 + 1],
                                              act if i + 2 < len(params) else last,
                                              x_grad or i > 0)
    return g, grads


def dense(params, x, act=None, last=None) -> np.ndarray:
    """The [w, b] pairs of `params` applied to `x`: `act` after every pair
    but the last, `last` after it, each None (linear), `tanh` or `relu`.
    The losses run the same `stack` forward, with `stack_vjp` as its VJP."""
    if act not in (None, tanh, relu) or last not in (None, tanh, relu):
        raise ValueError("dense activations must be None, tanh or relu")
    return stack(params, x, act, last)[-1]


def bce(p: np.ndarray, t: np.ndarray) -> tuple:
    """(the elementwise -(t log q + (1 - t) log(1 - q)) of probabilities `p`
    clipped to q in [CLAMP, 1 - CLAMP] against targets `t`, its VJP: the
    gradient of `p` given that of the values). The VJP takes the negation,
    then log q, then log(1 - q) and the clip, as the tape replay ran them."""
    q = np.clip(p, CLAMP, 1.0 - CLAMP)
    q_c = 1.0 - q
    value = -(t * np.log(q) + (1.0 - t) * np.log(q_c))

    def vjp(g):
        g = -g
        g_q = g * t / q
        g_q = g_q + -(g * (1.0 - t) / q_c)
        return g_q * ((p >= CLAMP) & (p <= 1.0 - CLAMP))

    return value, vjp


# -- evaluation ------------------------------------------------------------

# loss_fn(params) -> (scalar, VJP), closing over its data as arrays; each call
# re-runs it, so it may contain data-dependent Python control flow
LossFn = Callable[[list], tuple]


def views(vector: np.ndarray, arrays) -> list:
    """A view into `vector` shaped like each of `arrays`, laid out in order."""
    parts = np.split(vector, np.cumsum([np.size(a) for a in arrays])[:-1])
    return [part.reshape(np.shape(a)) for part, a in zip(parts, arrays)]


def backward(vjp, grads) -> None:
    """Run a loss's VJP at the loss's own gradient, 1, into `grads`, one
    view per param: each gradient is copied into its view, and a view whose
    gradient is None is zeroed."""
    for view, g in zip(grads, vjp(1.0), strict=True):
        view[...] = 0.0 if g is None else g


def _scalar(value) -> float:
    """The loss `value` as a float, refused unless it is one finite number."""
    value = np.asarray(value, dtype=np.float64)
    if value.shape != ():
        raise ValueError(f"loss output must be scalar, got shape {value.shape}")
    loss = float(value)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss is non-finite: {loss}")
    return loss


def evaluate_value(loss_fn: LossFn, params) -> float:
    """The value of `loss_fn(params)` as a float; its VJP is not called.

    Raises NonFiniteLossError when the loss is NaN/inf and ValueError on a
    non-scalar output; an overflow on the way is that error, not a warning.
    """
    with np.errstate(all="ignore"):
        return _scalar(loss_fn(params)[0])


def evaluate_with_gradients(loss_fn: LossFn, params, grads) -> float:
    """The value of `loss_fn(params)` as a float; `backward` runs its VJP
    once into `grads`, one view per param into a float64 vector laid out
    like `optim.flat(params)` (`views` makes them), so that vector holds the
    gradient, zeros where the VJP gives None. A trainer makes the vector and
    its views once per fit.

    Raises NonFiniteLossError when the loss is NaN/inf (diverged training)
    and ValueError on a non-scalar output; an overflow on the way is that
    error, or a non-finite gradient that `optim.Adam` refuses, not a
    warning. The params are not checked: `optim.flat` refuses non-finite
    entries once per fit.
    """
    with np.errstate(all="ignore"):
        value, vjp = loss_fn(params)
        loss = _scalar(value)
        backward(vjp, grads)
    return loss
