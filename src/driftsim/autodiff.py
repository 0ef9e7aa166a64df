"""Reverse-mode gradients of small dense float64 models, with no tape.

Each model's loss is one value-and-VJP pair, the interface of JAX's `vjp`:
a loss function `loss_fn(params)` returns the scalar loss and its VJP
(vector-Jacobian product), a closure that maps the gradient of the loss to
one gradient per parameter array, or None for a parameter the loss does not
reach. There is no `Tensor` and no tape to replay. `evaluate_with_gradients`
runs a loss once and `backward` writes its VJP's gradients into views of one
flat vector laid out like `optim.flat`, which a trainer allocates once per
fit; `evaluate_value` leaves the VJP uncalled. Forward-only reads call plain
forward functions on the parameter arrays (`dense`, `forecast`,
`prelim_decode`, `decode`), which run the forward of the matching loss.
Float64 only, no GPU.

The losses: `forecast_loss` the forecaster's (a per-step linear embedding, a
stacked LSTM and a per-step tanh head, then the Frobenius + L1 + weighted BCE
of every step); `mlp_loss` the downstream ReLU net with its clipped BCE or
squared-error mean; `gaussian_elbo` the simulator's negative ELBO (encoder,
reparameterization, decoder, reconstruction and KL), optionally plus a
weighted L1 between the Pearson matrix of decoded prior draws and a target;
and `prelim_loss` the density baseline's (a one-layer LSTM over per-domain
summaries, a mixing decode per truth domain, then `kde_kl`, every
class-conditional KDE-KL term of every truth domain). A model's parameter
layout is its own module's: the forecaster's and prelim's losses take their
parameter groups already split. They chain forward/VJP pairs:
`_stack`/`_stack_vjp` for every feed-forward stack (over `_layer`,
`_layer_vjp`), `_lstm`, `_forecast`, `_forecast_error`, `_mix_decode`,
`_elbo`, `_correlation_pull`, `kde_kl` and the clipped BCE `_bce`.

Each VJP repeats the elementwise arithmetic of the composition of generic
primitives in `tests/unfused.py` in the same order, and sums the gradients
of a value that reached several places in the order that composition's tape
replay reached them, so every gradient, and every trained parameter, is
bit-identical to what the tape gives. `kde_kl` is a sum of independent
terms, so it forms each term's gradient in the forward, right after the
term's value, and drops the term's kernel matrix before the next; its VJP
only scales those gradients, which is exact for the gradient 1 that
`backward` hands a loss. No VJP writes into the gradient it is given.

`tanh`, `relu` and `sigmoid` name the activations that `dense`, `decode`
and the simulator's loss accept; called on an array, each is that function.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "NonFiniteLossError",
    "CLAMP",
    "FRO_GUARD",
    "evaluate_with_gradients",
    "evaluate_value",
    "backward",
    "views",
    "tanh",
    "relu",
    "sigmoid",
    "dense",
    "forecast",
    "forecast_loss",
    "mlp_loss",
    "decode",
    "gaussian_elbo",
    "kde_kl",
    "prelim_decode",
    "prelim_loss",
]

CLAMP = 1e-6  # probabilities are clipped to [CLAMP, 1 - CLAMP] before a log
FRO_GUARD = 1e-24  # keeps the Frobenius norm's sqrt differentiable at zero


class NonFiniteLossError(ArithmeticError):
    """Raised when a scalar loss evaluates to NaN or infinity."""


def _sums(per_place) -> list:
    """Per param, its gradients from each place in `per_place` (one list of
    gradients per place) summed left to right, as the tape accumulated them."""
    return [sum(grads[1:], grads[0]) for grads in zip(*per_place)]


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


# -- forward/VJP pairs -----------------------------------------------------

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


def _lstm(params, rows) -> tuple:
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


def dense(params, x, act=None, last=None) -> np.ndarray:
    """The [w, b] pairs of `params` applied to `x`: `act` after every pair
    but the last, `last` after it, each None (linear), `tanh` or `relu`.
    The losses run the same `_stack` forward, with `_stack_vjp` as its VJP."""
    if act not in (None, tanh, relu) or last not in (None, tanh, relu):
        raise ValueError("dense activations must be None, tanh or relu")
    return _stack(params, x, act, last)[-1]


def _bce(p: np.ndarray, t: np.ndarray) -> tuple:
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


def _forecast_error(pred, target, m: int, lambda_ce: float) -> tuple:
    """(the forecaster's loss over its one-step-ahead forecasts `pred`, the
    (steps, p) flattened upper triangles of m x m matrices, against the rows
    of `target`, its VJP: the gradient of the value -> that of `pred`); see
    `forecast_loss`. The VJP sums the error's gradient from its square, then
    from its absolute value, and that of `pred` from the error, then from
    the BCE, as the composition's tape replay did."""
    diff = pred - target
    norms = np.sqrt((diff * diff).sum(axis=1) * 2.0 + FRO_GUARD)
    bce, bce_vjp = _bce((pred + 1.0) * 0.5, (target + 1.0) * 0.5)
    diag = -m * np.log(1.0 - CLAMP) * pred.shape[0]
    inv_mm = 1.0 / (m * m)
    value = ((norms.sum() + np.abs(diff).sum() * 2.0)
             + (bce.sum() * 2.0 + diag) * inv_mm * lambda_ce)

    def vjp(g):
        g_sq = (g * 0.5 / norms * 2.0)[:, None]
        g_pred = g_sq * diff
        g_pred = g_pred + g_sq * diff
        g_pred = g_pred + g * 2.0 * np.sign(diff)
        g_bce = np.broadcast_to(g * lambda_ce * inv_mm * 2.0, bce.shape)
        return g_pred + bce_vjp(g_bce) * 0.5

    return value, vjp


def _forecast(embed, stack, head, rows) -> tuple:
    """(`forecast(embed, stack, head, rows)`, its VJP: the gradient of the
    forecasts -> one gradient per array of `embed`, `stack`, then `head`).

    The VJP runs the pieces' VJPs in the order the tape replay of their
    composition in `tests/unfused.py` ran them: per step the head's, the
    stack's, then per step the embedding's; so the head's params sum their
    steps' gradients from the first step to the last and the embedding's
    from the last to the first, bit-identical to that tape's.
    """
    embedded = [_stack(embed, row, None, None) for row in rows]
    states, stack_vjp = _lstm(stack, [acts[-1] for acts in embedded])
    heads = [_stack(head, state, None, tanh) for state in states]

    def vjp(g_pred):
        g_states, g_head = [], []
        for t, acts in enumerate(heads):
            g_state, grads = _stack_vjp(g_pred[t:t + 1], head, acts, None, tanh, True)
            g_states.append(g_state)
            g_head.append(grads)
        g_stack, g_rows = stack_vjp(g_states)
        g_embed = [_stack_vjp(g_row, embed, acts, None, None, False)[1]
                   for g_row, acts in zip(reversed(g_rows), reversed(embedded))]
        return [*_sums(g_embed), *g_stack, *_sums(g_head)]

    return np.concatenate([acts[-1] for acts in heads]), vjp


def forecast(embed, stack, head, rows) -> np.ndarray:
    """The forecaster's (steps, p) one-step-ahead forecasts: each (1, p) row
    of `rows`, the flattened upper triangle of an m x m matrix, is embedded
    by the [w, b] of `embed`, the `_lstm` of `stack`'s pairs runs over the
    embeddings, and the tanh [w, b] of `head` maps each step's state to the
    forecast of the next row. `forecast_loss` runs the same forward."""
    return _forecast(embed, stack, head, rows)[0]


def forecast_loss(embed, stack, head, rows, target, m: int, lambda_ce: float) -> tuple:
    """The forecaster's loss as one value-and-VJP pair over the arrays of
    `embed`, `stack`, then `head` (see `forecast`), against the matching
    rows of `target`. The loss sums, over the steps, the Frobenius norm and
    the elementwise L1 of the full matrix's error (each off-diagonal entry
    counts twice; `FRO_GUARD` under the square root), plus `lambda_ce` times
    the clipped BCE mean over the m² entries mapped from [-1, 1] to [0, 1].
    The diagonal is exactly 1 on both sides, so it adds nothing to the
    norms and one clamp constant per step to the BCE. The value and every
    gradient are bit-identical to the tape of the composition in
    `tests/unfused.py`.
    """
    pred, forecast_vjp = _forecast(embed, stack, head, rows)
    value, error_vjp = _forecast_error(pred, target, m, lambda_ce)
    return value, lambda g: forecast_vjp(error_vjp(g))


def mlp_loss(params, x, y, classify: bool) -> tuple:
    """The downstream model's loss as one value-and-VJP pair over the [w, b]
    pairs of `params`: the mean, over the entries of `out = dense(params, x,
    relu)`, of the clipped BCE of `sigmoid(out)` against the 0/1 targets `y`
    when `classify`, else of the squared error `(out - y)²`.

    The forward and the VJP repeat the composition in `tests/unfused.py`
    (the dense stack, the sigmoid and the BCE or the difference and its
    square, then the mean) in the order its tape replay ran it, so the value
    and every gradient are bit-identical to it.
    """
    acts = _stack(params, x, relu, None)
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
        return _stack_vjp(g_out, params, acts, relu, None, False)[1]

    return value, vjp


def _mix_decode(params, state) -> tuple:
    """(the density baseline's decoded rows, their VJP: the gradient of the
    rows -> (one gradient per param, that of `state`)). `params` is [embed,
    w_e, w_s, b, then [w, b] pairs]; each row of `embed` is mixed with the
    (1, hidden) `state` as `tanh(embed @ w_e + state @ w_s + b)`, and the
    pairs map the mix as `dense(pairs, mix, last=tanh)`. The forward and the
    VJP repeat the composition in `tests/unfused.py` (two matmuls, two
    broadcasting adds, tanh, then the dense stack) in the order its tape
    replay ran it, so the rows and every gradient are bit-identical to it."""
    embed, w_e, w_s, b = params[:4]
    mix = np.tanh(embed @ w_e + state @ w_s + b)
    acts = _stack(params[4:], mix, None, tanh)

    def vjp(g):
        g_mix, g_out = _stack_vjp(g, params[4:], acts, None, tanh, True)
        g_mix = g_mix * (1.0 - mix * mix)
        g_s = _unbroadcast(g_mix, (state.shape[0], w_s.shape[1]))
        return [g_mix @ w_e.T, embed.T @ g_mix, state.T @ g_s, _unbroadcast(g_mix, b.shape),
                *g_out], g_s @ w_s.T

    return acts[-1], vjp


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
    return _decode(decoder, z, label)[1]


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
    then `sum(abs(· - target))`) in the order its tape replay ran it.
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


def gaussian_elbo(encoder, decoder, rows, noise, obs_variance: float, label,
                  pull=None) -> tuple:
    """The simulator's loss as one value-and-VJP pair over the params of
    `encoder`, then those of `decoder`: the mean negative ELBO of `rows`, ½‖x − x̂‖²/`obs_variance`
    plus KL(q(z|x) ‖ N(0, I)), and, when `pull` = (z, target, eps, weight)
    is given, plus `weight` times the correlation pull: the elementwise L1
    between the Pearson matrix of `decode(decoder, z, label)` and `target`,
    each column's variance guarded by `eps` inside the square root.

    `encoder` is the [w, b] pairs of a tanh trunk, then those of the mean
    head and of the log-variance head (both linear). The latent draw is
    `z = mu + exp(logvar * 0.5) * noise`, and x̂ is `decode(decoder, z, label)`.
    The forward and the VJP repeat the arithmetic of the composition in
    `tests/unfused.py` in the order its tape replay ran it, so the value and
    every gradient are bit-identical to it. Where a value reached three nodes the
    order matters: `mu` sums its gradient from `z`, then twice from
    `mu * mu`; `logvar` from `exp(logvar * 0.5)`, then `exp(logvar)`, then
    the `-logvar` of the KL. A decoder param sums the ELBO's gradient, then
    the pull's.
    """
    value, elbo_vjp = _elbo(encoder, decoder, rows, noise, obs_variance, label)
    if pull is not None:
        z, target, eps, weight = pull
        l1, pull_vjp = _correlation_pull(decoder, z, label, target, eps)
        value = value + l1 * weight

    def vjp(g):
        g_enc, g_dec = elbo_vjp(g)
        if pull is not None:
            g_dec = [a + b for a, b in zip(g_dec, pull_vjp(g * weight))]
        return [*g_enc, *g_dec]

    return value, vjp


def _kde_kl_term(vals, grid, bandwidth: float, prior: float, log_q, g):
    """(`sum(p * (log p - log_q))`, its gradient with respect to `vals` given
    the upstream gradient `g`). `p` is `prior` times the Gaussian-kernel
    masses of the samples `vals` on `grid`, normalized to sum 1; `diff` and
    the kernel matrix `e` (grid × samples) live only in this call."""
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


def kde_kl(rows, classes, grid, truth_sides) -> tuple:
    """The density baseline's KDE-KL over the rows generated for every
    truth domain, as (value, VJP: the gradient of the value -> one gradient
    per entry of `rows`): the mean over domains t of the sum, over features
    `column` and classes c, of `sum(p * (log p - log_q))`.

    `rows[t]` holds the (n, d) rows scored against domain t, and
    `truth_sides[t][column][c]` that domain's (prior, bandwidth, log_q). `p`
    is `prior` times the Gaussian-kernel masses of `rows[t][classes[c],
    column]` (`classes` are disjoint arrays of distinct row indices) on
    `grid`, normalized to sum 1. Each term repeats the composition in
    `tests/unfused.py`; the terms are summed per domain in feature-then-class
    order, the domain sums left to right, then scaled by `1 / len(rows)`, as
    that chain of per-term nodes and `add`s did.

    Each term's gradient is formed right after its value, for the gradient
    `1 / len(rows)` that the chain hands every term of a loss, so no kernel
    matrix outlives its term; the domain keeps one (n, d) gradient. The VJP
    scales those by the gradient it is given: at `g = 1` every gradient is
    bit-identical to the chain's, otherwise equal up to rounding.
    """
    weight = 1.0 / len(rows)
    loss, grads = None, []
    for r, side in zip(rows, truth_sides, strict=True):
        full = np.zeros_like(r)
        domain = None
        for column, per_class in enumerate(side):
            for idx, (prior, bandwidth, log_q) in zip(classes, per_class, strict=True):
                term, full[idx, column] = _kde_kl_term(r[idx, column], grid, bandwidth,
                                                       prior, log_q, weight)
                domain = term if domain is None else domain + term
        grads.append(full)
        loss = domain if loss is None else loss + domain

    def vjp(g):
        return [full * g for full in grads]

    return loss * weight, vjp


def prelim_decode(lstm, decoder, summaries) -> np.ndarray:
    """The rows the density baseline decodes after the last of its
    (1, 2d + 1) `summaries`: the one-layer `_lstm` of `lstm`'s [w, b] runs
    over them, and `_mix_decode` of `decoder`'s params decodes its last
    state. `prelim_loss` decodes after each summary the same way."""
    return _mix_decode(decoder, _lstm(lstm, summaries)[0][-1])[0]


def prelim_loss(lstm, decoder, summaries, classes, grid, truth_sides) -> tuple:
    """The density baseline's loss as one value-and-VJP pair over the arrays
    of `lstm`, then `decoder` (see `prelim_decode`): the rows decoded after
    each of `summaries` are scored against the matching truth domain of
    `truth_sides` by `kde_kl`.

    The VJP runs the pieces' VJPs in the order the tape replay of their
    composition in `tests/unfused.py` ran them: the KL's, per domain the
    decode's, then the stack's; so each decoder param sums its domains'
    gradients from the first to the last, and the value and every gradient
    are bit-identical to that tape's.
    """
    states, stack_vjp = _lstm(lstm, summaries)
    decodes = [_mix_decode(decoder, state) for state in states]
    value, kl_vjp = kde_kl([rows for rows, _ in decodes], classes, grid, truth_sides)

    def vjp(g):
        g_decoder, g_states = [], []
        for (_, decode_vjp), g_rows in zip(decodes, kl_vjp(g)):
            grads, g_state = decode_vjp(g_rows)
            g_decoder.append(grads)
            g_states.append(g_state)
        return [*stack_vjp(g_states)[0], *_sums(g_decoder)]

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
