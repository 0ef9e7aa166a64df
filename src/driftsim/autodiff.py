"""Reverse-mode automatic differentiation over small dense float64 tensors.

Forward evaluation records a tape of primitive operations (`Tensor` nodes
holding parent links and local vector-Jacobian products); `backward` replays
the tape in reverse topological order.  The engine is deliberately minimal:
float64 only, 0-2d arrays, numpy broadcasting on elementwise binaries, and
exactly the primitives the models in this package need.  No GPU.

Three fused primitives cut the tape where the models spend their time:
`dense` records `act(x @ w + b)` as one node, `lstm_cell` records one LSTM
step as a cell-state node and a hidden-state node, and `kde_kl` records one
class-conditional KDE-KL term of the density baseline as one node over the
generated rows.  Their VJPs repeat the elementwise arithmetic of the unfused
composition in the same order, and their parents are listed in the order
`backward`'s depth-first search reached the unfused nodes, so every
gradient, and every trained parameter, is bit-identical to what the
composition of primitives gives.
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
    "constant",
    "leaf",
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
    "transpose",
    "concat",
    "dense",
    "lstm_cell",
    "kde_kl",
]


class NonFiniteLossError(ArithmeticError):
    """Raised when a scalar loss evaluates to NaN or infinity."""


class Tensor:
    """One node of the compute tape.

    `value` is a C-contiguous float64 ndarray (row-major flat storage plus a
    shape).  Interior nodes carry a `_vjp` closure that scatters the incoming
    gradient onto their parents.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")
    __array_ufunc__ = None  # so `array op tensor` calls the reflected operators below

    def __init__(self, value, requires_grad: bool = False,
                 parents: tuple = (), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
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
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


def leaf(value, requires_grad: bool = True) -> Tensor:
    """Wrap an array as a tape leaf; leaves must hold finite values."""
    t = Tensor(value, requires_grad=requires_grad)
    if not np.all(np.isfinite(t.value)):
        raise ValueError("leaf tensor contains non-finite values")
    return t


def constant(value) -> Tensor:
    return leaf(value, requires_grad=False)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(value, parents, vjp) -> Tensor:
    needs = any(p.requires_grad for p in parents)
    if not needs:
        return Tensor(value)
    return Tensor(value, requires_grad=True, parents=parents, vjp=vjp)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
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

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.value + b.value

    def vjp(g):
        _accumulate(a, _unbroadcast(g, a.value.shape))
        _accumulate(b, _unbroadcast(g, b.value.shape))

    return _node(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.value - b.value

    def vjp(g):
        _accumulate(a, _unbroadcast(g, a.value.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.value.shape))

    return _node(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.value * b.value

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.value, b.value.shape))

    return _node(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.value / b.value

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.value, a.value.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return _node(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = _wrap(a)

    def vjp(g):
        _accumulate(a, -g)

    return _node(-a.value, (a,), vjp)


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError(
            f"matmul expects 2-d operands, got {a.value.shape} @ {b.value.shape}")
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.value.shape} @ {b.value.shape}")


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_matmul(a, b)
    out = a.value @ b.value

    def vjp(g):
        _accumulate(a, g @ b.value.T)
        _accumulate(b, a.value.T @ g)

    return _node(out, (a, b), vjp)


def tanh(a) -> Tensor:
    a = _wrap(a)
    out = np.tanh(a.value)

    def vjp(g):
        _accumulate(a, g * (1.0 - out * out))

    return _node(out, (a,), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    out = _sigmoid(a.value)

    def vjp(g):
        _accumulate(a, g * out * (1.0 - out))

    return _node(out, (a,), vjp)


def exp(a) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.value)

    def vjp(g):
        _accumulate(a, g * out)

    return _node(out, (a,), vjp)


def log(a) -> Tensor:
    a = _wrap(a)
    out = np.log(a.value)

    def vjp(g):
        _accumulate(a, g / a.value)

    return _node(out, (a,), vjp)


def sqrt(a) -> Tensor:
    a = _wrap(a)
    out = np.sqrt(a.value)

    def vjp(g):
        _accumulate(a, g * 0.5 / out)

    return _node(out, (a,), vjp)


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.value > 0.0

    def vjp(g):
        _accumulate(a, g * mask)

    return _node(a.value * mask, (a,), vjp)


def absolute(a) -> Tensor:
    # subgradient 0 at the kink
    a = _wrap(a)
    s = np.sign(a.value)

    def vjp(g):
        _accumulate(a, g * s)

    return _node(np.abs(a.value), (a,), vjp)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp with zero gradient outside [lo, hi]."""
    a = _wrap(a)
    out = np.clip(a.value, lo, hi)
    mask = (a.value >= lo) & (a.value <= hi)

    def vjp(g):
        _accumulate(a, g * mask)

    return _node(out, (a,), vjp)


def reduce_sum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g, dtype=np.float64)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.value.shape))

    return _node(out, (a,), vjp)


def reduce_mean(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    n = a.value.size if axis is None else a.value.shape[axis]
    return reduce_sum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def transpose(a) -> Tensor:
    a = _wrap(a)

    def vjp(g):
        _accumulate(a, g.T)

    return _node(a.value.T.copy(), (a,), vjp)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [_wrap(t) for t in tensors]
    out = np.concatenate([p.value for p in parts], axis=axis)
    sizes = [p.value.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(idx)])

    return _node(out, tuple(parts), vjp)


def _getitem(a: Tensor, key) -> Tensor:
    out = a.value[key]

    def vjp(g):
        full = np.zeros_like(a.value)
        np.add.at(full, key, g)  # a repeated index receives every gradient
        _accumulate(a, full)

    return _node(out.copy(), (a,), vjp)


# -- fused primitives ------------------------------------------------------

def dense(x, w, b, act=None) -> Tensor:
    """`act(x @ w + b)` as one node; `act` is None (linear), `tanh` or `relu`.

    The VJP applies the activation's derivative as `tanh`/`relu` do, then
    the `add` and `matmul` VJPs, so the gradients equal those of the
    three-node composition bit for bit.
    """
    if act not in (None, tanh, relu):
        raise ValueError("dense activation must be None, tanh or relu")
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    _check_matmul(x, w)
    pre = x.value @ w.value + b.value
    if act is tanh:
        out = np.tanh(pre)
    elif act is relu:
        mask = pre > 0.0
        out = pre * mask
    else:
        out = pre

    def vjp(g):
        if act is tanh:
            g = g * (1.0 - out * out)
        elif act is relu:
            g = g * mask
        if x.requires_grad:
            _accumulate(x, g @ w.value.T)
        _accumulate(w, x.value.T @ g)
        _accumulate(b, _unbroadcast(g, b.value.shape))

    # backward's search reaches b, then w, then x, as it did through add and matmul
    return _node(out, (x, w, b), vjp)


def lstm_cell(gates, c_prev):
    """One LSTM step from gate pre-activations laid out [input|forget|cell|output],
    each block a quarter of the width of `gates`.

    `c_prev` is None on the first step of a sequence (zero cell state).
    Returns the new (h, c): c = f * c_prev + i * g and h = o * tanh(c), as a
    c node with parents (c_prev, gates) and an h node with parents (gates, c).
    Each VJP writes its gate gradients into one zero array the width of
    `gates`; the composition summed four zero-padded slices, which is exact.
    """
    gates = _wrap(gates)
    z = gates.value
    n, rest = divmod(z.shape[1], 4)
    if rest:
        raise ValueError(f"gate width {z.shape[1]} is not a multiple of 4")
    i = _sigmoid(z[:, 0:n])
    f = _sigmoid(z[:, n:2 * n])
    g = np.tanh(z[:, 2 * n:3 * n])
    o = _sigmoid(z[:, 3 * n:4 * n])
    if c_prev is None:
        c_value, parents = i * g, (gates,)
    else:
        c_prev = _wrap(c_prev)
        c_value, parents = f * c_prev.value + i * g, (c_prev, gates)

    def c_vjp(gc):
        dz = np.zeros_like(z)
        dz[:, 0:n] = gc * g * i * (1.0 - i)
        dz[:, 2 * n:3 * n] = gc * i * (1.0 - g * g)
        if c_prev is not None:
            dz[:, n:2 * n] = gc * c_prev.value * f * (1.0 - f)
            _accumulate(c_prev, gc * f)
        _accumulate(gates, dz)

    c = _node(c_value, parents, c_vjp)
    tc = np.tanh(c_value)

    def h_vjp(gh):
        dz = np.zeros_like(z)
        dz[:, 3 * n:4 * n] = gh * tc * o * (1.0 - o)
        _accumulate(gates, dz)
        _accumulate(c, gh * o * (1.0 - tc * tc))

    return _node(o * tc, (gates, c), h_vjp), c


def kde_kl(rows, column: int, idx, grid, bandwidth: float, prior: float,
           log_q) -> Tensor:
    """`sum(p * (log p - log_q))` as one node with the single parent `rows`.

    `p` is `prior` times the Gaussian-kernel masses of the samples
    `rows[idx, column]` (distinct row indices) on `grid`, normalized to sum
    1; `log_q` is a constant of the grid's length. The forward and the VJP
    repeat the arithmetic of the composition
    `diff = (grid[:, None] - vals) * (1 / bandwidth)`,
    `dens = reduce_sum(exp(diff * diff * -0.5), axis=1)`,
    `p = dens * (1 / reduce_sum(dens)) * prior` and
    `reduce_sum(p * (log(p) - log_q))` in the order `backward` ran it, so
    the value and the `rows` gradient are bit-identical to it. Only `diff`
    and the kernel matrix `e` (grid × samples) are kept for the VJP, which
    overwrites `e` in place: like the `.grad` fields it fills, the node is
    good for one `backward`.
    """
    rows = _wrap(rows)
    scale = 1.0 / bandwidth
    diff = np.subtract(grid[:, None], rows.value[idx, column])
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

    def vjp(g):
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
        full = np.zeros_like(rows.value)
        full[idx, column] = buf.sum(axis=0)
        _accumulate(rows, full)

    return _node((p * r).sum(), (rows,), vjp)


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
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(topo):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)


# loss_fn(param leaves) -> scalar Tensor, closing over its data as arrays; each
# call re-records the tape, so it may contain data-dependent Python control flow
LossFn = Callable[[list[Tensor]], Tensor]


def _evaluate(loss_fn: LossFn, params, requires_grad: bool):
    """(loss, output node, parameter leaves) of one checked forward pass."""
    param_leaves = [leaf(p, requires_grad=requires_grad) for p in params]
    out = loss_fn(param_leaves)
    if out.value.shape != ():
        raise ValueError(f"loss output must be scalar, got shape {out.value.shape}")
    loss = float(out.value)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss is non-finite: {loss}")
    return loss, out, param_leaves


def evaluate_value(loss_fn: LossFn, params) -> float:
    """Forward-only scalar evaluation (no tape replay, same finiteness checks)."""
    return _evaluate(loss_fn, params, requires_grad=False)[0]


def evaluate_with_gradients(loss_fn: LossFn, params):
    """Evaluate a scalar loss function and return (loss, gradients w.r.t. params).

    Raises NonFiniteLossError when the loss is NaN/inf (diverged training)
    and ValueError on non-finite params or a non-scalar output.
    """
    loss, out, param_leaves = _evaluate(loss_fn, params, requires_grad=True)
    backward(out)
    # copies, because tape gradients may share memory with one another
    grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.value)
             for p in param_leaves]
    return loss, grads
