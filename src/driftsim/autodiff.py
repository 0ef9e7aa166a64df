"""Reverse-mode automatic differentiation over small dense float64 tensors.

Forward evaluation records a tape of primitive operations (`Tensor` nodes
holding parent links and local vector-Jacobian products); `backward` replays
the tape in reverse topological order.  The engine is deliberately minimal:
float64 only, 0-2d arrays, numpy broadcasting on elementwise binaries, and
exactly the primitives the models in this package need.  No GPU, no fusion.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "NonFiniteLossError",
    "evaluate_with_gradients",
    "evaluate_value",
    "grad_check",
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
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
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
        _accumulate(b, _unbroadcast(-g, b.value.shape))

    return _node(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.value * b.value

    def vjp(g):
        _accumulate(a, _unbroadcast(g * b.value, a.value.shape))
        _accumulate(b, _unbroadcast(g * a.value, b.value.shape))

    return _node(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.value / b.value

    def vjp(g):
        _accumulate(a, _unbroadcast(g / b.value, a.value.shape))
        _accumulate(b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return _node(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = _wrap(a)

    def vjp(g):
        _accumulate(a, -g)

    return _node(-a.value, (a,), vjp)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError(
            f"matmul expects 2-d operands, got {a.value.shape} @ {b.value.shape}")
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.value.shape} @ {b.value.shape}")
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


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    out = 1.0 / (1.0 + np.exp(-a.value))

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
        full[key] = g
        _accumulate(a, full)

    return _node(out.copy(), (a,), vjp)


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


# loss_fn(param leaves, input leaves) -> scalar Tensor; each call re-records
# the tape, so it may contain data-dependent Python control flow
LossFn = Callable[[list[Tensor], list[Tensor]], Tensor]


def evaluate_value(loss_fn: LossFn, params, inputs) -> float:
    """Forward-only scalar evaluation (no tape replay, same finiteness checks)."""
    out = loss_fn([leaf(p, requires_grad=False) for p in params],
                  [leaf(x, requires_grad=False) for x in inputs])
    if out.value.shape != ():
        raise ValueError(f"loss output must be scalar, got shape {out.value.shape}")
    loss = float(out.value)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss is non-finite: {loss}")
    return loss


def evaluate_with_gradients(loss_fn: LossFn, params, inputs):
    """Evaluate a scalar loss function and return (loss, gradients w.r.t. params).

    Raises NonFiniteLossError when the loss is NaN/inf (diverged training)
    and ValueError on malformed inputs or a non-scalar output.
    """
    param_leaves = [leaf(p, requires_grad=True) for p in params]
    input_leaves = [leaf(x, requires_grad=False) for x in inputs]
    out = loss_fn(param_leaves, input_leaves)
    if out.value.shape != ():
        raise ValueError(f"loss output must be scalar, got shape {out.value.shape}")
    loss = float(out.value)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss is non-finite: {loss}")
    backward(out)
    grads = [p.grad if p.grad is not None else np.zeros_like(p.value)
             for p in param_leaves]
    return loss, grads


def grad_check(loss_fn: LossFn, params, inputs, step: float = 1e-6) -> float:
    """Max relative error between tape gradients and central differences.

    Relative error per entry is |analytic - numeric| / max(1e-8,
    |analytic| + |numeric|).
    """
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    params = [np.asarray(p, dtype=np.float64) for p in params]
    _, grads = evaluate_with_gradients(loss_fn, params, inputs)
    worst = 0.0
    for i, p in enumerate(params):
        flat = p.ravel()
        for j in range(flat.size):
            bumped = [q.copy() for q in params]
            bumped[i].ravel()[j] = flat[j] + step
            hi = evaluate_value(loss_fn, bumped, inputs)
            bumped[i].ravel()[j] = flat[j] - step
            lo = evaluate_value(loss_fn, bumped, inputs)
            numeric = (hi - lo) / (2.0 * step)
            analytic = grads[i].ravel()[j]
            err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, err)
    return worst
