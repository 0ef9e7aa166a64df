"""Adam for lists of float64 parameter arrays, and `train`, the one
early-stopping loop of every trainer (`fit` is its full-batch form)."""
from __future__ import annotations

import copy

import numpy as np

from . import autodiff as ad

__all__ = ["Adam", "train", "fit"]
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decays, denominator guard
TOL = 1e-5  # least loss gain that counts as a new best, in every training loop


class Adam:
    """Adam with bias-corrected first/second moment estimates.

    update: m <- BETA1*m + (1-BETA1)*g; v <- BETA2*v + (1-BETA2)*g^2;
    p <- p - lr * (m/(1-BETA1^t)) / (sqrt(v/(1-BETA2^t)) + EPS).
    The moments of all parameters live in one flat vector each, and the
    update runs on them with two preallocated scratch vectors; each
    parameter then subtracts its slice of the update.
    """

    def __init__(self, shapes, lr: float = 1e-3):
        if not lr > 0:  # also rejects NaN
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.t = 0
        self._shapes = [tuple(s) for s in shapes]
        sizes = [int(np.prod(s)) for s in self._shapes]
        self._bounds = np.cumsum([0] + sizes)
        self.m = np.zeros(self._bounds[-1])
        self.v = np.zeros_like(self.m)
        self._g = np.empty_like(self.m)
        self._s = np.empty_like(self.m)

    def step(self, params, grads):
        """Apply one update in place and return the params list. A refused
        step (a wrong count or shape, a non-finite gradient) changes nothing."""
        if len(params) != len(self._shapes) or len(grads) != len(self._shapes):
            raise ValueError(f"expected {len(self._shapes)} params/grads, "
                             f"got {len(params)}/{len(grads)}")
        g, s = self._g, self._s
        for i, (p, grad, shape, lo, hi) in enumerate(
                zip(params, grads, self._shapes, self._bounds[:-1], self._bounds[1:])):
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != shape or p.shape != shape:
                raise ValueError(f"param/grad {i} shapes {p.shape}/{grad.shape} "
                                 f"do not match state {shape}")
            g[lo:hi] = grad.ravel()
        if not np.isfinite(g).all():
            bad = np.searchsorted(self._bounds, np.argmin(np.isfinite(g)), "right") - 1
            raise ArithmeticError(f"non-finite gradient in slot {bad}")
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        m, v = self.m, self.v
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=s)
        v *= BETA2
        np.multiply(g, g, out=s)
        s *= 1.0 - BETA2
        v += s
        np.divide(m, c1, out=g)          # g: m_hat, then the update
        g *= self.lr
        np.divide(v, c2, out=s)          # s: v_hat, then its denominator
        np.sqrt(s, out=s)
        s += EPS
        g /= s
        for p, lo, hi in zip(params, self._bounds[:-1], self._bounds[1:]):
            p -= g[lo:hi].reshape(p.shape)
        return params


def train(params: list, epoch, readout, config, epochs: int, warmup: int = 0,
          hold: int = 1):
    """Adam on `params` in place; returns (kept params, every readout).

    The history opens with `readout()` of the init; then each of at most
    `epochs` epochs runs `epoch(e, opt)` and appends `readout()`. A record,
    the largest of the last `hold` readouts beating the best by more than
    `TOL`, keeps a copy of the params. If `warmup` > 0, Adam restarts at
    epoch `warmup`; only epochs from `warmup` on count toward the
    `config.patience` stale epochs that stop training.
    """
    history = [readout()]
    best, best_params, stale = history[0], copy.deepcopy(params), 0
    for e in range(epochs):
        if e in (0, warmup):
            opt = Adam([p.shape for p in params], lr=config.learning_rate)
        epoch(e, opt)
        history.append(readout())
        stat = max(history[-hold:])
        if stat < best - TOL:
            best, best_params, stale = stat, copy.deepcopy(params), 0
        elif e >= warmup:
            stale += 1
            if stale >= config.patience:
                break
    return best_params, history


def fit(loss_fn, params: list, config):
    """Full-batch `train` on `loss_fn(params)`: each readout scores the params
    and keeps their gradients, and each epoch is one Adam step on them, so
    `config.max_epochs` readouts take one step fewer."""
    grads = None

    def readout():
        nonlocal grads
        loss, grads = ad.evaluate_with_gradients(loss_fn, params)
        return loss

    return train(params, lambda e, opt: opt.step(params, grads), readout, config,
                 config.max_epochs - 1)
