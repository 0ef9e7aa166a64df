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
    """

    def __init__(self, shapes, lr: float = 1e-3):
        if not lr > 0:  # also rejects NaN
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.t = 0
        self.m = [np.zeros(s, dtype=np.float64) for s in shapes]
        self.v = [np.zeros(s, dtype=np.float64) for s in shapes]

    def step(self, params, grads):
        """Apply one update in place and return the params list."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError(
                f"expected {len(self.m)} params/grads, got {len(params)}/{len(grads)}")
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for i, (p, g) in enumerate(zip(params, grads)):
            g = np.asarray(g, dtype=np.float64)
            if g.shape != self.m[i].shape:
                raise ValueError(
                    f"grad {i} shape {g.shape} does not match state {self.m[i].shape}")
            if not np.all(np.isfinite(g)):
                raise ArithmeticError(f"non-finite gradient in slot {i}")
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * (g * g)
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
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
