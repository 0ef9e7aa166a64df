"""Adam optimizer for lists of float64 parameter arrays, and the full-batch
early-stopping loop that the predictor, prelim and downstream models share."""
from __future__ import annotations

import copy

import numpy as np

from . import autodiff as ad

__all__ = ["Adam", "fit"]
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decays, denominator guard
TOL = 1e-5  # least loss gain that counts as a new best, in every training loop


class Adam:
    """Adam with bias-corrected first/second moment estimates.

    update: m <- BETA1*m + (1-BETA1)*g; v <- BETA2*v + (1-BETA2)*g^2;
    p <- p - lr * (m/(1-BETA1^t)) / (sqrt(v/(1-BETA2^t)) + EPS).
    """

    def __init__(self, shapes, lr: float = 1e-3):
        if lr <= 0:
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


def fit(loss_fn, params: list, inputs: list, config):
    """Full-batch Adam on `loss_fn(params, inputs)`, updating `params` in place.

    Each epoch scores the params, keeps a copy if the loss beats the best by
    more than `TOL`, then steps; it stops after `config.patience`
    epochs without such a gain. Returns (kept params, every scored loss).
    """
    opt = Adam([p.shape for p in params], lr=config.learning_rate)
    best_loss = np.inf
    best_params = copy.deepcopy(params)
    stale = 0
    history = []
    for _ in range(config.max_epochs):
        loss, grads = ad.evaluate_with_gradients(loss_fn, params, inputs)
        history.append(loss)
        if loss < best_loss - TOL:
            best_loss, best_params, stale = loss, copy.deepcopy(params), 0
        else:
            stale += 1
            if stale >= config.patience:
                break
        opt.step(params, grads)
    return best_params, history
