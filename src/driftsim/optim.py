"""Adam optimizer for lists of float64 parameter arrays, and the full-batch
early-stopping loop that the predictor, prelim and downstream models share."""
from __future__ import annotations

import copy

import numpy as np

from . import autodiff as ad

__all__ = ["Adam", "fit"]


class Adam:
    """Adam with bias-corrected first/second moment estimates.

    update: m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2;
    p <- p - lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps).
    """

    def __init__(self, shapes, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s, dtype=np.float64) for s in shapes]
        self.v = [np.zeros(s, dtype=np.float64) for s in shapes]

    def step(self, params, grads):
        """Apply one update in place and return the params list."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError(
                f"expected {len(self.m)} params/grads, got {len(params)}/{len(grads)}")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for i, (p, g) in enumerate(zip(params, grads)):
            g = np.asarray(g, dtype=np.float64)
            if g.shape != self.m[i].shape:
                raise ValueError(
                    f"grad {i} shape {g.shape} does not match state {self.m[i].shape}")
            if not np.all(np.isfinite(g)):
                raise ArithmeticError(f"non-finite gradient in slot {i}")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return params


def fit(loss_fn, params: list, inputs: list, config):
    """Full-batch Adam on `loss_fn(params, inputs)`, updating `params` in place.

    Each epoch scores the params, keeps a copy if the loss beats the best by
    more than `config.tol`, then steps; it stops after `config.patience`
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
        if loss < best_loss - config.tol:
            best_loss, best_params, stale = loss, copy.deepcopy(params), 0
        else:
            stale += 1
            if stale >= config.patience:
                break
        opt.step(params, grads)
    return best_params, history
