"""Adam and `train`, the one early-stopping loop of every trainer (`fit` is
its full-batch form), on one float64 vector per model: `flat` lays a model's
parameter arrays out in it, and the arrays become views of it."""
from __future__ import annotations

import ctypes
import functools

import numpy as np

from . import autodiff as ad

__all__ = ["flat", "Adam", "train", "fit"]
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decays, denominator guard
TOL = 1e-5  # least loss gain that counts as a new best, in every training loop


def flat(arrays) -> tuple:
    """(vector, views): a new float64 vector holding `arrays` in order, and a
    view into it shaped like each array. A non-finite entry is refused, so
    a trainer checks its params once; `Adam.step` keeps them finite."""
    theta = np.concatenate(arrays, axis=None, dtype=np.float64)
    if not np.isfinite(theta).all():
        raise ValueError(f"non-finite parameter at entry {np.argmin(np.isfinite(theta))}")
    return theta, ad.views(theta, arrays)


class Adam:
    """Adam with bias-corrected first/second moment estimates, on one vector.

    update: m <- BETA1*m + (1-BETA1)*g; v <- BETA2*v + (1-BETA2)*g^2;
    theta <- theta - lr * (m/(1-BETA1^t)) / (sqrt(v/(1-BETA2^t)) + EPS),
    computed elementwise in place with two preallocated scratch vectors.
    """

    def __init__(self, size: int, lr: float = 1e-3):
        if not lr > 0:  # also rejects NaN
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr, self.t = lr, 0
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._u, self._s = np.empty(size), np.empty(size)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Update `theta` in place from `grad`. A gradient of the wrong size,
        with a non-finite entry or whose square overflows is refused before
        anything changes. An update that overflows is refused before `theta`
        changes but after `t` and both moments took the step, so the
        optimizer is then spent."""
        if theta.shape != self.m.shape or grad.shape != self.m.shape:
            raise ValueError(f"expected {self.m.size} entries, got {theta.size}/{grad.size}")
        if not np.isfinite(grad).all():
            raise ArithmeticError(
                f"non-finite gradient at entry {np.argmin(np.isfinite(grad))}")
        m, v, u, s = self.m, self.v, self._u, self._s
        with np.errstate(over="raise"):  # FloatingPointError, an ArithmeticError
            np.multiply(grad, grad, out=u)
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        m *= BETA1
        m += np.multiply(grad, 1.0 - BETA1, out=s)
        v *= BETA2
        u *= 1.0 - BETA2
        v += u
        with np.errstate(over="ignore", invalid="ignore"):  # refused by the check below
            np.divide(m, c1, out=u)          # m_hat, then the update
            u *= self.lr
            np.divide(v, c2, out=s)          # v_hat, then its denominator
            np.sqrt(s, out=s)
            s += EPS
            u /= s
            np.subtract(theta, u, out=s)     # the stepped params
        if not np.isfinite(s).all():
            raise ArithmeticError(
                f"non-finite update at entry {np.argmin(np.isfinite(s))}")
        np.copyto(theta, s)


@functools.cache
def _keep_heap() -> None:
    """Have glibc's malloc serve arrays up to 32 MiB from its heap and keep up
    to 64 MiB of freed heap for reuse, once per process (`train` calls it).
    By default it maps each array above 128 kB afresh and hands freed memory
    at the top of its heap back to the system, so each training step's large
    arrays (a 512 x 72 layer is 288 kB) arrive as fresh pages: hundreds of
    page faults per simulator step. Elsewhere this does nothing; fork keeps
    the settings in the workers."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no libc symbol table, or not glibc
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def train(theta: np.ndarray, epoch, readout, config, epochs: int, warmup: int = 0,
          hold: int = 1) -> list:
    """Adam on the vector `theta` in place; leaves it at the kept params and
    returns every readout.

    The history opens with `readout()` of the init; then each of at most
    `epochs` epochs runs `epoch(e, opt)` and appends `readout()`. A record,
    the largest of the last `hold` readouts beating the best by more than
    `TOL`, keeps a copy of `theta`. If `warmup` > 0, Adam restarts at
    epoch `warmup`; only epochs from `warmup` on count toward the
    `config.patience` stale epochs that stop training. The first call in a
    process sets the heap up for repeated steps (`_keep_heap`).
    """
    _keep_heap()
    history = [readout()]
    best, kept, stale = history[0], theta.copy(), 0
    for e in range(epochs):
        if e in (0, warmup):
            opt = Adam(theta.size, lr=config.learning_rate)
        epoch(e, opt)
        history.append(readout())
        stat = max(history[-hold:])
        if stat < best - TOL:
            best, stale = stat, 0
            np.copyto(kept, theta)
        elif e >= warmup:
            stale += 1
            if stale >= config.patience:
                break
    np.copyto(theta, kept)
    return history


def fit(loss_fn, params: list, config):
    """Full-batch `train` on `loss_fn` of a copy of `params`; returns (kept
    params, every readout). Each readout scores the params and writes their
    gradient into the fit's one gradient vector, and each epoch is one Adam
    step on it, so `config.max_epochs` readouts take one step fewer."""
    theta, views = flat(params)
    grad = np.empty_like(theta)
    grads = ad.views(grad, params)

    def readout():
        return ad.evaluate_with_gradients(loss_fn, views, grads)

    history = train(theta, lambda e, opt: opt.step(theta, grad), readout, config,
                    config.max_epochs - 1)
    return views, history
