"""Numpy references that tests score the package against: the forecasting
loss on finished matrices, the density baseline's joint KL between two
datasets, total variation by enumerating every event, gradients by central
differences, and one loss's value and flat gradient (`value_and_grad`)."""
import numpy as np

from driftsim.autodiff import CLAMP, LossFn, evaluate_value, evaluate_with_gradients, views
from driftsim.bounds import FiniteJointDistribution, _align
from driftsim.datasets import CLASSIFICATION, DomainDataset
from driftsim.density_baseline import (Q_FLOOR, _class_values, default_grid,
                                       kde_density, silverman_bandwidth)

PRELIM_GRID_SIZE = 256  # the grid `prelim_loss` scores on


def _bce_terms(pred01: np.ndarray, true01: np.ndarray) -> np.ndarray:
    q = np.clip(pred01, CLAMP, 1.0 - CLAMP)
    return -(true01 * np.log(q) + (1.0 - true01) * np.log(1.0 - q))


def cp_loss(predictions: list, truths: list, lambda_ce: float) -> float:
    """Sum over aligned pairs of Frobenius + elementwise-L1 + λ·mean-BCE.

    BCE treats each entry, mapped from [-1,1] to [0,1], as a soft binary
    target, averaged over all m² positions (clamped away from {0,1}, so the
    diagonal adds a constant ~1e-6 per row).
    """
    if len(predictions) != len(truths):
        raise ValueError(f"{len(predictions)} predictions vs {len(truths)} truths")
    total = 0.0
    for pred, truth in zip(predictions, truths):
        if pred.dim != truth.dim:
            raise ValueError("matrix dim mismatch in loss")
        diff = pred.entries - truth.entries
        fro = float(np.sqrt((diff * diff).sum()))
        l1 = float(np.abs(diff).sum())
        bce = float(_bce_terms((pred.entries + 1.0) / 2.0,
                               (truth.entries + 1.0) / 2.0).mean())
        total += fro + l1 + lambda_ce * bce
    return total


def _silverman_kde(vals: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return kde_density(vals, silverman_bandwidth(vals), grid)


def prelim_loss(predicted: DomainDataset, truth: DomainDataset,
                label_prior: tuple | None = None) -> float:
    """Sum over features of KL between predicted and true joint (Xᵢ, Y) grids.

    The joint is assembled per class as conditional-KDE × class prior on the
    256-point `default_grid`. The prior defaults to the truth's empirical
    class frequencies; pass an explicit (p₀, p₁) to pin it. Each side uses
    its own Silverman bandwidth, so identical datasets score exactly 0. The
    truth side is built for every feature before the predicted side, and its
    errors name the truth's domain and feature.
    """
    if predicted.task != CLASSIFICATION or truth.task != CLASSIFICATION:
        raise ValueError("prelim loss is defined for classification domains")
    if predicted.d != truth.d:
        raise ValueError("feature counts differ")
    grid = default_grid(PRELIM_GRID_SIZE)
    if label_prior is None:
        label_prior = (np.mean(truth.labels == 0.0), np.mean(truth.labels == 1.0))
    log_qs = []
    for i, name in enumerate(truth.feature_names):
        for cls, prior in zip((0.0, 1.0), label_prior):
            try:
                q = _silverman_kde(_class_values(truth, i, cls), grid)
            except ValueError as err:
                raise ValueError(f"domain {truth.domain_index}, feature {name}: "
                                 f"{err}") from None
            log_qs.append((i, cls, prior, np.log(np.maximum(q * prior, Q_FLOOR))))
    total = 0.0
    for i, cls, prior, log_q in log_qs:
        pm = _silverman_kde(_class_values(predicted, i, cls), grid) * prior
        mask = pm > 0
        total += float(np.sum(pm[mask] * (np.log(pm[mask]) - log_q[mask])))
    return total


def tv_dual_exhaustive(p: FiniteJointDistribution, q: FiniteJointDistribution) -> float:
    """sup over all events E of |P(E) - Q(E)|, by enumerating every event.

    Exponential in the union support size; guarded to 20 points. An
    independent oracle for `bounds.tv_exact`'s half-sum form.
    """
    pts, pw, qw = _align(p, q)
    k = len(pts)
    if k > 20:
        raise ValueError(f"support of size {k} is too large to enumerate events")
    membership = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
    gaps = membership @ (pw - qw)
    return float(np.abs(gaps).max())


def value_and_grad(loss_fn: LossFn, params) -> tuple:
    """(loss, gradient) of `loss_fn(params)`: `evaluate_with_gradients` into a
    new vector laid out like `optim.flat(params)`."""
    grad = np.empty(sum(np.size(p) for p in params))
    return evaluate_with_gradients(loss_fn, params, views(grad, params)), grad


def grad_check(loss_fn: LossFn, params, step: float = 1e-6) -> float:
    """Max relative error between tape gradients and central differences.

    Relative error per entry is |analytic - numeric| / max(1e-8,
    |analytic| + |numeric|).
    """
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    params = [np.asarray(p, dtype=np.float64) for p in params]
    _, grad = value_and_grad(loss_fn, params)
    worst, offset = 0.0, 0
    for i, p in enumerate(params):
        flat = p.ravel()
        for j in range(flat.size):
            bumped = [q.copy() for q in params]
            bumped[i].ravel()[j] = flat[j] + step
            hi = evaluate_value(loss_fn, bumped)
            bumped[i].ravel()[j] = flat[j] - step
            lo = evaluate_value(loss_fn, bumped)
            numeric = (hi - lo) / (2.0 * step)
            analytic = grad[offset + j]
            err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, err)
        offset += flat.size
    return worst
