"""Direct distribution-forecasting baseline.

Estimates each feature's class-conditional density per domain with a Gaussian
KDE on a fixed grid, then trains a small recurrent model to emit the next
domain's rows wholesale, scored by the sum of per-feature joint KLs. Kept as
a negative baseline: matching per-feature marginals says nothing about the
joint geometry a downstream classifier needs, which is the failure mode the
two-stage pipeline is built to avoid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .datasets import CLASSIFICATION, DomainDataset, DomainStream
from .nn import dense_params, glorot, lstm_cell
from .optim import fit

__all__ = ["DensityGrid", "PrelimConfig", "default_grid", "kde_density",
           "prelim_loss", "train_prelim"]

Q_FLOOR = 1e-12  # density floor for the KL denominator


@dataclass(frozen=True)
class DensityGrid:
    """Probability masses over a fixed 1-D grid of evaluation points."""

    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        ms = np.asarray(self.masses, dtype=np.float64)
        if pts.ndim != 1 or pts.shape != ms.shape or pts.size < 2:
            raise ValueError("grid needs matching 1-D points and masses, size >= 2")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(ms))):
            raise ValueError("grid contains non-finite entries")
        if np.min(ms) < -1e-15:
            raise ValueError("masses must be non-negative")
        if abs(ms.sum() - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1, got {ms.sum()!r}")
        pts.setflags(write=False)
        ms.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)


def default_grid(size: int = 256, lo: float = -1.2, hi: float = 1.2) -> np.ndarray:
    """Uniform evaluation grid; the margin beyond [-1, 1] absorbs kernel tails."""
    return np.linspace(lo, hi, size)


def silverman_bandwidth(samples: np.ndarray) -> float:
    n = samples.size
    return 1.06 * samples.std(ddof=1) * n ** (-0.2)


def kde_density(samples, bandwidth="auto", grid: np.ndarray | None = None) -> DensityGrid:
    """Gaussian-kernel mixture evaluated on the grid, renormalized to sum 1."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size < 2:
        raise ValueError("kde needs at least 2 samples")
    h = silverman_bandwidth(samples) if bandwidth == "auto" else float(bandwidth)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    g = default_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    dens = np.exp(-0.5 * ((g[:, None] - samples[None, :]) / h) ** 2).sum(axis=1)
    dens /= samples.size * h * np.sqrt(2.0 * np.pi)
    return DensityGrid(points=g, masses=dens / dens.sum())


def _class_values(dataset: DomainDataset, feature: int, label: float) -> np.ndarray:
    vals = dataset.features[dataset.labels == label, feature]
    if vals.size < 2:
        raise ValueError(f"label class {label:g} has fewer than 2 rows")
    return vals


def prelim_loss(predicted: DomainDataset, truth: DomainDataset,
                label_prior: tuple | None = None) -> float:
    """Sum over features of KL between predicted and true joint (Xᵢ, Y) grids.

    The joint is assembled per class as conditional-KDE × class prior. The
    prior defaults to the truth's empirical class frequencies; pass an
    explicit (p₀, p₁) to pin it. Each side uses its own Silverman bandwidth,
    so identical datasets score exactly 0.
    """
    if predicted.task != CLASSIFICATION or truth.task != CLASSIFICATION:
        raise ValueError("prelim loss is defined for classification domains")
    if predicted.d != truth.d:
        raise ValueError("feature counts differ")
    if label_prior is None:
        label_prior = (float(np.mean(truth.labels == 0.0)),
                       float(np.mean(truth.labels == 1.0)))
    total = 0.0
    for i in range(truth.d):
        for cls, prior in zip((0.0, 1.0), label_prior):
            p = kde_density(_class_values(predicted, i, cls))
            q = kde_density(_class_values(truth, i, cls))
            qm = np.maximum(q.masses * prior, Q_FLOOR)
            pm = p.masses * prior
            mask = pm > 0
            total += float(np.sum(pm[mask] * np.log(pm[mask] / qm[mask])))
    return total


@dataclass(frozen=True)
class PrelimConfig:
    hidden_dim: int = 32
    embed_dim: int = 8
    learning_rate: float = 1e-2
    grid_size: int = 256
    max_epochs: int = 300
    patience: int = 50
    tol: float = 1e-5

    def __post_init__(self):
        if min(self.hidden_dim, self.embed_dim, self.grid_size,
               self.max_epochs, self.patience) < 1:
            raise ValueError("sizes must be positive")


def _summaries(domains) -> np.ndarray:
    rows = []
    for dom in domains:
        x = dom.features
        rows.append(np.concatenate([x.mean(axis=0), x.std(axis=0),
                                    [dom.labels.mean()]]))
    return np.array(rows)


def _init_prelim(d: int, n_rows: int, config: PrelimConfig, rng) -> list:
    in_dim = 2 * d + 1
    hd = config.hidden_dim
    w_x = glorot(rng, in_dim, 4 * hd)
    w_h = glorot(rng, hd, 4 * hd)
    b = np.zeros((1, 4 * hd))
    b[0, hd:2 * hd] = 1.0  # forget-gate bias
    embed = rng.standard_normal((n_rows, config.embed_dim))
    w_e = glorot(rng, config.embed_dim, hd)
    w_s = glorot(rng, hd, hd)
    b_mix = np.zeros((1, hd))
    return [w_x, w_h, b, embed, w_e, w_s, b_mix, *dense_params(rng, (hd, d))]


def _lstm_states(params, summaries):
    """Hidden state after consuming summary rows 1..t, for every t."""
    w_x, w_h, b = params[0], params[1], params[2]
    hd = w_h.shape[0]
    h = ad.constant(np.zeros((1, hd)))
    c = ad.constant(np.zeros((1, hd)))
    states = []
    for t in range(summaries.shape[0]):
        row = ad.constant(summaries[t:t + 1])
        h, c = lstm_cell(row @ w_x + h @ w_h + b, c, hd)
        states.append(h)
    return states


def _decode_rows(params, state):
    _, _, _, embed, w_e, w_s, b_mix, w_out, b_out = params
    mix = ad.tanh(embed @ w_e + state @ w_s + b_mix)
    return ad.tanh(mix @ w_out + b_out)


def _joint_kl_graph(rows, labels, truth: DomainDataset, grid: np.ndarray):
    """Differentiable Eq.-1-style loss of generated rows against a true domain.

    Bandwidths and the truth densities are constants (truth side has no
    parameters); only the generated sample positions carry gradients.
    """
    loss = None
    prior = (np.mean(truth.labels == 0.0), np.mean(truth.labels == 1.0))
    for i in range(truth.d):
        col = rows[:, i:i + 1]
        for cls, pr in zip((0.0, 1.0), prior):
            truth_vals = _class_values(truth, i, cls)
            h = silverman_bandwidth(truth_vals)
            q = kde_density(truth_vals, bandwidth=h, grid=grid)
            qm = np.maximum(q.masses * pr, Q_FLOOR)
            idx = np.flatnonzero(labels == cls)
            vals = ad.transpose(col[idx.tolist(), :])          # 1 x n_c
            diff = (ad.constant(grid[:, None]) - vals) * (1.0 / h)
            dens = ad.reduce_sum(ad.exp(diff * diff * (-0.5)), axis=1)
            p = dens * (1.0 / ad.reduce_sum(dens)) * pr
            term = ad.reduce_sum(p * (ad.log(p) - np.log(qm)))
            loss = term if loss is None else loss + term
    return loss


def train_prelim(stream: DomainStream, config: PrelimConfig,
                 seed: int = 0) -> DomainDataset:
    """Fit the recurrent density forecaster and emit the synthetic next domain.

    The model consumes per-domain summary rows; after seeing domains 1..t it
    decodes a fixed set of rows (balanced labels by construction) scored
    against domain t+1. The returned dataset is the decode after the full
    source history. `seed` draws the init.
    """
    if stream.task != CLASSIFICATION:
        raise ValueError("prelim baseline is defined for classification streams")
    sources = stream.sources
    if len(sources) < 3:
        raise ValueError("needs at least 3 source domains")
    last = sources[-1]
    n_rows = last.n
    labels = np.zeros(n_rows)
    labels[n_rows // 2:] = 1.0
    summaries = _summaries(sources)
    grid = default_grid(config.grid_size)
    rng = np.random.default_rng(seed)
    params = _init_prelim(last.d, n_rows, config, rng)

    def build(ps, ins):
        states = _lstm_states(ps, summaries)
        loss = None
        for t in range(len(sources) - 1):
            rows = _decode_rows(ps, states[t])
            term = _joint_kl_graph(rows, labels, sources[t + 1], grid)
            loss = term if loss is None else loss + term
        return loss * (1.0 / (len(sources) - 1))

    best_params, _ = fit(build, params, [], config)

    frozen = [ad.constant(p) for p in best_params]
    states = _lstm_states(frozen, summaries)
    rows = _decode_rows(frozen, states[-1]).value
    return DomainDataset(domain_index=last.domain_index + 1, features=rows,
                         labels=labels, task=CLASSIFICATION,
                         feature_names=last.feature_names)
