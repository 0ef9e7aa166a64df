"""Direct distribution-forecasting baseline.

Estimates each feature's class-conditional density per domain with a Gaussian
KDE on a fixed grid, then trains a one-layer `autodiff.lstm_stack` over
per-domain summary rows (feature means and stds, label mean) whose state
decodes the next domain's rows wholesale, scored by the sum of per-feature
joint KLs, averaged over the truth domains as one `autodiff.kde_kl` node.
The truth side of that score (class prior, bandwidth and KDE masses of
every true domain) has no parameters, so it is built once per domain before
training, and the rows of each class are indexed once per fit. Kept as a
negative baseline: matching per-feature marginals says nothing about the
joint geometry a downstream classifier needs, which is the failure mode the
two-stage pipeline is built to avoid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .datasets import CLASSIFICATION, DomainDataset, DomainStream
from .nn import dense_params, glorot, lstm_params
from .optim import fit

__all__ = ["PrelimConfig", "default_grid", "kde_density", "train_prelim"]

Q_FLOOR = 1e-12  # density floor for the KL denominator
GRID_LO, GRID_HI = -1.2, 1.2  # default_grid's span


def default_grid(size: int) -> np.ndarray:
    """Uniform evaluation grid; the margin beyond [-1, 1] absorbs kernel tails."""
    return np.linspace(GRID_LO, GRID_HI, size)


def silverman_bandwidth(samples: np.ndarray) -> float:
    n = samples.size
    return 1.06 * samples.std(ddof=1) * n ** (-0.2)


def kde_density(samples, bandwidth: float, grid: np.ndarray) -> np.ndarray:
    """Gaussian-kernel mixture evaluated on the grid, renormalized to sum 1:
    one probability mass per grid point."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size < 2:
        raise ValueError("kde needs at least 2 samples")
    h = float(bandwidth)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    g = np.asarray(grid, dtype=np.float64)
    dens = np.exp(-0.5 * ((g[:, None] - samples[None, :]) / h) ** 2).sum(axis=1)
    dens /= samples.size * h * np.sqrt(2.0 * np.pi)
    total = dens.sum()
    if not total > 0:
        raise ValueError("no kernel mass on the grid")
    return dens / total


def _class_values(dataset: DomainDataset, feature: int, label: float) -> np.ndarray:
    vals = dataset.features[dataset.labels == label, feature]
    if vals.size < 2:
        raise ValueError(f"label class {label:g} has fewer than 2 rows")
    return vals


def _truth_side(truth: DomainDataset, grid: np.ndarray) -> list:
    """The parameter-free side of the joint KL against `truth`: for each
    feature, for class 0 then 1, (class prior, Silverman bandwidth, log of
    the KDE masses times the prior, floored at Q_FLOOR). The prior is the
    truth's empirical class frequencies."""
    prior = (np.mean(truth.labels == 0.0), np.mean(truth.labels == 1.0))
    side = []
    for i, name in enumerate(truth.feature_names):
        per_class = []
        for cls, pr in zip((0.0, 1.0), prior):
            try:
                vals = _class_values(truth, i, cls)
                h = silverman_bandwidth(vals)
                q = kde_density(vals, bandwidth=h, grid=grid)
            except ValueError as err:
                raise ValueError(f"domain {truth.domain_index}, feature {name}: "
                                 f"{err}") from None
            per_class.append((pr, h, np.log(np.maximum(q * pr, Q_FLOOR))))
        side.append(per_class)
    return side


@dataclass(frozen=True)
class PrelimConfig:
    hidden_dim: int = 32
    embed_dim: int = 8
    learning_rate: float = 1e-2
    grid_size: int = 256
    max_epochs: int = 300
    patience: int = 50

    def __post_init__(self):
        if not self.learning_rate > 0:  # also rejects NaN
            raise ValueError("learning_rate must be positive")
        if min(self.hidden_dim, self.embed_dim, self.grid_size,
               self.max_epochs, self.patience) < 1:
            raise ValueError("sizes must be positive")


def _summaries(domains) -> list:
    """Per domain a (1, 2d + 1) row: feature means, feature stds, label mean."""
    return [np.array([[*dom.features.mean(axis=0), *dom.features.std(axis=0),
                       dom.labels.mean()]]) for dom in domains]


def _init_prelim(d: int, n_rows: int, config: PrelimConfig, rng) -> list:
    """The one-layer LSTM's [w, b], then the decoder's, drawn in that order."""
    hd = config.hidden_dim
    return [*lstm_params(rng, 2 * d + 1, hd, 1),
            rng.standard_normal((n_rows, config.embed_dim)),
            glorot(rng, config.embed_dim, hd), glorot(rng, hd, hd),
            np.zeros((1, hd)), *dense_params(rng, (hd, d))]


def _decode_rows(params, state):
    """The rows decoded from `state`: one `autodiff.mix_decode` node over the
    params after the LSTM's."""
    return ad.mix_decode(params[2:], state)


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
    truth_sides = [_truth_side(truth, grid) for truth in sources[1:]]
    classes = [np.flatnonzero(labels == cls) for cls in (0.0, 1.0)]

    def build(ps):
        # the decode after domains 1..t is scored against domain t+1; the
        # last source only feeds the final decode
        states = ad.lstm_stack(ps[:2], summaries[:-1])
        return ad.kde_kl([_decode_rows(ps, state) for state in states], classes,
                         grid, truth_sides)

    best_params, _ = fit(build, params, config)

    state = ad.lstm_stack(best_params[:2], summaries)[-1]
    rows = _decode_rows(best_params, state)
    return DomainDataset(domain_index=last.domain_index + 1, features=rows,
                         labels=labels, task=CLASSIFICATION,
                         feature_names=last.feature_names)
