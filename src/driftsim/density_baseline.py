"""Direct distribution-forecasting baseline.

Estimates each feature's class-conditional density per domain with a Gaussian
KDE on a fixed grid, then trains a one-layer LSTM over per-domain summary
rows (feature means and stds, label mean) whose state decodes the next
domain's rows wholesale, scored by the sum of per-feature joint KLs,
averaged over the truth domains: one value-and-VJP pair, `prelim_loss`,
over all the params; the final decode runs the same forward.
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

__all__ = ["PrelimConfig", "default_grid", "kde_density", "truth_side", "kde_kl",
           "prelim_loss", "train_prelim"]

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


def truth_side(truth: DomainDataset, grid: np.ndarray) -> list:
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
    """The one-layer LSTM's [w, b], then the decoder's (`_mix_decode`'s),
    drawn in that order."""
    hd = config.hidden_dim
    return [*lstm_params(rng, 2 * d + 1, hd, 1),
            rng.standard_normal((n_rows, config.embed_dim)),
            glorot(rng, config.embed_dim, hd), glorot(rng, hd, hd),
            np.zeros((1, hd)), *dense_params(rng, (hd, d))]


def _mix_decode(params, state) -> tuple:
    """(the density baseline's decoded rows, their VJP: the gradient of the
    rows -> (one gradient per param, that of `state`)). `params` is [embed,
    w_e, w_s, b, then [w, b] pairs]; each row of `embed` is mixed with the
    (1, hidden) `state` as `tanh(embed @ w_e + state @ w_s + b)`, and the
    pairs map the mix as `autodiff.dense(pairs, mix, last=tanh)`. The
    forward and the VJP repeat the composition in `tests/unfused.py` (two
    matmuls, two broadcasting adds, tanh, then the dense stack) in the order
    its tape replay ran it, so the rows and every gradient are bit-identical
    to it."""
    embed, w_e, w_s, b = params[:4]
    mix = np.tanh(embed @ w_e + state @ w_s + b)
    acts = ad.stack(params[4:], mix, None, ad.tanh)

    def vjp(g):
        g_mix, g_out = ad.stack_vjp(g, params[4:], acts, None, ad.tanh, True)
        g_mix = g_mix * (1.0 - mix * mix)
        g_s = ad.unbroadcast(g_mix, (state.shape[0], w_s.shape[1]))
        return [g_mix @ w_e.T, embed.T @ g_mix, state.T @ g_s, ad.unbroadcast(g_mix, b.shape),
                *g_out], g_s @ w_s.T

    return acts[-1], vjp


def _kde_kl_term(vals, grid, bandwidth: float, prior: float, log_q, g):
    """(`sum(p * (log p - log_q))`, its gradient with respect to `vals` given
    the upstream gradient `g`). `p` is `prior` times the Gaussian-kernel
    masses of the samples `vals` on `grid`, normalized to sum 1; `diff` and
    the kernel matrix `e` (grid × samples) live only in this call."""
    scale = 1.0 / bandwidth
    diff = np.subtract(grid[:, None], vals)
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
    value = (p * r).sum()
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
    return value, buf.sum(axis=0)


def kde_kl(rows, classes, grid, truth_sides) -> tuple:
    """The density baseline's KDE-KL over the rows generated for every
    truth domain, as (value, VJP: the gradient of the value -> one gradient
    per entry of `rows`): the mean over domains t of the sum, over features
    `column` and classes c, of `sum(p * (log p - log_q))`.

    `rows[t]` holds the (n, d) rows scored against domain t, and
    `truth_sides[t][column][c]` that domain's (prior, bandwidth, log_q), as
    `truth_side` builds it. `p` is `prior` times the Gaussian-kernel masses
    of `rows[t][classes[c], column]` (`classes` are disjoint arrays of
    distinct row indices) on `grid`, normalized to sum 1. Each term repeats
    the composition in `tests/unfused.py`; the terms are summed per domain
    in feature-then-class order, the domain sums left to right, then scaled
    by `1 / len(rows)`, as that chain of per-term nodes and `add`s did.

    The terms are independent, so each term's gradient is formed right
    after its value, for the gradient `1 / len(rows)` that the chain hands
    every term of a loss, and no kernel matrix outlives its term; the
    domain keeps one (n, d) gradient. The VJP scales those by the gradient
    it is given: at `g = 1`, the gradient `autodiff.backward` hands a loss,
    every gradient is bit-identical to the chain's, otherwise equal up to
    rounding.
    """
    weight = 1.0 / len(rows)
    loss, grads = None, []
    for r, side in zip(rows, truth_sides, strict=True):
        full = np.zeros_like(r)
        domain = None
        for column, per_class in enumerate(side):
            for idx, (prior, bandwidth, log_q) in zip(classes, per_class, strict=True):
                term, full[idx, column] = _kde_kl_term(r[idx, column], grid, bandwidth,
                                                       prior, log_q, weight)
                domain = term if domain is None else domain + term
        grads.append(full)
        loss = domain if loss is None else loss + domain

    def vjp(g):
        return [full * g for full in grads]

    return loss * weight, vjp


def prelim_loss(params, summaries, classes, grid, truth_sides) -> tuple:
    """The density baseline's loss as one value-and-VJP pair over all the
    params (the one-layer LSTM's [w, b], then the decoder's; see
    `_init_prelim`): the `autodiff.lstm` of the LSTM's pair runs over the
    (1, 2d + 1) `summaries`, `_mix_decode` of the decoder's params decodes
    after each of them, and `kde_kl` scores each decode against the matching
    truth domain of `truth_sides`.

    The VJP runs the pieces' VJPs in the order the tape replay of their
    composition in `tests/unfused.py` ran them: the KL's, per domain the
    decode's, then the stack's; so each decoder param sums its domains'
    gradients from the first to the last, and the value and every gradient
    are bit-identical to that tape's.
    """
    lstm, decoder = params[:2], params[2:]
    states, stack_vjp = ad.lstm(lstm, summaries)
    decodes = [_mix_decode(decoder, state) for state in states]
    value, kl_vjp = kde_kl([rows for rows, _ in decodes], classes, grid, truth_sides)

    def vjp(g):
        g_decoder, g_states = [], []
        for (_, decode_vjp), g_rows in zip(decodes, kl_vjp(g)):
            grads, g_state = decode_vjp(g_rows)
            g_decoder.append(grads)
            g_states.append(g_state)
        return [*stack_vjp(g_states)[0], *ad.sums(g_decoder)]

    return value, vjp


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
    truth_sides = [truth_side(truth, grid) for truth in sources[1:]]
    classes = [np.flatnonzero(labels == cls) for cls in (0.0, 1.0)]

    # the decode after domains 1..t is scored against domain t+1; the last
    # source only feeds the final decode
    best_params, _ = fit(lambda ps: prelim_loss(ps, summaries[:-1], classes, grid,
                                                truth_sides), params, config)
    rows, _ = _mix_decode(best_params[2:], ad.lstm(best_params[:2], summaries)[0][-1])
    return DomainDataset(domain_index=last.domain_index + 1, features=rows,
                         labels=labels, task=CLASSIFICATION,
                         feature_names=last.feature_names)
