"""Variational generator for a future tabular domain.

An encoder/decoder pair is fit to the rows of the last observed domain; the
training objective is the negative ELBO (Gaussian reconstruction with fixed
observation variance plus analytic latent KL) plus an elementwise-L1 penalty
pulling the correlation matrix of freshly decoded prior draws toward a target
matrix (the forecast for the next domain). Sampling decodes prior draws:
features come out of tanh in [-1, 1]; a classification label column is a
sigmoid probability thresholded at 0.5.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .correlation import CorrelationMatrix
from .datasets import CLASSIFICATION, DomainDataset
from .nn import dense_params
from .optim import flat, train

__all__ = ["SimulatorConfig", "SimulatorModel", "train_simulator", "sample",
           "snapshot_draws", "loss_snapshot"]

EPS_VAR = 1e-6  # variance guard inside the differentiable batch std
SNAPSHOT_DRAWS = 2048  # prior draws for the deterministic regularizer readout


@dataclass(frozen=True)
class SimulatorConfig:
    learning_rate: float = 9e-3
    encoder_dim: int = 64
    encoder_layers: int = 3
    decoder_dim: int = 72
    decoder_layers: int = 3
    latent_dim: int = 8
    lambda_c: float = 1.0
    batch_size: int = 64
    regularizer_draws: int = 512
    obs_variance: float = 0.05
    warmup_epochs: int = 300
    max_epochs: int = 2000
    patience: int = 300

    def __post_init__(self):
        if not self.learning_rate > 0:  # also rejects NaN
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.lambda_c < np.inf:  # also rejects NaN
            raise ValueError("lambda_c must be finite and non-negative")
        if self.batch_size < 8:
            raise ValueError("batch_size must be at least 8 for batch correlation")
        if self.regularizer_draws < 8:
            raise ValueError("regularizer_draws must be at least 8")
        if not self.obs_variance > 0:  # also rejects NaN
            raise ValueError("obs_variance must be positive")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be non-negative")
        if min(self.encoder_dim, self.encoder_layers, self.decoder_dim,
               self.decoder_layers, self.latent_dim, self.max_epochs,
               self.patience) < 1:
            raise ValueError("architecture sizes must be positive")


@dataclass
class SimulatorModel:
    task: str
    config: SimulatorConfig
    params: list
    trained_on_index: int
    loss_history: list  # the init's snapshot, then one per epoch

    @property
    def d(self) -> int:
        """Feature count: the encoder's input is d features and the label."""
        return self.params[0].shape[0] - 1


def _init_params(m: int, config: SimulatorConfig, rng) -> list:
    """Flat layout: encoder trunk, mu head, log-variance head, decoder."""
    head = (config.encoder_dim, config.latent_dim)
    return (dense_params(rng, (m, *[config.encoder_dim] * config.encoder_layers))
            + dense_params(rng, head) + dense_params(rng, head)
            + dense_params(rng, (config.latent_dim,
                                 *[config.decoder_dim] * config.decoder_layers, m)))


def _split(params, config: SimulatorConfig, task: str) -> tuple:
    """(encoder params, decoder params, the label column's activation)."""
    k = 2 * config.encoder_layers + 4
    return params[:k], params[k:], ad.sigmoid if task == CLASSIFICATION else ad.tanh


def _decode(decoder, z, label) -> tuple:
    """(the decoder stack's activations, the rows that the decoder params
    `decoder` ([w, b] pairs: tanh layers, then a linear output) make of the
    latent draws `z`). Each row's last column goes through `label`
    (`ad.sigmoid` or `ad.tanh`) and the others through tanh, each part from
    a copy of its columns, as the slicing node made it."""
    acts = ad.stack(decoder, z, ad.tanh, None)
    out = acts[-1]
    features = out[:, :-1].copy()
    np.tanh(features, out=features)
    last = out[:, -1:].copy()
    last = ad.sigmoid(last) if label is ad.sigmoid else np.tanh(last, out=last)
    return acts, np.concatenate([features, last], axis=1)


def _decode_vjp(g, decoder, acts, rows, label, z_grad: bool) -> tuple:
    """`autodiff.stack_vjp` of `_decode` given the gradient `g` of its rows."""
    features, last = rows[:, :-1], rows[:, -1:]
    g_out = np.concatenate([g[:, :-1] * (1.0 - features * features),
                            g[:, -1:] * last * (1.0 - last) if label is ad.sigmoid
                            else g[:, -1:] * (1.0 - last * last)], axis=1)
    g_out += 0.0  # the slicing nodes' zero padding: -0.0 -> +0.0
    return ad.stack_vjp(g_out, decoder, acts, ad.tanh, None, z_grad)


def _elbo(enc, dec, rows, noise, obs_variance: float, label) -> tuple:
    """(the mean negative ELBO of `rows`, its VJP: the gradient of the value
    -> (one gradient per `enc` array, one per `dec` array)); see
    `_objective`."""
    n = rows.shape[0]
    trunk = ad.stack(enc[:-4], rows, ad.tanh, ad.tanh)
    h = trunk[-1]
    mu = ad.layer(h, enc[-4], enc[-3], None)
    logvar = ad.layer(h, enc[-2], enc[-1], None)
    sigma = np.exp(logvar * 0.5)
    z = mu + sigma * noise
    acts, recon = _decode(dec, z, label)
    diff = recon - rows
    scale = 0.5 / obs_variance
    var = np.exp(logvar)
    kl = ((mu * mu).sum() + var.sum() - logvar.sum()) * 0.5 - 0.5 * mu.shape[0] * mu.shape[1]
    value = ((diff * diff).sum() * scale + kl) * (1.0 / n)

    def vjp(g):
        g = g * (1.0 / n)                # reaches the reconstruction and the KL
        g_diff = (g * scale) * diff      # diff * diff reaches diff twice
        g_diff += g_diff
        g_z, g_dec = _decode_vjp(g_diff, dec, acts, recon, label, True)
        g_kl = g * 0.5
        g_mu = g_kl * mu
        g_mu = (g_z + g_mu) + g_mu
        g_logvar = ((g_z * noise) * sigma) * 0.5
        g_logvar += g_kl * var
        g_logvar += -g_kl
        g_h, g_mu_w, g_mu_b = ad.layer_vjp(g_mu, h, enc[-4], enc[-3], mu, None)
        g_h2, g_lv_w, g_lv_b = ad.layer_vjp(g_logvar, h, enc[-2], enc[-1], logvar, None)
        _, g_enc = ad.stack_vjp(g_h + g_h2, enc[:-4], trunk, ad.tanh, ad.tanh, False)
        return [*g_enc, g_mu_w, g_mu_b, g_lv_w, g_lv_b], g_dec

    return value, vjp


def _correlation_pull(dec, z, label, target, eps: float) -> tuple:
    """(the elementwise L1 between the Pearson matrix of the rows
    `_decode(dec, z, label)` and `target`, its VJP: the gradient of the
    value -> one gradient per `dec` array). Each column's variance is
    guarded by `eps` inside the square root.

    The forward and the VJP repeat the arithmetic of the composition in
    `tests/unfused.py` (`centered = batch - mean(batch)`,
    `cov = centeredᵀ @ centered * (1 / n)`,
    `std = sqrt(mean(centered * centered) + eps)`, `cov / (stdᵀ @ std)`,
    then `sum(abs(· - target))`) in the order its tape replay ran it.
    """
    acts, batch = _decode(dec, z, label)
    inv_n = 1.0 / batch.shape[0]
    centered = batch.sum(axis=0, keepdims=True)
    centered *= inv_n
    centered = np.subtract(batch, centered)
    centered_t = centered.T.copy()
    cov = centered_t @ centered
    cov *= inv_n
    sq = centered * centered
    std = sq.sum(axis=0, keepdims=True)
    std *= inv_n
    std += eps
    np.sqrt(std, out=std)
    std_t = std.T.copy()
    den = std_t @ std
    diff = cov / den
    diff -= target

    def vjp(g):
        g = g * np.sign(diff)
        # pearson = cov / den
        g_cov = g / den
        g_den = -g * cov
        g_den /= den * den
        # den = std_t @ std, then std_t = transpose(std)
        g_std = std_t.T @ g_den
        g_std += (g_den @ std.T).T
        # std = sqrt(mean(centered * centered) + eps)
        g_std *= 0.5
        g_std /= std
        g_std *= inv_n
        # cov = (centered_t @ centered) * inv_n, then centered_t = transpose(centered)
        g_cov *= inv_n
        g_c = centered_t.T @ g_cov
        g_c += (g_cov @ centered.T).T
        # centered * centered reaches centered twice
        via_sq = g_std * centered
        g_c += via_sq
        g_c += via_sq
        # centered = batch - mean(batch)
        g_mean = (-g_c).sum(axis=0, keepdims=True)
        g_mean *= inv_n
        g_c += g_mean
        return _decode_vjp(g_c, dec, acts, batch, label, False)[1]

    return np.abs(diff).sum(), vjp


def _objective(params, config: SimulatorConfig, task: str, rows, noise,
               z=None, target=None):
    """The simulator's loss as one value-and-VJP pair over all the params:
    the negative ELBO of `rows` under reparameterization `noise`, plus
    lambda_c times the correlation pull of decoded prior draws `z` toward
    `target` when `z` is given. The training steps differentiate it on
    minibatches with fresh draws; `loss_snapshot` reads its value on the
    full data with frozen draws.

    The ELBO is the batch mean of ½‖x − x̂‖²/σ₀² + KL(q(z|x) ‖ N(0, I)), σ₀²
    the fixed observation variance. On [-1, 1]-scaled columns it must sit
    well below 1, or encoding information can never repay its KL cost and
    the posterior collapses onto the prior. The encoder is a tanh trunk,
    then a linear mean head and a linear log-variance head; the latent draw
    is `z = mu + exp(logvar * 0.5) * noise`, and x̂ is its `_decode`. The
    pull is the elementwise L1 between the `EPS_VAR`-guarded Pearson matrix
    of the decoded draws and `target`.

    The forward and the VJP repeat the arithmetic of the composition in
    `tests/unfused.py` in the order its tape replay ran it, so the value and
    every gradient are bit-identical to it. Where a value reached three
    nodes the order matters: `mu` sums its gradient from `z`, then twice
    from `mu * mu`; `logvar` from `exp(logvar * 0.5)`, then `exp(logvar)`,
    then the `-logvar` of the KL. A decoder param sums the ELBO's gradient,
    then the pull's.
    """
    encoder, decoder, label = _split(params, config, task)
    value, elbo_vjp = _elbo(encoder, decoder, rows, noise, config.obs_variance, label)
    if z is not None:
        l1, pull_vjp = _correlation_pull(decoder, z, label, target, EPS_VAR)
        value = value + l1 * config.lambda_c

    def vjp(g):
        g_enc, g_dec = elbo_vjp(g)
        if z is not None:
            g_dec = [a + b for a, b in zip(g_dec, pull_vjp(g * config.lambda_c))]
        return [*g_enc, *g_dec]

    return value, vjp


def snapshot_draws(n: int, config: SimulatorConfig, regularized: bool, seed: int):
    """`loss_snapshot`'s frozen draws for n rows, one pair per (config, seed):
    the reparameterization noise and, when `regularized`, the prior draws."""
    rng = np.random.default_rng([seed, 104729])
    noise = rng.standard_normal((n, config.latent_dim))
    draws = max(SNAPSHOT_DRAWS, config.regularizer_draws)
    return noise, rng.standard_normal((draws, config.latent_dim)) if regularized else None


def loss_snapshot(params: list, data: np.ndarray, target: CorrelationMatrix | None,
                  config: SimulatorConfig, task: str, draws: tuple) -> float:
    """Full-data objective under `snapshot_draws`; prior draws add the regularizer.

    The training objective is stochastic (fresh reparameterization and prior
    draws per step), so convergence and before/after comparisons use this
    deterministic stand-in. The regularizer readout uses a prior draw much
    larger than the per-step one — checkpoint selection multiplies it by
    lambda_c, and at large lambda_c the sampling error of a small draw would
    outweigh the reconstruction term and select whichever epoch flattered
    that particular draw.
    """
    noise, z = draws
    entries = None if z is None else target.entries
    return ad.evaluate_value(
        lambda ps: _objective(ps, config, task, data, noise, z, entries), params)


def train_simulator(last_domain: DomainDataset, target_corr: CorrelationMatrix | None,
                    config: SimulatorConfig, seed: int = 0) -> SimulatorModel:
    """Fit the generator to the last source domain's rows.

    `seed` draws the init, the minibatch order and noise, and the frozen
    `snapshot_draws` that every `loss_snapshot` readout of this fit reads.

    Each minibatch step draws fresh reparameterization noise and, when
    lambda_c > 0, a fresh prior batch whose decoded correlation matrix is
    pulled toward `target_corr`. The first `warmup_epochs` epochs train on
    the plain ELBO only — the decoder has to learn the data manifold before
    the correlation pull engages, or the two terms co-adapt into degenerate
    matches. At engagement the optimizer restarts with fresh moment
    estimates: second moments accumulated under the warmup objective are
    near zero along the directions the new term pushes, which would scale
    its first gradients into a destabilizing jump. Convergence is judged on
    the deterministic `loss_snapshot` once per epoch (stochastic minibatch
    losses would defeat the tolerance `optim.TOL`). A record must hold for
    two consecutive readouts before its checkpoint is kept: minibatch
    training hovers around its attractor, and the plain argmin over hundreds
    of epochs would cherry-pick single-epoch excursions that score well on
    the objective yet sit at the edge of the basin. Training stops once
    `patience` post-warmup epochs pass without a new sustained record;
    `optim.train` applies the restart, this record rule and this patience.
    """
    m = last_domain.d + 1
    if config.lambda_c > 0:
        if target_corr is None:
            raise ValueError("lambda_c > 0 requires a target correlation matrix")
        if target_corr.dim != m:
            raise ValueError(f"target dim {target_corr.dim} does not match rows of "
                             f"width {m}")
    data = np.column_stack([last_domain.features, last_domain.labels])
    rng = np.random.default_rng(seed)
    theta, params = flat(_init_params(m, config, rng))
    grad = np.empty_like(theta)
    grads = ad.views(grad, params)
    use_reg = config.lambda_c > 0
    warmup = config.warmup_epochs if use_reg else 0
    target = target_corr.entries if use_reg else None
    frozen = snapshot_draws(data.shape[0], config, use_reg, seed)

    def epoch(e, opt):
        reg_on = use_reg and e >= warmup
        perm = rng.permutation(data.shape[0])
        for start in range(0, data.shape[0], config.batch_size):
            rows = data[perm[start:start + config.batch_size]]
            noise = rng.standard_normal((rows.shape[0], config.latent_dim))
            z = (rng.standard_normal((config.regularizer_draws, config.latent_dim))
                 if reg_on else None)
            ad.evaluate_with_gradients(lambda ps: _objective(
                ps, config, last_domain.task, rows, noise, z, target), params, grads)
            opt.step(theta, grad)

    def readout():
        return loss_snapshot(params, data, target_corr, config, last_domain.task, frozen)

    history = train(theta, epoch, readout, config, config.max_epochs, warmup, hold=2)
    return SimulatorModel(task=last_domain.task, config=config, params=params,
                          trained_on_index=last_domain.domain_index,
                          loss_history=history)


def sample(model: SimulatorModel, n: int, seed: int) -> DomainDataset:
    """Decode n prior draws into a synthetic next-domain dataset."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, model.config.latent_dim))
    _, decoder, label = _split(model.params, model.config, model.task)
    _, rows = _decode(decoder, z, label)
    features = rows[:, :model.d]
    label_col = rows[:, model.d]
    labels = (label_col >= 0.5).astype(np.float64) if model.task == CLASSIFICATION \
        else label_col
    return DomainDataset(domain_index=model.trained_on_index + 1,
                         features=features, labels=labels, task=model.task)
