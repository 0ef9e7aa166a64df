"""Forecasting the next domain's correlation matrix from the history of
per-domain matrices.

An embedding and `nn.lstm_stack` consume the strict upper triangles of C_1..C_{T-1}
(teacher forcing: true matrices in, one-step-ahead targets out) and a tanh
head emits the next flattened matrix. The training loss sums, over the
steps, a Frobenius term, an elementwise-L1 term, and a binary cross-entropy
term on entries affinely mapped from [-1, 1] to [0, 1]; it is recorded as one
graph over the stacked head outputs of all steps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .correlation import CorrelationMatrix, flatten_upper, unflatten_upper
from .nn import CLAMP, bce, dense_params, lstm_params, lstm_stack
from .optim import fit

__all__ = ["PredictorConfig", "PredictorModel", "predict_next", "cp_loss",
           "train_predictor"]

FRO_GUARD = 1e-24  # keeps sqrt differentiable when prediction == truth


@dataclass(frozen=True)
class PredictorConfig:
    learning_rate: float = 3e-3
    layers: int = 8
    latent_dim: int = 8
    hidden_dim: int = 16
    lambda_ce: float = 20.0
    max_epochs: int = 2000
    patience: int = 50

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.lambda_ce < 0:
            raise ValueError("lambda_ce must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if min(self.layers, self.latent_dim, self.hidden_dim, self.max_epochs) < 1:
            raise ValueError("architecture sizes and max_epochs must be positive")


@dataclass
class PredictorModel:
    m: int
    config: PredictorConfig
    params: list
    loss_history: list


def _init_params(m: int, config: PredictorConfig, rng) -> list:
    """Embedding, LSTM stack and head, in that order (see `nn.lstm_params`)."""
    p = m * (m - 1) // 2
    h, lat = config.hidden_dim, config.latent_dim
    return (dense_params(rng, (p, lat)) + lstm_params(rng, lat, h, config.layers)
            + dense_params(rng, (h, p)))


def _forward_sequence(params: list, rows: list) -> list:
    """Head outputs (pre-unflatten, post-tanh) for every step of the sequence."""
    w_embed, b_embed = params[0], params[1]
    w_head, b_head = params[-2], params[-1]
    states = lstm_stack(params[2:-2], [ad.dense(row, w_embed, b_embed) for row in rows])
    return [ad.dense(h, w_head, b_head, ad.tanh) for h in states]


def predict_next(model: PredictorModel, sequence: list) -> CorrelationMatrix:
    """Ĉ for the domain after the given history of correlation matrices."""
    if not sequence:
        raise ValueError("sequence must contain at least one matrix")
    if any(c.dim != model.m for c in sequence):
        raise ValueError(f"matrix dim does not match model dim {model.m}")
    rows = [ad.constant(flatten_upper(c).reshape(1, -1)) for c in sequence]
    params = [ad.constant(p) for p in model.params]
    out = _forward_sequence(params, rows)[-1]
    return unflatten_upper(out.value.ravel(), model.m)


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


def _sequence_loss(params, inputs, m: int, config: PredictorConfig):
    """cp_loss summed over the one-step-ahead forecasts, as one tape graph.

    `inputs` holds the flattened matrices C_1..C_{T-1} and their targets
    C_2..C_T, one row per step. The head outputs are stacked into one
    (T-1) x p node. Off-diagonal entries appear twice in the full matrix;
    the diagonal is exactly 1 on both sides, contributing zero to
    Frobenius/L1 and a clamp constant per step to the BCE mean.
    """
    seq, tgt = inputs
    rows = [seq[s:s + 1, :] for s in range(seq.shape[0])]
    pred = ad.concat(_forward_sequence(params, rows), axis=0)
    diff = pred - tgt
    # one Frobenius norm per step, then their sum
    fro = ad.reduce_sum(ad.sqrt(ad.reduce_sum(diff * diff, axis=1) * 2.0 + FRO_GUARD))
    l1 = ad.reduce_sum(ad.absolute(diff)) * 2.0
    bce_off = bce((pred + 1.0) * 0.5, (tgt + 1.0) * 0.5)
    diag_const = -m * np.log(1.0 - CLAMP) * seq.shape[0]
    mean_bce = (ad.reduce_sum(bce_off) * 2.0 + diag_const) * (1.0 / (m * m))
    return fro + l1 + mean_bce * config.lambda_ce


def train_predictor(matrices: list, config: PredictorConfig,
                    seed: int = 0) -> PredictorModel:
    """Fit the sequence model on C_1..C_T with one-step-ahead targets.

    Full-batch Adam from a Glorot init drawn with `seed`; keeps the best-loss
    parameters and stops once the best loss has not improved by `optim.TOL`
    for `patience` consecutive epochs.
    """
    t_len = len(matrices)
    if t_len < 3:
        raise ValueError(f"need at least 3 matrices to fit a trend, got {t_len}")
    m = matrices[0].dim
    if any(c.dim != m for c in matrices):
        raise ValueError("all matrices must share one dim")
    inputs = np.stack([flatten_upper(c) for c in matrices[:-1]])
    targets = np.stack([flatten_upper(c) for c in matrices[1:]])
    rng = np.random.default_rng(seed)
    params, history = fit(lambda ps, ins: _sequence_loss(ps, ins, m, config),
                          _init_params(m, config, rng), [inputs, targets], config)
    return PredictorModel(m=m, config=config, params=params,
                          loss_history=history)
