"""Forecasting the next domain's correlation matrix from the history of
per-domain matrices.

A stacked LSTM consumes the flattened strict upper triangles of C_1..C_{T-1}
(teacher forcing: true matrices in, one-step-ahead targets out) and a tanh
head emits the next flattened matrix. The training loss per step combines a
Frobenius term, an elementwise-L1 term, and a binary cross-entropy term on
entries affinely mapped from [-1, 1] to [0, 1].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .correlation import CorrelationMatrix, flatten_upper, unflatten_upper
from .nn import dense_params, glorot, lstm_cell
from .optim import fit

__all__ = ["PredictorConfig", "PredictorModel", "predict_next", "cp_loss",
           "train_predictor"]

BCE_CLAMP = 1e-6
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
    tol: float = 1e-5

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
    """Glorot-uniform weights, zero biases except forget gates at +1."""
    p = m * (m - 1) // 2
    h, lat = config.hidden_dim, config.latent_dim
    params = dense_params(rng, (p, lat))
    in_dim = lat
    for _ in range(config.layers):
        params.append(glorot(rng, in_dim + h, 4 * h))
        bias = np.zeros((1, 4 * h))
        bias[0, h:2 * h] = 1.0  # forget gate opens at init
        params.append(bias)
        in_dim = h
    return params + dense_params(rng, (h, p))


def _forward_sequence(params: list, rows: list, layers: int, hidden: int) -> list:
    """Head outputs (pre-unflatten, post-tanh) for every step of the sequence."""
    w_embed, b_embed = params[0], params[1]
    w_head, b_head = params[-2], params[-1]
    h_states = [ad.constant(np.zeros((1, hidden)))] * layers
    c_states = [None] * layers
    outputs = []
    for row in rows:
        x = row @ w_embed + b_embed
        for layer in range(layers):
            w, b = params[2 + 2 * layer], params[3 + 2 * layer]
            gates = ad.concat([x, h_states[layer]], axis=1) @ w + b
            x, c_states[layer] = lstm_cell(gates, c_states[layer], hidden)
            h_states[layer] = x
        outputs.append(ad.tanh(x @ w_head + b_head))
    return outputs


def predict_next(model: PredictorModel, sequence: list) -> CorrelationMatrix:
    """Ĉ for the domain after the given history of correlation matrices."""
    if not sequence:
        raise ValueError("sequence must contain at least one matrix")
    if any(c.dim != model.m for c in sequence):
        raise ValueError(f"matrix dim does not match model dim {model.m}")
    rows = [ad.constant(flatten_upper(c).reshape(1, -1)) for c in sequence]
    params = [ad.constant(p) for p in model.params]
    out = _forward_sequence(params, rows, model.config.layers,
                            model.config.hidden_dim)[-1]
    return unflatten_upper(out.value.ravel(), model.m)


def _bce_terms(pred01: np.ndarray, true01: np.ndarray) -> np.ndarray:
    q = np.clip(pred01, BCE_CLAMP, 1.0 - BCE_CLAMP)
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


def _step_loss_graph(pred_vec, true_vec, m: int, lambda_ce: float):
    """Tape version of one cp_loss term, built from flattened vectors.

    Off-diagonal entries appear twice in the full matrix; the diagonal is
    exactly 1 on both sides, contributing zero to Frobenius/L1 and a clamp
    constant to the BCE mean.
    """
    diff = pred_vec - true_vec
    fro = ad.sqrt(ad.reduce_sum(diff * diff) * 2.0 + FRO_GUARD)
    l1 = ad.reduce_sum(ad.absolute(diff)) * 2.0
    q = ad.clip((pred_vec + 1.0) * 0.5, BCE_CLAMP, 1.0 - BCE_CLAMP)
    p01 = (true_vec + 1.0) * 0.5
    bce_off = -(p01 * ad.log(q) + (1.0 - p01) * ad.log(1.0 - q))
    diag_const = -m * np.log(1.0 - BCE_CLAMP)
    bce = (ad.reduce_sum(bce_off) * 2.0 + diag_const) * (1.0 / (m * m))
    return fro + l1 + bce * lambda_ce


def _sequence_loss(params, inputs, m: int, config: PredictorConfig):
    """Sum of the one-step-ahead loss terms; `inputs` holds the flattened
    matrices C_1..C_{T-1} and their targets C_2..C_T, one row per step."""
    seq, tgt = inputs
    rows = [seq[s:s + 1, :] for s in range(seq.shape[0])]
    outs = _forward_sequence(params, rows, config.layers, config.hidden_dim)
    loss = None
    for s, out in enumerate(outs):
        term = _step_loss_graph(out, tgt[s:s + 1, :], m, config.lambda_ce)
        loss = term if loss is None else loss + term
    return loss


def train_predictor(matrices: list, config: PredictorConfig,
                    seed: int = 0) -> PredictorModel:
    """Fit the sequence model on C_1..C_T with one-step-ahead targets.

    Full-batch Adam from a Glorot init drawn with `seed`; keeps the best-loss
    parameters and stops once the best loss has not improved by `tol` for
    `patience` consecutive epochs.
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
