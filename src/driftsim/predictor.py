"""Forecasting the next domain's correlation matrix from the history of
per-domain matrices.

A linear embedding and a stacked LSTM consume the strict upper triangles of
C_1..C_{T-1} (teacher forcing: true matrices in, one-step-ahead targets out)
and a tanh head emits the next flattened matrix. The training loss sums, over the
steps, a Frobenius term, an elementwise-L1 term, and a binary cross-entropy
term on entries affinely mapped from [-1, 1] to [0, 1]; it is one
value-and-VJP pair, `autodiff.forecast_loss`, over all the params, and a
forecast runs the same forward, `autodiff.forecast`. This module alone
knows the parameter layout (`_init_params`, `_groups`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .correlation import CorrelationMatrix, flatten_upper, unflatten_upper
from .nn import dense_params, lstm_params
from .optim import fit

__all__ = ["PredictorConfig", "PredictorModel", "predict_next", "train_predictor"]


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
        if not self.learning_rate > 0:  # also rejects NaN
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


def _groups(params: list) -> tuple:
    """The embedding's [w, b], the LSTM stack's pairs and the head's [w, b]."""
    return params[:2], params[2:-2], params[-2:]


def predict_next(model: PredictorModel, sequence: list) -> CorrelationMatrix:
    """Ĉ for the domain after the given history of correlation matrices."""
    if not sequence:
        raise ValueError("sequence must contain at least one matrix")
    if any(c.dim != model.m for c in sequence):
        raise ValueError(f"matrix dim does not match model dim {model.m}")
    rows = [flatten_upper(c).reshape(1, -1) for c in sequence]
    return unflatten_upper(ad.forecast(*_groups(model.params), rows)[-1], model.m)


def _sequence_loss(params, rows: list, tgt: np.ndarray, m: int,
                   config: PredictorConfig):
    """The forecasting loss summed over the one-step-ahead forecasts, as
    (value, VJP): per step Frobenius + elementwise-L1 + lambda_ce * mean
    BCE, `autodiff.forecast_loss`.

    `rows` are the flattened matrices C_1..C_{T-1}, each (1, p), and the
    rows of `tgt` their targets C_2..C_T.
    """
    return ad.forecast_loss(*_groups(params), rows, tgt, m, config.lambda_ce)


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
    rows = [flatten_upper(c).reshape(1, -1) for c in matrices[:-1]]
    targets = np.stack([flatten_upper(c) for c in matrices[1:]])
    rng = np.random.default_rng(seed)
    params, history = fit(lambda ps: _sequence_loss(ps, rows, targets, m, config),
                          _init_params(m, config, rng), config)
    return PredictorModel(m=m, config=config, params=params,
                          loss_history=history)
