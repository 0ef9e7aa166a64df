"""Forecasting the next domain's correlation matrix from the history of
per-domain matrices.

A linear embedding and a stacked LSTM consume the strict upper triangles of
C_1..C_{T-1} (teacher forcing: true matrices in, one-step-ahead targets out)
and a tanh head emits the next flattened matrix. The training loss sums, over the
steps, a Frobenius term, an elementwise-L1 term, and a binary cross-entropy
term on entries affinely mapped from [-1, 1] to [0, 1]; it is one
value-and-VJP pair, `_sequence_loss`, over all the params, and a forecast
runs the same forward, `_forecast`. This module alone knows the parameter
layout (`_init_params`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .correlation import CorrelationMatrix, flatten_upper, unflatten_upper
from .nn import dense_params, lstm_params
from .optim import fit

__all__ = ["PredictorConfig", "PredictorModel", "predict_next", "train_predictor"]

FRO_GUARD = 1e-24  # keeps the Frobenius norm's sqrt differentiable at zero


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
        if not 0 <= self.lambda_ce < np.inf:  # also rejects NaN
            raise ValueError("lambda_ce must be finite and non-negative")
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


def _forecast(params, rows) -> tuple:
    """(the forecaster's (steps, p) one-step-ahead forecasts, their VJP: the
    gradient of the forecasts -> one gradient per param). Each (1, p) row of
    `rows`, the flattened upper triangle of an m x m matrix, is embedded by
    the embedding's [w, b], the `autodiff.lstm` of the stack's pairs runs
    over the embeddings, and the head's tanh [w, b] maps each step's state
    to the forecast of the next row.

    The VJP runs the pieces' VJPs in the order the tape replay of their
    composition in `tests/unfused.py` ran them: per step the head's, the
    stack's, then per step the embedding's; so the head's params sum their
    steps' gradients from the first step to the last and the embedding's
    from the last to the first, bit-identical to that tape's.
    """
    embed, stack, head = params[:2], params[2:-2], params[-2:]
    embedded = [ad.stack(embed, row, None, None) for row in rows]
    states, stack_vjp = ad.lstm(stack, [acts[-1] for acts in embedded])
    heads = [ad.stack(head, state, None, ad.tanh) for state in states]

    def vjp(g_pred):
        g_states, g_head = [], []
        for t, acts in enumerate(heads):
            g_state, grads = ad.stack_vjp(g_pred[t:t + 1], head, acts, None, ad.tanh, True)
            g_states.append(g_state)
            g_head.append(grads)
        g_stack, g_rows = stack_vjp(g_states)
        g_embed = [ad.stack_vjp(g_row, embed, acts, None, None, False)[1]
                   for g_row, acts in zip(reversed(g_rows), reversed(embedded))]
        return [*ad.sums(g_embed), *g_stack, *ad.sums(g_head)]

    return np.concatenate([acts[-1] for acts in heads]), vjp


def _forecast_error(pred, target, m: int, lambda_ce: float) -> tuple:
    """(the forecaster's loss over its one-step-ahead forecasts `pred`, the
    (steps, p) flattened upper triangles of m x m matrices, against the rows
    of `target`, its VJP: the gradient of the value -> that of `pred`); see
    `_sequence_loss`. The VJP sums the error's gradient from its square,
    then from its absolute value, and that of `pred` from the error, then
    from the BCE, as the composition's tape replay did."""
    diff = pred - target
    norms = np.sqrt((diff * diff).sum(axis=1) * 2.0 + FRO_GUARD)
    bce, bce_vjp = ad.bce((pred + 1.0) * 0.5, (target + 1.0) * 0.5)
    diag = -m * np.log(1.0 - ad.CLAMP) * pred.shape[0]
    inv_mm = 1.0 / (m * m)
    value = ((norms.sum() + np.abs(diff).sum() * 2.0)
             + (bce.sum() * 2.0 + diag) * inv_mm * lambda_ce)

    def vjp(g):
        g_sq = (g * 0.5 / norms * 2.0)[:, None]
        g_pred = g_sq * diff
        g_pred = g_pred + g_sq * diff
        g_pred = g_pred + g * 2.0 * np.sign(diff)
        g_bce = np.broadcast_to(g * lambda_ce * inv_mm * 2.0, bce.shape)
        return g_pred + bce_vjp(g_bce) * 0.5

    return value, vjp


def predict_next(model: PredictorModel, sequence: list) -> CorrelationMatrix:
    """Ĉ for the domain after the given history of correlation matrices."""
    if not sequence:
        raise ValueError("sequence must contain at least one matrix")
    if any(c.dim != model.m for c in sequence):
        raise ValueError(f"matrix dim does not match model dim {model.m}")
    rows = [flatten_upper(c).reshape(1, -1) for c in sequence]
    return unflatten_upper(_forecast(model.params, rows)[0][-1], model.m)


def _sequence_loss(params, rows: list, tgt: np.ndarray, m: int,
                   config: PredictorConfig):
    """The forecaster's loss as one value-and-VJP pair over all the params
    (see `_forecast`): summed over the one-step-ahead forecasts of `rows`,
    the flattened matrices C_1..C_{T-1}, each (1, p), against the rows of
    `tgt`, their targets C_2..C_T, per step the Frobenius norm and the
    elementwise L1 of the full matrix's error (each off-diagonal entry
    counts twice; `FRO_GUARD` under the square root), plus lambda_ce times
    the clipped BCE mean over the m² entries mapped from [-1, 1] to [0, 1].
    The diagonal is exactly 1 on both sides, so it adds nothing to the
    norms and one clamp constant per step to the BCE. The value and every
    gradient are bit-identical to the tape of the composition in
    `tests/unfused.py`.
    """
    pred, forecast_vjp = _forecast(params, rows)
    value, error_vjp = _forecast_error(pred, tgt, m, config.lambda_ce)
    return value, lambda g: forecast_vjp(error_vjp(g))


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
