"""Downstream evaluation: assemble method-specific training sets, fit small
feedforward models on them, and score on the true held-out domain.

Methods: "coda" (simulate the next domain with the correlation forecast),
"coda-without-C" (same generator, no correlation pull), "lastdomain" (train
on the final source), "offline" (train on all sources pooled), "incfinetune"
(sequential fine-tuning across sources at reduced learning rate), "prelim"
(the density-forecasting baseline). The target domain is only ever touched by
the final scoring call; its row count alone feeds the sample-size choice.
"""
from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .correlation import pearson_matrix
from .datasets import (CLASSIFICATION, DomainDataset, DomainStream,
                       NormalizationStats, fit_apply_normalization)
from .nn import dense_params, mlp
from .optim import fit
from .predictor import PredictorConfig, predict_next, train_predictor
from .simulator import SimulatorConfig, sample, train_simulator

__all__ = ["DownstreamConfig", "DownstreamModel", "ExperimentConfig",
           "ExperimentReport", "SweepPoint", "METHODS", "train_downstream",
           "evaluate", "run_experiment", "sweep"]

METHODS = ("coda", "coda-without-C", "lastdomain", "offline", "incfinetune",
           "prelim")
CLAMP = 1e-6


@dataclass(frozen=True)
class DownstreamConfig:
    hidden_dims: tuple = (50, 50)
    learning_rate: float = 1e-2
    max_epochs: int = 2000
    patience: int = 50
    tol: float = 1e-5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if min(self.hidden_dims, default=1) < 1:
            raise ValueError("hidden_dims entries must be positive")
        if min(self.max_epochs, self.patience) < 1:
            raise ValueError("max_epochs and patience must be at least 1")


@dataclass
class DownstreamModel:
    task: str
    config: DownstreamConfig
    params: list
    loss_history: list

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Class probability (classification) or raw prediction (regression)."""
        out = _forward_mlp([ad.constant(p) for p in self.params],
                           ad.constant(features), self.task)
        return out.value.ravel()


def _forward_mlp(params, x, task):
    out = mlp(params, x, ad.relu)
    return ad.sigmoid(out) if task == CLASSIFICATION else out


def _mlp_loss(params, x, y, task):
    out = _forward_mlp(params, x, task)
    if task == CLASSIFICATION:
        q = ad.clip(out, CLAMP, 1.0 - CLAMP)
        return ad.reduce_mean(-(y * ad.log(q) + (1.0 - y) * ad.log(1.0 - q)))
    diff = out - y
    return ad.reduce_mean(diff * diff)


def train_downstream(train_data: DomainDataset, config: DownstreamConfig,
                     seed: int = 0, init_params: list | None = None) -> DownstreamModel:
    """Adam-fit a ReLU feedforward net to one training domain, from a fresh
    Glorot init drawn with `seed` or, for fine-tuning, from a copy of
    `init_params`."""
    if init_params is None:
        params = dense_params(np.random.default_rng(seed),
                              (train_data.d, *config.hidden_dims, 1))
    else:
        params = copy.deepcopy(init_params)
    params, history = fit(
        lambda ps, ins: _mlp_loss(ps, ins[0], ins[1], train_data.task), params,
        [train_data.features, train_data.labels.reshape(-1, 1)], config)
    return DownstreamModel(task=train_data.task, config=config, params=params,
                           loss_history=history)


def evaluate(model: DownstreamModel, test: DomainDataset,
             stats: NormalizationStats | None = None) -> float:
    """Misclassification % at threshold 0.5, or MAE in raw label units."""
    if model.task != test.task:
        raise ValueError(f"task mismatch: model {model.task}, data {test.task}")
    preds = model.predict(test.features)
    if test.task == CLASSIFICATION:
        hard = (preds >= 0.5).astype(np.float64)
        return float(100.0 * np.mean(hard != test.labels))
    mae = float(np.mean(np.abs(preds - test.labels)))
    return mae * (stats.label_scale if stats is not None else 1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    predictor: PredictorConfig = PredictorConfig()
    simulator: SimulatorConfig = SimulatorConfig()
    downstream: DownstreamConfig = DownstreamConfig()
    seeds: tuple = (0, 1, 2, 3, 4)
    sample_rate: float = 1.0

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("need at least one seed")
        if min(self.seeds) < 0:
            raise ValueError("seeds must be non-negative")
        if not 0 < self.sample_rate < np.inf:  # also rejects NaN
            raise ValueError("sample_rate must be finite and positive")


@dataclass(frozen=True)
class ExperimentReport:
    method: str
    metric: str               # "mce_percent" or "mae"
    seed_values: tuple
    mean: float
    std: float
    config_snapshot: dict
    wall_clock_s: float
    # per seed: the set the downstream model trained on (None for
    # incfinetune) and method artifacts such as "predicted_corr"
    train_sets: tuple = field(default=(), repr=False, compare=False)
    extras: tuple = field(default=(), repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"method": self.method, "metric": self.metric,
                "seed_values": list(self.seed_values), "mean": self.mean,
                "std": self.std, "config": self.config_snapshot,
                "wall_clock_s": self.wall_clock_s}


def _assemble_training_set(stream: DomainStream, method: str,
                           config: ExperimentConfig, seed: int):
    """Training data for one method on an already-normalized stream.

    Returns (dataset, extra) where extra carries method-specific artifacts
    (the predicted matrix for "coda").
    """
    sources = stream.sources
    if method in ("coda", "coda-without-C"):
        if method == "coda":
            mats = [pearson_matrix(s) for s in sources]
            model = train_predictor(mats, config.predictor, seed=seed)
            c_hat = predict_next(model, mats)
            sim = train_simulator(sources[-1], c_hat, config.simulator, seed=seed)
            extra = {"predicted_corr": c_hat}
        else:
            sim = train_simulator(sources[-1], None,
                                  replace(config.simulator, lambda_c=0.0), seed=seed)
            extra = {}
        n = max(8, round(stream.target.n * config.sample_rate))
        return sample(sim, n, seed=seed + 101), extra
    if method == "lastdomain":
        return sources[-1], {}
    if method == "offline":
        pooled = DomainDataset(
            domain_index=sources[-1].domain_index,
            features=np.vstack([s.features for s in sources]),
            labels=np.concatenate([s.labels for s in sources]),
            task=stream.task, feature_names=sources[0].feature_names)
        return pooled, {}
    if method == "prelim":
        from .density_baseline import PrelimConfig, train_prelim
        return train_prelim(stream, PrelimConfig(), seed=seed), {}
    raise ValueError(f"unknown method {method!r}")


def _run_single(stream: DomainStream, method: str, config: ExperimentConfig,
                seed: int):
    """(score, training set, extras) for one seed."""
    normalized, stats = fit_apply_normalization(stream)
    down_cfg = config.downstream
    if method == "incfinetune":
        sources = normalized.sources
        model = train_downstream(sources[0], down_cfg, seed=seed)
        slow = replace(down_cfg, learning_rate=0.1 * down_cfg.learning_rate)
        for src in sources[1:]:
            model = train_downstream(src, slow, init_params=model.params)
        return evaluate(model, normalized.target, stats), None, {}
    train_set, extra = _assemble_training_set(normalized, method, config, seed)
    model = train_downstream(train_set, down_cfg, seed=seed)
    return evaluate(model, normalized.target, stats), train_set, extra


def run_experiment(stream: DomainStream, method: str,
                   config: ExperimentConfig) -> ExperimentReport:
    """Score one method over all configured seeds and aggregate."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    t0 = time.perf_counter()
    runs = [_run_single(stream, method, config, seed) for seed in config.seeds]
    values, train_sets, extras = zip(*runs)
    metric = "mce_percent" if stream.task == CLASSIFICATION else "mae"
    arr = np.array(values)
    std = float(arr.std(ddof=1)) if len(values) > 1 else 0.0
    return ExperimentReport(
        method=method, metric=metric, seed_values=values,
        mean=float(arr.mean()), std=std,
        config_snapshot=asdict(config), wall_clock_s=time.perf_counter() - t0,
        train_sets=train_sets, extras=extras)


@dataclass(frozen=True)
class SweepPoint:
    value: float
    test: ExperimentReport
    validation: ExperimentReport | None = None


def _with_value(config: ExperimentConfig, parameter: str,
                value: float) -> ExperimentConfig:
    if parameter == "lambda_c":
        return replace(config, simulator=replace(config.simulator, lambda_c=value))
    if parameter == "sample_rate":
        return replace(config, sample_rate=value)
    raise ValueError(f"unknown sweep parameter {parameter!r}")


def _validation_stream(stream: DomainStream) -> DomainStream:
    if len(stream.sources) < 3:
        raise ValueError("validation split needs at least 3 source domains")
    return DomainStream(sources=stream.sources[:-1], target=stream.sources[-1])


def sweep(stream: DomainStream, parameter: str, values,
          config: ExperimentConfig, method: str = "coda",
          validate: bool = False) -> list:
    """One full experiment per parameter value, optionally with a validation
    run that holds out the last source domain as a pseudo-target."""
    if not values:
        raise ValueError("sweep needs at least one value")
    val_stream = _validation_stream(stream) if validate else None
    # every value is checked before the first run trains anything
    configs = [_with_value(config, parameter, value) for value in values]
    points = []
    for value, cfg in zip(values, configs):
        test_report = run_experiment(stream, method, cfg)
        val_report = (run_experiment(val_stream, method, cfg) if validate
                      else None)
        points.append(SweepPoint(value=float(value), test=test_report,
                                 validation=val_report))
    return points
