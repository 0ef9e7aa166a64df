"""Downstream evaluation: assemble method-specific training sets, fit small
feedforward models on them, and score on the true held-out domain.

Methods: "coda" (simulate the next domain with the correlation forecast),
"coda-without-C" (coda at lambda_c = 0, so no correlation pull),
"lastdomain" (train on the final source), "offline" (train on all sources
pooled), "incfinetune" (sequential fine-tuning across sources at reduced
learning rate), "prelim" (the density-forecasting baseline). The target
domain is only ever touched by the final scoring call; its row count alone
feeds the sample-size choice.
"""
from __future__ import annotations

import copy
import ctypes
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import density_baseline
from .correlation import pearson_matrix
from .datasets import (CLASSIFICATION, DomainDataset, DomainStream,
                       NormalizationStats, fit_apply_normalization)
from .nn import dense_params, mlp
from .optim import fit
from .predictor import PredictorConfig, predict_next, train_predictor
from .simulator import SimulatorConfig, sample, train_simulator

__all__ = ["DownstreamConfig", "DownstreamModel", "ExperimentConfig",
           "ExperimentReport", "SweepPoint", "METHODS", "require_trainable",
           "train_downstream", "evaluate", "run_experiment", "sweep"]

METHODS = ("coda", "coda-without-C", "lastdomain", "offline", "incfinetune",
           "prelim")
CLAMP = 1e-6
# generated rows per target row; larger values ask for more rows than memory holds
MAX_SAMPLE_RATE = 100.0


@dataclass(frozen=True)
class DownstreamConfig:
    hidden_dims: tuple = (50, 50)
    learning_rate: float = 1e-2
    max_epochs: int = 2000
    patience: int = 50

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
        if not 0 < self.sample_rate <= MAX_SAMPLE_RATE:  # also rejects NaN
            raise ValueError(f"sample_rate must be in (0, {MAX_SAMPLE_RATE:g}]")


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
    # incfinetune) and method artifacts ("predicted_corr", "simulator")
    train_sets: tuple = field(default=(), repr=False, compare=False)
    extras: tuple = field(default=(), repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"method": self.method, "metric": self.metric,
                "seed_values": list(self.seed_values), "mean": self.mean,
                "std": self.std, "config": self.config_snapshot,
                "wall_clock_s": self.wall_clock_s}


def require_trainable(stream: DomainStream, method: str) -> None:
    """Reject, before anything trains, a stream that `method` cannot train on:
    a classification domain that holds a single class (its label column is
    constant, so its correlation matrix is undefined and its error rate says
    nothing), sources on which every feature or a regression label is
    constant (so normalization has nothing to scale), fewer than 3 sources
    for the two sequence models (coda's forecaster and prelim), a source
    without a correlation matrix for coda's forecaster, prelim on a
    regression stream, or a prelim truth domain without a KDE for some
    feature and class."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if stream.task == CLASSIFICATION:
        for dom in (*stream.sources, stream.target):
            if np.unique(dom.labels).size < 2:
                raise ValueError(f"domain {dom.domain_index} holds a single class; "
                                 "every classification domain needs both labels")
    normalized, _ = fit_apply_normalization(stream)
    if method in ("coda", "prelim") and len(stream.sources) < 3:
        raise ValueError(f"{method} needs at least 3 source domains, "
                         f"got {len(stream.sources)}")
    if method == "coda":
        for source in normalized.sources:
            pearson_matrix(source)  # raises on a column constant in one domain
    if method == "prelim":
        if stream.task != CLASSIFICATION:
            raise ValueError("prelim is defined for classification streams only")
        grid = density_baseline.default_grid(density_baseline.PrelimConfig().grid_size)
        for truth in normalized.sources[1:]:
            density_baseline._truth_side(truth, grid)  # raises on a class without a KDE


def _assemble_training_set(stream: DomainStream, method: str,
                           config: ExperimentConfig, seed: int):
    """Training data for one method on an already-normalized stream.

    Returns (dataset, extra) where extra carries method-specific artifacts:
    the trained simulator of both coda variants and, when the correlation
    pull is on, the forecast it was pulled toward ("predicted_corr").
    """
    sources = stream.sources
    if method in ("coda", "coda-without-C"):
        sim_cfg = (config.simulator if method == "coda"
                   else replace(config.simulator, lambda_c=0.0))
        extra = {}
        if sim_cfg.lambda_c > 0:  # train_simulator reads no target at lambda_c = 0
            mats = [pearson_matrix(s) for s in sources]
            model = train_predictor(mats, config.predictor, seed=seed)
            extra["predicted_corr"] = predict_next(model, mats)
        sim = train_simulator(sources[-1], extra.get("predicted_corr"), sim_cfg,
                              seed=seed)
        extra["simulator"] = sim
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
        # a module attribute, so a wrapper installed on it (bench/run.py) sees the call
        return density_baseline.train_prelim(
            stream, density_baseline.PrelimConfig(), seed=seed), {}
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


_job = None  # set in forked workers only: their (stream, method, config)


def _start_worker(*job) -> None:
    """Pool initializer: keep the inherited job and pin the OpenBLAS that numpy
    loaded to one thread, so that the workers do not each spin a BLAS thread
    on every core. Without a setter found, BLAS is left as it is."""
    global _job
    _job = job
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:  # no /proc, or a mapping that does not load
        return
    for lib in libs:
        for symbol in ("scipy_openblas_set_num_threads64_",
                       "openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def _run_forked(seed: int):
    return _run_single(*_job, seed)


def _run_seeds(stream: DomainStream, method: str, config: ExperimentConfig) -> list:
    """_run_single for every seed, in seed order.

    Given at least two seeds, two usable CPUs and a platform that can fork,
    the seeds run in forked worker processes, one per CPU up to the seed
    count, and every worker ends before this returns. Workers inherit the
    inputs, so only the results are pickled. Each seed computes the same
    numbers as it would in this process: the worker count only changes the
    wall time.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(len(config.seeds), cpus)
    if workers > 1:
        import multiprocessing
        # fork, not spawn: spawn and forkserver leave a helper process running
        # after the pool ends, and would pickle the inputs and re-import the
        # package in each worker. driftsim starts no thread of its own, and
        # OpenBLAS stops its threads before a fork and restarts them on use.
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context("fork"),
                    initializer=_start_worker,
                    initargs=(stream, method, config)) as pool:
                futures = [pool.submit(_run_forked, seed) for seed in config.seeds]
                try:
                    return [future.result() for future in futures]
                except BaseException:  # a seed failed: start no further seed
                    pool.shutdown(cancel_futures=True)
                    raise
    return [_run_single(stream, method, config, seed) for seed in config.seeds]


def run_experiment(stream: DomainStream, method: str,
                   config: ExperimentConfig) -> ExperimentReport:
    """Score one method over all configured seeds and aggregate.

    The seeds may run in parallel (see `_run_seeds`), so `wall_clock_s` is
    the wall time of the whole parallel run, and criterion 1's 600 s gate
    reads that. Every other field is the same at any worker count.
    """
    require_trainable(stream, method)
    t0 = time.perf_counter()
    runs = _run_seeds(stream, method, config)
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
    # every value, and the validation stream that run_experiment meets only
    # after a test run, is checked before the first run trains anything
    configs = [_with_value(config, parameter, value) for value in values]
    if validate:
        require_trainable(val_stream, method)
    points = []
    for value, cfg in zip(values, configs):
        test_report = run_experiment(stream, method, cfg)
        val_report = (run_experiment(val_stream, method, cfg) if validate
                      else None)
        points.append(SweepPoint(value=float(value), test=test_report,
                                 validation=val_report))
    return points
