"""Downstream evaluation: each method yields the training sets that one small
feedforward model fits in turn, scored on the true held-out domain.

Methods: "coda" (simulate the next domain with the correlation forecast),
"coda-without-C" (coda at lambda_c = 0, so no correlation pull),
"lastdomain" (train on the final source), "offline" (train on all sources
pooled), "incfinetune" (sequential fine-tuning across sources at reduced
learning rate), "prelim" (the density-forecasting baseline). The target
domain is only ever touched by the final scoring call; its row count alone
feeds the sample-size choice. A run refused before it trains is a ConfigError.
"""
from __future__ import annotations

import ctypes
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import density_baseline
from .correlation import pearson_matrix
from .datasets import (CLASSIFICATION, DomainDataset, DomainStream,
                       NormalizationStats, fit_apply_normalization)
from .nn import bce, dense_params
from .optim import fit
from .predictor import PredictorConfig, predict_next, train_predictor
from .simulator import SNAPSHOT_DRAWS, SimulatorConfig, sample, train_simulator

__all__ = ["ConfigError", "DownstreamConfig", "DownstreamModel", "ExperimentConfig",
           "ExperimentReport", "SweepPoint", "METHODS", "SWEEP_PARAMETERS",
           "require_trainable", "require_sweepable", "train_downstream",
           "evaluate", "run_experiment", "sweep"]

METHODS = ("coda", "coda-without-C", "lastdomain", "offline", "incfinetune",
           "prelim")
# generated rows per target row; larger values ask for more rows than memory holds
MAX_SAMPLE_RATE = 100.0
# weights and biases in one model: a simulator of width 1,575 (9.98 M) took
# 3.6 s per epoch and 833 MB peak RSS on one BLAS thread of a shared 2-vCPU machine
MAX_PARAMETERS = 10_000_000
# prior draws x decoder width, one decoder layer's activations under the pull:
# 138,889 draws at width 72 (10 M) took 1.1 s per step and 544 MB peak RSS on
# one BLAS thread of a shared 2-vCPU machine
MAX_DRAW_CELLS = 10_000_000
# grid points x rows in prelim's KDE kernels: one epoch of the loss computes
# two (a difference and a kernel) per generated row, feature and truth
# domain (20.0 M on 2,442-row moons took 57 ms per epoch and 69 MB peak RSS on
# one BLAS thread of a shared 2-vCPU machine), and the truth side builds one
# per class of a truth domain
MAX_KERNEL_CELLS = 20_000_000


class ConfigError(ValueError):
    """A refused run, config, argument or output path (exit 2)."""


@dataclass(frozen=True)
class DownstreamConfig:
    hidden_dims: tuple = (50, 50)
    learning_rate: float = 1e-2
    max_epochs: int = 2000
    patience: int = 50

    def __post_init__(self):
        if not self.learning_rate > 0:  # also rejects NaN
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
        """Class probability (classification) or raw prediction (regression).
        Features far past the training range may overflow to inf or NaN,
        which are returned, not warned about."""
        with np.errstate(all="ignore"):
            return _forward_mlp(self.params, features, self.task).ravel()


def _forward_mlp(params, x, task):
    out = ad.dense(params, x, ad.relu)
    return ad.sigmoid(out) if task == CLASSIFICATION else out


def _mlp_loss(params, x, y, task):
    out = _forward_mlp(params, x, task)
    if task == CLASSIFICATION:
        return ad.reduce_mean(bce(out, y))
    diff = out - y
    return ad.reduce_mean(diff * diff)


def train_downstream(train_data: DomainDataset, config: DownstreamConfig,
                     seed: int = 0, init_params: list | None = None) -> DownstreamModel:
    """Adam-fit a ReLU feedforward net to one training domain, from a fresh
    Glorot init drawn with `seed` or, for fine-tuning, from `init_params`,
    which `fit` copies and leaves as they are."""
    if init_params is None:
        init_params = dense_params(np.random.default_rng(seed),
                                   (train_data.d, *config.hidden_dims, 1))
    x, y, task = train_data.features, train_data.labels.reshape(-1, 1), train_data.task
    params, history = fit(lambda ps: _mlp_loss(ps, x, y, task), init_params, config)
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
    return mae * float(stats.label_scale if stats is not None else 1.0)


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
    # per seed: the set the downstream model trained on last and method
    # artifacts ("predicted_corr", "simulator")
    train_sets: tuple = field(default=(), repr=False, compare=False)
    extras: tuple = field(default=(), repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"method": self.method, "metric": self.metric,
                "seed_values": list(self.seed_values), "mean": self.mean,
                "std": self.std, "config": self.config_snapshot,
                "wall_clock_s": self.wall_clock_s}


def _parameter_counts(m: int, method: str, config: ExperimentConfig, rows: int) -> dict:
    """Parameters of each model `method` trains on m - 1 features and a label,
    by config block (prelim's is its default `PrelimConfig`, which embeds
    each of the `rows` rows of the last source), counted without a layer list
    as long as a layer count."""
    dims = (m - 1, *config.downstream.hidden_dims, 1)
    counts = {"downstream": sum((a + 1) * b for a, b in zip(dims, dims[1:]))}
    if method == "prelim":  # LSTM, row embedding, mixing layer, output layer
        pre = density_baseline.PrelimConfig()
        h, d = pre.hidden_dim, m - 1
        counts["prelim"] = (4 * h * (2 * d + 2 + h) + rows * pre.embed_dim
                            + (pre.embed_dim + h + 1) * h + (h + 1) * d)
    sim, pred = config.simulator, config.predictor
    if method in ("coda", "coda-without-C"):  # encoder trunk, two heads, decoder
        e, d, lat = sim.encoder_dim, sim.decoder_dim, sim.latent_dim
        counts["simulator"] = ((m + 1 + 2 * lat + (sim.encoder_layers - 1) * (e + 1)) * e
                               + (lat + 1 + m + (sim.decoder_layers - 1) * (d + 1)) * d
                               + 2 * lat + m)
    if method == "coda" and sim.lambda_c > 0:  # embedding, LSTM stack, head
        p, h, lat = m * (m - 1) // 2, pred.hidden_dim, pred.latent_dim
        counts["predictor"] = ((p + 1) * lat + (h + 1) * p + 4 * h * (lat + h + 1)
                               + (pred.layers - 1) * 4 * h * (2 * h + 1))
    return counts


def require_trainable(stream: DomainStream, method: str,
                      config: ExperimentConfig) -> None:
    """Raise a ConfigError, before anything trains, for an unknown method or
    a stream that `method` cannot train on under `config`: a single-class
    classification domain (no correlation matrix, an error rate that says
    nothing), fewer than 3 sources for a sequence model (coda's forecaster,
    trained only at lambda_c > 0, and prelim), prelim on regression, sources
    on which every feature or a regression label is constant, a source
    without a correlation matrix for the forecaster, a prelim truth domain
    without a KDE, a model of more than MAX_PARAMETERS parameters, for
    coda's pull, prior draws of more than MAX_DRAW_CELLS decoder activations,
    or for prelim, more than MAX_KERNEL_CELLS KDE kernel cells computed in
    one epoch or built for one truth-domain class, checked before any
    truth-side KDE is built."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    if stream.task == CLASSIFICATION:
        for dom in (*stream.sources, stream.target):
            if np.unique(dom.labels).size < 2:
                raise ConfigError(f"domain {dom.domain_index} holds a single class; "
                                  "every classification domain needs both labels")
    forecasts = method == "coda" and config.simulator.lambda_c > 0
    if (forecasts or method == "prelim") and len(stream.sources) < 3:
        raise ConfigError(f"{method} needs at least 3 source domains, "
                          f"got {len(stream.sources)}")
    if method == "prelim" and stream.task != CLASSIFICATION:
        raise ConfigError("prelim is defined for classification streams only")
    try:  # the library's own refusals, with their messages
        normalized, _ = fit_apply_normalization(stream)
        if forecasts:
            for source in normalized.sources:
                pearson_matrix(source)  # raises on a column constant in one domain
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    sources, d = normalized.sources, normalized.d
    for block, count in _parameter_counts(d + 1, method, config, sources[-1].n).items():
        if count > MAX_PARAMETERS:
            cfg = getattr(config, block, density_baseline.PrelimConfig())
            sizes = ", ".join(f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg)
                              if f.name.endswith(("_dim", "_dims", "layers")))
            rows = f" and {sources[-1].n} rows" if block == "prelim" else ""
            raise ConfigError(f"{block}: {sizes} on {d} features{rows} make more "
                              f"than {MAX_PARAMETERS:,} parameters")
    sim = config.simulator
    if forecasts and max(SNAPSHOT_DRAWS, sim.regularizer_draws) * sim.decoder_dim \
            > MAX_DRAW_CELLS:
        raise ConfigError(f"simulator: regularizer_draws={sim.regularizer_draws} (at least "
                          f"{SNAPSHOT_DRAWS:,} for the snapshot) x decoder_dim="
                          f"{sim.decoder_dim} make more than {MAX_DRAW_CELLS:,} "
                          "activations in one layer")
    if method == "prelim":
        grid = density_baseline.default_grid(density_baseline.PrelimConfig().grid_size)
        cells = 2 * grid.size * sources[-1].n * d * (len(sources) - 1)
        if cells > MAX_KERNEL_CELLS:
            raise ConfigError(f"prelim: {len(sources) - 1} truth domains x {d} features x "
                              f"{grid.size} grid points x {sources[-1].n} generated rows "
                              f"compute {cells:,} kernel cells per epoch, two per point "
                              f"and row, more than {MAX_KERNEL_CELLS:,}")
        for truth in sources[1:]:
            widest = max(np.sum(truth.labels == 0.0), np.sum(truth.labels == 1.0))
            if grid.size * widest > MAX_KERNEL_CELLS:
                raise ConfigError(f"prelim: domain {truth.domain_index} holds {widest} rows "
                                  f"of one class; their KDE on {grid.size} grid points "
                                  f"makes more than {MAX_KERNEL_CELLS:,} kernel cells")
        try:
            for truth in sources[1:]:
                density_baseline._truth_side(truth, grid)  # raises on a class without a KDE
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _run_single(stream: DomainStream, method: str, config: ExperimentConfig,
                seed: int):
    """(score, last training set, extras) for one seed: one downstream model
    fits the method's training sets in turn, after the first at a tenth of
    the learning rate. Incfinetune gives every source, every other method
    one set; coda's extras hold its simulator and, when lambda_c > 0, the
    forecast it was pulled toward ("predicted_corr")."""
    normalized, stats = fit_apply_normalization(stream)
    sources, extra = normalized.sources, {}
    if method == "coda":
        if config.simulator.lambda_c > 0:  # train_simulator reads no target at 0
            mats = [pearson_matrix(s) for s in sources]
            forecaster = train_predictor(mats, config.predictor, seed=seed)
            extra["predicted_corr"] = predict_next(forecaster, mats)
        sim = extra["simulator"] = train_simulator(
            sources[-1], extra.get("predicted_corr"), config.simulator, seed=seed)
        n = max(8, round(normalized.target.n * config.sample_rate))
        train_sets = [sample(sim, n, seed=seed + 101)]
    elif method == "offline":
        train_sets = [DomainDataset(
            domain_index=sources[-1].domain_index,
            features=np.vstack([s.features for s in sources]),
            labels=np.concatenate([s.labels for s in sources]),
            task=normalized.task, feature_names=sources[0].feature_names)]
    elif method == "prelim":
        # a module attribute, so a wrapper installed on it (bench/run.py) sees the call
        train_sets = [density_baseline.train_prelim(
            normalized, density_baseline.PrelimConfig(), seed=seed)]
    elif method in ("lastdomain", "incfinetune"):
        train_sets = list(sources[-1:] if method == "lastdomain" else sources)
    else:  # coda-without-C is resolved to coda by run_experiment
        raise ValueError(f"unknown method {method!r}")
    down_cfg = config.downstream
    model = train_downstream(train_sets[0], down_cfg, seed=seed)
    slow = replace(down_cfg, learning_rate=0.1 * down_cfg.learning_rate)
    for train_set in train_sets[1:]:
        model = train_downstream(train_set, slow, init_params=model.params)
    return evaluate(model, normalized.target, stats), train_sets[-1], extra


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
    Coda-without-C runs as coda at lambda_c = 0, and its `config_snapshot`
    records that lambda_c.
    """
    require_trainable(stream, method, config)
    runner = method
    if method == "coda-without-C":
        runner, config = "coda", replace(
            config, simulator=replace(config.simulator, lambda_c=0.0))
    t0 = time.perf_counter()
    runs = _run_seeds(stream, runner, config)
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


# the methods that read each sweep parameter; any other curve would be flat
SWEEP_PARAMETERS = {"lambda_c": ("coda",), "sample_rate": ("coda", "coda-without-C")}


def require_sweepable(method: str, parameter: str) -> None:
    """Reject an unknown sweep parameter or one that `method` never reads."""
    readers = SWEEP_PARAMETERS.get(parameter)
    if readers is None:
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    if method not in readers:
        raise ConfigError(f"{method} never reads {parameter}; "
                          f"only {' and '.join(readers)} do")


def sweep(stream: DomainStream, parameter: str, values,
          config: ExperimentConfig, method: str = "coda",
          validate: bool = False) -> list:
    """One full experiment per parameter value, optionally with a validation
    run that holds out the last source domain as a pseudo-target."""
    require_sweepable(method, parameter)
    if not values:
        raise ConfigError("sweep needs at least one value")
    if validate and len(stream.sources) < 3:
        raise ConfigError("validation split needs at least 3 source domains")
    val_stream = DomainStream(stream.sources[:-1], stream.sources[-1]) if validate else None
    # every value, on the test and the validation stream, is checked before
    # the first run trains anything: a lambda_c value decides whether coda
    # trains a forecaster
    try:  # a value the config refuses (NaN, inf, out of range)
        configs = [replace(config, sample_rate=value) if parameter == "sample_rate"
                   else replace(config, simulator=replace(config.simulator, lambda_c=value))
                   for value in values]
    except ValueError as exc:
        raise ConfigError(f"{parameter}: {exc}") from None
    for cfg in configs:
        for checked in (stream, val_stream) if validate else (stream,):
            require_trainable(checked, method, cfg)
    points = []
    for value, cfg in zip(values, configs):
        test_report = run_experiment(stream, method, cfg)
        val_report = (run_experiment(val_stream, method, cfg) if validate
                      else None)
        points.append(SweepPoint(value=float(value), test=test_report,
                                 validation=val_report))
    return points
