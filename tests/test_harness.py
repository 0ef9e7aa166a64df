"""Downstream-evaluation and experiment-harness contract tests."""
import multiprocessing
import os
import platform
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from driftsim import density_baseline, harness, predictor, simulator
from driftsim.datasets import (CLASSIFICATION, REGRESSION, DomainDataset,
                               DomainStream, fit_apply_normalization,
                               make_moons_stream)
from driftsim.harness import (METHODS, ConfigError, DownstreamConfig,
                              DownstreamModel, ExperimentConfig, evaluate,
                              require_sweepable, require_trainable,
                              run_experiment, sweep, train_downstream)
from driftsim.nn import dense_params
from driftsim.density_baseline import PrelimConfig
from driftsim.predictor import PredictorConfig
from driftsim.simulator import SimulatorConfig, sample


def zero_model(d: int, task: str) -> DownstreamModel:
    config = DownstreamConfig(hidden_dims=(4,))
    params = [np.zeros((d, 4)), np.zeros((1, 4)),
              np.zeros((4, 1)), np.zeros((1, 1))]
    return DownstreamModel(task=task, config=config, params=params,
                           loss_history=[])


def balanced_domain(n=40, task=CLASSIFICATION):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (n, 2))
    y = np.tile([0.0, 1.0], n // 2)
    return DomainDataset(0, x, y, task=task)


def test_constant_classifier_scores_fifty_percent():
    # zeroed net emits sigmoid(0) = 0.5, thresholded to class 1 everywhere
    dom = balanced_domain()
    assert evaluate(zero_model(2, CLASSIFICATION), dom) == 50.0


def test_regression_mae_unit_offset():
    rng = np.random.default_rng(1)
    dom = DomainDataset(0, rng.uniform(-1, 1, (30, 2)), np.ones(30),
                        task=REGRESSION)
    assert evaluate(zero_model(2, REGRESSION), dom) == pytest.approx(1.0)


def test_evaluate_rejects_task_mismatch():
    with pytest.raises(ValueError):
        evaluate(zero_model(2, REGRESSION), balanced_domain())


def test_downstream_fits_separable_data():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (80, 2))
    y = (x[:, 0] > 0).astype(float)
    dom = DomainDataset(0, x, y)
    model = train_downstream(dom, DownstreamConfig(max_epochs=400), seed=0)
    assert evaluate(model, dom) == 0.0
    preds = model.predict(dom.features)
    assert preds.shape == (80,)
    assert np.all((preds >= 0) & (preds <= 1))


def test_downstream_training_is_deterministic():
    dom = balanced_domain(n=24)
    cfg = DownstreamConfig(hidden_dims=(8,), max_epochs=30)
    a = train_downstream(dom, cfg, seed=3)
    b = train_downstream(dom, cfg, seed=3)
    assert a.loss_history == b.loss_history
    assert all(np.array_equal(p, q) for p, q in zip(a.params, b.params))
    other = train_downstream(dom, cfg, seed=4)
    assert not np.array_equal(a.params[0], other.params[0])


SMALL_STREAM = make_moons_stream(domains=6, n_per_domain=40, seed=0)


def test_run_experiment_report_invariants():
    cfg = ExperimentConfig(seeds=(0, 1),
                           downstream=DownstreamConfig(max_epochs=60))
    report = run_experiment(SMALL_STREAM, "lastdomain", cfg)
    assert report.method == "lastdomain"
    assert report.metric == "mce_percent"
    assert len(report.seed_values) == 2
    assert report.mean == pytest.approx(np.mean(report.seed_values))
    assert report.std == pytest.approx(np.std(report.seed_values, ddof=1))
    assert report.wall_clock_s > 0
    d = report.to_dict()
    assert set(d) == {"method", "metric", "seed_values", "mean", "std",
                      "config", "wall_clock_s"}
    assert set(d["config"]) == {"predictor", "simulator", "downstream",
                                "seeds", "sample_rate"}


def test_run_experiment_is_deterministic():
    cfg = ExperimentConfig(seeds=(0,),
                           downstream=DownstreamConfig(max_epochs=60))
    a = run_experiment(SMALL_STREAM, "offline", cfg)
    b = run_experiment(SMALL_STREAM, "offline", cfg)
    assert a.seed_values == b.seed_values


def test_run_experiment_unknown_method():
    with pytest.raises(ValueError):
        run_experiment(SMALL_STREAM, "oracle", ExperimentConfig())


def test_incfinetune_runs_and_scores():
    cfg = ExperimentConfig(seeds=(0,),
                           downstream=DownstreamConfig(max_epochs=40))
    report = run_experiment(SMALL_STREAM, "incfinetune", cfg)
    assert 0.0 <= report.seed_values[0] <= 100.0
    # one model fits every source in turn, after the first at a tenth of the
    # learning rate
    normalized, stats = fit_apply_normalization(SMALL_STREAM)
    first, *rest = normalized.sources
    model = train_downstream(first, cfg.downstream, seed=0)
    slow = replace(cfg.downstream, learning_rate=0.1 * cfg.downstream.learning_rate)
    for source in rest:
        model = train_downstream(source, slow, init_params=model.params)
    assert report.seed_values[0] == evaluate(model, normalized.target, stats)
    (last,) = report.train_sets
    assert np.array_equal(last.features, normalized.sources[-1].features)
    assert np.array_equal(last.labels, normalized.sources[-1].labels)


TINY_PIPELINE = ExperimentConfig(
    seeds=(0,),
    predictor=PredictorConfig(layers=2, latent_dim=3, hidden_dim=6,
                              max_epochs=60, patience=10),
    simulator=SimulatorConfig(encoder_dim=8, encoder_layers=1, decoder_dim=8,
                              decoder_layers=1, latent_dim=2, batch_size=8,
                              regularizer_draws=16, warmup_epochs=2,
                              max_epochs=8, patience=8),
    downstream=DownstreamConfig(max_epochs=40))


def test_coda_pipeline_smoke():
    report = run_experiment(SMALL_STREAM, "coda", TINY_PIPELINE)
    assert report.metric == "mce_percent"
    assert 0.0 <= report.seed_values[0] <= 100.0


def regression_stream(label_factor: float = 1.0) -> DomainStream:
    """Five domains of y = x . w_t + noise, the weight vector w_t turning
    with t, the labels multiplied by `label_factor`."""
    rng = np.random.default_rng(5)
    doms = []
    for t in range(5):
        x = rng.uniform(-1, 1, (40, 2))
        y = x @ [np.cos(0.3 * t), np.sin(0.3 * t)] + 0.1 * rng.standard_normal(40)
        doms.append(DomainDataset(t, x, y * label_factor, task=REGRESSION))
    return DomainStream(sources=tuple(doms[:-1]), target=doms[-1])


@pytest.mark.parametrize("method", ["lastdomain", "coda"])
def test_regression_stream_end_to_end(method):
    config = replace(TINY_PIPELINE, seeds=(0, 1))
    report = run_experiment(regression_stream(), method, config)
    assert report.metric == "mae"
    assert all(np.isfinite(v) and v > 0 for v in report.seed_values)
    # min-max normalization divides the factor 8 out exactly, so the models
    # train on the same numbers; an MAE in raw label units is 8 times larger
    scaled = run_experiment(regression_stream(8.0), method, config)
    assert scaled.seed_values == tuple(8.0 * v for v in report.seed_values)


def test_sweep_points_and_validation_split():
    points = sweep(SMALL_STREAM, "sample_rate", [0.5], TINY_PIPELINE,
                   method="coda", validate=True)
    assert len(points) == 1
    assert points[0].value == 0.5
    assert points[0].test.metric == "mce_percent"
    assert points[0].validation is not None
    # validation pseudo-target is the last source domain
    assert points[0].validation.method == "coda"


def test_sweep_rejects_bad_arguments(monkeypatch):
    with pytest.raises(ValueError):
        sweep(SMALL_STREAM, "learning_rate", [1.0], TINY_PIPELINE)
    with pytest.raises(ValueError):
        sweep(SMALL_STREAM, "lambda_c", [], TINY_PIPELINE)
    # a bad value after a good one fails before the good one trains
    runs = []
    monkeypatch.setattr(harness, "run_experiment", lambda *a: runs.append(a))
    for parameter in ("lambda_c", "sample_rate"):
        with pytest.raises(ValueError):
            sweep(SMALL_STREAM, parameter, [1.0, float("nan")], TINY_PIPELINE)
    # a parameter the method never reads would draw a flat curve
    for method, parameter in (("lastdomain", "sample_rate"),
                              ("coda-without-C", "lambda_c"),
                              ("prelim", "lambda_c")):
        with pytest.raises(ValueError, match=f"{method} never reads {parameter}"):
            sweep(SMALL_STREAM, parameter, [1.0], TINY_PIPELINE, method=method)
    # with 2 sources coda trains at lambda_c = 0 but not at 1, and the 1 is
    # refused before the 0 trains
    three = make_moons_stream(domains=3, n_per_domain=40, seed=0)
    with pytest.raises(ValueError, match="at least 3 source domains"):
        sweep(three, "lambda_c", [0.0, 1.0], TINY_PIPELINE)
    assert runs == []


def test_single_class_domain_is_rejected_before_training(monkeypatch):
    target = SMALL_STREAM.target
    one_class = DomainStream(sources=SMALL_STREAM.sources, target=DomainDataset(
        target.domain_index, target.features, np.ones(target.n)))
    runs = []
    monkeypatch.setattr(harness, "_run_single", lambda *a: runs.append(a))
    with pytest.raises(ValueError, match="single class"):
        run_experiment(one_class, "coda", TINY_PIPELINE)
    with pytest.raises(ValueError, match="single class"):
        sweep(one_class, "sample_rate", [1.0], TINY_PIPELINE)
    assert runs == []


def test_untrainable_stream_is_rejected_before_training(monkeypatch):
    runs = []
    monkeypatch.setattr(harness, "_run_single", lambda *a: runs.append(a))
    three = make_moons_stream(domains=3, n_per_domain=40, seed=0)
    for method in ("coda", "prelim"):
        with pytest.raises(ValueError, match="at least 3 source domains"):
            run_experiment(three, method, TINY_PIPELINE)
    # the validation stream drops a source: coda's forecaster is left with 2
    four = make_moons_stream(domains=4, n_per_domain=40, seed=0)
    with pytest.raises(ValueError, match="at least 3 source domains"):
        sweep(four, "sample_rate", [1.0], TINY_PIPELINE, validate=True)
    # prelim needs a KDE for every feature and class of domains 1..T
    five = make_moons_stream(domains=5, n_per_domain=40, seed=0)
    doms = [*five.sources, five.target]
    flat_x = doms[1].features.copy()
    flat_x[doms[1].labels == 0.0, 1] = 0.5
    lone_y = np.zeros(40)
    lone_y[0] = 1.0
    for dom, edited, match in (
            (1, replace(doms[1], features=flat_x), "domain 1, feature x1: "),
            (2, replace(doms[2], labels=lone_y),
             "domain 2, feature x0: label class 1")):
        edited_doms = [*doms[:dom], edited, *doms[dom + 1:]]
        stream = DomainStream(sources=tuple(edited_doms[:4]), target=edited_doms[4])
        with pytest.raises(ValueError, match=match):
            run_experiment(stream, "prelim", TINY_PIPELINE)
    assert runs == []


def test_validation_split_needs_three_sources():
    tiny = make_moons_stream(domains=3, n_per_domain=40, seed=0)
    with pytest.raises(ValueError, match="validation split"):
        sweep(tiny, "sample_rate", [1.0], TINY_PIPELINE, method="coda",
              validate=True)


def test_coda_trains_a_forecaster_only_when_the_pull_is_on():
    # coda's forecaster needs 3 sources; at lambda_c = 0 it is not trained
    three = make_moons_stream(domains=3, n_per_domain=40, seed=0)
    no_pull_cfg = replace(TINY_PIPELINE, simulator=replace(
        TINY_PIPELINE.simulator, lambda_c=0.0))
    require_trainable(three, "coda", no_pull_cfg)
    require_trainable(three, "coda-without-C", TINY_PIPELINE)
    with pytest.raises(ValueError, match="coda needs at least 3 source domains"):
        require_trainable(three, "coda", TINY_PIPELINE)
    # coda-without-C is coda at lambda_c = 0, and its report says so
    without_c = run_experiment(three, "coda-without-C", TINY_PIPELINE)
    no_pull = run_experiment(three, "coda", no_pull_cfg)
    assert without_c.config_snapshot["simulator"]["lambda_c"] == 0.0
    assert without_c.config_snapshot == no_pull.config_snapshot
    assert without_c.seed_values == no_pull.seed_values
    assert without_c.extras[0].keys() == {"simulator"}


def test_refusals_before_training_are_config_errors(monkeypatch):
    # the harness's own checks, and the library refusals it re-raises, all
    # surface as ConfigError, which is still a ValueError
    runs = []
    monkeypatch.setattr(harness, "run_experiment", lambda *a: runs.append(a))
    three = make_moons_stream(domains=3, n_per_domain=40, seed=0)
    doms = [*SMALL_STREAM.sources, SMALL_STREAM.target]
    flat = np.zeros_like(doms[1].features)
    one_flat_domain = DomainStream(  # every feature constant in domain 1 only
        sources=(doms[0], replace(doms[1], features=flat), *doms[2:5]), target=doms[5])
    flat_sources = DomainStream(sources=tuple(replace(d, features=flat) for d in doms[:5]),
                                target=doms[5])
    class_flat_x = doms[1].features.copy()
    class_flat_x[doms[1].labels == 0.0, 1] = 0.5
    no_kde = DomainStream(sources=(doms[0], replace(doms[1], features=class_flat_x),
                                   *doms[2:5]), target=doms[5])
    for refuse, match in (
            (lambda: require_trainable(SMALL_STREAM, "oracle", TINY_PIPELINE),
             "unknown method 'oracle'"),
            (lambda: require_trainable(three, "coda", TINY_PIPELINE), "at least 3 source"),
            (lambda: require_trainable(flat_sources, "lastdomain", TINY_PIPELINE),
             "all feature columns are constant"),                 # normalization
            (lambda: require_trainable(one_flat_domain, "coda", TINY_PIPELINE),
             "domain 1: near-constant column"),                    # pearson_matrix
            (lambda: require_trainable(no_kde, "prelim", TINY_PIPELINE),
             "domain 1, feature x1: "),                            # prelim's KDE
            (lambda: require_sweepable("coda", "epochs"), "unknown sweep parameter"),
            (lambda: require_sweepable("lastdomain", "sample_rate"), "never reads"),
            (lambda: sweep(SMALL_STREAM, "sample_rate", [], TINY_PIPELINE),
             "at least one value"),
            (lambda: sweep(three, "sample_rate", [1.0], TINY_PIPELINE, validate=True),
             "validation split"),
            (lambda: sweep(SMALL_STREAM, "sample_rate", [float("nan")], TINY_PIPELINE),
             "sample_rate: sample_rate must be in"),
            (lambda: sweep(SMALL_STREAM, "sample_rate", [101.0], TINY_PIPELINE),
             "sample_rate must be in"),
            (lambda: sweep(SMALL_STREAM, "lambda_c", [float("inf")], TINY_PIPELINE),
             "lambda_c: lambda_c must be finite")):
        with pytest.raises(ConfigError, match=match) as refused:
            refuse()
        assert isinstance(refused.value, ValueError)
    assert runs == []


def _size(arrays) -> int:
    return sum(a.size for a in arrays)


def test_parameter_counts_match_the_models_built():
    rng = np.random.default_rng(0)
    small = replace(TINY_PIPELINE, downstream=DownstreamConfig(hidden_dims=()))
    for m in (2, 3, 7):
        for config in (ExperimentConfig(), TINY_PIPELINE, small):
            assert harness._parameter_counts(m, "coda", config, 40) == {
                "downstream": _size(dense_params(rng, (m - 1, *config.downstream.hidden_dims, 1))),
                "simulator": _size(simulator._init_params(m, config.simulator, rng)),
                "predictor": _size(predictor._init_params(m, config.predictor, rng))}
        # prelim's model, with its default config, embeds each row of the last source
        for rows in (2, 40, 7842):
            prelim = density_baseline._init_prelim(m - 1, rows, PrelimConfig(), rng)
            assert harness._parameter_counts(m, "prelim", config, rows)["prelim"] == _size(prelim)
    assert harness._parameter_counts(3, "prelim", ExperimentConfig(), 200)["prelim"] == 7842
    # only the models a method trains are counted
    no_pull = replace(TINY_PIPELINE, simulator=replace(TINY_PIPELINE.simulator, lambda_c=0.0))
    for method, config, blocks in (("coda", no_pull, {"downstream", "simulator"}),
                                   ("coda-without-C", TINY_PIPELINE, {"downstream", "simulator"}),
                                   ("prelim", TINY_PIPELINE, {"downstream", "prelim"}),
                                   ("lastdomain", TINY_PIPELINE, {"downstream"})):
        assert set(harness._parameter_counts(3, method, config, 40)) == blocks


def test_a_model_past_the_parameter_bound_is_refused(monkeypatch):
    # the defaults sit far below the bound; lowered to their largest model,
    # the bound admits it and refuses one parameter more, naming the sizes
    counts = harness._parameter_counts(SMALL_STREAM.d + 1, "coda", ExperimentConfig(), 40)
    assert max(counts.values()) == counts["simulator"] < harness.MAX_PARAMETERS // 100
    monkeypatch.setattr(harness, "MAX_PARAMETERS", counts["simulator"])
    require_trainable(SMALL_STREAM, "coda", ExperimentConfig())
    monkeypatch.setattr(harness, "MAX_PARAMETERS", counts["simulator"] - 1)
    with pytest.raises(ConfigError, match="simulator: encoder_dim=64, .* on 2 features"):
        require_trainable(SMALL_STREAM, "coda", ExperimentConfig())
    require_trainable(SMALL_STREAM, "lastdomain", ExperimentConfig())


def test_prior_draws_past_the_activation_bound_are_refused(monkeypatch):
    # the default pull decodes 2,048 snapshot draws 72 wide; with the bound
    # lowered to that, one more draw is refused, and only where coda pulls
    config = ExperimentConfig()
    cells = simulator.SNAPSHOT_DRAWS * config.simulator.decoder_dim
    monkeypatch.setattr(harness, "MAX_DRAW_CELLS", cells)
    require_trainable(SMALL_STREAM, "coda", config)
    more = replace(config, simulator=replace(config.simulator,
                                             regularizer_draws=simulator.SNAPSHOT_DRAWS + 1))
    with pytest.raises(ConfigError, match="simulator: regularizer_draws=2049 "):
        require_trainable(SMALL_STREAM, "coda", more)
    require_trainable(SMALL_STREAM, "coda-without-C", more)
    no_pull = replace(more, simulator=replace(more.simulator, lambda_c=0.0))
    require_trainable(SMALL_STREAM, "coda", no_pull)


def test_prelim_past_the_kernel_bound_is_refused_before_its_truth_side(monkeypatch):
    # SMALL_STREAM's prelim loss computes 2 x 4 truth domains x 2 features x
    # 256 grid points x 40 rows kernel cells per epoch; with the bound lowered
    # to that, it is admitted, and one cell less refuses it before any
    # truth-side KDE is built
    built = []
    real = density_baseline._truth_side
    monkeypatch.setattr(density_baseline, "_truth_side",
                        lambda *a: built.append(1) or real(*a))
    cells = 2 * 4 * 2 * 256 * 40
    monkeypatch.setattr(harness, "MAX_KERNEL_CELLS", cells)
    require_trainable(SMALL_STREAM, "prelim", ExperimentConfig())
    assert len(built) == 4
    monkeypatch.setattr(harness, "MAX_KERNEL_CELLS", cells - 1)
    with pytest.raises(ConfigError, match=r"prelim: 4 truth domains x 2 features x 256 grid "
                                          r"points x 40 generated rows compute 163,840 kernel"):
        require_trainable(SMALL_STREAM, "prelim", ExperimentConfig())
    assert len(built) == 4
    require_trainable(SMALL_STREAM, "lastdomain", ExperimentConfig())
    # a truth domain whose class alone outgrows the bound, behind a small last source
    big = replace(make_moons_stream(domains=3, n_per_domain=2000).sources[0], domain_index=2)
    sources = SMALL_STREAM.sources
    wide = DomainStream((*sources[:2], big, *sources[3:]), SMALL_STREAM.target)
    monkeypatch.setattr(harness, "MAX_KERNEL_CELLS", 256 * 1000 - 1)
    with pytest.raises(ConfigError, match="prelim: domain 2 holds 1000 rows of one class"):
        require_trainable(wide, "prelim", ExperimentConfig())
    assert len(built) == 4
    # the parameter bound counts prelim's model too
    monkeypatch.setattr(harness, "MAX_PARAMETERS", 6242 + 8 * 40 - 1)
    with pytest.raises(ConfigError, match="prelim: hidden_dim=32, embed_dim=8 on 2 features "
                                          "and 40 rows make more than 6,561 parameters"):
        require_trainable(SMALL_STREAM, "prelim", ExperimentConfig())


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    for rate in (0.0, float("nan"), float("inf"), 100.5, 1e300):
        with pytest.raises(ValueError):
            ExperimentConfig(sample_rate=rate)
    assert ExperimentConfig(sample_rate=100.0).sample_rate == 100.0
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=(0, -1))


def test_methods_tuple_is_the_public_contract():
    assert METHODS == ("coda", "coda-without-C", "lastdomain", "offline",
                       "incfinetune", "prelim")


THREE_SEEDS = replace(TINY_PIPELINE, seeds=(0, 1, 2))


def test_seeds_in_workers_match_the_one_process_run():
    # on a machine with one usable CPU this checks the in-process path only
    report = run_experiment(SMALL_STREAM, "coda", THREE_SEEDS)
    assert multiprocessing.active_children() == []
    for i, seed in enumerate(THREE_SEEDS.seeds):
        value, train_set, extra = harness._run_single(SMALL_STREAM, "coda",
                                                      THREE_SEEDS, seed)
        assert np.array_equal(report.seed_values[i], value)
        assert np.array_equal(report.train_sets[i].features, train_set.features)
        assert np.array_equal(report.train_sets[i].labels, train_set.labels)
        assert np.array_equal(report.extras[i]["predicted_corr"].entries,
                              extra["predicted_corr"].entries)
        sim = report.extras[i]["simulator"]
        for got, want in zip(sim.params, extra["simulator"].params, strict=True):
            assert np.array_equal(got, want)
        resampled = sample(sim, train_set.n, seed + 101)
        assert np.array_equal(resampled.features, report.train_sets[i].features)
        assert np.array_equal(resampled.labels, report.train_sets[i].labels)
    without_c = run_experiment(SMALL_STREAM, "coda-without-C", TINY_PIPELINE)
    (train_set,), (extra,) = without_c.train_sets, without_c.extras
    resampled = sample(extra["simulator"], train_set.n, seed=0 + 101)
    assert np.array_equal(resampled.features, train_set.features)


def test_one_usable_cpu_runs_the_seeds_in_process(monkeypatch):
    calls = []
    real = harness.train_predictor

    def counted(*args, **kwargs):
        calls.append(kwargs["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(harness, "train_predictor", counted)
    run_experiment(SMALL_STREAM, "coda", THREE_SEEDS)
    assert calls == [0, 1, 2]


HEAP_PROBE = """
import resource, sys
from types import SimpleNamespace
import numpy as np
from driftsim import optim
if sys.argv[1] == "trained":  # one epoch of the loop every trainer runs
    optim.train(np.zeros(1), lambda e, opt: None, lambda: 0.0,
                SimpleNamespace(learning_rate=1.0, patience=1), 1)

def step():  # a simulator step's live tape: eight 512 x 72 layers, then freed
    return [np.ones((512, 72)) for _ in range(8)]

step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_kept_heap_serves_repeated_steps_without_page_faults():
    # in a fresh child, which starts on glibc's default heap (it took 10,900
    # faults here, the pages of 20 x 2.3 MB) until its first optim.train call
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    faults = int(subprocess.run([sys.executable, "-c", HEAP_PROBE, "trained"], env=env,
                                capture_output=True, text=True, check=True).stdout)
    assert faults < 100
