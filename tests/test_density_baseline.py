"""Density-forecasting baseline: KDE grids, joint KL, recurrent forecaster."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from driftsim import autodiff as ad
from driftsim import density_baseline
from driftsim.datasets import (CLASSIFICATION, REGRESSION, DomainDataset,
                               DomainStream, make_moons_stream)
from driftsim.density_baseline import (Q_FLOOR, PrelimConfig, default_grid,
                                       kde_density, silverman_bandwidth,
                                       train_prelim)

import unfused
from references import prelim_loss, value_and_grad


def test_default_grid_span():
    g = default_grid(256)
    assert g.shape == (256,)
    assert g[0] == -1.2 and g[-1] == 1.2


def test_silverman_formula():
    rng = np.random.default_rng(0)
    s = rng.standard_normal(50)
    assert silverman_bandwidth(s) == pytest.approx(
        1.06 * s.std(ddof=1) * 50 ** (-0.2), rel=1e-12)


def test_kde_point_mass_peak_ratio():
    # all samples at 0: mass ratio between grid points x1, x2 is the Gaussian
    # kernel ratio exp((x2^2 - x1^2) / (2 h^2)); normalization cancels
    h = 0.1
    grid = default_grid(241)  # step 0.01, so 0.0 and 0.1 are on the grid
    masses = kde_density(np.zeros(10), bandwidth=h, grid=grid)
    at = lambda x: masses[np.argmin(np.abs(grid - x))]
    assert np.argmax(masses) == np.argmin(np.abs(grid))
    assert at(0.0) / at(0.1) == pytest.approx(math.exp(0.5), rel=1e-6)


def test_kde_symmetric_samples_give_symmetric_masses():
    masses = kde_density(np.array([-0.4, 0.4]), bandwidth=0.2,
                         grid=default_grid(256))
    assert np.allclose(masses, masses[::-1], atol=1e-12)


def test_kde_input_contracts():
    grid = default_grid(256)
    with pytest.raises(ValueError):
        kde_density(np.array([1.0]), bandwidth=0.1, grid=grid)
    with pytest.raises(ValueError):
        kde_density(np.array([0.0, 1.0]), bandwidth=0.0, grid=grid)
    with pytest.raises(ValueError):
        # Silverman's bandwidth on constant samples is 0
        kde_density(np.zeros(5), bandwidth=silverman_bandwidth(np.zeros(5)),
                    grid=grid)
    with pytest.raises(ValueError):
        # every kernel underflows to 0 on the [-1.2, 1.2] grid
        kde_density(np.array([50.0, 50.1]), bandwidth=0.01, grid=grid)


def asymmetric_domain(seed=0, d=1):
    rng = np.random.default_rng(seed)
    n = 60
    x0 = rng.uniform(0.0, 1.0, (n // 2, d))      # class 0 mass on the right
    x1 = rng.uniform(-1.0, -0.2, (n // 2, d))    # class 1 mass on the left
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    return DomainDataset(0, x, y)


def test_prelim_loss_identical_datasets():
    dom = asymmetric_domain()
    assert prelim_loss(dom, dom) == pytest.approx(0.0, abs=1e-9)


def test_prelim_loss_negated_feature_positive():
    dom = asymmetric_domain()
    flipped = DomainDataset(0, -dom.features, dom.labels)
    assert prelim_loss(flipped, dom) > 0.1


def test_prelim_loss_additive_over_features():
    two = asymmetric_domain(seed=3, d=2)
    one_a = DomainDataset(0, two.features[:, :1], two.labels)
    one_b = DomainDataset(0, two.features[:, 1:], two.labels)
    total = prelim_loss(two, two, label_prior=(0.5, 0.5))
    parts = (prelim_loss(one_a, one_a, label_prior=(0.5, 0.5))
             + prelim_loss(one_b, one_b, label_prior=(0.5, 0.5)))
    assert total == pytest.approx(parts, abs=1e-12)

    shifted = DomainDataset(0, two.features * 0.5, two.labels)
    sh_a = DomainDataset(0, shifted.features[:, :1], shifted.labels)
    sh_b = DomainDataset(0, shifted.features[:, 1:], shifted.labels)
    total = prelim_loss(shifted, two, label_prior=(0.5, 0.5))
    parts = (prelim_loss(sh_a, one_a, label_prior=(0.5, 0.5))
             + prelim_loss(sh_b, one_b, label_prior=(0.5, 0.5)))
    assert total == pytest.approx(parts, rel=1e-12)


def test_prelim_loss_contracts():
    dom = asymmetric_domain()
    single_class = DomainDataset(0, dom.features, np.zeros(dom.n))
    with pytest.raises(ValueError):
        prelim_loss(dom, single_class)
    wide = DomainDataset(0, np.hstack([dom.features, dom.features]), dom.labels)
    with pytest.raises(ValueError):
        prelim_loss(wide, dom)
    reg = DomainDataset(0, dom.features, dom.labels, task=REGRESSION)
    with pytest.raises(ValueError):
        prelim_loss(reg, reg)


SMALL_PRELIM = PrelimConfig(hidden_dim=8, embed_dim=4, grid_size=64,
                            max_epochs=5, patience=5)


def test_init_draws_the_decoder_after_the_lstm():
    # one (2d+1 + hidden, 4 hidden) Glorot draw, then the row embeddings
    cfg = PrelimConfig()
    params = density_baseline._init_prelim(2, 10, cfg, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    rng.uniform(size=(5 + cfg.hidden_dim) * 4 * cfg.hidden_dim)
    assert len(params) == 8
    assert np.array_equal(params[2], rng.standard_normal((10, cfg.embed_dim)))


def test_train_prelim_smoke_and_output_shape():
    stream = make_moons_stream(domains=4, n_per_domain=40, seed=0)
    synth = train_prelim(stream, SMALL_PRELIM, seed=0)
    last = stream.sources[-1]
    assert synth.n == last.n
    assert synth.d == last.d
    assert synth.domain_index == last.domain_index + 1
    assert np.all(np.abs(synth.features) <= 1.0)
    assert np.sum(synth.labels == 0.0) == np.sum(synth.labels == 1.0)


def test_train_prelim_deterministic():
    stream = make_moons_stream(domains=4, n_per_domain=40, seed=1)
    a = train_prelim(stream, SMALL_PRELIM)
    b = train_prelim(stream, SMALL_PRELIM)
    assert np.array_equal(a.features, b.features)
    other = train_prelim(stream, SMALL_PRELIM, seed=1)
    assert not np.array_equal(a.features, other.features)


def test_train_prelim_constant_stream_sanity():
    # identical domains: emitted data scores the same against D_{T+1} as D_T
    base = asymmetric_domain(seed=5, d=2)
    doms = [dataclasses.replace(base, domain_index=i) for i in range(4)]
    stream = DomainStream(sources=tuple(doms[:3]), target=doms[3])
    cfg = PrelimConfig(hidden_dim=8, embed_dim=4, grid_size=64,
                       max_epochs=40, patience=40)
    synth = train_prelim(stream, cfg, seed=0)
    at_target = prelim_loss(synth, stream.target)
    at_last = prelim_loss(synth, stream.sources[-1])
    assert at_target <= 2.0 * at_last + 1e-9


def per_epoch_joint_kl(rows, labels, truth, grid):
    """Oracle: the joint KL with the truth side rebuilt from `truth` on each
    call, as the training loss was first written."""
    loss = None
    prior = (np.mean(truth.labels == 0.0), np.mean(truth.labels == 1.0))
    for i in range(truth.d):
        for cls, pr in zip((0.0, 1.0), prior):
            truth_vals = truth.features[truth.labels == cls, i]
            h = silverman_bandwidth(truth_vals)
            q = kde_density(truth_vals, bandwidth=h, grid=grid)
            log_q = np.log(np.maximum(q * pr, Q_FLOOR))
            term = unfused.kde_kl_term(rows, i, np.flatnonzero(labels == cls), grid, h, pr,
                                       log_q)
            loss = term if loss is None else loss + term
    return loss


def captured_loss(monkeypatch, stream):
    """The loss function and initial params `train_prelim` hands to `fit`."""
    captured = []

    def no_fit(build, params, config):
        captured.append((build, params))
        return params, []

    monkeypatch.setattr(density_baseline, "fit", no_fit)
    train_prelim(stream, SMALL_PRELIM, seed=0)
    (build, params), = captured
    return build, params


def test_training_loss_matches_per_epoch_truth_side(monkeypatch):
    stream = make_moons_stream(domains=4, n_per_domain=40, seed=0)
    build, params = captured_loss(monkeypatch, stream)
    sources = stream.sources
    labels = np.repeat([0.0, 1.0], sources[-1].n // 2)
    grid = default_grid(SMALL_PRELIM.grid_size)

    def oracle(ps):
        states = unfused.lstm_stack(ps[:2], density_baseline._summaries(sources),
                                    SMALL_PRELIM.hidden_dim)
        loss = None
        for t in range(len(sources) - 1):
            rows = unfused.decode_rows(ps, states[t])
            term = per_epoch_joint_kl(rows, labels, sources[t + 1], grid)
            loss = term if loss is None else loss + term
        return loss * (1.0 / (len(sources) - 1))

    loss, grad = value_and_grad(build, params)
    want_loss, want_grad = value_and_grad(unfused.taped(oracle), params)
    assert loss == want_loss
    assert np.array_equal(grad, want_grad)


def test_kde_term_gradients_form_once_per_epoch_and_only_in_its_vjp_call(monkeypatch):
    # each epoch is one gradient evaluation: one VJP run, by one `backward`,
    # and every KDE term's gradient formed once, for the gradient that the
    # loss hands its terms; the final decode after the fit forms none
    stream = make_moons_stream(domains=4, n_per_domain=40, seed=0)
    calls = []
    real_term, real_backward = density_baseline._kde_kl_term, ad.backward
    monkeypatch.setattr(density_baseline, "_kde_kl_term", lambda *a: calls.append(a[-1]) or real_term(*a))
    monkeypatch.setattr(ad, "backward", lambda *a: calls.append("backward")
                        or real_backward(*a))
    at_fit_end = []
    real_fit = density_baseline.fit

    def fit(*args):
        out = real_fit(*args)
        at_fit_end.append(len(calls))
        return out

    monkeypatch.setattr(density_baseline, "fit", fit)
    train_prelim(stream, SMALL_PRELIM, seed=0)
    # 5 epochs of 2 truth domains x 2 features x 2 classes, each scaled by 1/2
    epoch = [0.5] * 8 + ["backward"]
    assert calls == epoch * 5
    assert at_fit_end == [len(calls)]


def test_one_gradient_evaluation_on_moons_peaks_below_4_mib(monkeypatch):
    # no kernel matrix outlives its term; the 32 terms' grid x rows matrices
    # kept until backward would peak at 15.4 MiB
    build, params = captured_loss(monkeypatch, make_moons_stream())
    tracemalloc.start()
    try:
        value_and_grad(build, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak / 2 ** 20


def test_loss_runs_the_stack_over_all_but_the_last_source(monkeypatch):
    stream = make_moons_stream()
    build, params = captured_loss(monkeypatch, stream)
    fed = []
    real = ad.lstm
    monkeypatch.setattr(ad, "lstm", lambda ps, rows: fed.append(rows) or real(ps, rows))
    build(params)
    (rows,) = fed
    assert len(rows) == len(stream.sources) - 1
    want = density_baseline._summaries(stream.sources)
    for got, row in zip(rows, want[:-1], strict=True):
        assert np.array_equal(got, row)


def test_truth_side_is_built_once_per_fit(monkeypatch):
    calls = []
    real = density_baseline.kde_density
    monkeypatch.setattr(density_baseline, "kde_density",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    stream = make_moons_stream(domains=4, n_per_domain=40, seed=0)
    train_prelim(stream, SMALL_PRELIM, seed=0)
    # 2 truth domains x 2 features x 2 classes, whatever the epoch count
    assert len(calls) == 8


def test_truth_side_errors_name_domain_and_feature():
    dom = asymmetric_domain(seed=0, d=2)
    x = dom.features.copy()
    x[dom.labels == 0.0, 1] = 0.5
    flat = DomainDataset(3, x, dom.labels, feature_names=("a", "b"))
    with pytest.raises(ValueError, match="domain 3, feature b: bandwidth"):
        prelim_loss(dom, flat)
    lone = DomainDataset(4, dom.features[:31], dom.labels[:31],
                         feature_names=("a", "b"))
    with pytest.raises(ValueError, match="domain 4, feature a: label class 1"):
        prelim_loss(dom, lone)


def test_train_prelim_contracts():
    short = make_moons_stream(domains=3, n_per_domain=40, seed=0)
    with pytest.raises(ValueError):
        train_prelim(short, SMALL_PRELIM)
    rng = np.random.default_rng(0)
    regs = [DomainDataset(i, rng.uniform(-1, 1, (20, 2)), rng.uniform(-1, 1, 20),
                          task=REGRESSION) for i in range(4)]
    reg_stream = DomainStream(sources=tuple(regs[:3]), target=regs[3])
    with pytest.raises(ValueError):
        train_prelim(reg_stream, SMALL_PRELIM)


def test_prelim_config_validation():
    with pytest.raises(ValueError):
        PrelimConfig(hidden_dim=0)
    with pytest.raises(ValueError):
        PrelimConfig(grid_size=0)
