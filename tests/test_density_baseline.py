"""Density-forecasting baseline: KDE grids, joint KL, recurrent forecaster."""
import dataclasses
import math

import numpy as np
import pytest

from driftsim.datasets import (CLASSIFICATION, REGRESSION, DomainDataset,
                               DomainStream, make_moons_stream)
from driftsim.density_baseline import (DensityGrid, PrelimConfig, default_grid,
                                       kde_density, prelim_loss,
                                       silverman_bandwidth, train_prelim)


def test_grid_validation():
    with pytest.raises(ValueError):
        DensityGrid(points=np.array([0.0]), masses=np.array([1.0]))
    with pytest.raises(ValueError):
        DensityGrid(points=np.array([0.0, 1.0]), masses=np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        DensityGrid(points=np.array([0.0, 1.0]), masses=np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        DensityGrid(points=np.array([0.0, 1.0, 2.0]), masses=np.array([0.5, 0.5]))


def test_default_grid_span():
    g = default_grid()
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
    dens = kde_density(np.zeros(10), bandwidth=h, grid=grid)
    at = lambda x: dens.masses[np.argmin(np.abs(grid - x))]
    assert np.argmax(dens.masses) == np.argmin(np.abs(grid))
    assert at(0.0) / at(0.1) == pytest.approx(math.exp(0.5), rel=1e-6)


def test_kde_symmetric_samples_give_symmetric_masses():
    dens = kde_density(np.array([-0.4, 0.4]), bandwidth=0.2)
    assert np.allclose(dens.masses, dens.masses[::-1], atol=1e-12)


def test_kde_input_contracts():
    with pytest.raises(ValueError):
        kde_density(np.array([1.0]))
    with pytest.raises(ValueError):
        kde_density(np.array([0.0, 1.0]), bandwidth=0.0)
    with pytest.raises(ValueError):
        kde_density(np.zeros(5))  # auto bandwidth on constant samples is 0


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
