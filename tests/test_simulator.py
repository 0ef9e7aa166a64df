"""Oracle and contract tests for the variational data simulator."""
import numpy as np
import pytest

from driftsim import autodiff as ad
from driftsim import simulator as sm
from driftsim.correlation import CorrelationMatrix, pearson_matrix
from driftsim.datasets import CLASSIFICATION, REGRESSION, DomainDataset
from driftsim.simulator import (SimulatorConfig, SimulatorModel, corr_regularizer,
                                elbo_loss, loss_snapshot, sample, train_simulator)

TINY = SimulatorConfig(encoder_dim=4, encoder_layers=1, decoder_dim=4,
                       decoder_layers=1, latent_dim=1, lambda_c=0.0,
                       batch_size=8, max_epochs=3, warmup_epochs=0, patience=2)


def zeroed_model(config: SimulatorConfig, m: int, task: str = CLASSIFICATION):
    rng = np.random.default_rng(0)
    params = [np.zeros_like(p) for p in sm._init_params(m, config, rng)]
    return SimulatorModel(m=m, task=task, config=config, params=params,
                          trained_on_index=0, loss_history=[])


def test_elbo_zero_when_decoder_reproduces_input():
    # zero weights: mu = logvar = 0 (KL term 0), decoded row = (0, 0, 0.5)
    model = zeroed_model(TINY, m=3)
    batch = np.tile([0.0, 0.0, 0.5], (4, 1))
    noise = np.zeros((4, 1))
    assert elbo_loss(model, batch, noise) == 0.0


def test_elbo_kl_closed_form_half():
    # unit mean, zero log-variance, k=1: KL = (mu^2 + sigma^2 - 1 - ln sigma^2)/2
    model = zeroed_model(TINY, m=3)
    mu_bias = 2 * TINY.encoder_layers + 1
    model.params[mu_bias] = np.ones((1, 1))
    batch = np.tile([0.0, 0.0, 0.5], (4, 1))
    assert elbo_loss(model, batch, np.zeros((4, 1))) == pytest.approx(0.5, abs=1e-12)


def test_elbo_regression_label_channel():
    model = zeroed_model(TINY, m=3, task=REGRESSION)
    batch = np.zeros((4, 3))  # tanh label head emits 0 for a zeroed decoder
    assert elbo_loss(model, batch, np.zeros((4, 1))) == 0.0


def test_elbo_matches_numpy_reference():
    config = SimulatorConfig(encoder_dim=6, encoder_layers=2, decoder_dim=5,
                             decoder_layers=2, latent_dim=3, obs_variance=0.2)
    rng = np.random.default_rng(3)
    params = sm._init_params(4, config, rng)
    model = SimulatorModel(m=4, task=CLASSIFICATION, config=config, params=params,
                           trained_on_index=0, loss_history=[])
    batch = rng.uniform(-1, 1, (16, 4))
    noise = rng.standard_normal((16, 3))

    h = batch
    for i in range(0, 4, 2):
        h = np.tanh(h @ params[i] + params[i + 1])
    mu = h @ params[4] + params[5]
    logvar = h @ params[6] + params[7]
    z = mu + np.exp(0.5 * logvar) * noise
    g = z
    for i in range(8, 12, 2):
        g = np.tanh(g @ params[i] + params[i + 1])
    out = g @ params[-2] + params[-1]
    recon = np.column_stack([np.tanh(out[:, :3]),
                             1.0 / (1.0 + np.exp(-out[:, 3]))])
    recon_term = 0.5 * np.sum((recon - batch) ** 2) / config.obs_variance
    kl = 0.5 * np.sum(mu ** 2 + np.exp(logvar) - 1.0 - logvar)
    expected = (recon_term + kl) / 16

    assert elbo_loss(model, batch, noise) == pytest.approx(expected, rel=1e-12)


def test_elbo_rejects_bad_shapes():
    model = zeroed_model(TINY, m=3)
    with pytest.raises(ValueError):
        elbo_loss(model, np.zeros((4, 5)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        elbo_loss(model, np.zeros((4, 3)), np.zeros((4, 2)))


def test_regularizer_zero_at_own_correlation():
    rng = np.random.default_rng(7)
    batch = rng.standard_normal((64, 3))
    target = pearson_matrix(DomainDataset(0, batch[:, :2], batch[:, 2],
                                          task=REGRESSION))
    # only the tiny variance guard keeps this off exact zero
    assert corr_regularizer(batch, target) < 1e-3


def test_regularizer_two_correlated_columns_against_identity():
    rng = np.random.default_rng(1)
    v = rng.uniform(-1, 1, 32)
    batch = np.column_stack([v, v])
    reg = corr_regularizer(batch, CorrelationMatrix(np.eye(2)))
    assert reg == pytest.approx(2.0, abs=1e-3)


def test_regularizer_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    batch = rng.uniform(-0.9, 0.9, (12, 3))
    target = np.eye(3)
    worst = ad.grad_check(lambda ps, ins: sm._regularizer_graph(ps[0], ins[0]),
                          [batch], [target])
    assert worst < 1e-4


def test_regularizer_input_contracts():
    with pytest.raises(ValueError):
        corr_regularizer(np.zeros((4, 2)), CorrelationMatrix(np.eye(2)))
    with pytest.raises(ValueError):
        corr_regularizer(np.zeros((12, 3)), CorrelationMatrix(np.eye(2)))


def test_training_objective_gradient_matches_finite_differences():
    config = SimulatorConfig(encoder_dim=3, encoder_layers=1, decoder_dim=3,
                             decoder_layers=1, latent_dim=2, lambda_c=1.0,
                             batch_size=8, regularizer_draws=8)
    rng = np.random.default_rng(11)
    params = sm._init_params(3, config, rng)
    rows = rng.uniform(-1, 1, (8, 3))
    noise = rng.standard_normal((8, 2))
    z = rng.standard_normal((8, 2))
    target = np.eye(3)

    def build(ps, ins):
        loss = sm._neg_elbo_graph(ps, config, ins[0], ins[1], CLASSIFICATION)
        gen = sm._decode(ps, config, ins[2], CLASSIFICATION)
        return loss + sm._regularizer_graph(gen, ins[3]) * config.lambda_c

    worst = ad.grad_check(build, params, [rows, noise, z, target])
    assert worst < 1e-4


def tiny_domain(n=24, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    return DomainDataset(3, x, y)


def test_train_keeps_best_checkpoint_below_init():
    dom = tiny_domain()
    target = pearson_matrix(dom)
    config = SimulatorConfig(encoder_dim=8, encoder_layers=1, decoder_dim=8,
                             decoder_layers=1, latent_dim=2, batch_size=8,
                             regularizer_draws=16, max_epochs=30,
                             warmup_epochs=5, patience=30, seed=1)
    model = train_simulator(dom, target, config)
    assert model.snapshot_best <= model.snapshot_init + 1e-12
    assert model.loss_history[0] == model.snapshot_init
    assert len(model.loss_history) <= config.max_epochs + 1
    assert model.snapshot_best == pytest.approx(
        loss_snapshot(model.params, np.column_stack([dom.features, dom.labels]),
                      target, config, dom.task, config.seed), abs=1e-9)


def test_train_is_deterministic_per_seed():
    dom = tiny_domain()
    target = pearson_matrix(dom)
    config = SimulatorConfig(encoder_dim=6, encoder_layers=1, decoder_dim=6,
                             decoder_layers=1, latent_dim=2, batch_size=8,
                             regularizer_draws=8, max_epochs=8, warmup_epochs=2,
                             patience=8, seed=5)
    a = train_simulator(dom, target, config)
    b = train_simulator(dom, target, config)
    assert a.snapshot_best == b.snapshot_best
    assert all(np.array_equal(p, q) for p, q in zip(a.params, b.params))


def test_train_requires_target_when_regularized():
    dom = tiny_domain()
    with pytest.raises(ValueError):
        train_simulator(dom, None, SimulatorConfig(lambda_c=1.0))
    with pytest.raises(ValueError):
        train_simulator(dom, CorrelationMatrix(np.eye(2)),
                        SimulatorConfig(lambda_c=1.0))


def test_sample_contract():
    dom = tiny_domain()
    config = SimulatorConfig(encoder_dim=6, encoder_layers=1, decoder_dim=6,
                             decoder_layers=1, latent_dim=2, lambda_c=0.0,
                             batch_size=8, max_epochs=3, patience=3, seed=2)
    model = train_simulator(dom, None, config)
    synth = sample(model, 50, seed=9)
    again = sample(model, 50, seed=9)
    other = sample(model, 50, seed=10)
    assert np.array_equal(synth.features, again.features)
    assert not np.array_equal(synth.features, other.features)
    assert synth.domain_index == dom.domain_index + 1
    assert np.all(np.abs(synth.features) <= 1.0)
    assert set(np.unique(synth.labels)) <= {0.0, 1.0}
    smallest = sample(model, 2, seed=0)
    assert smallest.n == 2

    reg = sample(model, 20, seed=3, task=REGRESSION)
    assert np.all(np.abs(reg.labels) <= 1.0)
    with pytest.raises(ValueError):
        sample(model, 0, seed=0)
    with pytest.raises(ValueError):
        sample(model, 5, seed=0, task="ranking")


@pytest.mark.parametrize("field,value", [
    ("batch_size", 4),
    ("regularizer_draws", 4),
    ("obs_variance", 0.0),
    ("warmup_epochs", -1),
    ("lambda_c", -0.5),
    ("max_epochs", 0),
])
def test_config_validation(field, value):
    with pytest.raises(ValueError):
        SimulatorConfig(**{field: value})
