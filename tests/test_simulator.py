"""Oracle and contract tests for the variational data simulator."""
import itertools
from dataclasses import replace

import numpy as np
import pytest

from driftsim import autodiff as ad
from driftsim import simulator as sm
from driftsim.correlation import CorrelationMatrix, pearson_matrix
from driftsim.datasets import CLASSIFICATION, REGRESSION, DomainDataset
from driftsim.nn import dense_params
from driftsim.optim import TOL
from driftsim.simulator import (SimulatorConfig, loss_snapshot, sample,
                                train_simulator)

import unfused
from references import grad_check, value_and_grad
from unfused import same_bits

TINY = SimulatorConfig(encoder_dim=4, encoder_layers=1, decoder_dim=4,
                       decoder_layers=1, latent_dim=1, lambda_c=0.0,
                       batch_size=8, max_epochs=3, warmup_epochs=0, patience=2)


def zeroed_params(config: SimulatorConfig, m: int) -> list:
    rng = np.random.default_rng(0)
    return [np.zeros_like(p) for p in sm._init_params(m, config, rng)]


def neg_elbo(params, config, batch, noise, task=CLASSIFICATION) -> float:
    """The training objective's value without the correlation pull."""
    return ad.evaluate_value(
        lambda ps: sm._objective(ps, config, task, batch, noise), params)


def small_decoder(m: int, draws: int, seed: int) -> tuple:
    """(params of a 2 -> 6 -> m decoder, `draws` prior draws)."""
    rng = np.random.default_rng(seed)
    return dense_params(rng, (2, 6, m)), rng.standard_normal((draws, 2))


def pull(decoder, z, target: np.ndarray, label=ad.tanh):
    """The correlation pull of the decoded draws toward `target`."""
    return unfused.correlation_pull(decoder, z, label, target, sm.EPS_VAR)


def test_elbo_zero_when_decoder_reproduces_input():
    # zero weights: mu = logvar = 0 (KL term 0), decoded row = (0, 0, 0.5)
    batch = np.tile([0.0, 0.0, 0.5], (4, 1))
    noise = np.zeros((4, 1))
    assert neg_elbo(zeroed_params(TINY, 3), TINY, batch, noise) == 0.0


def test_elbo_kl_closed_form_half():
    # unit mean, zero log-variance, k=1: KL = (mu^2 + sigma^2 - 1 - ln sigma^2)/2
    params = zeroed_params(TINY, 3)
    mu_bias = 2 * TINY.encoder_layers + 1
    params[mu_bias] = np.ones((1, 1))
    batch = np.tile([0.0, 0.0, 0.5], (4, 1))
    assert neg_elbo(params, TINY, batch, np.zeros((4, 1))) == pytest.approx(0.5, abs=1e-12)


def test_elbo_regression_label_channel():
    batch = np.zeros((4, 3))  # tanh label head emits 0 for a zeroed decoder
    assert neg_elbo(zeroed_params(TINY, 3), TINY, batch, np.zeros((4, 1)),
                    REGRESSION) == 0.0


def test_elbo_matches_numpy_reference():
    config = SimulatorConfig(encoder_dim=6, encoder_layers=2, decoder_dim=5,
                             decoder_layers=2, latent_dim=3, obs_variance=0.2)
    rng = np.random.default_rng(3)
    params = sm._init_params(4, config, rng)
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

    assert neg_elbo(params, config, batch, noise) == pytest.approx(expected, rel=1e-12)


def test_regularizer_zero_at_own_correlation():
    decoder, z = small_decoder(3, 64, 7)
    _, batch = sm._decode(decoder, z, ad.tanh)
    target = pearson_matrix(DomainDataset(0, batch[:, :2], batch[:, 2],
                                          task=REGRESSION))
    # only the tiny variance guard keeps this off exact zero
    assert pull(decoder, z, target.entries) < 1e-3


def test_regularizer_two_correlated_columns_against_identity():
    decoder, z = small_decoder(2, 32, 1)
    decoder[-2][:, 1] = decoder[-2][:, 0]  # the label column repeats the feature
    assert pull(decoder, z, np.eye(2)) == pytest.approx(2.0, abs=1e-3)


def test_regularizer_gradient_matches_finite_differences():
    decoder, z = small_decoder(3, 12, 5)
    worst = grad_check(unfused.taped(lambda ps: pull(ps, z, np.eye(3), ad.sigmoid)), decoder)
    assert worst < 1e-4


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

    def objective(ps):
        return sm._objective(ps, config, CLASSIFICATION, rows, noise, z, target)

    def neg_elbo(ps):
        return sm._objective(ps, config, CLASSIFICATION, rows, noise)

    assert grad_check(objective, params) < 1e-4
    assert grad_check(neg_elbo, params) < 1e-4


def _assert_objective_matches_oracle(params, config, task, rows, noise, z, target):
    """The fused objective's loss and gradient have the bits of the
    composition's in tests/unfused.py; returns the loss."""
    fused = value_and_grad(
        lambda ps: sm._objective(ps, config, task, rows, noise, z, target), params)
    oracle = value_and_grad(
        unfused.taped(lambda ps: unfused.objective(ps, config, task, rows, noise, z, target)),
        params)
    assert same_bits(fused[0], oracle[0])
    assert same_bits(fused[1], oracle[1])
    return fused[0]


@pytest.mark.parametrize("draws", [None, 8, 512, 2048])
@pytest.mark.parametrize("n", [8, 64, 200])
@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_objective_matches_unfused_oracle_bit_for_bit(task, n, draws):
    # draws None is a warm-up step (or lambda_c 0): the negative ELBO alone
    config = SimulatorConfig(lambda_c=0.37)
    rng = np.random.default_rng(n + (draws or 0))
    params = [p + 0.05 * rng.standard_normal(p.shape)
              for p in sm._init_params(3, config, rng)]
    rows = rng.uniform(-1, 1, (n, 3))
    if task == CLASSIFICATION:
        rows[:, 2] = rng.integers(0, 2, n)
    noise = rng.standard_normal((n, config.latent_dim))
    z = None if draws is None else rng.standard_normal((draws, config.latent_dim))
    target = np.corrcoef(rng.normal(size=(9, 3)), rowvar=False)
    loss = _assert_objective_matches_oracle(params, config, task, rows, noise, z, target)
    plain = sm._objective(params, config, task, rows, noise, z, target)[0]
    assert same_bits(plain, loss)


def test_objective_with_zero_params_matches_unfused_oracle_bit_for_bit():
    # zero weights give zero gradients, whose signs follow the composition's:
    # a saturated feature (tanh(-50) is -1.0) gets -0.0 from its tanh, which
    # the composition's slicing turns into +0.0, and a one-row minibatch (a
    # last batch can be one row) passes that sign on to the bias gradient
    config = SimulatorConfig(lambda_c=2.0)
    params = zeroed_params(config, 3)
    params[-1][0, 0] = -50.0
    rng = np.random.default_rng(2)
    z = rng.standard_normal((16, 8))
    for n, task, draws in itertools.product((1, 8), (CLASSIFICATION, REGRESSION), (None, z)):
        rows = np.tile([0.0, 0.0, 0.5], (n, 1))
        noise = rng.standard_normal((n, 8))
        _assert_objective_matches_oracle(params, config, task, rows, noise, draws, np.eye(3))


def test_objective_vjp_gives_each_param_its_gradient_per_step_and_in_warmup():
    # one value-and-VJP pair over the 18 params, with the pull and without:
    # the VJP gives one gradient per param, shaped like it, and every param
    # is reached
    config = SimulatorConfig()
    rng = np.random.default_rng(4)
    params = sm._init_params(3, config, rng)
    rows = rng.uniform(-1, 1, (64, 3))
    noise = rng.standard_normal((64, config.latent_dim))
    z = rng.standard_normal((config.regularizer_draws, config.latent_dim))
    for draws in (z, None):
        _, vjp = sm._objective(params, config, CLASSIFICATION, rows, noise, draws, np.eye(3))
        grads = vjp(1.0)
        assert len(grads) == len(params) == 18
        assert all(g.shape == p.shape and np.any(g != 0.0) for g, p in zip(grads, params))


@pytest.mark.parametrize("lambda_c", [0.0, 1.0])
def test_train_simulator_matches_unfused_oracle_bit_for_bit(lambda_c, monkeypatch):
    # 200 rows: three batches of 64 and one of 8; warm-up, then the pull
    dom = tiny_domain(n=200, seed=8)
    target = pearson_matrix(dom)
    config = SimulatorConfig(lambda_c=lambda_c, warmup_epochs=10, max_epochs=40,
                             patience=40)

    def bits(model):
        return np.concatenate([*map(np.ravel, model.params), model.loss_history])

    fused = train_simulator(dom, target, config, seed=3)
    assert len(fused.loss_history) == 41
    monkeypatch.setattr(sm, "_objective", lambda ps, *args: unfused.taped(
        lambda p: unfused.objective(p, *args))(ps))
    assert same_bits(bits(fused), bits(train_simulator(dom, target, config, seed=3)))


def tiny_domain(n=24, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    return DomainDataset(3, x, y)


def _two_call_snapshot(params, data, target, config, task, seed):
    """The snapshot as two forward calls, the ELBO's value plus lambda_c times
    the pull's, each on the same frozen draws as `loss_snapshot`."""
    rng = np.random.default_rng([seed, 104729])
    noise = rng.standard_normal((data.shape[0], config.latent_dim))
    _, decoder, label = sm._split(params, config, task)
    loss = sm._objective(params, config, task, data, noise)[0]
    if config.lambda_c > 0 and target is not None:
        draws = max(sm.SNAPSHOT_DRAWS, config.regularizer_draws)
        z = rng.standard_normal((draws, config.latent_dim))
        loss += config.lambda_c * pull(decoder, z, target.entries, label)
    return loss


@pytest.mark.parametrize("lambda_c", [0.0, 0.37, 1.0])
def test_snapshot_equals_two_call_sum(lambda_c):
    config = SimulatorConfig(lambda_c=lambda_c)
    dom = tiny_domain(n=40, seed=4)
    data = np.column_stack([dom.features, dom.labels])
    target = CorrelationMatrix(np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.5],
                                         [-0.2, 0.5, 1.0]]))
    for seed in (0, 3):
        params = sm._init_params(3, config, np.random.default_rng(seed))
        draws = sm.snapshot_draws(dom.n, config, lambda_c > 0, seed)
        for task in (CLASSIFICATION, REGRESSION):
            assert (loss_snapshot(params, data, target, config, task, draws)
                    == _two_call_snapshot(params, data, target, config, task, seed))
    unregularized = sm.snapshot_draws(dom.n, config, False, 0)
    assert (loss_snapshot(params, data, None, config, CLASSIFICATION, unregularized)
            == _two_call_snapshot(params, data, None, config, CLASSIFICATION, 0))


def test_train_keeps_best_checkpoint_below_init():
    dom = tiny_domain()
    target = pearson_matrix(dom)
    config = SimulatorConfig(encoder_dim=8, encoder_layers=1, decoder_dim=8,
                             decoder_layers=1, latent_dim=2, batch_size=8,
                             regularizer_draws=16, max_epochs=30,
                             warmup_epochs=5, patience=30)
    model = train_simulator(dom, target, config, seed=1)
    kept = loss_snapshot(model.params, np.column_stack([dom.features, dom.labels]),
                         target, config, dom.task, sm.snapshot_draws(dom.n, config, True, 1))
    assert kept <= model.loss_history[0] + 1e-12
    assert kept in model.loss_history
    assert len(model.loss_history) <= config.max_epochs + 1


def test_train_is_deterministic_per_seed():
    dom = tiny_domain()
    target = pearson_matrix(dom)
    config = SimulatorConfig(encoder_dim=6, encoder_layers=1, decoder_dim=6,
                             decoder_layers=1, latent_dim=2, batch_size=8,
                             regularizer_draws=8, max_epochs=8, warmup_epochs=2,
                             patience=8)
    a = train_simulator(dom, target, config, seed=5)
    b = train_simulator(dom, target, config, seed=5)
    assert a.loss_history == b.loss_history
    assert all(np.array_equal(p, q) for p, q in zip(a.params, b.params))
    other = train_simulator(dom, target, config, seed=6)
    assert other.loss_history[0] != a.loss_history[0]


def test_train_stops_after_patience_epochs_without_a_sustained_record():
    dom = tiny_domain()
    target = pearson_matrix(dom)
    config = SimulatorConfig(encoder_dim=4, encoder_layers=1, decoder_dim=4,
                             decoder_layers=1, latent_dim=2, batch_size=8,
                             regularizer_draws=16, warmup_epochs=20,
                             max_epochs=2000, patience=3)
    model = train_simulator(dom, target, config, seed=0)
    history = model.loss_history
    assert model.d == dom.d
    # the history opens with the snapshot of the init that seed 0 draws first
    data = np.column_stack([dom.features, dom.labels])
    init = sm._init_params(dom.d + 1, config, np.random.default_rng(0))
    draws = sm.snapshot_draws(dom.n, config, True, 0)
    assert history[0] == loss_snapshot(init, data, target, config, dom.task, draws)
    # replay the rule: a record is the larger of two consecutive readouts
    # beating the best by more than TOL; only post-warmup epochs go stale
    # (this warmup holds stale streaks longer than patience)
    best, kept, stale, stop = history[0], 0, 0, None
    for i in range(1, len(history)):
        stat = max(history[i - 1], history[i])
        if stat < best - TOL:
            best, kept, stale = stat, i, 0
        elif i - 1 >= config.warmup_epochs:
            stale += 1
            if stale >= config.patience:
                stop = i
                break
    assert stop == len(history) - 1 < config.max_epochs
    assert loss_snapshot(model.params, data, target, config, dom.task, draws) == history[kept]


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
                             batch_size=8, max_epochs=3, patience=3)
    model = train_simulator(dom, None, config, seed=2)
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

    reg = sample(replace(model, task=REGRESSION), 20, seed=3)
    assert reg.task == REGRESSION
    assert np.all(np.abs(reg.labels) <= 1.0)
    with pytest.raises(ValueError):
        sample(model, 0, seed=0)
    with pytest.raises(ValueError):
        sample(replace(model, task="ranking"), 5, seed=0)


@pytest.mark.parametrize("field,value", [
    ("batch_size", 4),
    ("regularizer_draws", 4),
    ("obs_variance", 0.0),
    ("warmup_epochs", -1),
    ("lambda_c", -0.5),
    ("lambda_c", float("nan")),
    ("lambda_c", float("inf")),
    ("max_epochs", 0),
])
def test_config_validation(field, value):
    with pytest.raises(ValueError):
        SimulatorConfig(**{field: value})
