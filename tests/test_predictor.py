from __future__ import annotations

import numpy as np
import pytest

from driftsim.correlation import (CorrelationMatrix, matrix_distance,
                                  pearson_matrix, unflatten_upper)
from driftsim.datasets import fit_apply_normalization, make_moons_stream
from driftsim.nn import dense_params, glorot
from driftsim.predictor import (PredictorConfig, PredictorModel, _init_params,
                                _sequence_loss, predict_next, train_predictor)

from references import cp_loss, grad_check


def _corr(m_entries):
    return CorrelationMatrix(np.asarray(m_entries, dtype=np.float64))


C2 = _corr([[1.0, 0.4], [0.4, 1.0]])


def _c4():
    m = np.eye(4)
    m[0, 1] = m[1, 0] = 0.3
    m[0, 2] = m[2, 0] = -0.5
    m[1, 3] = m[3, 1] = 0.7
    m[2, 3] = m[3, 2] = 0.1
    return _corr(m)


def _moons_matrices(seed=0):
    stream, _ = fit_apply_normalization(make_moons_stream(seed=seed))
    return [pearson_matrix(s) for s in stream.sources], pearson_matrix(stream.target)


# -- init ---------------------------------------------------------------------

def _per_layer_init(m, config, rng):
    """The predictor's init as one loop over its LSTM layers, each drawing
    its Glorot weights before the next: the draw order `_init_params` keeps."""
    p = m * (m - 1) // 2
    h, lat = config.hidden_dim, config.latent_dim
    params = dense_params(rng, (p, lat))
    in_dim = lat
    for _ in range(config.layers):
        params.append(glorot(rng, in_dim + h, 4 * h))
        bias = np.zeros((1, 4 * h))
        bias[0, h:2 * h] = 1.0
        params.append(bias)
        in_dim = h
    return params + dense_params(rng, (h, p))


@pytest.mark.parametrize("m, layers", [(3, 8), (4, 1), (5, 2)])
def test_init_params_match_per_layer_loop(m, layers):
    config = PredictorConfig(layers=layers)
    got = _init_params(m, config, np.random.default_rng(6))
    want = _per_layer_init(m, config, np.random.default_rng(6))
    assert len(got) == len(want) == 2 * layers + 4
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# -- predict_next -------------------------------------------------------------

def test_zero_weights_emit_tanh_of_head_bias():
    config = PredictorConfig(layers=2, hidden_dim=4, latent_dim=3)
    params = [np.zeros_like(p) for p in _init_params(3, config, np.random.default_rng(0))]
    params[-1][:] = np.array([0.2, -0.3, 0.8])
    model = PredictorModel(m=3, config=config, params=params, loss_history=[])
    expected = unflatten_upper(np.tanh(params[-1].ravel()), 3)
    for seq_len in (1, 3, 6):
        seq = [_corr(np.eye(3))] * seq_len
        out = predict_next(model, seq)
        np.testing.assert_allclose(out.entries, expected.entries, atol=1e-15)


def test_predictions_are_valid_matrices():
    mats, _ = _moons_matrices()
    model = train_predictor(mats, PredictorConfig(max_epochs=3))
    for k in (1, 4, len(mats)):
        out = predict_next(model, mats[:k])
        assert isinstance(out, CorrelationMatrix)


def test_predict_rejects_bad_input():
    mats, _ = _moons_matrices()
    model = train_predictor(mats, PredictorConfig(max_epochs=2))
    with pytest.raises(ValueError):
        predict_next(model, [])
    with pytest.raises(ValueError):
        predict_next(model, [C2])


# -- cp_loss -------------------------------------------------------------------

def test_cp_loss_zero_on_perfect_match():
    assert cp_loss([_c4(), C2], [_c4(), C2], lambda_ce=0.0) == 0.0


def test_cp_loss_single_entry_example():
    a = _corr(np.eye(3))
    b_entries = np.eye(3)
    b_entries[0, 1] = b_entries[1, 0] = 0.5
    b = _corr(b_entries)
    assert cp_loss([a], [b], lambda_ce=0.0) == pytest.approx(
        np.sqrt(2 * 0.25) + 1.0)


def test_cp_loss_misaligned_lists():
    with pytest.raises(ValueError):
        cp_loss([C2], [C2, C2], lambda_ce=0.0)
    with pytest.raises(ValueError):
        cp_loss([C2], [_c4()], lambda_ce=0.0)


def test_cp_loss_ce_term_is_target_entropy_at_match():
    # cross-entropy of a soft target against itself is its entropy
    val = cp_loss([C2], [C2], lambda_ce=20.0)
    h_off = -(0.7 * np.log(0.7) + 0.3 * np.log(0.3))
    h_diag = -np.log(1.0 - 1e-6)
    assert val == pytest.approx(20.0 * (2 * h_off + 2 * h_diag) / 4.0)


# -- training ------------------------------------------------------------------

def test_training_loss_matches_public_metric():
    mats, _ = _moons_matrices()
    model = train_predictor(mats, PredictorConfig(max_epochs=1))
    preds = [predict_next(model, mats[:k]) for k in range(1, len(mats))]
    metric = cp_loss(preds, mats[1:], lambda_ce=model.config.lambda_ce)
    assert metric == pytest.approx(model.loss_history[0], abs=1e-9)


def test_returned_params_are_best_checkpoint():
    mats, _ = _moons_matrices()
    model = train_predictor(mats, PredictorConfig(max_epochs=40))
    preds = [predict_next(model, mats[:k]) for k in range(1, len(mats))]
    metric = cp_loss(preds, mats[1:], lambda_ce=model.config.lambda_ce)
    assert metric == pytest.approx(min(model.loss_history), abs=1e-9)


def test_moons_loss_strictly_decreases_early():
    mats, _ = _moons_matrices()
    model = train_predictor(mats, PredictorConfig(max_epochs=11))
    h = model.loss_history
    assert len(h) == 11
    assert all(b < a for a, b in zip(h, h[1:]))


def test_constant_sequence_reaches_tight_fit():
    config = PredictorConfig(lambda_ce=0.0, learning_rate=1e-3, layers=2,
                             patience=150, max_epochs=5000)
    model = train_predictor([C2] * 8, config, seed=1)
    assert min(model.loss_history) < 1e-2


def test_constant_sequence_prediction_close():
    config = PredictorConfig(lambda_ce=0.0)
    c = _c4()
    model = train_predictor([c] * 8, config, seed=1)
    pred = predict_next(model, [c] * 8)
    assert matrix_distance(pred, c, "elementwise-l1") < 0.05 * 16


def test_minimal_sequence_trains():
    model = train_predictor([C2] * 3, PredictorConfig(max_epochs=5))
    assert model.m == 2
    with pytest.raises(ValueError):
        train_predictor([C2] * 2, PredictorConfig())


def test_training_rejects_mixed_dims():
    with pytest.raises(ValueError):
        train_predictor([C2, _c4(), C2], PredictorConfig())


def test_training_is_deterministic_per_seed():
    mats, _ = _moons_matrices()
    a = train_predictor(mats, PredictorConfig(max_epochs=15), seed=3)
    b = train_predictor(mats, PredictorConfig(max_epochs=15), seed=3)
    assert a.loss_history == b.loss_history
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa, pb)
    other = train_predictor(mats, PredictorConfig(max_epochs=15), seed=4)
    assert other.loss_history[0] != a.loss_history[0]


def test_config_validation():
    with pytest.raises(ValueError):
        PredictorConfig(lambda_ce=-1.0)
    with pytest.raises(ValueError):
        PredictorConfig(patience=0)
    with pytest.raises(ValueError, match="lambda_ce must be finite"):
        PredictorConfig(lambda_ce=float("nan"))
    with pytest.raises(ValueError, match="lambda_ce must be finite"):
        PredictorConfig(lambda_ce=float("inf"))


def test_moons_prediction_beats_persistence():
    mats, true_next = _moons_matrices(seed=1)
    model = train_predictor(mats, PredictorConfig(), seed=1)
    pred = predict_next(model, mats)
    d_pred = matrix_distance(pred, true_next, "elementwise-l1")
    d_persist = matrix_distance(mats[-1], true_next, "elementwise-l1")
    assert d_pred < d_persist


def test_sequence_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    for trial in range(3):
        m, t_len = 3, 4
        config = PredictorConfig(layers=1, hidden_dim=3, latent_dim=2,
                                 lambda_ce=rng.uniform(0.0, 5.0))
        params = _init_params(m, config, rng)
        rows = list(rng.uniform(-0.8, 0.8, size=(t_len - 1, 1, 3)))
        tgt = rng.uniform(-0.8, 0.8, size=(t_len - 1, 3))
        err = grad_check(lambda ps: _sequence_loss(ps, rows, tgt, m, config),
                         params, step=1e-6)
        assert err < 1e-4, f"trial {trial}: {err}"
