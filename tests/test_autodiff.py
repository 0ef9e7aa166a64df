from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from driftsim import autodiff as ad
from driftsim.nn import dense_params, glorot, lstm_cell, mlp
from driftsim.optim import Adam, fit


def _sq(t):
    return t * t


def test_square_loss_and_grad():
    loss_fn = lambda params, inputs: ad.reduce_sum(_sq(params[0]))
    loss, grads = ad.evaluate_with_gradients(loss_fn, [np.array(3.0)], [])
    assert loss == 9.0
    assert grads[0] == pytest.approx(6.0)


def test_sum_grad_is_ones():
    for shape in [(3,), (2, 4), ()]:
        loss_fn = lambda params, inputs: ad.reduce_sum(params[0])
        w = np.random.default_rng(0).normal(size=shape)
        loss, grads = ad.evaluate_with_gradients(loss_fn, [w], [])
        assert loss == pytest.approx(w.sum())
        np.testing.assert_array_equal(grads[0], np.ones(shape))


def test_matmul_mse_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    c = rng.normal(size=(2, 2))
    loss_fn = lambda params, inputs: ad.reduce_mean(
        _sq(params[0] @ params[1] - inputs[0]))
    err = ad.grad_check(loss_fn, [a, b], [c], step=1e-6)
    assert err < 1e-5


def test_unused_parameter_gets_zero_grad():
    loss_fn = lambda params, inputs: ad.reduce_sum(_sq(params[0]))
    _, grads = ad.evaluate_with_gradients(loss_fn, [np.ones(2), np.ones(3)], [])
    np.testing.assert_array_equal(grads[1], np.zeros(3))


def test_non_scalar_output_rejected():
    loss_fn = lambda params, inputs: params[0] + 1.0
    with pytest.raises(ValueError):
        ad.evaluate_with_gradients(loss_fn, [np.ones(3)], [])


def test_non_finite_loss_raises():
    loss_fn = lambda params, inputs: ad.log(params[0])
    with np.errstate(invalid="ignore"):
        with pytest.raises(ad.NonFiniteLossError):
            ad.evaluate_with_gradients(loss_fn, [np.array(-1.0)], [])


def test_matmul_shape_mismatch_raises():
    with pytest.raises(ValueError):
        ad.matmul(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 3))))


def test_losses_are_deterministic():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 4))
    x = rng.normal(size=(4, 4))
    loss_fn = lambda params, inputs: ad.reduce_mean(ad.tanh(params[0] @ inputs[0]))
    a = ad.evaluate_with_gradients(loss_fn, [w], [x])
    b = ad.evaluate_with_gradients(loss_fn, [w], [x])
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1][0], b[1][0])


# -- per-primitive gradient checks ----------------------------------------

def _check(build, params, inputs=(), tol=1e-6, step=1e-6):
    err = ad.grad_check(build, list(params), list(inputs), step=step)
    assert err < tol, f"max relative error {err}"


def test_arithmetic_primitive_gradients():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0  # keep divisors away from 0
    row = rng.normal(size=(1, 4))

    _check(lambda p, i: ad.reduce_sum(p[0] + p[1]), [a, b])
    _check(lambda p, i: ad.reduce_sum(p[0] - p[1]), [a, b])
    _check(lambda p, i: ad.reduce_sum(p[0] * p[1]), [a, b])
    _check(lambda p, i: ad.reduce_sum(p[0] / p[1]), [a, b])
    _check(lambda p, i: ad.reduce_sum(-p[0]), [a])
    # broadcast over rows
    _check(lambda p, i: ad.reduce_sum(p[0] + p[1]), [a, row])
    _check(lambda p, i: ad.reduce_sum(p[0] * p[1]), [a, row])


def test_structural_primitive_gradients():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    c = rng.normal(size=(2, 4))

    _check(lambda p, i: ad.reduce_sum(_sq(p[0] @ p[1])), [a, b])
    _check(lambda p, i: ad.reduce_sum(ad.transpose(p[0]) @ p[0]), [a])
    _check(lambda p, i: ad.reduce_sum(_sq(ad.concat([p[0], p[1]], axis=0))),
           [a, c])
    _check(lambda p, i: ad.reduce_sum(_sq(p[0][1:3, ::2])), [a])
    _check(lambda p, i: ad.reduce_sum(ad.reduce_mean(p[0], axis=0)), [a])
    _check(lambda p, i: ad.reduce_sum(ad.reduce_sum(p[0], axis=1, keepdims=True) * p[0]),
           [a])


def test_piecewise_primitive_gradients_away_from_kinks():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 4))
    a[np.abs(a) < 0.2] = 0.5  # keep clear of the kink at 0

    _check(lambda p, i: ad.reduce_sum(ad.relu(p[0])), [a])
    _check(lambda p, i: ad.reduce_sum(ad.absolute(p[0])), [a])
    _check(lambda p, i: ad.reduce_sum(_sq(ad.clip(p[0], -0.9, 0.9))),
           [np.clip(a, -0.7, 0.7)])


def test_transcendental_primitive_gradients():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(3, 4))
    pos = np.abs(a) + 0.5

    _check(lambda p, i: ad.reduce_sum(ad.tanh(p[0])), [a], tol=1e-4)
    _check(lambda p, i: ad.reduce_sum(ad.sigmoid(p[0])), [a], tol=1e-4)
    _check(lambda p, i: ad.reduce_sum(ad.exp(p[0])), [a], tol=1e-4)
    _check(lambda p, i: ad.reduce_sum(ad.log(p[0])), [pos], tol=1e-4)
    _check(lambda p, i: ad.reduce_sum(ad.sqrt(p[0])), [pos], tol=1e-4)


def test_gated_recurrent_cell_gradient():
    rng = np.random.default_rng(15)
    h = rng.normal(size=(1, 5)) * 0.1
    cell = rng.normal(size=(1, 5)) * 0.1
    x = rng.normal(size=(1, 3))
    w = rng.normal(size=(8, 20)) * 0.3
    bias = rng.normal(size=(1, 20)) * 0.1

    def build(params, inputs):
        wmat, b = params
        xin, hin, cin = inputs
        stacked = ad.concat([xin, hin], axis=1)
        h_new, c_new = lstm_cell(stacked @ wmat + b, cin, 5)
        return ad.reduce_sum(_sq(h_new)) + ad.reduce_sum(c_new)

    _check(build, [w, bias], [x, h, cell], tol=1e-4)


def test_lstm_cell_first_step_is_zero_cell_state():
    gates = ad.constant(np.random.default_rng(16).normal(size=(1, 12)))
    h0, c0 = lstm_cell(gates, None, 3)
    h1, c1 = lstm_cell(gates, ad.constant(np.zeros((1, 3))), 3)
    np.testing.assert_allclose(h0.value, h1.value, rtol=0, atol=1e-15)
    np.testing.assert_allclose(c0.value, c1.value, rtol=0, atol=1e-15)


def test_dense_stack_matches_glorot_draws_and_numpy():
    params = dense_params(np.random.default_rng(17), (3, 5, 2))
    rng = np.random.default_rng(17)
    expected = [glorot(rng, 3, 5), np.zeros((1, 5)), glorot(rng, 5, 2), np.zeros((1, 2))]
    assert len(params) == 4
    for got, want in zip(params, expected):
        assert np.array_equal(got, want)
    x = np.random.default_rng(18).normal(size=(4, 3))
    params[1] += 0.5  # nonzero bias, so the bias term is checked too
    out = mlp([ad.constant(p) for p in params], ad.constant(x), ad.tanh)
    want = np.tanh(x @ params[0] + params[1]) @ params[2] + params[3]
    np.testing.assert_allclose(out.value, want, rtol=0, atol=1e-15)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_broadcast_grad_matches_fd(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    b = rng.normal(size=(1, cols))
    _check(lambda p, i: ad.reduce_sum(_sq(p[0] + p[1])), [a, b], tol=1e-5)


# -- Adam -----------------------------------------------------------------

def test_adam_first_step_magnitude_is_lr():
    opt = Adam([()], lr=0.1)
    params = [np.array(0.0)]
    opt.step(params, [np.array(1.0)])
    assert abs((-params[0]) - 0.1) < 1e-6
    assert opt.t == 1


def test_adam_zero_grad_is_noop():
    opt = Adam([(3,)], lr=0.5)
    params = [np.arange(3.0)]
    opt.step(params, [np.zeros(3)])
    np.testing.assert_array_equal(params[0], np.arange(3.0))
    assert opt.t == 1


def test_adam_constant_gradient_decreases_param():
    opt = Adam([()], lr=0.1)
    params = [np.array(0.0)]
    opt.step(params, [np.array(1.0)])
    after_one = float(params[0])
    opt.step(params, [np.array(1.0)])
    assert float(params[0]) < after_one < 0.0


def test_adam_rejects_non_finite_gradients():
    opt = Adam([(2,)])
    with pytest.raises(ArithmeticError):
        opt.step([np.zeros(2)], [np.array([1.0, np.nan])])


def test_adam_rejects_shape_mismatch():
    opt = Adam([(2,)])
    with pytest.raises(ValueError):
        opt.step([np.zeros(2)], [np.zeros(3)])


def test_adam_drives_quadratic_toward_minimum():
    loss_fn = lambda params, inputs: ad.reduce_sum(_sq(params[0] - inputs[0]))
    target = np.array([1.0, -2.0, 0.5])
    params = [np.zeros(3)]
    opt = Adam([p.shape for p in params], lr=0.05)
    losses = []
    for _ in range(400):
        loss, grads = ad.evaluate_with_gradients(loss_fn, params, [target])
        losses.append(loss)
        opt.step(params, grads)
    assert losses[-1] < 1e-3
    np.testing.assert_allclose(params[0], target, atol=0.05)


def _quadratic(params, inputs):
    return ad.reduce_sum(_sq(params[0] - inputs[0]))


def test_fit_returns_the_params_that_scored_min_history():
    # a step size this large makes Adam overshoot and oscillate around the
    # minimum, so the last params are not the best ones
    target = np.array([1.0, -2.0, 0.5])
    config = SimpleNamespace(learning_rate=0.7, max_epochs=60, patience=8,
                             tol=0.0)
    best, history = fit(_quadratic, [np.zeros(3)], [target], config)
    assert min(history) < history[-1]
    assert ad.evaluate_value(_quadratic, best, [target]) == min(history)


def test_fit_stops_after_patience_stale_epochs():
    target = np.array([1.0, -2.0, 0.5])
    config = SimpleNamespace(learning_rate=0.7, max_epochs=500, patience=8,
                             tol=1e-3)
    _, history = fit(_quadratic, [np.zeros(3)], [target], config)
    best, last_kept = np.inf, None
    for epoch, loss in enumerate(history):
        if loss < best - config.tol:
            best, last_kept = loss, epoch
    assert len(history) < config.max_epochs
    assert len(history) - 1 - last_kept == config.patience
