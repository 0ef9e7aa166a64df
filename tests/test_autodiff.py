from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from driftsim import autodiff as ad
from driftsim import nn, predictor
from driftsim.nn import dense_params, glorot, lstm_params, lstm_stack, mlp
from driftsim.optim import TOL, Adam, fit
from driftsim.predictor import PredictorConfig

import unfused


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
        h_new, c_new = ad.lstm_cell(stacked @ wmat + b, cin)
        return ad.reduce_sum(_sq(h_new)) + ad.reduce_sum(c_new)

    _check(build, [w, bias], [x, h, cell], tol=1e-4)


def test_lstm_cell_first_step_is_zero_cell_state():
    gates = ad.constant(np.random.default_rng(16).normal(size=(1, 12)))
    h0, c0 = ad.lstm_cell(gates, None)
    h1, c1 = ad.lstm_cell(gates, ad.constant(np.zeros((1, 3))))
    assert h0.shape == c0.shape == (1, 3)  # a quarter of the gate width
    np.testing.assert_allclose(h0.value, h1.value, rtol=0, atol=1e-15)
    np.testing.assert_allclose(c0.value, c1.value, rtol=0, atol=1e-15)


def test_lstm_cell_rejects_a_gate_width_not_a_multiple_of_4():
    with pytest.raises(ValueError, match="multiple of 4"):
        ad.lstm_cell(ad.constant(np.zeros((1, 10))), None)


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


def test_returned_gradients_share_no_memory():
    # both leaves receive the same tape array from add's VJP
    loss_fn = lambda params, inputs: ad.reduce_sum(params[0] + params[1])
    _, grads = ad.evaluate_with_gradients(loss_fn, [np.ones((2, 3)), np.ones((2, 3))], [])
    assert not np.shares_memory(grads[0], grads[1])
    grads[0][0, 0] = 5.0
    np.testing.assert_array_equal(grads[1], np.ones((2, 3)))


# -- fused primitives against the compositions they replace ----------------

def _dense_oracle(x, w, b, act):
    out = x @ w + b
    return out if act is None else act(out)


def _assert_same_values_and_gradients(fused, oracle, params, inputs):
    got = ad.evaluate_with_gradients(fused, params, inputs)
    want = ad.evaluate_with_gradients(oracle, params, inputs)
    assert got[0] == want[0]
    for g_fused, g_oracle in zip(got[1], want[1]):
        assert np.array_equal(g_fused, g_oracle)


@pytest.mark.parametrize("act", [None, ad.tanh, ad.relu])
@pytest.mark.parametrize("rows", [1, 5])
def test_dense_matches_composition_bit_for_bit(act, rows):
    rng = np.random.default_rng(19)
    x, w = rng.normal(size=(rows, 3)), rng.normal(size=(3, 4))
    b, weights = rng.normal(size=(1, 4)), rng.normal(size=(rows, 4))

    def loss(layer):
        return lambda p, i: ad.reduce_sum(_sq(layer(p[0], p[1], p[2], act)) * i[0])

    _assert_same_values_and_gradients(loss(ad.dense), loss(_dense_oracle),
                                      [x, w, b], [weights])
    fused = ad.dense(ad.constant(x), ad.constant(w), ad.constant(b), act)
    oracle = _dense_oracle(ad.constant(x), ad.constant(w), ad.constant(b), act)
    assert np.array_equal(fused.value, oracle.value)
    _check(loss(ad.dense), [x, w, b], [weights], step=1e-5)


def test_dense_rejects_other_activations():
    with pytest.raises(ValueError):
        ad.dense(np.ones((1, 2)), np.ones((2, 2)), np.zeros((1, 2)), ad.sigmoid)


def _unfused_cell(gates, c_prev):
    """The oracle cell told the hidden width of 3 that `ad.lstm_cell` reads
    off its 12 gate columns."""
    return unfused.lstm_cell(gates, c_prev, 3)


def _one_step_loss(cell):
    """Loss of one LSTM step whose gates are the parameter; a second input,
    when given, is a constant previous cell state."""
    def loss_fn(p, i):
        h, c = cell(p[0], i[1] if len(i) > 1 else None)
        return ad.reduce_sum(h * i[0]) + ad.reduce_sum(_sq(c))
    return loss_fn


def _three_step_loss(cell, layer):
    """Loss of three chained LSTM steps whose gates come from one shared
    (x, h) -> gates layer."""
    def loss_fn(p, i):
        (w, b), (xs, weights) = p, i
        h, c, total = ad.constant(np.zeros((1, 3))), None, None
        for t in range(3):
            gates = layer(ad.concat([xs[t:t + 1, :], h], axis=1), w, b, None)
            h, c = cell(gates, c)
            term = ad.reduce_sum(h * weights[t:t + 1, :])
            total = term if total is None else total + term
        return total + ad.reduce_sum(_sq(c))
    return loss_fn


@pytest.mark.parametrize("case", ["first step", "constant cell state",
                                  "two rows", "chained"])
def test_lstm_cell_matches_composition_bit_for_bit(case):
    rng = np.random.default_rng(20)
    if case == "chained":
        params = [rng.normal(size=(5, 12)) * 0.5, rng.normal(size=(1, 12))]
        inputs = [rng.normal(size=(3, 2)), rng.normal(size=(3, 3))]
        fused = _three_step_loss(ad.lstm_cell, ad.dense)
        oracle = _three_step_loss(_unfused_cell, _dense_oracle)
    else:
        rows = 2 if case == "two rows" else 1
        params = [rng.normal(size=(rows, 12))]
        inputs = [rng.normal(size=(rows, 3))]
        if case != "first step":
            inputs.append(rng.normal(size=(rows, 3)))
        fused, oracle = _one_step_loss(ad.lstm_cell), _one_step_loss(_unfused_cell)
    _assert_same_values_and_gradients(fused, oracle, params, inputs)
    _check(fused, params, inputs, step=1e-5)


def _unfused_forward_sequence(params, rows, layers, hidden):
    """The predictor's forward pass written with primitives only, told the
    sizes that `predictor._forward_sequence` reads off the weights."""
    w_embed, b_embed = params[0], params[1]
    w_head, b_head = params[-2], params[-1]
    states = unfused.lstm_stack(params[2:2 + 2 * layers],
                                [row @ w_embed + b_embed for row in rows], hidden)
    return [ad.tanh(x @ w_head + b_head) for x in states]


@pytest.mark.parametrize("layers, in_dim, hidden, steps",
                         [(1, 5, 32, 9), (2, 3, 4, 6)],
                         ids=["density baseline", "two layers"])
def test_lstm_stack_matches_unfused_oracle_bit_for_bit(layers, in_dim, hidden, steps):
    rng = np.random.default_rng(23)
    params = lstm_params(rng, in_dim, hidden, layers)
    params[1] += rng.normal(size=params[1].shape) * 0.1
    rows = rng.normal(size=(steps, in_dim))
    weights = rng.normal(size=(steps, hidden))

    def oracle(ps, rs):  # told the hidden width that lstm_stack reads off its bias
        return unfused.lstm_stack(ps, rs, hidden)

    def loss(stack):
        # the rows are the last parameter, so their gradient is checked too
        def loss_fn(p, i):
            states = stack(p[:-1], [p[-1][t:t + 1, :] for t in range(steps)])
            return ad.reduce_sum(ad.concat(states, axis=0) * i[0])
        return loss_fn

    _assert_same_values_and_gradients(loss(lstm_stack), loss(oracle),
                                      [*params, rows], [weights])
    consts = [ad.constant(p) for p in params]
    row_consts = [ad.constant(rows[t:t + 1, :]) for t in range(steps)]
    for got, want in zip(lstm_stack(consts, row_consts),
                         oracle(consts, row_consts), strict=True):
        assert np.array_equal(got.value, want.value)


def test_sequence_loss_gradients_match_unfused_forward(monkeypatch):
    m, config = 3, PredictorConfig()
    rng = np.random.default_rng(21)
    params = predictor._init_params(m, config, rng)
    inputs = [rng.uniform(-0.9, 0.9, size=(5, 3)), rng.uniform(-0.9, 0.9, size=(5, 3))]
    loss_fn = lambda ps, ins: predictor._sequence_loss(ps, ins, m, config)
    fused = ad.evaluate_with_gradients(loss_fn, params, inputs)
    monkeypatch.setattr(predictor, "_forward_sequence", lambda ps, rows:
                        _unfused_forward_sequence(ps, rows, config.layers,
                                                  config.hidden_dim))
    unfused = ad.evaluate_with_gradients(loss_fn, params, inputs)
    assert fused[0] == unfused[0]
    for g_fused, g_unfused in zip(fused[1], unfused[1]):
        assert np.array_equal(g_fused, g_unfused)


def _step_loss_oracle(pred_vec, true_vec, m, lambda_ce):
    """One step's cp_loss term on the tape, as the predictor built it per step
    before the loss was stacked."""
    diff = pred_vec - true_vec
    fro = ad.sqrt(ad.reduce_sum(diff * diff) * 2.0 + predictor.FRO_GUARD)
    l1 = ad.reduce_sum(ad.absolute(diff)) * 2.0
    q = ad.clip((pred_vec + 1.0) * 0.5, nn.CLAMP, 1.0 - nn.CLAMP)
    p01 = (true_vec + 1.0) * 0.5
    bce_off = -(p01 * ad.log(q) + (1.0 - p01) * ad.log(1.0 - q))
    diag_const = -m * np.log(1.0 - nn.CLAMP)
    bce = (ad.reduce_sum(bce_off) * 2.0 + diag_const) * (1.0 / (m * m))
    return fro + l1 + bce * lambda_ce


def _per_step_sequence_loss(params, inputs, m, config):
    seq, tgt = inputs
    rows = [seq[s:s + 1, :] for s in range(seq.shape[0])]
    outs = predictor._forward_sequence(params, rows)
    loss = None
    for s, out in enumerate(outs):
        term = _step_loss_oracle(out, tgt[s:s + 1, :], m, config.lambda_ce)
        loss = term if loss is None else loss + term
    return loss


# lambda_ce = 7 at m = 3 is a pair whose scale factors round differently when
# they are multiplied in another order
@pytest.mark.parametrize("m, lambda_ce", [(3, 20.0), (3, 7.0), (5, 20.0)])
def test_stacked_sequence_loss_matches_per_step_oracle(m, lambda_ce):
    """The stacked loss gives the per-step graph's gradients bit for bit on the
    default architecture; only the loss value may move, in the last bits,
    because the terms are summed in another order."""
    config = PredictorConfig(lambda_ce=lambda_ce)
    p = m * (m - 1) // 2
    rng = np.random.default_rng(22)
    params = predictor._init_params(m, config, rng)
    inputs = [rng.uniform(-0.9, 0.9, size=(9, p)), rng.uniform(-0.9, 0.9, size=(9, p))]
    stacked = ad.evaluate_with_gradients(
        lambda ps, ins: predictor._sequence_loss(ps, ins, m, config), params, inputs)
    oracle = ad.evaluate_with_gradients(
        lambda ps, ins: _per_step_sequence_loss(ps, ins, m, config), params, inputs)
    assert stacked[0] == pytest.approx(oracle[0], rel=1e-12, abs=0.0)
    for g_stacked, g_oracle in zip(stacked[1], oracle[1]):
        assert np.array_equal(g_stacked, g_oracle)


def _kde_kl_oracle(rows, column, idx, grid, bandwidth, prior, log_q):
    """One KDE-KL term of the density baseline, as its loss composed it from
    primitives before the term was fused."""
    col = rows[:, column:column + 1]
    vals = ad.transpose(col[idx.tolist(), :])
    diff = (ad.constant(grid[:, None]) - vals) * (1.0 / bandwidth)
    dens = ad.reduce_sum(ad.exp(diff * diff * (-0.5)), axis=1)
    p = dens * (1.0 / ad.reduce_sum(dens)) * prior
    return ad.reduce_sum(p * (ad.log(p) - log_q))


def _kde_kl_loss(term, grid, bandwidth, classes, log_q):
    """Sum of the terms over both columns and every class of the rows, in
    the order of the density baseline's loss."""
    def loss_fn(p, i):
        loss = None
        for column in range(2):
            for c, idx in enumerate(classes):
                # a prior that is not a power of 2 rounds in every product
                t = term(p[0], column, idx, grid, bandwidth, 0.45 + 0.1 * c,
                         log_q[column * len(classes) + c])
                loss = t if loss is None else loss + t
        return loss
    return loss_fn


# (rows, grid points, bandwidth, class index arrays)
KDE_KL_CASES = {
    "odd class sizes": (7, 24, 0.3, [np.array([0, 2, 3, 5, 6]), np.array([1, 4])]),
    "sample outside the grid": (6, 20, 0.3, [np.arange(3), np.arange(3, 6)]),
    # kernels of grid points far from every sample underflow to exactly 0
    "underflowing kernels": (9, 40, 0.02, [np.arange(0, 9, 2), np.arange(1, 9, 2)]),
}


@pytest.mark.parametrize("case", sorted(KDE_KL_CASES))
def test_kde_kl_matches_composition_bit_for_bit(case):
    n, size, bandwidth, classes = KDE_KL_CASES[case]
    rng = np.random.default_rng(23)
    grid = np.linspace(-1.2, 1.2, size)
    rows = np.linspace(-0.95, 0.95, n)[:, None] + rng.normal(scale=0.05, size=(n, 2))
    if case == "sample outside the grid":
        rows[1, 0] = 1.5
    log_q = [np.log(rng.dirichlet(np.ones(size)) * 0.5) for _ in range(4)]
    fused = _kde_kl_loss(ad.kde_kl, grid, bandwidth, classes, log_q)
    oracle = _kde_kl_loss(_kde_kl_oracle, grid, bandwidth, classes, log_q)
    _assert_same_values_and_gradients(fused, oracle, [rows], [])
    _check(fused, [rows])
    if case == "underflowing kernels":
        kernels = np.exp(-0.5 * ((grid[:, None] - rows[classes[0], 0]) / bandwidth) ** 2)
        assert np.any(kernels == 0.0) and np.all(kernels.sum(axis=1) > 0.0)
        assert np.isfinite(ad.evaluate_value(fused, [rows], []))


def test_kde_kl_constant_rows_record_no_parents():
    rows = np.random.default_rng(24).uniform(-1.0, 1.0, size=(5, 2))
    grid, idx, log_q = np.linspace(-1.2, 1.2, 16), np.array([0, 3, 4]), np.zeros(16)
    fused = ad.kde_kl(ad.constant(rows), 1, idx, grid, 0.2, 0.4, log_q)
    oracle = _kde_kl_oracle(ad.constant(rows), 1, idx, grid, 0.2, 0.4, log_q)
    assert fused.value == oracle.value
    assert not fused.requires_grad and fused._parents == ()


def test_kde_kl_zero_mass_is_non_finite_like_the_composition():
    # the grid's left end lies 2 units from both samples: its kernel mass is 0
    rows, idx = np.array([[0.9], [1.0]]), np.array([0, 1])
    grid, log_q = np.linspace(-1.2, 1.2, 8), np.zeros(8)
    for term in (ad.kde_kl, _kde_kl_oracle):
        loss_fn = lambda p, i: term(p[0], 0, idx, grid, 0.02, 0.5, log_q)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ad.NonFiniteLossError):
                ad.evaluate_with_gradients(loss_fn, [rows], [])


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
    config = SimpleNamespace(learning_rate=0.7, max_epochs=60, patience=8)
    best, history = fit(_quadratic, [np.zeros(3)], [target], config)
    assert min(history) < history[-1]
    assert ad.evaluate_value(_quadratic, best, [target]) == min(history)


def test_fit_stops_after_patience_stale_epochs():
    target = np.array([1.0, -2.0, 0.5])
    config = SimpleNamespace(learning_rate=0.7, max_epochs=500, patience=8)
    _, history = fit(_quadratic, [np.zeros(3)], [target], config)
    best, last_kept = np.inf, None
    for epoch, loss in enumerate(history):
        if loss < best - TOL:
            best, last_kept = loss, epoch
    assert len(history) < config.max_epochs
    assert len(history) - 1 - last_kept == config.patience
