from __future__ import annotations

import json
import operator
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from driftsim import autodiff as ad
from driftsim import density_baseline, harness, predictor, simulator
from driftsim.correlation import CorrelationMatrix, flatten_upper, pearson_matrix
from driftsim.datasets import CLASSIFICATION, REGRESSION, DomainDataset, make_moons_stream
from driftsim.nn import dense_params, glorot, lstm_params
from driftsim.optim import TOL, Adam, fit, flat, train
from driftsim.predictor import PredictorConfig

import unfused
from references import grad_check, value_and_grad
from unfused import same_bits


def _sq(t):
    return t * t


def test_square_loss_and_grad():
    loss_fn = unfused.taped(lambda params: unfused.reduce_sum(_sq(params[0])))
    loss, grad = value_and_grad(loss_fn, [np.array(3.0)])
    assert loss == 9.0
    assert grad.shape == (1,) and grad[0] == pytest.approx(6.0)


def test_sum_grad_is_ones():
    for shape in [(3,), (2, 4), ()]:
        loss_fn = unfused.taped(lambda params: unfused.reduce_sum(params[0]))
        w = np.random.default_rng(0).normal(size=shape)
        loss, grad = value_and_grad(loss_fn, [w])
        assert loss == pytest.approx(w.sum())
        assert grad.dtype == np.float64 and grad.shape == (w.size,)
        np.testing.assert_array_equal(grad, np.ones(w.size))


def test_matmul_mse_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    c = rng.normal(size=(2, 2))
    loss_fn = unfused.taped(lambda params: unfused.reduce_mean(_sq(params[0] @ params[1] - c)))
    err = grad_check(loss_fn, [a, b], step=1e-6)
    assert err < 1e-5


def test_unused_parameter_gets_zero_grad():
    # the gradient is written into views of a vector that a trainer reuses
    # every step: a param the loss does not reach reads zeros, not the last
    # step's entries
    loss_fn = unfused.taped(lambda params: unfused.reduce_sum(_sq(params[0])))
    params = [np.ones(2), np.ones(3)]
    grad = np.full(5, np.nan)
    assert ad.evaluate_with_gradients(loss_fn, params, ad.views(grad, params)) == 2.0
    np.testing.assert_array_equal(grad, [2.0, 2.0, 0.0, 0.0, 0.0])


def test_non_scalar_output_rejected():
    loss_fn = unfused.taped(lambda params: params[0] + 1.0)
    with pytest.raises(ValueError):
        value_and_grad(loss_fn, [np.ones(3)])


def test_non_finite_loss_raises():
    loss_fn = unfused.taped(lambda params: unfused.log(params[0]))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ad.NonFiniteLossError):
            value_and_grad(loss_fn, [np.array(-1.0)])


def test_matmul_shape_mismatch_raises():
    for a in (np.ones((2, 3)), unfused.Tensor(np.ones((2, 3)))):
        with pytest.raises(ValueError):
            unfused.matmul(a, a)


def test_losses_are_deterministic():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 4))
    x = rng.normal(size=(4, 4))
    loss_fn = unfused.taped(lambda params: unfused.reduce_mean(unfused.tanh(params[0] @ x)))
    a = value_and_grad(loss_fn, [w])
    b = value_and_grad(loss_fn, [w])
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])


# -- per-primitive gradient checks ----------------------------------------

def _check(build, params, tol=1e-6, step=1e-6):
    err = grad_check(unfused.taped(build), list(params), step=step)
    assert err < tol, f"max relative error {err}"


def test_arithmetic_primitive_gradients():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0  # keep divisors away from 0
    row = rng.normal(size=(1, 4))

    _check(lambda p: unfused.reduce_sum(p[0] + p[1]), [a, b])
    _check(lambda p: unfused.reduce_sum(p[0] - p[1]), [a, b])
    _check(lambda p: unfused.reduce_sum(p[0] * p[1]), [a, b])
    _check(lambda p: unfused.reduce_sum(p[0] / p[1]), [a, b])
    _check(lambda p: unfused.reduce_sum(-p[0]), [a])
    # broadcast over rows
    _check(lambda p: unfused.reduce_sum(p[0] + p[1]), [a, row])
    _check(lambda p: unfused.reduce_sum(p[0] * p[1]), [a, row])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_array_on_the_left_of_a_tensor_builds_the_tensor_node(op):
    primitive = {operator.add: unfused.add, operator.sub: unfused.sub,
                 operator.mul: unfused.mul, operator.truediv: unfused.div}[op]
    rng = np.random.default_rng(25)
    x, w = rng.normal(size=(3, 4)), rng.normal(size=(1, 4)) + 3.0
    assert isinstance(op(x, unfused.Tensor(w)), unfused.Tensor)
    got = value_and_grad(
        unfused.taped(lambda p: unfused.reduce_sum(_sq(op(x, p[0])))), [w])
    want = value_and_grad(
        unfused.taped(lambda p: unfused.reduce_sum(_sq(primitive(x, p[0])))), [w])
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


def test_array_matmul_tensor_is_a_type_error():
    with pytest.raises(TypeError):
        np.ones((2, 2)) @ unfused.Tensor(np.ones((2, 2)))


def test_getitem_with_repeated_indices_sums_their_gradients():
    _, grad = value_and_grad(
        unfused.taped(lambda p: unfused.reduce_sum(p[0][[0, 0, 1]])), [np.ones(3)])
    np.testing.assert_array_equal(grad, [2.0, 1.0, 0.0])
    a = np.random.default_rng(26).normal(size=(4, 3))
    _check(lambda p: unfused.reduce_sum(_sq(p[0][[2, 0, 2, 2]])), [a])


def test_structural_primitive_gradients():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    c = rng.normal(size=(2, 4))

    _check(lambda p: unfused.reduce_sum(_sq(p[0] @ p[1])), [a, b])
    _check(lambda p: unfused.reduce_sum(unfused.transpose(p[0]) @ p[0]), [a])
    _check(lambda p: unfused.reduce_sum(_sq(unfused.concat([p[0], p[1]], axis=0))),
           [a, c])
    _check(lambda p: unfused.reduce_sum(_sq(p[0][1:3, ::2])), [a])
    _check(lambda p: unfused.reduce_sum(unfused.reduce_mean(p[0], axis=0)), [a])
    _check(lambda p: unfused.reduce_sum(unfused.reduce_sum(p[0], axis=1, keepdims=True) * p[0]),
           [a])


def test_piecewise_primitive_gradients_away_from_kinks():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 4))
    a[np.abs(a) < 0.2] = 0.5  # keep clear of the kink at 0

    _check(lambda p: unfused.reduce_sum(unfused.relu(p[0])), [a])
    _check(lambda p: unfused.reduce_sum(unfused.absolute(p[0])), [a])
    _check(lambda p: unfused.reduce_sum(_sq(unfused.clip(p[0], -0.9, 0.9))),
           [np.clip(a, -0.7, 0.7)])


def test_transcendental_primitive_gradients():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(3, 4))
    pos = np.abs(a) + 0.5

    _check(lambda p: unfused.reduce_sum(unfused.tanh(p[0])), [a], tol=1e-4)
    _check(lambda p: unfused.reduce_sum(unfused.sigmoid(p[0])), [a], tol=1e-4)
    _check(lambda p: unfused.reduce_sum(unfused.exp(p[0])), [a], tol=1e-4)
    _check(lambda p: unfused.reduce_sum(unfused.log(p[0])), [pos], tol=1e-4)
    _check(lambda p: unfused.reduce_sum(unfused.sqrt(p[0])), [pos], tol=1e-4)


def test_gated_recurrent_cell_gradient():
    # two layers over three steps: every cell's gates, both recurrences and
    # the rows' gradients against finite differences
    rng = np.random.default_rng(15)
    params = [p * 0.6 for p in lstm_params(rng, 3, 5, 2)]
    rows = rng.normal(size=(3, 3))

    def build(p):
        states = unfused.lstm_node(p[:-1], [p[-1][t:t + 1, :] for t in range(3)])
        return unfused.reduce_sum(_sq(unfused.concat(states, axis=0)))

    _check(build, [*params, rows], tol=1e-4)


def test_lstm_cell_first_step_is_zero_cell_state():
    # a layer's first step has no cell state: c = i * g, not f * 0 + i * g
    rng = np.random.default_rng(16)
    w, b = rng.normal(size=(5, 12)), rng.normal(size=(1, 12))
    x = rng.normal(size=(1, 2))
    (h0,), _ = ad._lstm([w, b], [x])
    gates = np.concatenate([x, np.zeros((1, 3))], axis=1) @ w + b
    h1, _ = unfused.lstm_cell(gates, np.zeros((1, 3)), 3)
    assert h0.shape == (1, 3)  # a quarter of the gate width
    np.testing.assert_allclose(h0, h1, rtol=0, atol=1e-15)


def test_lstm_cell_rejects_a_gate_width_not_a_multiple_of_4():
    with pytest.raises(ValueError, match="multiple of 4"):
        ad._lstm([np.zeros((4, 10)), np.zeros((1, 10))], [np.zeros((1, 2))])
    # the stack's state is one row, so each input is one row of the input width
    w, b = np.zeros((5, 12)), np.zeros((1, 12))
    for row in (np.zeros((2, 2)), np.zeros((1, 3))):
        with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
            ad._lstm([w, b], [np.zeros((1, 2)), row])


def test_dense_stack_matches_glorot_draws_and_numpy():
    params = dense_params(np.random.default_rng(17), (3, 5, 2))
    rng = np.random.default_rng(17)
    expected = [glorot(rng, 3, 5), np.zeros((1, 5)), glorot(rng, 5, 2), np.zeros((1, 2))]
    assert len(params) == 4
    for got, want in zip(params, expected):
        assert np.array_equal(got, want)
    x = np.random.default_rng(18).normal(size=(4, 3))
    params[1] += 0.5  # nonzero bias, so the bias term is checked too
    out = ad.dense(params, x, ad.tanh)
    want = np.tanh(x @ params[0] + params[1]) @ params[2] + params[3]
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-15)


def test_returned_gradients_share_no_memory():
    # both leaves receive the same tape array from add's VJP
    loss_fn = unfused.taped(lambda params: unfused.reduce_sum(params[0] + params[1]))
    params = [np.ones((2, 3)), np.ones((2, 3))]
    _, grad = value_and_grad(loss_fn, params)
    assert grad.shape == (12,)
    assert not any(np.shares_memory(grad, p) for p in params)
    grad[0] = 5.0
    np.testing.assert_array_equal(grad[6:], np.ones(6))


# -- one VJP call per gradient evaluation, none on a forward-only read -----

MODEL_LOSSES = ("forecast_loss", "mlp_loss", "gaussian_elbo", "prelim_loss")
LOSSES = (*MODEL_LOSSES, "kde_kl")
VJPS = ("backward", "_stack_vjp", "_layer_vjp", "_kde_kl_term")


def _record_calls(monkeypatch, names) -> list:
    """A list that gains the name of each `autodiff` function in `names`
    called from here on, and "vjp" for each call of a VJP that a model's
    loss among them returned."""
    calls = []

    def wrap(name, real):
        def recorded(*args, **kwargs):
            calls.append(name)
            out = real(*args, **kwargs)
            if name not in MODEL_LOSSES:
                return out
            return out[0], lambda g: calls.append("vjp") or out[1](g)
        return recorded

    for name in names:
        monkeypatch.setattr(ad, name, wrap(name, getattr(ad, name)))
    return calls


def _model_losses(rng) -> dict:
    """Per model, (its loss function, its params) on small inputs."""
    rows = list(rng.uniform(-0.9, 0.9, size=(4, 1, 3)))
    targets = rng.uniform(-0.9, 0.9, size=(4, 3))
    pred_cfg = PredictorConfig(layers=2, latent_dim=3, hidden_dim=4)
    sim_cfg = simulator.SimulatorConfig(encoder_dim=6, decoder_dim=5, latent_dim=3,
                                        regularizer_draws=8)
    data = rng.uniform(-0.9, 0.9, size=(12, 3))
    noise, z = rng.standard_normal((12, 3)), rng.standard_normal((8, 3))
    x, y = rng.normal(size=(7, 2)), (rng.random((7, 1)) < 0.5).astype(float)
    stream = make_moons_stream(domains=4, n_per_domain=20, seed=1)
    prelim_cfg = density_baseline.PrelimConfig(hidden_dim=6, embed_dim=3, grid_size=16)
    grid = density_baseline.default_grid(16)
    sides = [density_baseline._truth_side(t, grid) for t in stream.sources[1:]]
    classes = [np.arange(10), np.arange(10, 20)]
    summaries = density_baseline._summaries(stream.sources)[:-1]
    return {
        "forecast_loss": (lambda ps: predictor._sequence_loss(ps, rows, targets, 3, pred_cfg),
                          predictor._init_params(3, pred_cfg, rng)),
        "mlp_loss": (lambda ps: harness._mlp_loss(ps, x, y, CLASSIFICATION),
                     dense_params(rng, (2, 5, 1))),
        "gaussian_elbo": (lambda ps: simulator._objective(ps, sim_cfg, CLASSIFICATION, data,
                                                          noise, z, np.eye(3)),
                          simulator._init_params(3, sim_cfg, rng)),
        "prelim_loss": (lambda ps: ad.prelim_loss(*density_baseline._split(ps), summaries,
                                                  classes, grid, sides),
                        density_baseline._init_prelim(2, 20, prelim_cfg, rng)),
    }


def test_one_vjp_call_per_gradient_evaluation_and_none_per_value_read(monkeypatch):
    # every model's loss is one value-and-VJP pair: a gradient evaluation
    # calls the loss once and its VJP once, through one `backward`, and a
    # value read calls the loss once and no VJP
    losses = _model_losses(np.random.default_rng(29))
    calls = _record_calls(monkeypatch, ("backward", *LOSSES))
    for name, (loss_fn, params) in losses.items():
        del calls[:]
        value_and_grad(loss_fn, params)
        want = [name, "kde_kl"] if name == "prelim_loss" else [name]
        assert calls == [*want, "backward", "vjp"], name
        del calls[:]
        ad.evaluate_value(loss_fn, params)
        assert calls == want, name


def test_a_fit_makes_its_gradient_vector_once(monkeypatch):
    # every gradient evaluation of a fit writes into the same views of one
    # vector, made when the fit starts: a downstream fit's 3 readouts, then
    # a simulator fit's 2 epochs of 2 minibatch steps
    seen = []
    real = ad.evaluate_with_gradients
    monkeypatch.setattr(ad, "evaluate_with_gradients",
                        lambda fn, ps, grads: seen.append(grads) or real(fn, ps, grads))
    rng = np.random.default_rng(30)
    data = DomainDataset(0, rng.uniform(-1, 1, (16, 2)), (rng.random(16) < 0.5).astype(float))
    harness.train_downstream(data, harness.DownstreamConfig(hidden_dims=(4,), max_epochs=3))
    simulator.train_simulator(data, None, simulator.SimulatorConfig(
        encoder_dim=6, decoder_dim=5, latent_dim=3, lambda_c=0.0, batch_size=8,
        max_epochs=2))
    assert [id(g) for g in seen] == [id(seen[0])] * 3 + [id(seen[3])] * 4
    for grads in (seen[0], seen[3]):
        vector = grads[0].base
        assert all(view.base is vector for view in grads)
        assert sum(view.size for view in grads) == vector.size


def _same_bits_via_tensors(forward, params, got):
    """`forward` run on Tensor leaves gives the entries of `got` bit for bit."""
    out = forward([unfused.Tensor(p) for p in params])
    return same_bits(np.ravel(got), out.value.ravel())


def test_forward_only_paths_call_no_loss_and_no_vjp(monkeypatch):
    # a forecast, a downstream prediction, simulator draws and prelim's final
    # decode run plain forward functions: no loss, no VJP, no KDE term. The
    # snapshot readout reads the simulator's loss and calls no VJP. Each
    # gives the values of the tape's composition bit for bit
    rng = np.random.default_rng(29)
    sim_cfg = simulator.SimulatorConfig(encoder_dim=6, decoder_dim=5, latent_dim=3,
                                        regularizer_draws=8)
    sim_params = simulator._init_params(3, sim_cfg, rng)
    data = rng.uniform(-0.9, 0.9, size=(12, 3))
    corr = np.corrcoef(rng.normal(size=(9, 3)), rowvar=False)
    np.fill_diagonal(corr, 1.0)
    target = CorrelationMatrix(corr)
    sim = simulator.SimulatorModel(task="classification", config=sim_cfg,
                                   params=sim_params, trained_on_index=4, loss_history=[])
    pred_cfg = PredictorConfig(layers=2, latent_dim=3, hidden_dim=4)
    pred = predictor.PredictorModel(m=3, config=pred_cfg, loss_history=[],
                                    params=predictor._init_params(3, pred_cfg, rng))
    mats = [target, CorrelationMatrix(np.eye(3))]
    down = harness.DownstreamModel(task="classification", config=harness.DownstreamConfig(),
                                   params=dense_params(rng, (2, 5, 1)), loss_history=[])
    x = rng.normal(size=(7, 2))
    stream = make_moons_stream(domains=4, n_per_domain=20, seed=1)
    prelim_cfg = density_baseline.PrelimConfig(hidden_dim=6, embed_dim=3, grid_size=16)
    monkeypatch.setattr(density_baseline, "fit", lambda loss_fn, params, config: (params, []))

    frozen = simulator.snapshot_draws(12, sim_cfg, True, 0)
    calls = _record_calls(monkeypatch, (*LOSSES, *VJPS))
    rows = simulator.sample(sim, 6, seed=1)
    forecast = predictor.predict_next(pred, mats)
    probs = down.predict(x)
    decoded = density_baseline.train_prelim(stream, prelim_cfg, seed=0)
    assert calls == []
    snapshot = simulator.loss_snapshot(sim_params, data, target, sim_cfg, sim.task, frozen)
    assert calls == ["gaussian_elbo"]

    noise, z = frozen
    assert _same_bits_via_tensors(lambda ps: unfused.objective(
        ps, sim_cfg, sim.task, data, noise, z, target.entries), sim_params, snapshot)
    z = np.random.default_rng(1).standard_normal((6, 3))
    decoder = slice(2 * sim_cfg.encoder_layers + 4, None)
    assert _same_bits_via_tensors(lambda ps: unfused.decode(ps[decoder], z, sim.task)[:, :2],
                                  sim_params, rows.features)
    flat_mats = [flatten_upper(c).reshape(1, -1) for c in mats]
    assert _same_bits_via_tensors(lambda ps: unfused.forward_sequence(ps, flat_mats)[-1],
                                  pred.params, flatten_upper(forecast))
    assert _same_bits_via_tensors(lambda ps: unfused.sigmoid(unfused.dense(ps, x, ad.relu)),
                                  down.params, probs)
    init = density_baseline._init_prelim(2, 20, prelim_cfg, np.random.default_rng(0))
    summaries = density_baseline._summaries(stream.sources)
    assert _same_bits_via_tensors(lambda ps: unfused.decode_rows(
        ps, unfused.lstm_stack(ps[:2], summaries, 6)[-1]), init, decoded.features)


GENERIC_PRIMITIVES = ("add", "sub", "mul", "div", "neg", "matmul", "exp", "log", "sqrt",
                      "absolute", "clip", "reduce_sum", "reduce_mean", "concat")
TAPE = ("Tensor", "_node", "_accumulate", "_val")
PROGRAM_ONLY = textwrap.dedent("""
    import json, sys
    import numpy as np
    from driftsim import autodiff as ad, harness
    from driftsim.datasets import REGRESSION, DomainDataset, DomainStream, make_moons_stream
    from driftsim.predictor import PredictorConfig
    from driftsim.simulator import SimulatorConfig
    tape, primitives = json.loads(sys.argv[1])
    assert not any(hasattr(ad, name) for name in tape + primitives)
    config = harness.ExperimentConfig(
        predictor=PredictorConfig(max_epochs=3), seeds=(0,),
        simulator=SimulatorConfig(warmup_epochs=1, max_epochs=3, patience=3),
        downstream=harness.DownstreamConfig(max_epochs=3))
    stream = make_moons_stream(domains=5, n_per_domain=40)
    for method in harness.METHODS:
        harness.run_experiment(stream, method, config)
    rng = np.random.default_rng(5)
    doms = [DomainDataset(t, x, np.tanh(x @ [1.0, -0.5]), task=REGRESSION)
            for t, x in enumerate(rng.uniform(-1, 1, (5, 40, 2)))]
    for method in ("coda", "incfinetune"):
        harness.run_experiment(DomainStream(doms[:-1], doms[-1]), method, config)
""")


def test_the_program_trains_every_method_on_tensors_without_operators():
    # the tape (Tensor, its nodes and their replay), the generic primitives
    # and the operators are test code: in a fresh interpreter that imports no
    # test module, autodiff defines none of them, and every method trains
    # end to end on both tasks, each loss one value-and-VJP pair
    assert not any(hasattr(ad, name) for name in TAPE)
    assert set(unfused.OPERATORS) <= set(vars(unfused.Tensor))  # installed in tests only
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    names = json.dumps([list(TAPE), list(GENERIC_PRIMITIVES)])
    done = subprocess.run([sys.executable, "-W", "error", "-c", PROGRAM_ONLY, names],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


# -- the losses and their pieces against the tape --------------------------

taped = unfused.taped


def _assert_same_values_and_gradients(fused, oracle, params):
    got = value_and_grad(fused, params)
    want = value_and_grad(oracle, params)
    assert same_bits(got[0], want[0])
    assert same_bits(got[1], want[1])


@pytest.mark.parametrize("last", [None, ad.tanh, ad.relu])
@pytest.mark.parametrize("rows", [1, 5])
def test_dense_matches_composition_bit_for_bit(last, rows):
    # stacks of 1-3 [w, b] pairs with relu or tanh hidden layers, as one node
    # from `_stack` and `_stack_vjp`, against the chain of per-layer matmul,
    # add and activation nodes; x is a parameter too (its gradient is
    # checked) or a plain array (none is computed)
    rng = np.random.default_rng(19)
    for widths in ((3, 4), (3, 5, 4), (3, 6, 5, 4)):
        params = [rng.normal(size=p.shape) for p in dense_params(rng, widths)]
        x, weights = rng.normal(size=(rows, 3)), rng.normal(size=(rows, 4))
        for act in (ad.relu, ad.tanh):
            def loss(stack, x=None):
                if x is None:  # x is the last parameter
                    return lambda p: unfused.reduce_sum(
                        _sq(stack(p[:-1], p[-1], act, last)) * weights)
                return lambda p: unfused.reduce_sum(_sq(stack(p, x, act, last)) * weights)

            _assert_same_values_and_gradients(taped(loss(unfused.dense_node)),
                                              taped(loss(unfused.dense)), [*params, x])
            _assert_same_values_and_gradients(taped(loss(unfused.dense_node, x)),
                                              taped(loss(unfused.dense, x)), params)
            assert same_bits(ad.dense(params, x, act, last), unfused.dense(params, x, act, last))
            if len(widths) == 2:
                _check(loss(unfused.dense_node), [*params, x], step=1e-5)


@pytest.mark.parametrize("act", [None, ad.tanh, ad.relu], ids=["linear", "tanh", "relu"])
@pytest.mark.parametrize("rows", [64, 512, 2048])
def test_dense_matches_allocating_form_at_simulator_shapes(act, rows):
    # the simulator's minibatch, regularizer draws and snapshot, 72 wide;
    # the input is a parameter too, and it feeds the layer above, so the
    # VJP's gradient is read on the way down: two one-pair nodes, and one
    # node over the pair applied twice
    rng = np.random.default_rng(25)
    x, w = rng.normal(size=(rows, 72)), glorot(rng, 72, 72)
    b, weights = rng.normal(size=(1, 72)) * 0.1, rng.normal(size=(rows, 72))

    def loss(stack):
        return taped(lambda p: unfused.reduce_sum(
            stack(p[1:], stack(p[1:], p[0], last=act), last=act) * weights))

    def twice(stack):
        return taped(lambda p: unfused.reduce_sum(
            stack([*p[1:], *p[1:]], p[0], act, act) * weights))

    _assert_same_values_and_gradients(loss(unfused.dense_node), loss(unfused.dense), [x, w, b])
    _assert_same_values_and_gradients(twice(unfused.dense_node), loss(unfused.dense), [x, w, b])
    assert same_bits(ad.dense([w, b], x, last=act), unfused.dense([w, b], x, last=act))


def test_dense_rejects_other_activations():
    pair = [np.ones((2, 2)), np.zeros((1, 2))]
    for act, last in ((ad.sigmoid, None), (None, ad.sigmoid), (np.exp, ad.tanh)):
        with pytest.raises(ValueError, match="must be None, tanh or relu"):
            ad.dense(pair, np.ones((1, 2)), act, last)


def test_dense_checks_every_layer_shape():
    # every layer's input must chain into its weight
    pair = [np.ones((2, 2)), np.zeros((1, 2))]
    with pytest.raises(ValueError, match=r"shape mismatch: \(1, 2\) @ \(3, 2\)"):
        ad.dense([*pair, np.ones((3, 2)), np.zeros((1, 2))], np.ones((1, 2)))
    with pytest.raises(ValueError, match="2-d operands"):
        ad.dense(pair, np.ones(2))


def _taped_mlp_loss(params, x, y, task):
    return taped(lambda p: unfused.mlp_loss(p, x, y, task))(params)


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_downstream_fits_match_the_per_layer_chain_bit_for_bit(task, monkeypatch):
    # a whole fit and an incfinetune chain (a fresh fit, then one from its
    # params at a tenth of the rate per later source): params and loss
    # histories as the tape of the per-layer chain and the composition of
    # the loss give them
    rng = np.random.default_rng(31)
    sources = []
    for t in range(3):
        x = rng.normal(size=(60, 3)) + 0.3 * t
        y = (x[:, 0] + x[:, 1] > 0.3 * t).astype(float) if task == CLASSIFICATION \
            else np.tanh(x @ [0.5, -0.3, 0.2])
        sources.append(DomainDataset(t, x, y, task=task))
    config = harness.DownstreamConfig(hidden_dims=(12, 7), max_epochs=150, patience=20)
    slow = harness.DownstreamConfig(hidden_dims=(12, 7), learning_rate=1e-3,
                                    max_epochs=80, patience=20)

    def fits():
        models = [harness.train_downstream(sources[0], config, seed=3)]
        for source in sources[1:]:
            models.append(harness.train_downstream(source, slow,
                                                   init_params=models[-1].params))
        return models

    got = fits()
    monkeypatch.setattr(harness, "_mlp_loss", _taped_mlp_loss)
    want = fits()
    for g, w in zip(got, want, strict=True):
        assert same_bits(g.loss_history, w.loss_history)
        assert len(g.params) == len(w.params) == 6
        assert all(same_bits(a, b) for a, b in zip(g.params, w.params, strict=True))
    assert len(got[0].loss_history) > 20


@pytest.mark.parametrize("layers, in_dim, hidden, steps",
                         [(1, 5, 32, 9), (2, 3, 4, 6), (8, 8, 16, 9), (1, 5, 32, 8),
                          (3, 2, 4, 1), (5, 3, 4, 2)],
                         ids=["density baseline", "two layers", "predictor",
                              "density baseline training", "one step",
                              "more layers than steps"])
def test_lstm_stack_matches_unfused_oracle_bit_for_bit(layers, in_dim, hidden, steps):
    # `_lstm` as one node with a view per step, against the per-cell tape
    rng = np.random.default_rng(23)
    params = lstm_params(rng, in_dim, hidden, layers)
    params[1] += rng.normal(size=params[1].shape) * 0.1
    rows = rng.normal(size=(steps, in_dim))
    weights = rng.normal(size=(steps, hidden))

    def oracle(ps, rs):  # told the hidden width that `_lstm` reads off its bias
        return unfused.lstm_stack(ps, rs, hidden)

    def loss(stack):
        # the rows are the last parameter, so their gradient is checked too
        def build(p):
            states = stack(p[:-1], [p[-1][t:t + 1, :] for t in range(steps)])
            return unfused.reduce_sum(unfused.concat(states, axis=0) * weights)
        return taped(build)

    _assert_same_values_and_gradients(loss(unfused.lstm_node), loss(oracle), [*params, rows])
    row_list = [rows[t:t + 1, :] for t in range(steps)]
    for got, want in zip(ad._lstm(params, row_list)[0], oracle(params, row_list),
                         strict=True):
        assert same_bits(got, want)


@pytest.mark.parametrize("rows, cols", [(512, 3), (2048, 3), (64, 5)])
def test_pearson_matches_composition_bit_for_bit(rows, cols):
    # the Pearson matrix and its L1 to the target inside the correlation
    # pull, on decoded prior draws, against mean, matmul, sqrt and divide nodes
    rng = np.random.default_rng(27)
    decoder = dense_params(rng, (8, 72, 72, 72, cols))
    z = rng.standard_normal((rows, 8))
    target = np.corrcoef(rng.normal(size=(3 * cols, cols)), rowvar=False)

    def fused(p):
        return unfused.correlation_pull(p, z, ad.sigmoid, target, simulator.EPS_VAR)

    def oracle(p):
        return unfused.regularizer(unfused.decode(p, z, "classification"), target)

    _assert_same_values_and_gradients(taped(fused), taped(oracle), decoder)
    assert same_bits(fused(decoder), oracle(decoder))


def test_sequence_loss_gradients_match_unfused_forward():
    # the forecaster's loss against the same loss composed on the forward
    # written with primitives only (per-step embedding and head nodes and
    # the per-cell LSTM)
    m, config = 3, PredictorConfig()
    rng = np.random.default_rng(21)
    params = predictor._init_params(m, config, rng)
    rows = list(rng.uniform(-0.9, 0.9, size=(5, 1, 3)))
    tgt = rng.uniform(-0.9, 0.9, size=(5, 3))
    fused = value_and_grad(
        lambda ps: predictor._sequence_loss(ps, rows, tgt, m, config), params)
    oracle = value_and_grad(
        taped(lambda ps: unfused.sequence_loss(ps, rows, tgt, m, config)), params)
    assert fused[0] == oracle[0]
    assert np.array_equal(fused[1], oracle[1])


def _step_loss_oracle(pred_vec, true_vec, m, lambda_ce):
    """One step's cp_loss term on the tape, as the predictor built it per step
    before the loss was stacked."""
    diff = pred_vec - true_vec
    fro = unfused.sqrt(unfused.reduce_sum(diff * diff) * 2.0 + ad.FRO_GUARD)
    l1 = unfused.reduce_sum(unfused.absolute(diff)) * 2.0
    q = unfused.clip((pred_vec + 1.0) * 0.5, ad.CLAMP, 1.0 - ad.CLAMP)
    p01 = (true_vec + 1.0) * 0.5
    bce_off = -(p01 * unfused.log(q) + (1.0 - p01) * unfused.log(1.0 - q))
    diag_const = -m * np.log(1.0 - ad.CLAMP)
    bce = (unfused.reduce_sum(bce_off) * 2.0 + diag_const) * (1.0 / (m * m))
    return fro + l1 + bce * lambda_ce


def _per_step_sequence_loss(params, rows, tgt, m, config):
    outs = unfused.forward_sequence(params, rows)
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
    rows = list(rng.uniform(-0.9, 0.9, size=(9, 1, p)))
    tgt = rng.uniform(-0.9, 0.9, size=(9, p))
    stacked = value_and_grad(
        lambda ps: predictor._sequence_loss(ps, rows, tgt, m, config), params)
    oracle = value_and_grad(
        taped(lambda ps: _per_step_sequence_loss(ps, rows, tgt, m, config)), params)
    assert stacked[0] == pytest.approx(oracle[0], rel=1e-12, abs=0.0)
    assert np.array_equal(stacked[1], oracle[1])


@pytest.mark.parametrize("m, lambda_ce", [(3, 20.0), (3, 7.0), (5, 20.0)])
def test_forecast_loss_matches_composition_bit_for_bit(m, lambda_ce):
    # the forecaster's loss against its tape composition, on the default
    # architecture, with one entry saturated at 1.0 (so the clip stops its
    # BCE gradient) and equal to its target at two steps (an L1 kink); on
    # plain arrays the composition gives the loss's value
    config = PredictorConfig(lambda_ce=lambda_ce)
    p = m * (m - 1) // 2
    rng = np.random.default_rng(34)
    params = predictor._init_params(m, config, rng)
    params[-1][0, 0] = 40.0
    rows = list(rng.uniform(-0.9, 0.9, size=(8, 1, p)))
    tgt = rng.uniform(-0.9, 0.9, size=(8, p))
    tgt[2:4, 0] = 1.0
    assert ad.forecast(*predictor._groups(params), rows)[2, 0] == 1.0
    _assert_same_values_and_gradients(
        lambda ps: predictor._sequence_loss(ps, rows, tgt, m, config),
        taped(lambda ps: unfused.sequence_loss(ps, rows, tgt, m, config)), params)
    assert same_bits(predictor._sequence_loss(params, rows, tgt, m, config)[0],
                     unfused.sequence_loss(params, rows, tgt, m, config))


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("layers", [1, 8])
def test_forecast_loss_matches_the_tape_bit_for_bit(m, layers):
    # the whole loss, one value-and-VJP pair, against the tape of its
    # composition of primitives (per step the embedding's and the head's
    # nodes, the per-cell LSTM, the loss over the stacked heads), with
    # nonzero biases: the value and the flat gradient
    config = PredictorConfig(layers=layers)
    p = m * (m - 1) // 2
    rng = np.random.default_rng(37)
    params = [w + 0.1 * rng.normal(size=w.shape) for w in predictor._init_params(m, config, rng)]
    rows = list(rng.uniform(-0.9, 0.9, size=(9, 1, p)))
    tgt = rng.uniform(-0.9, 0.9, size=(9, p))
    _assert_same_values_and_gradients(
        lambda ps: ad.forecast_loss(*predictor._groups(ps), rows, tgt, m, config.lambda_ce),
        taped(lambda ps: unfused.sequence_loss(ps, rows, tgt, m, config)), params)


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_mlp_loss_matches_composition_bit_for_bit(task):
    # the downstream loss against the tape of the per-layer chain and the
    # composition of the sigmoid and clipped BCE, or of the squared error,
    # then the mean; a far row saturates the sigmoid, so the clip stops its
    # gradient. On plain arrays the composition gives the loss's value.
    # Away from that row, the gradient matches finite differences
    rng = np.random.default_rng(35)
    params = [p + 0.1 * rng.normal(size=p.shape) for p in dense_params(rng, (3, 12, 7, 1))]
    x = rng.normal(size=(40, 3))
    x[0] = 100.0
    y = (rng.normal(size=(40, 1)) if task == REGRESSION
         else (rng.random((40, 1)) < 0.5).astype(float))
    assert abs(ad.dense(params, x, ad.relu)[0, 0]) > 15.0  # 1 - sigmoid < CLAMP
    _assert_same_values_and_gradients(lambda p: harness._mlp_loss(p, x, y, task),
                                      lambda p: _taped_mlp_loss(p, x, y, task), params)
    assert same_bits(harness._mlp_loss(params, x, y, task)[0],
                     unfused.mlp_loss(params, x, y, task))
    assert grad_check(lambda p: harness._mlp_loss(p, x[1:], y[1:], task), params) < 1e-4


def test_mix_decode_matches_composition_bit_for_bit():
    # prelim's decode as one node from `_mix_decode`, with the state a param
    # too and plain, against the mixing layer's matmul, add and tanh nodes
    # and the per-layer chain; its plain rows are the composition's;
    # and the gradients against finite differences
    rng = np.random.default_rng(36)
    config = density_baseline.PrelimConfig(hidden_dim=6, embed_dim=3)
    params = [p + 0.1 * rng.normal(size=p.shape)
              for p in density_baseline._init_prelim(2, 10, config, rng)]
    state, weights = rng.normal(size=(1, 6)), rng.normal(size=(10, 2))

    def node(ps, s):
        return unfused.mix_decode_node(ps[2:], s)

    def loss(decode, state=None):
        if state is None:  # the state is the last parameter
            return lambda p: unfused.reduce_sum(decode(p[:-1], p[-1]) * weights)
        return lambda p: unfused.reduce_sum(decode(p, state) * weights)

    _assert_same_values_and_gradients(taped(loss(node)), taped(loss(unfused.decode_rows)),
                                      [*params, state])
    _assert_same_values_and_gradients(taped(loss(node, state)),
                                      taped(loss(unfused.decode_rows, state)), params)
    assert same_bits(ad._mix_decode(params[2:], state)[0], unfused.decode_rows(params, state))
    _check(loss(node), [*params, state], tol=1e-5)


def _taped_sequence_loss(params, rows, tgt, m, config):
    return taped(lambda p: unfused.sequence_loss(p, rows, tgt, m, config))(params)


def test_predictor_fit_matches_the_composed_loss_bit_for_bit(monkeypatch):
    # a whole train_predictor fit on the moons matrices with the loss pair
    # and with the tape of its composition: the same kept params and loss
    # history
    stream = make_moons_stream(domains=6, n_per_domain=60, seed=5)
    mats = [pearson_matrix(dom) for dom in stream.sources]
    config = PredictorConfig(max_epochs=30, patience=30)
    fused = predictor.train_predictor(mats, config, seed=2)
    monkeypatch.setattr(predictor, "_sequence_loss", _taped_sequence_loss)
    oracle = predictor.train_predictor(mats, config, seed=2)
    assert len(fused.loss_history) == 30
    assert same_bits(fused.loss_history, oracle.loss_history)
    for got, want in zip(fused.params, oracle.params, strict=True):
        assert same_bits(got, want)


# (rows, grid points, bandwidth, class index arrays)
KDE_KL_CASES = {
    "odd class sizes": (7, 24, 0.3, [np.array([0, 2, 3, 5, 6]), np.array([1, 4])]),
    "sample outside the grid": (6, 20, 0.3, [np.arange(3), np.arange(3, 6)]),
    # kernels of grid points far from every sample underflow to exactly 0
    "underflowing kernels": (9, 40, 0.02, [np.arange(0, 9, 2), np.arange(1, 9, 2)]),
}


def _kde_kl_inputs(case, domains=3):
    """(rows per truth domain, grid, truth sides) of a KDE_KL_CASES case:
    two columns, and per domain, column and class a prior that is not a
    power of 2 (so it rounds in every product), a bandwidth and a log_q."""
    n, size, bandwidth, classes = KDE_KL_CASES[case]
    rng = np.random.default_rng(23)
    grid = np.linspace(-1.2, 1.2, size)
    rows = []
    for _ in range(domains):
        r = np.linspace(-0.95, 0.95, n)[:, None] + rng.normal(scale=0.05, size=(n, 2))
        if case == "sample outside the grid":
            r[1, 0] = 1.5
        rows.append(r)
    sides = [[[(0.45 + 0.1 * c, bandwidth * (1.0 + 0.1 * t),
                np.log(rng.dirichlet(np.ones(size)) * 0.5)) for c in range(len(classes))]
              for _ in range(2)] for t in range(domains)]
    return rows, grid, sides


@pytest.mark.parametrize("case", sorted(KDE_KL_CASES))
def test_kde_kl_matches_composition_bit_for_bit(case):
    # the KL over three truth domains, as a loss and as one node, against the
    # chain of per-term compositions, their per-domain and cross-domain adds
    # and the scale, with every domain's rows a param and with only the
    # middle one
    classes = KDE_KL_CASES[case][3]
    rows, grid, sides = _kde_kl_inputs(case)

    def loss(kl, fixed=()):
        return lambda p: kl([*fixed[:1], *p, *fixed[1:]], classes, grid, sides)

    _assert_same_values_and_gradients(loss(ad.kde_kl), taped(loss(unfused.kde_kl)), rows)
    _assert_same_values_and_gradients(taped(loss(unfused.kde_kl_node)),
                                      taped(loss(unfused.kde_kl)), rows)
    fixed = (rows[0], rows[2])
    _assert_same_values_and_gradients(taped(loss(unfused.kde_kl_node, fixed)),
                                      taped(loss(unfused.kde_kl, fixed)), rows[1:2])
    assert grad_check(loss(ad.kde_kl), rows) < 1e-6
    if case == "underflowing kernels":
        bandwidth = sides[0][0][0][1]
        kernels = np.exp(-0.5 * ((grid[:, None] - rows[0][classes[0], 0]) / bandwidth) ** 2)
        assert np.any(kernels == 0.0) and np.all(kernels.sum(axis=1) > 0.0)
        assert np.isfinite(ad.evaluate_value(loss(ad.kde_kl), rows))


def test_kde_kl_signed_zero_where_a_sample_has_no_kernel_mass():
    # class 0 holds four rows on the one grid point, so its kernel mass sums
    # to exactly 4.0 and its grid gradient is exactly +0.0; its fifth row lies
    # 200 bandwidths right of the grid, so its one kernel underflows and its
    # gradient's one summand is -0.0. The composition adds that gradient
    # into zeros, +0.0, and so must the KL (numpy's sums start from +0.0)
    rows = np.array([[0.0], [0.0], [60.0], [0.0], [0.0], [0.3], [-0.4], [0.1]])
    classes = [np.array([0, 1, 2, 3, 4]), np.array([5, 6, 7])]
    grid = np.array([0.0])
    side = [[(0.625, 0.3, np.log([0.4])), (0.375, 0.25, np.log([0.2]))]]
    assert np.exp(-0.5 * (60.0 / 0.3) ** 2) == 0.0
    fused = value_and_grad(lambda p: ad.kde_kl(p, classes, grid, [side]), [rows])
    oracle = value_and_grad(
        taped(lambda p: unfused.kde_kl(p, classes, grid, [side])), [rows])
    assert same_bits(fused[0], oracle[0]) and same_bits(fused[1], oracle[1])
    assert fused[1][2] == 0.0 and not np.signbit(fused[1][2])


def test_kde_kl_below_the_root_agrees_with_composition_up_to_rounding():
    # the VJP scales gradients formed for g = 1, so under another upstream
    # gradient it is exact only up to rounding
    rows, grid, sides = _kde_kl_inputs("odd class sizes")
    classes = KDE_KL_CASES["odd class sizes"][3]
    fused = value_and_grad(
        taped(lambda p: unfused.kde_kl_node(p, classes, grid, sides) * 3.7), rows)
    oracle = value_and_grad(
        taped(lambda p: unfused.kde_kl(p, classes, grid, sides) * 3.7), rows)
    assert same_bits(fused[0], oracle[0])
    np.testing.assert_allclose(fused[1], oracle[1], rtol=1e-13, atol=1e-300)


def test_kde_kl_constant_rows_record_no_parents():
    # on plain rows the KL's tape node records nothing: its adapter gives
    # the pair's plain value, which is the composition's bit for bit
    rows, grid, sides = _kde_kl_inputs("sample outside the grid", domains=2)
    classes = KDE_KL_CASES["sample outside the grid"][3]
    value = unfused.kde_kl_node(rows, classes, grid, sides)
    assert not isinstance(value, unfused.Tensor)
    assert same_bits(value, ad.kde_kl(rows, classes, grid, sides)[0])
    assert same_bits(value, unfused.kde_kl(rows, classes, grid, sides))


def test_kde_kl_zero_mass_is_non_finite_like_the_composition():
    # the grid's left end lies 2 units from both samples of the second
    # domain: its kernel mass is 0
    rows, classes = [np.array([[-1.0], [0.5]]), np.array([[0.9], [1.0]])], [np.array([0, 1])]
    grid, side = np.linspace(-1.2, 1.2, 8), [[(0.5, 0.02, np.zeros(8))]]
    for loss_fn in (lambda p: ad.kde_kl(p, classes, grid, [side, side]),
                    taped(lambda p: unfused.kde_kl(p, classes, grid, [side, side]))):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ad.NonFiniteLossError):
                value_and_grad(loss_fn, rows)


@pytest.mark.parametrize("domains", [3, 10])
def test_prelim_loss_matches_the_tape_bit_for_bit(domains):
    # the whole loss, one value-and-VJP pair, against the tape of its
    # composition (the per-cell LSTM over the summaries, the mixing layer's
    # composition and the per-layer chain per truth domain, the chain of
    # per-term KDE-KL compositions), with 13 rows in each class and nonzero
    # biases: the value and the flat gradient
    rng = np.random.default_rng(38)
    stream = make_moons_stream(domains=domains, n_per_domain=26, seed=6)
    doms = [*stream.sources, stream.target]
    grid = density_baseline.default_grid(64)
    sides = [density_baseline._truth_side(t, grid) for t in doms[1:]]
    summaries = density_baseline._summaries(doms[:-1])
    classes = [np.arange(0, 26, 2), np.arange(1, 26, 2)]
    config = density_baseline.PrelimConfig(hidden_dim=8, embed_dim=4)
    params = [w + 0.1 * rng.normal(size=w.shape)
              for w in density_baseline._init_prelim(2, 26, config, rng)]
    assert len(sides) == domains - 1
    _assert_same_values_and_gradients(
        lambda ps: ad.prelim_loss(*density_baseline._split(ps), summaries, classes, grid, sides),
        taped(lambda ps: unfused.prelim_loss(ps, summaries, classes, grid, sides)), params)


def _taped_prelim_loss(lstm, decoder, *args):
    return taped(lambda p: unfused.prelim_loss(p, *args))([*lstm, *decoder])


def test_prelim_fit_matches_the_per_term_chain_bit_for_bit(monkeypatch):
    # a whole train_prelim fit with the loss pair and with the tape of its
    # composition (the per-cell LSTM, the mixing layer's composition and the
    # chain of per-term compositions): the same rows, kept params and loss
    # history
    stream = make_moons_stream(domains=5, n_per_domain=30, seed=4)
    config = density_baseline.PrelimConfig(hidden_dim=8, embed_dim=4, grid_size=48,
                                           max_epochs=12, patience=12)
    runs = []
    real_fit = density_baseline.fit
    monkeypatch.setattr(density_baseline, "fit",
                        lambda *a: runs.append(real_fit(*a)) or runs[-1])
    fused = density_baseline.train_prelim(stream, config, seed=2)
    monkeypatch.setattr(ad, "prelim_loss", _taped_prelim_loss)
    oracle = density_baseline.train_prelim(stream, config, seed=2)
    assert same_bits(fused.features, oracle.features)
    (fused_params, fused_history), (oracle_params, oracle_history) = runs
    assert len(fused_history) == 12 and same_bits(fused_history, oracle_history)
    for got, want in zip(fused_params, oracle_params, strict=True):
        assert same_bits(got, want)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_broadcast_grad_matches_fd(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    b = rng.normal(size=(1, cols))
    _check(lambda p: unfused.reduce_sum(_sq(p[0] + p[1])), [a, b], tol=1e-5)


# -- Adam -----------------------------------------------------------------

def test_adam_first_step_magnitude_is_lr():
    opt = Adam(1, lr=0.1)
    theta = np.zeros(1)
    opt.step(theta, np.ones(1))
    assert abs(-theta[0] - 0.1) < 1e-6
    assert opt.t == 1


def test_adam_zero_grad_is_noop():
    opt = Adam(3, lr=0.5)
    theta = np.arange(3.0)
    opt.step(theta, np.zeros(3))
    np.testing.assert_array_equal(theta, np.arange(3.0))
    assert opt.t == 1


def test_adam_constant_gradient_decreases_param():
    opt = Adam(1, lr=0.1)
    theta = np.zeros(1)
    opt.step(theta, np.ones(1))
    after_one = theta[0]
    opt.step(theta, np.ones(1))
    assert theta[0] < after_one < 0.0


def test_adam_rejects_non_finite_gradients():
    opt = Adam(2)
    with pytest.raises(ArithmeticError):
        opt.step(np.zeros(2), np.array([1.0, np.nan]))


def test_adam_rejects_shape_mismatch():
    opt = Adam(2)
    with pytest.raises(ValueError):
        opt.step(np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("fault", ["shape", "nan", "overflow"])
def test_adam_refused_step_changes_nothing(fault):
    opt = Adam(4, lr=0.1)
    theta = np.array([0.0, 0.0, 1.0, 1.0])
    opt.step(theta, np.ones(4))
    before = (theta.copy(), opt.m.copy(), opt.v.copy(), opt.t)
    if fault == "shape":
        grad, error, match = np.ones(5), ValueError, "expected 4 entries, got 4/5"
    elif fault == "nan":
        grad, error, match = np.array([1.0, 1.0, 1.0, np.nan]), ArithmeticError, "entry 3"
    else:  # finite, but its square is not
        grad, error, match = np.array([1.0, 1.0, 1.0, 1e200]), ArithmeticError, "overflow"
    with pytest.raises(error, match=match):
        opt.step(theta, grad)
    assert same_bits(theta, before[0])
    assert same_bits(opt.m, before[1]) and same_bits(opt.v, before[2])
    assert opt.t == before[3]


# the update itself overflows (10 * 1e308), or it is finite but moving the
# param by it overflows (-1e308 - 1e308)
@pytest.mark.parametrize("theta, grad, entry", [
    ([0.0, 0.0, 0.0], [1.0, 10.0, 1.0], 1),
    ([0.0, 0.0, -1e308], [0.0, 0.0, 1.0], 2),
])
def test_adam_refuses_an_update_that_leaves_params_non_finite(theta, grad, entry):
    opt = Adam(3, lr=1e308)
    theta = np.array(theta)
    before = theta.copy()
    with pytest.raises(ArithmeticError, match=f"update at entry {entry}"):
        opt.step(theta, np.array(grad))
    assert same_bits(theta, before)


def test_adam_refuses_a_gradient_whose_square_overflows():
    # finite, but its second moment would be inf, and every later update of
    # that entry 0
    opt = Adam(2, lr=0.1)
    theta = np.zeros(2)
    with pytest.raises(ArithmeticError, match="overflow"):
        opt.step(theta, np.array([1.0, 1e200]))
    assert same_bits(theta, np.zeros(2))


@pytest.mark.parametrize("model", ["simulator", "predictor"])
def test_adam_matches_per_array_updates_bit_for_bit(model):
    rng = np.random.default_rng(28)
    if model == "simulator":
        params = simulator._init_params(3, simulator.SimulatorConfig(), rng)
        lr = simulator.SimulatorConfig().learning_rate
    else:
        params = predictor._init_params(3, PredictorConfig(), rng)
        lr = PredictorConfig().learning_rate
    assert len(params) == (18 if model == "simulator" else 20)
    shapes = [p.shape for p in params]
    theta, got = flat(params)
    fused, oracle = Adam(theta.size, lr=lr), unfused.PerArrayAdam(shapes, lr=lr)
    want = [p.copy() for p in params]
    for step in range(200):
        # gradients of every scale, with exact zeros of both signs
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-8, 3) for s in shapes]
        grads[step % len(grads)][...] = -0.0 if step % 2 else 0.0
        fused.step(theta, np.concatenate(grads, axis=None))
        oracle.step(want, grads)
    for p, q in zip(got, want):
        assert same_bits(p, q)
    for flat_moment, per_array in ((fused.m, oracle.m), (fused.v, oracle.v)):
        assert same_bits(flat_moment, np.concatenate(per_array, axis=None))


def test_adam_drives_quadratic_toward_minimum():
    target = np.array([1.0, -2.0, 0.5])
    loss_fn = _quadratic(target)
    theta, params = flat([np.zeros(3)])
    opt = Adam(theta.size, lr=0.05)
    losses = []
    for _ in range(400):
        loss, grad = value_and_grad(loss_fn, params)
        losses.append(loss)
        opt.step(theta, grad)
    assert losses[-1] < 1e-3
    np.testing.assert_allclose(theta, target, atol=0.05)


def test_flat_lays_arrays_out_in_order_as_views_of_one_vector():
    arrays = [np.array(2.0), np.arange(3.0).reshape(1, 3), np.array([[4, 5], [6, 7]])]
    theta, views = flat(arrays)
    assert theta.dtype == np.float64 and theta.shape == (8,)
    assert theta.tolist() == [2.0, 0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0]
    assert [v.shape for v in views] == [(), (1, 3), (2, 2)]
    assert all(np.shares_memory(v, theta) for v in views)
    assert not any(np.shares_memory(theta, a) for a in arrays)
    theta += 1.0
    assert views[0] == 3.0 and views[1][0, 2] == 3.0 and views[2][1, 0] == 7.0
    # a record that `train` keeps is not moved by the steps after it
    stepped = []

    def epoch(e, opt):
        opt.step(theta, np.ones(theta.size))
        stepped.append(theta.copy())

    readouts = iter([5.0, 1.0, 5.0, 5.0])
    config = SimpleNamespace(learning_rate=0.1, patience=10)
    train(theta, epoch, lambda: next(readouts), config, 3)
    assert not np.array_equal(stepped[0], stepped[-1])
    assert same_bits(theta, stepped[0])
    assert same_bits(views[1].ravel(), stepped[0][1:4])


@pytest.mark.parametrize("bad, entry", [(np.nan, 4), (np.inf, 1), (-np.inf, 0)])
def test_flat_refuses_a_non_finite_entry(bad, entry):
    arrays = [np.zeros(1), np.zeros((2, 2))]
    (arrays[0] if entry == 0 else arrays[1]).ravel()[max(entry - 1, 0)] = bad
    with pytest.raises(ValueError, match=f"non-finite parameter at entry {entry}"):
        flat(arrays)


def test_fit_refuses_a_non_finite_init_before_its_first_readout():
    calls = []
    config = SimpleNamespace(learning_rate=0.1, max_epochs=5, patience=5)
    with pytest.raises(ValueError, match="entry 2"):
        fit(lambda ps: calls.append(1) or (ps[0].sum(), None),
            [np.array([0.0, 1.0, np.nan])], config)
    assert calls == []


def _quadratic(target):
    return unfused.taped(lambda params: unfused.reduce_sum(_sq(params[0] - target)))


def test_fit_returns_the_params_that_scored_min_history():
    # a step size this large makes Adam overshoot and oscillate around the
    # minimum, so the last params are not the best ones
    target = np.array([1.0, -2.0, 0.5])
    config = SimpleNamespace(learning_rate=0.7, max_epochs=60, patience=8)
    best, history = fit(_quadratic(target), [np.zeros(3)], config)
    assert min(history) < history[-1]
    assert ad.evaluate_value(_quadratic(target), best) == min(history)


def test_fit_stops_after_patience_stale_epochs():
    target = np.array([1.0, -2.0, 0.5])
    config = SimpleNamespace(learning_rate=0.7, max_epochs=500, patience=8)
    _, history = fit(_quadratic(target), [np.zeros(3)], config)
    best, last_kept = np.inf, None
    for epoch, loss in enumerate(history):
        if loss < best - TOL:
            best, last_kept = loss, epoch
    assert len(history) < config.max_epochs
    assert len(history) - 1 - last_kept == config.patience


@pytest.mark.parametrize("max_epochs,patience", [(500, 8), (60, 60)])
def test_fit_matches_its_own_loop_bit_for_bit(max_epochs, patience):
    # (500, 8) stops early on the oscillation; (60, 60) runs to max_epochs
    target = np.array([1.0, -2.0, 0.5])
    config = SimpleNamespace(learning_rate=0.7, max_epochs=max_epochs, patience=patience)
    best, history = fit(_quadratic(target), [np.zeros(3)], config)
    want, want_history = unfused.fit(_quadratic(target), [np.zeros(3)], config)
    assert np.array_equal(best[0], want[0])
    assert history == want_history
    assert (len(history) < max_epochs) == (patience < max_epochs)


def test_fit_records_max_epochs_losses_and_steps_one_fewer(monkeypatch):
    steps = []
    step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda self, p, g: steps.append(1) or step(self, p, g))
    config = SimpleNamespace(learning_rate=0.1, max_epochs=12, patience=12)
    _, history = fit(_quadratic(np.ones(3)), [np.zeros(3)], config)
    assert len(history) == 12
    assert len(steps) == 11


def _train_probe(readouts, epochs, warmup=0, hold=1, patience=100):
    """Run `train` on one scalar param that each epoch sets to its index + 1,
    with scripted readouts; returns (kept param, history, per-epoch Adam)."""
    theta = np.zeros(1)
    seen = []

    def epoch(e, opt):
        seen.append((opt, opt.t))
        opt.step(theta, np.ones(1))
        theta[...] = e + 1

    script = iter(readouts)
    config = SimpleNamespace(learning_rate=0.1, patience=patience)
    history = train(theta, epoch, lambda: next(script), config, epochs, warmup, hold)
    return float(theta[0]), history, seen


def test_train_restarts_adam_at_warmup_only():
    _, _, seen = _train_probe([1.0] * 7, 6, warmup=3)
    assert [t for _, t in seen] == [0, 1, 2, 0, 1, 2]
    assert seen[3][0] is not seen[2][0] and seen[4][0] is seen[3][0]
    _, _, seen = _train_probe([1.0] * 7, 6)
    assert [t for _, t in seen] == [0, 1, 2, 3, 4, 5]
    assert all(opt is seen[0][0] for opt, _ in seen)


def test_train_counts_stale_epochs_from_warmup_on():
    # no readout ever improves on the init's, so epochs 0..4 are stale too,
    # yet training runs until patience epochs from the warmup have passed
    _, history, _ = _train_probe([1.0] * 21, 20, warmup=5, patience=2)
    assert len(history) == 1 + 5 + 2
    _, history, _ = _train_probe([1.0] * 21, 20, patience=2)
    assert len(history) == 1 + 2


def test_train_hold_two_keeps_no_one_readout_dip():
    readouts = [5.0, 5.0, 1.0, 5.0, 5.0, 5.0]
    kept, history, _ = _train_probe(readouts, 5, hold=2)
    assert history == readouts
    assert kept == 0.0                      # the init
    kept, _, _ = _train_probe(readouts, 5, hold=1)
    assert kept == 2.0                      # the params epoch 1 left, read as 1.0


@pytest.mark.parametrize("make", [
    lambda: simulator.SimulatorConfig(obs_variance=float("nan")),
    lambda: simulator.SimulatorConfig(learning_rate=float("nan")),
    lambda: predictor.PredictorConfig(learning_rate=float("nan")),
    lambda: harness.DownstreamConfig(learning_rate=float("nan")),
    lambda: density_baseline.PrelimConfig(learning_rate=float("nan")),
    lambda: density_baseline.PrelimConfig(learning_rate=-1.0),
    lambda: Adam(2, lr=float("nan")),
])
def test_learning_rates_and_variances_refuse_nan_and_non_positive(make):
    with pytest.raises(ValueError):
        make()
