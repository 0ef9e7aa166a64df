"""End-to-end acceptance gates.

Each test prints one `ACCEPTANCE <n> PASS|FAIL` line (run with -s to see
them all) and then asserts. The expensive experiment reports are shared
module-scoped fixtures, and criteria 4 and 8 read the forecasts and
simulators those runs trained; everything runs on the fixed benchmark stream
with model seeds 0-4.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from driftsim import simulator as sm
from driftsim.bounds import (FiniteJointDistribution, check_moment_deltas,
                             random_distribution_pair, tv_exact, verify_bound)
from driftsim.correlation import matrix_distance, pearson_matrix
from driftsim.datasets import (CLASSIFICATION, DomainDataset,
                               fit_apply_normalization, load_csv_stream,
                               make_moons_stream, save_domain_csv)
from driftsim.harness import ExperimentConfig, run_experiment, sweep
from driftsim.predictor import PredictorConfig
from driftsim.simulator import SimulatorConfig, sample

import unfused
from references import grad_check, tv_dual_exhaustive, value_and_grad

SEEDS = (0, 1, 2, 3, 4)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


@pytest.fixture(scope="module")
def stream():
    return make_moons_stream()  # 10 domains x 200 rows, noise 0.15, seed 0


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(seeds=SEEDS)


@pytest.fixture(scope="module")
def coda_report(stream, config):
    return run_experiment(stream, "coda", config)


@pytest.fixture(scope="module")
def no_regularizer_report(stream, config):
    return run_experiment(stream, "coda-without-C", config)


@pytest.fixture(scope="module")
def lastdomain_report(stream, config):
    return run_experiment(stream, "lastdomain", config)


@pytest.fixture(scope="module")
def normalized(stream):
    norm, _ = fit_apply_normalization(stream)
    return norm


def test_criterion_1_coda_mean_error_and_runtime(coda_report):
    ok = coda_report.mean <= 5.0 and coda_report.wall_clock_s < 600.0
    _verdict(1, ok, f"coda mean McE {coda_report.mean:.2f}% "
                    f"(gate 5%), seeds {[round(v, 1) for v in coda_report.seed_values]}, "
                    f"wall clock {coda_report.wall_clock_s:.0f}s (gate 600s)")
    assert coda_report.mean <= 5.0
    assert coda_report.wall_clock_s < 600.0


def test_criterion_2_lastdomain_band(coda_report, lastdomain_report):
    mean = lastdomain_report.mean
    ok = 10.0 <= mean <= 20.0 and coda_report.mean < mean
    _verdict(2, ok, f"lastdomain mean McE {mean:.2f}% (band [10, 20]), "
                    f"coda {coda_report.mean:.2f}% strictly better")
    assert 10.0 <= mean <= 20.0
    assert coda_report.mean < mean


def test_criterion_3_ablation_ratio(coda_report, no_regularizer_report):
    report = no_regularizer_report
    ratio = report.mean / coda_report.mean
    ok = report.mean >= 2.0 * coda_report.mean and report.mean >= 10.0
    _verdict(3, ok, f"no-regularizer mean McE {report.mean:.2f}% "
                    f"= {ratio:.1f}x coda (gates: >=2x and >=10%)")
    assert report.mean >= 2.0 * coda_report.mean
    assert report.mean >= 10.0


def test_criterion_4_forecast_beats_persistence(normalized, coda_report):
    truth = pearson_matrix(normalized.target)
    persistence = matrix_distance(pearson_matrix(normalized.sources[-1]), truth,
                                  "elementwise-l1")
    wins = 0
    errs = []
    for extra in coda_report.extras:
        err = matrix_distance(extra["predicted_corr"], truth, "elementwise-l1")
        errs.append(round(err, 3))
        wins += err < persistence
    ok = wins >= 4
    _verdict(4, ok, f"forecast errors {errs} vs persistence "
                    f"{persistence:.3f}; {wins}/5 seeds better (gate 4)")
    assert wins >= 4


def test_criterion_5_bound_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    bound_violations = 0
    moment_violations = 0
    for _ in range(1000):
        p, q = random_distribution_pair(rng, max_dim=4, max_support=16)
        bound_violations += verify_bound(p, q).violated
        moment_violations += not check_moment_deltas(p, q).ok

    support = np.array([[0.5, -0.5], [-1.0, 1.0], [0.25, 2.0]])
    weights = np.array([0.2, 0.5, 0.3])
    p = FiniteJointDistribution(support, weights)
    tight = verify_bound(p, p)
    elapsed = time.perf_counter() - t0
    ok = (bound_violations == 0 and moment_violations == 0
          and tight.lhs == 0.0 and tight.rhs == 0.0 and elapsed < 60.0)
    _verdict(5, ok, f"1000 pairs: {bound_violations} bound / "
                    f"{moment_violations} moment violations; P==Q lhs="
                    f"{tight.lhs} rhs={tight.rhs}; {elapsed:.1f}s (gate 60s)")
    assert bound_violations == 0
    assert moment_violations == 0
    assert tight.lhs == 0.0 and tight.rhs == 0.0
    assert elapsed < 60.0


def test_criterion_6_dual_tv_equivalence():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, 13))
        support = rng.uniform(-2, 2, size=(k, m))
        p = FiniteJointDistribution(support, rng.dirichlet(np.ones(k)))
        q = FiniteJointDistribution(support, rng.dirichlet(np.ones(k)))
        worst = max(worst, abs(tv_dual_exhaustive(p, q) - tv_exact(p, q)))
    ok = worst <= 1e-12
    _verdict(6, ok, f"max |event-enumeration TV - half-L1 TV| = {worst:.2e} "
                    f"over 200 supports (gate 1e-12)")
    assert worst <= 1e-12


KINK_GAP = 1e-3  # |x| clearance from non-differentiable points of |.|
# Central differences at step 1e-6 carry cancellation noise of roughly
# eps_machine * |loss| / (2 * step) ~ 1e-8 for losses of magnitude ~100.
# A gradient entry below this floor cannot be certified against the 1e-4
# relative gate no matter how correct the tape is, so instances containing
# one are resampled.
GRAD_FLOOR = 1e-3


def _predictor_grad_instance(rng) -> float:
    from driftsim.correlation import flatten_upper
    from driftsim.predictor import _forecast, _init_params, _sequence_loss
    for _ in range(400):
        m = int(rng.integers(2, 5))
        t_len = int(rng.integers(3, 6))
        config = PredictorConfig(layers=int(rng.integers(1, 3)),
                                 latent_dim=int(rng.integers(2, 5)),
                                 hidden_dim=int(rng.integers(3, 7)))
        # the check point is drawn at O(1) scale rather than at the training
        # init: glorot-scale recurrent weights leave hidden states near zero,
        # which drives gate-weight gradients below what finite differences
        # can resolve
        shapes = [p.shape for p in _init_params(m, config, rng)]
        params = [rng.normal(0.0, 0.8, s) for s in shapes]
        mats = []
        for _ in range(t_len):
            x = rng.standard_normal((16, m))
            mats.append(pearson_matrix(DomainDataset(0, x[:, :m - 1],
                                                     x[:, m - 1],
                                                     task="regression")))
        rows = [flatten_upper(c).reshape(1, -1) for c in mats[:-1]]
        targets = np.stack([flatten_upper(c) for c in mats[1:]])

        def build(ps):
            return _sequence_loss(ps, rows, targets, m, config)

        # finite differences straddle the L1 kink when a prediction sits on
        # its target; only accept instances with clearance
        gap = np.min(np.abs(_forecast(params, rows)[0] - targets))
        if gap < KINK_GAP:
            continue
        _, grad = value_and_grad(build, params)
        if np.min(np.abs(grad)) < GRAD_FLOOR:
            continue
        return grad_check(build, params)
    raise AssertionError("no measurable instance found")


def _simulator_grad_instance(rng) -> float:
    for _ in range(100):
        m = int(rng.integers(2, 5))
        config = SimulatorConfig(encoder_dim=int(rng.integers(3, 7)),
                                 encoder_layers=int(rng.integers(1, 3)),
                                 decoder_dim=int(rng.integers(3, 7)),
                                 decoder_layers=int(rng.integers(1, 3)),
                                 latent_dim=int(rng.integers(2, 4)),
                                 batch_size=8, regularizer_draws=8)
        params = sm._init_params(m, config, rng)
        rows = rng.uniform(-0.9, 0.9, (8, m))
        noise = rng.standard_normal((8, config.latent_dim))
        z = rng.standard_normal((8, config.latent_dim))
        x = rng.standard_normal((24, m))
        target = pearson_matrix(DomainDataset(0, x[:, :m - 1], x[:, m - 1],
                                              task="regression")).entries

        def build(ps):
            return sm._objective(ps, config, CLASSIFICATION, rows, noise, z, target)

        _, decoder, label = sm._split(params, config, CLASSIFICATION)
        corr = unfused.pearson(sm._decode(decoder, z, label)[1], sm.EPS_VAR)
        # the diagonal of both matrices is pinned at one, so its difference
        # is always ~0; only off-diagonal entries can straddle the kink
        off = ~np.eye(m, dtype=bool)
        if np.min(np.abs((corr - target)[off])) < KINK_GAP:
            continue
        return grad_check(build, params)
    raise AssertionError("no kink-free instance found")


def test_criterion_7_gradient_suite():
    rng = np.random.default_rng(7)
    worst_pred = max(_predictor_grad_instance(rng) for _ in range(50))
    worst_sim = max(_simulator_grad_instance(rng) for _ in range(50))
    ok = worst_pred < 1e-4 and worst_sim < 1e-4
    _verdict(7, ok, f"worst finite-difference rel. error: forecaster loss "
                    f"{worst_pred:.2e}, generator objective {worst_sim:.2e} "
                    f"(gate 1e-4, 50 instances each)")
    assert worst_pred < 1e-4
    assert worst_sim < 1e-4


def test_criterion_8_regularizer_monotonicity(stream, config, coda_report,
                                              no_regularizer_report):
    # lambda_c defaults to 1, so the coda run's simulators are the lambda = 1
    # fits and coda-without-C's the lambda = 0 fits; only lambda = 10 trains
    assert config.simulator.lambda_c == 1.0
    strong = run_experiment(stream, "coda", replace(
        config, simulator=replace(config.simulator, lambda_c=10.0)))
    majority = 0
    rows = []
    for i, seed in enumerate(SEEDS):
        c_hat = coda_report.extras[i]["predicted_corr"]
        # the lambda = 10 run must have pulled toward the same forecast
        assert np.array_equal(strong.extras[i]["predicted_corr"].entries,
                              c_hat.entries)
        dists = []
        for report in (no_regularizer_report, coda_report, strong):
            synth = sample(report.extras[i]["simulator"], 1000, seed=seed + 101)
            dists.append(matrix_distance(pearson_matrix(synth), c_hat,
                                         "elementwise-l1"))
        rows.append([round(d, 3) for d in dists])
        majority += dists[0] >= dists[1] >= dists[2]
    ok = majority >= 3
    _verdict(8, ok, f"||C_gen - C_hat||_1 at lambda 0/1/10 per seed: {rows}; "
                    f"non-increasing for {majority}/5 (gate 3)")
    assert majority >= 3


def test_criterion_9_prelim_is_worse(stream, config, coda_report):
    report = run_experiment(stream, "prelim", config)
    worse = sum(p > c for p, c in zip(report.seed_values,
                                      coda_report.seed_values))
    ok = worse >= 3
    _verdict(9, ok, f"density-forecast baseline McE "
                    f"{[round(v, 1) for v in report.seed_values]} vs coda "
                    f"{[round(v, 1) for v in coda_report.seed_values]}; "
                    f"worse on {worse}/5 seeds (gate 3)")
    assert worse >= 3


def test_criterion_10_csv_round_trip(tmp_path, stream):
    paths = []
    for dom in (*stream.sources, stream.target):
        path = tmp_path / f"d{dom.domain_index:02d}.csv"
        save_domain_csv(dom, path)
        paths.append(path)
    header, *first = paths[0].read_text().splitlines()
    lines = [header] + first
    for path in paths[1:]:
        lines += path.read_text().splitlines()[1:]
    combined = tmp_path / "all.csv"
    combined.write_text("\n".join(lines) + "\n")
    loaded = load_csv_stream(str(combined), domain_col="t", label_col="y")
    all_orig = (*stream.sources, stream.target)
    all_load = (*loaded.sources, loaded.target)
    exact = all(
        np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels)
        and a.domain_index == b.domain_index
        for a, b in zip(all_orig, all_load))
    ok = exact and len(all_load) == len(all_orig)
    _verdict(10, ok, f"{len(paths)} domain CSVs round-trip bit-exactly "
                     f"through save/load")
    assert exact


@pytest.mark.slow
def test_sample_rate_variance_trend(stream, config):
    """Larger synthetic samples stabilize the downstream score."""
    points = sweep(stream, "sample_rate", [0.25, 3.0], config, method="coda")
    stds = [p.test.std for p in points]
    assert stds[-1] <= stds[0] + 1.0
