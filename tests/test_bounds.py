from __future__ import annotations

import numpy as np
import pytest

from driftsim.bounds import (FiniteJointDistribution, check_moment_deltas,
                             corr_exact, random_distribution_pair, tv_exact,
                             verify_bound)

from references import tv_dual_exhaustive


def _bernoulli_pair():
    support = np.array([[0.0], [1.0]])
    p = FiniteJointDistribution(support, np.array([0.5, 0.5]))
    q = FiniteJointDistribution(support, np.array([0.4, 0.6]))
    return p, q


def _uniform_square():
    support = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    return FiniteJointDistribution(support, np.full(4, 0.25))


def _tilted_square():
    # same marginals as the uniform square, diagonal mass raised by 0.05
    support = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    return FiniteJointDistribution(support, np.array([0.3, 0.2, 0.2, 0.3]))


def test_distribution_validation():
    with pytest.raises(ValueError):
        FiniteJointDistribution(np.zeros((2, 1)), np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        FiniteJointDistribution(np.zeros((2, 1)), np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        FiniteJointDistribution(np.zeros(3), np.array([1.0]))


def test_duplicate_points_are_merged():
    support = np.array([[1.0], [1.0], [-1.0]])
    d = FiniteJointDistribution(support, np.array([0.25, 0.25, 0.5]))
    assert d.support.shape == (2, 1)
    assert d.masses.sum() == pytest.approx(1.0)
    assert d.mean()[0] == pytest.approx(0.0)


def test_tv_identity_is_zero():
    p, _ = _bernoulli_pair()
    assert tv_exact(p, p) == 0.0


def test_tv_bernoulli_example():
    p, q = _bernoulli_pair()
    assert tv_exact(p, q) == pytest.approx(0.1)


def test_tv_on_disjoint_supports_via_union():
    a = FiniteJointDistribution(np.array([[0.0]]), np.array([1.0]))
    b = FiniteJointDistribution(np.array([[1.0]]), np.array([1.0]))
    assert tv_exact(a, b) == pytest.approx(1.0)


def test_tv_dimension_mismatch():
    a = FiniteJointDistribution(np.array([[0.0]]), np.array([1.0]))
    b = FiniteJointDistribution(np.array([[0.0, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        tv_exact(a, b)


def test_dual_form_equals_half_sum():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(2, 13))
        support = rng.uniform(-1, 1, size=(k, 2))
        p = FiniteJointDistribution(support, rng.dirichlet(np.ones(k)))
        q = FiniteJointDistribution(support, rng.dirichlet(np.ones(k)))
        assert abs(tv_dual_exhaustive(p, q) - tv_exact(p, q)) < 1e-12


def test_dual_form_guards_support_size():
    support = np.arange(21.0).reshape(21, 1)
    p = FiniteJointDistribution(support, np.full(21, 1 / 21))
    with pytest.raises(ValueError):
        tv_dual_exhaustive(p, p)


def test_corr_exact_independent_coordinates():
    # product of two uneven Bernoullis: off-diagonal exactly 0
    support = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    px, py = 0.3, 0.7
    masses = np.array([(1 - px) * (1 - py), (1 - px) * py, px * (1 - py), px * py])
    c = corr_exact(FiniteJointDistribution(support, masses))
    assert abs(c.entries[0, 1]) < 1e-12


def test_corr_exact_comonotone():
    d = FiniteJointDistribution(np.array([[-1.0, -1.0], [1.0, 1.0]]),
                                np.array([0.5, 0.5]))
    assert corr_exact(d).entries[0, 1] == pytest.approx(1.0)


def test_corr_exact_zero_variance_rejected():
    d = FiniteJointDistribution(np.array([[1.0, 0.0], [1.0, 1.0]]),
                                np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="variance"):
        corr_exact(d)


def test_corr_exact_matches_monte_carlo():
    rng = np.random.default_rng(42)
    support = rng.uniform(-1, 1, size=(6, 3))
    masses = rng.dirichlet(np.ones(6))
    d = FiniteJointDistribution(support, masses)
    exact = corr_exact(d)
    draws = d.support[rng.choice(len(d.masses), size=1_000_000, p=d.masses)]
    sampled = np.corrcoef(draws, rowvar=False)
    assert np.max(np.abs(exact.entries - sampled)) < 0.005


def test_bound_tight_at_zero_shift():
    p = _uniform_square()
    report = verify_bound(p, p)
    assert report.eps == 0.0
    assert report.lhs == 0.0
    assert report.rhs == 0.0
    assert not report.violated


def test_bound_rhs_formula():
    p, q = _uniform_square(), _tilted_square()
    report = verify_bound(p, q)
    assert report.d == 2
    assert report.eps == pytest.approx(0.1)
    assert report.bound_a == 1.0
    assert report.delta == pytest.approx(0.25)
    assert report.rhs == pytest.approx(24.0)
    assert report.lhs == pytest.approx(0.2)
    assert not report.violated


def test_bound_assumption_violation_is_reported():
    support = np.array([[1.0, 0.0], [1.0, 1.0]])  # first coordinate constant
    d = FiniteJointDistribution(support, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="variance"):
        verify_bound(d, d)


def test_moment_deltas_zero_for_identical():
    p = _uniform_square()
    report = check_moment_deltas(p, p)
    assert report.ok
    np.testing.assert_array_equal(report.mean_deltas, 0.0)
    np.testing.assert_array_equal(report.variance_deltas, 0.0)


def test_moment_deltas_single_transfer():
    p = _uniform_square()
    support = p.support
    q = FiniteJointDistribution(support, np.array([0.2, 0.25, 0.25, 0.3]))
    eps = tv_exact(p, q)
    assert eps == pytest.approx(0.05)
    report = check_moment_deltas(p, q)
    assert report.mean_bound == pytest.approx(0.1)
    assert report.second_moment_bound == pytest.approx(0.1)
    assert report.variance_bound == pytest.approx(0.3)
    assert report.ok
    # the transfer moved 0.05 onto (1,1): each mean shifts by exactly 0.05
    np.testing.assert_allclose(report.mean_deltas, [0.05, 0.05])


def test_random_pairs_never_violate():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p, q = random_distribution_pair(rng)
        assert not verify_bound(p, q).violated
        assert check_moment_deltas(p, q).ok


def test_random_pair_respects_budget_and_floor():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p, q = random_distribution_pair(rng, eps_budget=0.08, var_floor=1e-3)
        assert tv_exact(p, q) <= 0.08 + 1e-12
        assert p.variances().min() >= 1e-3
        assert q.variances().min() >= 1e-3
        assert p.dim <= 4
        assert len(p.masses) <= 16
