from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftsim.correlation import (CorrelationMatrix, flatten_upper, matrix_distance,
                                  pearson_matrix, unflatten_upper)
from driftsim.datasets import DomainDataset


def _dataset(cols):
    cols = np.asarray(cols, dtype=np.float64)
    return DomainDataset(domain_index=0, features=cols[:, :-1], labels=cols[:, -1],
                         task="regression")


def test_perfect_linear_dependence():
    c = pearson_matrix(_dataset(np.column_stack([[0, 1, 2], [0, 2, 4]])))
    assert c.entries[0, 1] == pytest.approx(1.0)


def test_perfect_anticorrelation():
    c = pearson_matrix(_dataset(np.column_stack([[1, 2, 3], [3, 2, 1]])))
    assert c.entries[0, 1] == pytest.approx(-1.0)


def test_zero_covariance_pair():
    c = pearson_matrix(_dataset(np.column_stack([[0, 1, 2], [0, 1, 0]])))
    assert c.entries[0, 1] == pytest.approx(0.0)


def test_near_constant_column_is_named():
    data = np.column_stack([[1.0, 1.0, 1.0 + 1e-9], [0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="x0"):
        pearson_matrix(_dataset(data))


def test_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        CorrelationMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # out of range
    with pytest.raises(ValueError):
        CorrelationMatrix(np.array([[1.0, 0.1], [0.2, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        CorrelationMatrix(np.array([[0.9, 0.1], [0.1, 1.0]]))  # diagonal


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_pearson_output_is_valid_correlation_matrix(seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(20, 4))
    c = pearson_matrix(_dataset(data))
    assert c.dim == 4
    np.testing.assert_array_equal(np.diag(c.entries), np.ones(4))
    assert np.max(np.abs(c.entries)) <= 1.0


@given(st.integers(0, 10_000),
       st.floats(0.1, 10.0, allow_nan=False),
       st.floats(-5.0, 5.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_pearson_invariant_to_positive_affine_rescale(seed, a, b):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(30, 3))
    base = pearson_matrix(_dataset(data))
    data2 = data.copy()
    data2[:, 1] = a * data2[:, 1] + b
    rescaled = pearson_matrix(_dataset(data2))
    assert np.max(np.abs(base.entries - rescaled.entries)) < 1e-10


def test_distance_examples():
    a = CorrelationMatrix(np.eye(2))
    b = CorrelationMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert matrix_distance(a, a, "elementwise-l1") == 0.0
    assert matrix_distance(a, a, "induced-1") == 0.0
    assert matrix_distance(a, b, "induced-1") == pytest.approx(0.5)
    assert matrix_distance(a, b, "elementwise-l1") == pytest.approx(1.0)


def test_distance_errors():
    a = CorrelationMatrix(np.eye(2))
    b = CorrelationMatrix(np.eye(3))
    with pytest.raises(ValueError):
        matrix_distance(a, b)
    with pytest.raises(ValueError):
        matrix_distance(a, a, "spectral")
    with pytest.raises(ValueError):
        matrix_distance(a, a, "frobenius")


@given(st.integers(0, 10_000), st.sampled_from(["elementwise-l1", "induced-1"]))
@settings(max_examples=100, deadline=None)
def test_distance_triangle_inequality(seed, norm):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        data = rng.normal(size=(15, 3))
        mats.append(pearson_matrix(_dataset(data)))
    a, b, c = mats
    ab = matrix_distance(a, b, norm)
    bc = matrix_distance(b, c, norm)
    ac = matrix_distance(a, c, norm)
    assert ac <= ab + bc + 1e-12


def test_flatten_lengths():
    assert flatten_upper(CorrelationMatrix(np.eye(2))).shape == (1,)
    assert flatten_upper(CorrelationMatrix(np.eye(8))).shape == (28,)


def test_flatten_row_major_order():
    m = np.eye(3)
    m[0, 1] = m[1, 0] = 0.1
    m[0, 2] = m[2, 0] = 0.2
    m[1, 2] = m[2, 1] = 0.3
    np.testing.assert_array_equal(flatten_upper(CorrelationMatrix(m)),
                                  [0.1, 0.2, 0.3])


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=50, deadline=None)
def test_flatten_unflatten_round_trip(seed, m):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(m * 5, m))
    c = pearson_matrix(_dataset(data))
    back = unflatten_upper(flatten_upper(c), m)
    np.testing.assert_array_equal(back.entries, c.entries)


def test_unflatten_clamps_and_validates():
    c = unflatten_upper(np.array([1.5]), 2)
    assert c.entries[0, 1] == 1.0
    with pytest.raises(ValueError):
        unflatten_upper(np.array([0.1, 0.2]), 2)
