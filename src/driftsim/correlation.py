"""Per-domain feature correlation matrices and the metrics defined on them."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DELTA_MIN = 1e-8  # variance guard below which a column counts as constant

__all__ = [
    "CorrelationMatrix",
    "DELTA_MIN",
    "pearson_matrix",
    "correlation_from_covariance",
    "matrix_distance",
    "flatten_upper",
    "unflatten_upper",
]


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric unit-diagonal matrix with entries in [-1, 1].

    Covers the d feature columns plus the label column, so dim == d + 1.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("correlation matrix contains non-finite entries")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise ValueError("correlation matrix is not symmetric")
        if np.max(np.abs(np.diag(m) - 1.0)) > 0:
            raise ValueError("correlation matrix diagonal must be exactly 1")
        if np.max(np.abs(m)) > 1.0:
            raise ValueError("correlation entries must lie in [-1, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def pearson_matrix(dataset) -> CorrelationMatrix:
    """Sample Pearson correlation over the stacked [X | y] columns.

    Uses the n-1 covariance denominator (cancels in the ratio, but fixed so
    oracle values are unambiguous). Near-constant columns are an error: the
    caller is expected to have normalized and filtered first.
    """
    cols = np.column_stack([dataset.features, dataset.labels.astype(np.float64)])
    n, m = cols.shape
    if n < 2:
        raise ValueError("need at least 2 rows to correlate")
    centered = cols - cols.mean(axis=0)
    var = (centered * centered).sum(axis=0) / (n - 1)
    bad = np.nonzero(var < DELTA_MIN)[0]
    if bad.size:
        names = [dataset.feature_names[i] if i < m - 1 else "label" for i in bad]
        raise ValueError(f"domain {dataset.domain_index}: near-constant column(s) "
                         f"{', '.join(names)}: variance below {DELTA_MIN}")
    return correlation_from_covariance(centered.T @ centered / (n - 1), var)


def correlation_from_covariance(cov: np.ndarray, var: np.ndarray) -> CorrelationMatrix:
    """Clip cov / sqrt(var_i var_j) to [-1, 1], symmetrize, set a unit diagonal."""
    corr = np.clip(cov / np.sqrt(np.outer(var, var)), -1.0, 1.0)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr)


def matrix_distance(a: CorrelationMatrix, b: CorrelationMatrix,
                    norm: str = "elementwise-l1") -> float:
    """Distance between two equal-dim matrices under a named norm.

    induced-1 is the max over columns of the absolute column sum, the
    operator norm the correlation-shift bound is stated in; elementwise-L1
    is the norm of the regularizer and of the forecast error.
    """
    if a.dim != b.dim:
        raise ValueError(f"dim mismatch: {a.dim} vs {b.dim}")
    diff = a.entries - b.entries
    if norm == "elementwise-l1":
        return float(np.abs(diff).sum())
    if norm == "induced-1":
        return float(np.abs(diff).sum(axis=0).max())
    raise ValueError(f"unknown norm {norm!r}")


def flatten_upper(c: CorrelationMatrix) -> np.ndarray:
    """Strict upper triangle in row-major order, length m(m-1)/2."""
    m = c.dim
    iu = np.triu_indices(m, k=1)
    return c.entries[iu].copy()


def unflatten_upper(v: np.ndarray, m: int) -> CorrelationMatrix:
    v = np.asarray(v, dtype=np.float64)
    expected = m * (m - 1) // 2
    if v.shape != (expected,):
        raise ValueError(f"expected vector of length {expected} for dim {m}, "
                         f"got shape {v.shape}")
    out = np.eye(m)
    iu = np.triu_indices(m, k=1)
    clamped = np.clip(v, -1.0, 1.0)
    out[iu] = clamped
    out[(iu[1], iu[0])] = clamped
    return CorrelationMatrix(out)

