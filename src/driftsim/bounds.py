"""Exact verification of the correlation-shift bound on finite supports.

For bounded random vectors U, V with per-coordinate variance at least δ and
coordinates in [-A, A], the induced-1 distance between their correlation
matrices is at most 6·d·ε·A²·(1/δ + A²/δ²), where ε is the total variation
distance between the two distributions. On finite supports every quantity in
that statement is exactly computable, so the bound (and the moment-difference
inequalities behind it) can be checked with no sampling error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import (DELTA_MIN, CorrelationMatrix, correlation_from_covariance,
                          matrix_distance)

__all__ = [
    "FiniteJointDistribution",
    "BoundReport",
    "MomentDeltaReport",
    "tv_exact",
    "tv_dual_exhaustive",
    "corr_exact",
    "verify_bound",
    "check_moment_deltas",
    "random_distribution_pair",
]

VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class FiniteJointDistribution:
    """A probability mass function on finitely many m-dimensional points."""

    support: np.ndarray  # k x m
    masses: np.ndarray   # length k, non-negative, sums to 1

    def __post_init__(self):
        pts = np.asarray(self.support, dtype=np.float64)
        w = np.asarray(self.masses, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"support must be k x m, got shape {pts.shape}")
        if w.shape != (pts.shape[0],):
            raise ValueError("masses must align with support points")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
            raise ValueError("non-finite support point or mass")
        if np.any(w < -1e-15):
            raise ValueError("negative mass")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"masses sum to {w.sum()}, expected 1")
        # merge duplicate points and drop zero-mass ones so supports are canonical
        merged: dict[tuple, float] = {}
        for point, mass in zip(pts, w):
            key = tuple(point.tolist())
            merged[key] = merged.get(key, 0.0) + float(mass)
        keys = sorted(k for k, v in merged.items() if v > 1e-15)
        if not keys:
            raise ValueError("distribution has no positive-mass points")
        pts = np.array(keys, dtype=np.float64)
        w = np.array([merged[k] for k in keys])
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "masses", w)

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @property
    def bound_a(self) -> float:
        """Smallest A with every coordinate in [-A, A]."""
        return float(np.max(np.abs(self.support)))

    def mean(self) -> np.ndarray:
        return self.masses @ self.support

    def second_moments(self) -> np.ndarray:
        """Matrix of E[X_i X_j], exact."""
        return self.support.T @ (self.masses[:, None] * self.support)

    def variances(self) -> np.ndarray:
        mu = self.mean()
        return np.diag(self.second_moments()) - mu * mu


def _align(p: FiniteJointDistribution, q: FiniteJointDistribution):
    """Masses of p and q over the union support, in a canonical point order."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    pk = {tuple(pt.tolist()): m for pt, m in zip(p.support, p.masses)}
    qk = {tuple(pt.tolist()): m for pt, m in zip(q.support, q.masses)}
    keys = sorted(set(pk) | set(qk))
    pw = np.array([pk.get(k, 0.0) for k in keys])
    qw = np.array([qk.get(k, 0.0) for k in keys])
    return np.array(keys, dtype=np.float64), pw, qw


def tv_exact(p: FiniteJointDistribution, q: FiniteJointDistribution) -> float:
    """Total variation distance: half the L1 distance between the pmfs."""
    _, pw, qw = _align(p, q)
    return float(0.5 * np.abs(pw - qw).sum())


def tv_dual_exhaustive(p: FiniteJointDistribution, q: FiniteJointDistribution) -> float:
    """sup over all events E of |P(E) - Q(E)|, by enumerating every event.

    Exponential in the union support size; guarded to 20 points. Exists as an
    independent oracle for the half-sum form, not for production use.
    """
    pts, pw, qw = _align(p, q)
    k = len(pts)
    if k > 20:
        raise ValueError(f"support of size {k} is too large to enumerate events")
    membership = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
    gaps = membership @ (pw - qw)
    return float(np.abs(gaps).max())


def corr_exact(p: FiniteJointDistribution) -> CorrelationMatrix:
    """Correlation matrix from exact moments (no sampling)."""
    var = p.variances()
    bad = np.nonzero(var < DELTA_MIN)[0]
    if bad.size:
        raise ValueError(
            f"coordinate(s) {bad.tolist()} have variance below {DELTA_MIN}")
    mu = p.mean()
    return correlation_from_covariance(p.second_moments() - np.outer(mu, mu), var)


@dataclass(frozen=True)
class BoundReport:
    """One verified instance of the correlation-shift bound."""

    d: int
    eps: float
    bound_a: float
    delta: float
    lhs: float
    rhs: float

    @property
    def violated(self) -> bool:
        return bool(self.lhs > self.rhs + VIOLATION_TOL)

    def to_dict(self) -> dict:
        return {"d": self.d, "eps": self.eps, "A": self.bound_a,
                "delta": self.delta, "lhs": self.lhs, "rhs": self.rhs,
                "violated": self.violated}


def verify_bound(p: FiniteJointDistribution, q: FiniteJointDistribution) -> BoundReport:
    """Check lhs = ‖C_P − C_Q‖ (induced-1) against rhs = 6dεA²(1/δ + A²/δ²)."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    variances = np.concatenate([p.variances(), q.variances()])
    if np.any(variances < DELTA_MIN):
        raise ValueError(
            f"positive-variance assumption fails: min variance {variances.min()}")
    eps = tv_exact(p, q)
    a = max(p.bound_a, q.bound_a)
    delta = float(variances.min())
    lhs = matrix_distance(corr_exact(p), corr_exact(q), "induced-1")
    rhs = 6.0 * p.dim * eps * a * a * (1.0 / delta + (a * a) / (delta * delta))
    return BoundReport(d=p.dim, eps=eps, bound_a=a, delta=delta, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class MomentDeltaReport:
    """Differences of exact moments against their TV-based ceilings.

    mean deltas vs 2εA; second-moment deltas vs 2εA²; variance deltas
    vs 6εA².
    """

    mean_deltas: np.ndarray
    mean_bound: float
    second_moment_deltas: np.ndarray
    second_moment_bound: float
    variance_deltas: np.ndarray
    variance_bound: float

    @property
    def ok(self) -> bool:
        return (np.all(self.mean_deltas <= self.mean_bound + VIOLATION_TOL)
                and np.all(self.second_moment_deltas
                           <= self.second_moment_bound + VIOLATION_TOL)
                and np.all(self.variance_deltas <= self.variance_bound + VIOLATION_TOL))


def check_moment_deltas(p: FiniteJointDistribution,
                        q: FiniteJointDistribution) -> MomentDeltaReport:
    eps = tv_exact(p, q)
    a = max(p.bound_a, q.bound_a)
    mean_deltas = np.abs(p.mean() - q.mean())
    second_deltas = np.abs(p.second_moments() - q.second_moments())
    var_deltas = np.abs(p.variances() - q.variances())
    return MomentDeltaReport(
        mean_deltas=mean_deltas, mean_bound=2.0 * eps * a,
        second_moment_deltas=second_deltas, second_moment_bound=2.0 * eps * a * a,
        variance_deltas=var_deltas, variance_bound=6.0 * eps * a * a)


def random_distribution_pair(rng: np.random.Generator, max_dim: int = 4,
                             max_support: int = 16, eps_budget: float = 0.1,
                             var_floor: float = 1e-3):
    """A random base pmf and a small-mass-transfer perturbation of it.

    The pair shares one support; total transferred mass is at most
    eps_budget, so TV(P, Q) ≤ eps_budget. Rejection-samples until both
    distributions keep every coordinate variance above var_floor.
    """
    for _ in range(1000):
        m = int(rng.integers(1, max_dim + 1))
        k = int(rng.integers(max(3, m + 1), max_support + 1))
        scale = rng.uniform(0.5, 2.0)
        support = rng.uniform(-scale, scale, size=(k, m))
        pw = rng.dirichlet(np.ones(k))
        qw = pw.copy()
        budget = eps_budget
        for _ in range(int(rng.integers(1, 6))):
            i, j = rng.integers(0, k, size=2)
            if i == j:
                continue
            amount = min(rng.uniform(0.0, budget), qw[i])
            qw[i] -= amount
            qw[j] += amount
            budget -= amount
        try:
            p = FiniteJointDistribution(support, pw)
            q = FiniteJointDistribution(support, qw)
        except ValueError:
            continue
        if (p.variances().min() >= var_floor and q.variances().min() >= var_floor):
            return p, q
    raise RuntimeError("could not generate a valid distribution pair")
