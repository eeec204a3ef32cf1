"""Standard-normal numerics and the Gaussian belief-state type.

Everything downstream (chance constraints, Kalman filtering, cone
membership) goes through the functions in this module, so tolerances
are pinned here: covariance asymmetry up to 1e-6 absolute, eigenvalues
allowed down to -1e-9, CDF/quantile round-trip 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

EIGENVALUE_TOL = -1e-9
_MAKE_SYMMETRY_TOL = 1e-6
_SEQUENCES = (list, tuple)
_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class InvalidCovarianceError(ValueError):
    """Covariance matrix is asymmetric or not positive semidefinite."""


@dataclass(frozen=True)
class BeliefState:
    """Gaussian state estimate: mean vector and covariance matrix.

    Construct through :func:`make_belief`, which symmetrizes and
    validates the covariance. Instances are immutable; the underlying
    arrays are flagged read-only. The trace monitor also stacks checked
    beliefs into one, mean (T, n) and cov (T, n, n), for cone_contains.
    """

    mean: np.ndarray
    cov: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


def make_belief(mean, cov) -> BeliefState:
    """Build a validated belief state.

    The covariance is symmetrized as (S + S^T)/2 before validation.
    Raises InvalidCovarianceError for asymmetry beyond 1e-6 or an
    eigenvalue below -1e-9.

    A mean given as a list or tuple of n <= 2 floats, with the
    covariance as n such rows (as the closed-form filter step gives
    them), goes through the same checks on its Python floats, without a
    round trip through numpy, and gives the same bits.
    """
    flat = _small_entries(mean, cov)
    if flat is not None:
        n = len(mean)
        return _read_only_belief(
            checked_mean(np.array(mean)), np.array(_checked_small(flat, n)).reshape(n, n)
        )
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    n = mean.shape[0]
    if cov.shape != (n, n):
        raise InvalidCovarianceError(
            f"covariance shape {cov.shape} does not match mean dimension {n}"
        )
    # checked_cov builds a fresh covariance
    return _read_only_belief(checked_mean(mean).copy(), checked_cov(cov))


def _small_entries(mean, cov):
    """The row-major entries of cov, when mean is a list or tuple of
    1 <= n <= 2 Python floats and cov n lists or tuples of n Python
    floats; None for any other input."""
    if type(mean) not in _SEQUENCES or type(cov) not in _SEQUENCES:
        return None
    n = len(mean)
    if not 0 < n == len(cov) <= 2:
        return None
    flat = []
    for row in cov:
        if type(row) not in _SEQUENCES or len(row) != n:
            return None
        flat += row
    for v in (*mean, *flat):
        if type(v) is not float:
            return None
    return flat


def checked_mean(mean: np.ndarray) -> np.ndarray:
    """The mean check of make_belief on one mean, or on a stack of them:
    finite entries, on Python floats for one mean. Returns the mean."""
    if not (all(map(math.isfinite, mean.tolist())) if mean.ndim == 1 else np.isfinite(mean).all()):
        raise InvalidCovarianceError("non-finite entries in belief state")
    return mean


def checked_cov(cov: np.ndarray) -> np.ndarray:
    """The covariance checks of make_belief on one covariance, or on a
    stack of them along a leading axis: finite entries, before and after
    the symmetrization (an entry above about 9e307 overflows it),
    asymmetry at most 1e-6, no eigenvalue below -1e-9, each over the
    whole stack in that order. Returns the symmetrized covariance(s)."""
    n = cov.shape[-1]
    if n <= 2:  # on Python floats, as symmetric_eigenvalues works at this size
        return np.array(_checked_small(cov.ravel().tolist(), n)).reshape(cov.shape)
    finite = np.isfinite(cov).all()  # first, as numpy warns on inf - inf
    if finite:
        sym = 0.5 * (cov + cov.mT)
        finite = np.isfinite(sym).all()
    if not finite:
        raise InvalidCovarianceError("non-finite entries in belief state")
    asym = np.abs(cov - cov.mT).max() if cov.size else 0.0
    smallest = min((eigs[0] for eigs in symmetric_eigenvalues(sym)), default=0.0)
    _check_limits(asym, smallest)
    return sym


def _checked_small(flat: list, n: int) -> list:
    """checked_cov's checks on the row-major entries of a stack of
    n-by-n matrices, n <= 2, as Python floats. Returns the symmetrized
    entries."""
    # a non-finite entry makes a non-finite symmetrized one
    sym, asym, smallest = _symmetrized_small(flat, n)
    if not all(map(math.isfinite, sym)):
        raise InvalidCovarianceError("non-finite entries in belief state")
    _check_limits(asym, smallest)
    return sym


def _check_limits(asym: float, smallest: float) -> None:
    """The asymmetry check, then the eigenvalue check."""
    if asym > _MAKE_SYMMETRY_TOL:
        raise InvalidCovarianceError(f"covariance asymmetry {asym:g} exceeds 1e-6")
    if smallest < EIGENVALUE_TOL:
        raise InvalidCovarianceError(f"covariance has negative eigenvalue {smallest:g}")


def _symmetrized_small(flat: list, n: int):
    """The symmetrized entries 0.5 (S + S^T) of a stack of n-by-n
    matrices, n <= 2, from their row-major entries, with numpy's
    rounding (so the same bits), the largest |S - S^T| and the smallest
    eigenvalue, as Python floats."""
    if n < 2:
        sym = [0.5 * (a + a) for a in flat]
        return sym, 0.0, min(sym, default=0.0)
    sym, asym, smallest = [], 0.0, math.inf
    for i in range(0, len(flat), 4):
        a, b, c, d = flat[i:i + 4]
        if abs(b - c) > asym:
            asym = abs(b - c)
        a, b, d = 0.5 * (a + a), 0.5 * (b + c), 0.5 * (d + d)
        sym += (a, b, b, d)
        low = eigenvalues_2x2(a, b, d)[0]
        if low < smallest:
            smallest = low
    return sym, asym, smallest if sym else 0.0


def symmetric_eigenvalues(sym: np.ndarray) -> list:
    """The eigenvalues of each matrix of a symmetric (..., n, n) stack,
    ascending, as one list of Python floats per matrix in stack order.
    Up to n = 2 in closed form (eigenvalues_2x2). Beyond n = 2 one
    eigvalsh call, on finite entries only."""
    n = sym.shape[-1]
    if n > 2:
        return np.linalg.eigvalsh(sym).reshape(-1, n).tolist()
    if n < 2:
        return [[a] for a in sym.ravel().tolist()]
    return [eigenvalues_2x2(a, b, d) for a, b, _, d in sym.reshape(-1, 4).tolist()]


def eigenvalues_2x2(a: float, b: float, d: float) -> list:
    """The eigenvalues of the symmetric [[a, b], [b, d]], ascending:
    (a+d)/2 -/+ hypot((a-d)/2, b). They may differ from LAPACK's by a
    rounding of about 1e-16 times the matrix norm, and a non-finite
    entry gives a non-finite eigenvalue."""
    mid, radius = (a + d) / 2, math.hypot((a - d) / 2, b)
    return [mid - radius, mid + radius]


def frozen_belief(mean: np.ndarray, sym: np.ndarray) -> BeliefState:
    """Belief state over read-only copies of a mean and a covariance
    that already passed checked_mean and checked_cov."""
    return _read_only_belief(mean.copy(), sym.copy())


def _read_only_belief(mean: np.ndarray, sym: np.ndarray) -> BeliefState:
    """Belief state over a checked mean and covariance that no one else
    holds, flagged read-only in place."""
    mean.setflags(write=False)
    sym.setflags(write=False)
    return BeliefState(mean, sym)


def uncertainty_measure(b: BeliefState) -> float:
    """Scalar uncertainty order: trace of the covariance."""
    return float(np.trace(b.cov))


def std_normal_cdf(v: float) -> float:
    """CDF of the standard normal, evaluated through erfc to keep
    precision in both tails."""
    if not math.isfinite(v):
        raise DomainError(f"std_normal_cdf requires finite input, got {v!r}")
    if v < 0.0:
        return 0.5 * math.erfc(-v / _SQRT2)
    return 1.0 - 0.5 * math.erfc(v / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal for p in (0, 1)."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"std_normal_quantile requires p in (0, 1), got {p!r}")
    return _STD_NORMAL.inv_cdf(p)
