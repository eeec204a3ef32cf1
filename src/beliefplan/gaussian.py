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
_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class InvalidCovarianceError(ValueError):
    """Covariance matrix is asymmetric or not positive semidefinite."""


@dataclass(frozen=True)
class BeliefState:
    """Gaussian state estimate: mean vector and covariance matrix.

    Construct through :func:`make_belief`, the one constructor that
    checks: it copies the mean, symmetrizes and validates the covariance
    and flags both arrays read-only. The package's one other instance
    is the trace monitor's stack of checked beliefs, mean (T, n) and cov
    (T, n, n), for cone_contains.
    """

    mean: np.ndarray
    cov: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


def make_belief(mean, cov) -> BeliefState:
    """Build a validated belief state over read-only copies of a mean
    and a covariance, given as arrays or as nested lists or tuples.

    The covariance is symmetrized as (S + S^T)/2 before validation.
    Raises InvalidCovarianceError for a non-finite entry, asymmetry
    beyond 1e-6 or an eigenvalue below -1e-9.
    """
    mean = np.array(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    n = mean.shape[0]
    if cov.shape != (n, n):
        raise InvalidCovarianceError(
            f"covariance shape {cov.shape} does not match mean dimension {n}"
        )
    mean, sym = checked_mean(mean), checked_cov(cov)  # checked_cov builds a fresh covariance
    mean.setflags(write=False)
    sym.setflags(write=False)
    return BeliefState(mean, sym)


def checked_mean(mean: np.ndarray) -> np.ndarray:
    """The mean check of make_belief on one mean, or on a stack of them:
    finite entries, on Python floats for one mean. Returns the mean."""
    if not (all(map(math.isfinite, mean.tolist())) if mean.ndim == 1 else np.isfinite(mean).all()):
        raise InvalidCovarianceError("non-finite entries in belief state")
    return mean


def checked_cov(cov: np.ndarray) -> np.ndarray:
    """The covariance checks of make_belief on one n-by-n covariance, in
    this order: finite entries, before and after the symmetrization (an
    entry above about 9e307 overflows it), asymmetry at most 1e-6, no
    eigenvalue below -1e-9. Returns the symmetrized covariance."""
    if cov.shape[-1] == 2:
        return np.array(checked_cov_2x2(cov.ravel().tolist())).reshape(2, 2)
    finite = np.isfinite(cov).all()  # first, as numpy warns on inf - inf
    if finite:
        with np.errstate(over="ignore"):  # an overflow fails a check below
            sym = 0.5 * (cov + cov.T)
            asym = np.abs(cov - cov.T).max(initial=0.0)
        finite = np.isfinite(sym).all()
    if not finite:
        raise InvalidCovarianceError("non-finite entries in belief state")
    _check_limits(asym, min(symmetric_eigenvalues(sym), default=0.0))
    return sym


def _check_limits(asym: float, smallest: float) -> None:
    """The asymmetry check, then the eigenvalue check."""
    if asym > _MAKE_SYMMETRY_TOL:
        raise InvalidCovarianceError(f"covariance asymmetry {asym:g} exceeds 1e-6")
    if smallest < EIGENVALUE_TOL:
        raise InvalidCovarianceError(f"covariance has negative eigenvalue {smallest:g}")


def checked_cov_2x2(P) -> tuple:
    """checked_cov on one 2-by-2 covariance given by its row-major
    entries, Python floats, with numpy's rounding (so the same bits and
    verdicts): returns the symmetrized entries."""
    a, b, c, d = P
    asym = abs(b - c)
    a, b, d = 0.5 * (a + a), 0.5 * (b + c), 0.5 * (d + d)
    # a non-finite entry makes a non-finite symmetrized one
    if not all(map(math.isfinite, (a, b, d))):
        raise InvalidCovarianceError("non-finite entries in belief state")
    _check_limits(asym, (a + d) / 2 - math.hypot((a - d) / 2, b))  # eigenvalues_2x2(a, b, d)[0]
    return a, b, b, d


def symmetric_eigenvalues(sym: np.ndarray) -> list:
    """The eigenvalues of one symmetric n-by-n matrix, ascending, as a
    list of Python floats. At n = 2 in closed form (eigenvalues_2x2);
    otherwise by eigvalsh, on finite entries only."""
    if sym.shape[-1] != 2:
        return np.linalg.eigvalsh(sym).tolist()
    a, b, _, d = sym.ravel().tolist()
    return eigenvalues_2x2(a, b, d)


def eigenvalues_2x2(a: float, b: float, d: float) -> list:
    """The eigenvalues of the symmetric [[a, b], [b, d]], ascending:
    (a+d)/2 -/+ hypot((a-d)/2, b). They may differ from LAPACK's by a
    rounding of about 1e-16 times the matrix norm, and a non-finite
    entry gives a non-finite eigenvalue."""
    mid, radius = (a + d) / 2, math.hypot((a - d) / 2, b)
    return [mid - radius, mid + radius]


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
