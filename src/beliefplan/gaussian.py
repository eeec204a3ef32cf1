"""Standard-normal numerics and the Gaussian belief-state type.

Everything downstream (chance constraints, Kalman filtering, cone
membership) goes through the functions in this module, so tolerances
are pinned here: covariance symmetry 1e-9 absolute, eigenvalues allowed
down to -1e-9, CDF/quantile round-trip 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

SYMMETRY_TOL = 1e-9
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

    Construct through :func:`make_belief`, which symmetrizes and
    validates the covariance. Instances are immutable; the underlying
    arrays are flagged read-only.
    """

    mean: np.ndarray
    cov: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def make_belief(mean, cov) -> BeliefState:
    """Build a validated belief state.

    The covariance is symmetrized as (S + S^T)/2 before validation.
    Raises InvalidCovarianceError for asymmetry beyond 1e-6 or an
    eigenvalue below -1e-9.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    n = mean.shape[0]
    if cov.shape != (n, n):
        raise InvalidCovarianceError(
            f"covariance shape {cov.shape} does not match mean dimension {n}"
        )
    return frozen_belief(checked_mean(mean), checked_cov(cov))


def checked_mean(mean: np.ndarray) -> np.ndarray:
    """The mean check of make_belief on one mean, or on a stack of them:
    finite entries. Returns the mean."""
    if not np.isfinite(mean).all():
        raise InvalidCovarianceError("non-finite entries in belief state")
    return mean


def checked_cov(cov: np.ndarray) -> np.ndarray:
    """The covariance checks of make_belief on one covariance, or on a
    stack of them along a leading axis: finite entries, asymmetry at
    most 1e-6, no eigenvalue below -1e-9. Returns the symmetrized
    covariance(s)."""
    if not np.isfinite(cov).all():
        raise InvalidCovarianceError("non-finite entries in belief state")
    asym = np.abs(cov - cov.mT).max() if cov.size else 0.0
    if asym > _MAKE_SYMMETRY_TOL:
        raise InvalidCovarianceError(f"covariance asymmetry {asym:g} exceeds 1e-6")
    sym = 0.5 * (cov + cov.mT)
    eigs = np.linalg.eigvalsh(sym)
    if eigs.size and eigs[..., 0].min() < EIGENVALUE_TOL:
        raise InvalidCovarianceError(
            f"covariance has negative eigenvalue {eigs[..., 0].min():g}"
        )
    return sym


def frozen_belief(mean: np.ndarray, sym: np.ndarray) -> BeliefState:
    """Belief state over read-only copies of a mean and a covariance
    that already passed checked_mean and checked_cov."""
    mean = mean.copy()
    sym = sym.copy()
    mean.flags.writeable = False
    sym.flags.writeable = False
    return BeliefState(mean=mean, cov=sym)


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
