"""Standard-normal numerics and the Gaussian belief-state type.

Everything downstream (chance constraints, Kalman filtering, cone
membership) goes through the functions in this module, so tolerances
are pinned here: covariance symmetry 1e-9 absolute, eigenvalues allowed
down to -1e-9, CDF/quantile round-trip 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-9
EIGENVALUE_TOL = -1e-9
_MAKE_SYMMETRY_TOL = 1e-6
_SQRT2 = math.sqrt(2.0)


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
    return frozen_belief(mean, checked_cov(mean, cov))


def checked_cov(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """The checks of make_belief on one belief, or on a stack of them
    along a leading axis: finite entries, asymmetry at most 1e-6, no
    eigenvalue below -1e-9. Returns the symmetrized covariance(s)."""
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
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
    that already passed checked_cov."""
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


def _std_normal_pdf(v: float) -> float:
    return math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)


# Acklam's rational approximation for the inverse normal CDF (~1e-9
# relative accuracy), refined below with one Halley step on the CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def std_normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal for p in (0, 1)."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"std_normal_quantile requires p in (0, 1), got {p!r}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    # One Halley refinement against the CDF.
    e = std_normal_cdf(x) - p
    u = e / _std_normal_pdf(x)
    x = x - u / (1.0 + 0.5 * x * u)
    return x

