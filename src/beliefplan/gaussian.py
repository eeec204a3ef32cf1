"""The standard-normal quantile and the Gaussian belief-state type.

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
    beyond 1e-6 or an eigenvalue below -1e-9. A 2-by-2 covariance is
    read once into Python floats, for checked_cov_2x2.
    """
    mean = np.array(mean, dtype=float).ravel()
    n, entries = mean.shape[0], None
    if n == 2:
        try:  # numpy reads, and names the shape of, anything but two rows of two
            (a, b), (c, d) = cov.tolist() if isinstance(cov, np.ndarray) else cov
            entries = [float(a), float(b), float(c), float(d)]
        except (TypeError, ValueError):
            pass
    if entries is None:
        cov = np.asarray(cov, dtype=float)
        if cov.shape != (n, n):
            raise InvalidCovarianceError(f"covariance shape {cov.shape} does not match mean dimension {n}")
    checked_mean(mean)
    sym = checked_cov(cov) if entries is None else np.array(checked_cov_2x2(entries)).reshape(2, 2)
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
    _check_limits(asym, min(np.linalg.eigvalsh(sym).tolist(), default=0.0))
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
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(d)):
        raise InvalidCovarianceError("non-finite entries in belief state")
    _check_limits(asym, (a + d) / 2 - math.hypot((a - d) / 2, b))  # the lesser eigenvalue, in closed form
    return a, b, b, d


def uncertainty_measure(b: BeliefState) -> float:
    """Scalar uncertainty order: trace of the covariance."""
    return float(np.trace(b.cov))


def std_normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal for p in (0, 1)."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"std_normal_quantile requires p in (0, 1), got {p!r}")
    return _STD_NORMAL.inv_cdf(p)
