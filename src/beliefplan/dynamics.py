"""Switched linear belief systems.

Dynamics per mode:

    x_{k+1} = A x_k + B u_k + W w_k,        w_k ~ N(0, I_n)
    y_k     = C x_k + n(x_k) v_k,           v_k ~ N(0, I_p)

The measurement noise gain n is either a constant p-by-p matrix or a
scalar expression in the state multiplied by the identity. A mode with
no observation (p = 0) propagates open loop; otherwise planning uses
the maximum-likelihood-observation assumption: the future observation
equals its predicted mean, so the Kalman update has zero innovation:
the planned mean is the predicted mean, only the covariance contracts,
and belief propagation is deterministic. Tracked execution filters the
sampled observation instead: kalman_update is one filter step, predict
then update, and builds one checked belief. step_truth and
sample_observation take their normal draws w and v.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .formula import parse_noise
from .gaussian import (
    BeliefState,
    InvalidCovarianceError,
    checked_cov,
    checked_cov_2x2,
    checked_mean,
    make_belief,
)
from .geometry import Polytope, polytope_contains

_CONDITION_LIMIT = 1e12


class NoObservationError(ValueError):
    """Operation requires an observation model but p = 0."""


class IllConditionedUpdateError(RuntimeError):
    """Innovation covariance is singular beyond the conditioning guard."""


# ---------------------------------------------------------------------------
# Scalar noise expressions: numbers, x0..x{n-1}, + - *, ^INT, parentheses
# ---------------------------------------------------------------------------

class ScalarExpression:
    """Compiled scalar polynomial expression over the state vector; the
    text is parsed by formula.parse_noise, then compiled once into
    `evaluate`, which takes Python floats x with x[i] the value of
    variable i and gives a Python float."""

    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.evaluate = _compile_noise(parse_noise(text, dim))

    def __call__(self, x):
        """The value at one state (n,), a Python float."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"expression over {self.dim} variables evaluated at point of "
                f"shape {x.shape}"
            )
        return self.evaluate(x.tolist())

    def __repr__(self):
        return f"ScalarExpression({self.text!r})"


def _compile_noise(node):
    """The syntax tree of parse_noise as one closure per node (its depth
    is bounded by MAX_NESTING), on Python floats."""
    tag = node[0]
    if tag == "num":
        value = node[1]
        return lambda x: value
    if tag == "var":
        return operator.itemgetter(node[1])
    a = _compile_noise(node[1])
    if tag == "neg":
        return lambda x: -a(x)
    if tag == "^":
        k = node[2]
        return lambda x: _power(a(x), k)
    b = _compile_noise(node[2])
    if tag == "+":
        return lambda x: a(x) + b(x)
    if tag == "-":
        return lambda x: a(x) - b(x)
    return lambda x: a(x) * b(x)


def _power(v: float, k: int) -> float:
    """v ** k for an exponent k >= 0, or the infinity of v ** k's sign
    where float ** int raises OverflowError instead of returning it."""
    try:
        return v ** k
    except OverflowError:
        return math.copysign(math.inf, v) if k % 2 else math.inf


# ---------------------------------------------------------------------------
# System modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemMode:
    """One location of the switched system.

    noise is a constant p-by-p matrix, a ScalarExpression (times the
    identity), or None when there is no observation. Construction
    compiles closed_form: for n = p = 2, the float tuples (A, B, W W^T,
    C, R) of the filter step on Python floats, row-major, B as its n rows
    of m floats each, R None for a ScalarExpression, else None.
    """

    A: np.ndarray
    B: np.ndarray
    W: np.ndarray
    C: np.ndarray | None = None
    noise: object = None
    closed_form: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if W.shape != (n, n):
            raise ValueError(f"W must be {n}x{n}, got {W.shape}")
        C = self.C
        noise = self.noise
        if C is not None:
            C = np.atleast_2d(np.asarray(C, dtype=float))
            if C.shape[1] != n:
                raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
            if noise is None:
                raise ValueError("an observed mode (C given) needs a noise model")
            if isinstance(noise, str):
                noise = ScalarExpression(noise, n)
            elif not isinstance(noise, ScalarExpression):
                noise = np.atleast_2d(np.asarray(noise, dtype=float))
                p = C.shape[0]
                if noise.shape != (p, p):
                    raise ValueError(
                        f"constant noise matrix must be {p}x{p}, got {noise.shape}"
                    )
        elif noise is not None:
            raise ValueError("noise model given without an observation matrix C")
        for name, arr in (("A", A), ("B", B), ("W", W)):
            arr.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "noise", noise)
        closed = None
        if n == 2 and C is not None and C.shape[0] == 2:
            w0, w1, w2, w3 = W.ravel().tolist()
            WW = (w0 * w0 + w1 * w1, w0 * w2 + w1 * w3, w2 * w0 + w3 * w1, w2 * w2 + w3 * w3)
            R = None if isinstance(noise, ScalarExpression) else tuple(noise_cov(self, None).ravel().tolist())
            closed = (tuple(A.ravel().tolist()), tuple(map(tuple, B.tolist())), WW, tuple(C.ravel().tolist()), R)
        object.__setattr__(self, "closed_form", closed)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def control_dim(self) -> int:
        return self.B.shape[1]

    @property
    def obs_dim(self) -> int:
        return 0 if self.C is None else self.C.shape[0]

    @property
    def kind(self) -> str:
        """lbs (no observation), polbs_linear (constant noise), or
        polbs_nonlinear (state-dependent noise)."""
        if self.C is None:
            return "lbs"
        if isinstance(self.noise, ScalarExpression):
            return "polbs_nonlinear"
        return "polbs_linear"


@dataclass(frozen=True)
class SwitchedSystem:
    """Finite set of modes sharing dimensions, plus the control polytope."""

    modes: tuple
    control_domain: Polytope

    def __post_init__(self):
        modes = tuple(self.modes)
        if not modes:
            raise ValueError("a switched system needs at least one mode")
        n, m = modes[0].state_dim, modes[0].control_dim
        for i, mode in enumerate(modes):
            if mode.state_dim != n or mode.control_dim != m:
                raise ValueError(f"mode {i} has inconsistent dimensions")
        if self.control_domain.dim != m:
            raise ValueError(
                f"control domain dimension {self.control_domain.dim} != {m}"
            )
        if not polytope_contains(self.control_domain, np.zeros(m)):
            raise ValueError("control domain must contain 0, the control of a goal dwell")
        object.__setattr__(self, "modes", modes)

    @property
    def state_dim(self) -> int:
        return self.modes[0].state_dim

    @property
    def control_dim(self) -> int:
        return self.modes[0].control_dim


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def noise_cov(mode: SystemMode, x) -> np.ndarray:
    """Measurement covariance R(x) = n(x) n(x)^T at one state x (n,). A
    gain that overflows gives a non-finite R without a numpy warning;
    the condition test of the update then rejects it."""
    p = mode.obs_dim
    if p == 0:
        raise NoObservationError("mode has no observation (p = 0)")
    if isinstance(mode.noise, ScalarExpression):  # on Python floats, which warn on nothing
        return np.array(_scalar_noise_cov(mode.noise(x), p)).reshape(p, p)
    with np.errstate(over="ignore", invalid="ignore"):
        return mode.noise @ mode.noise.T


def _scalar_noise_cov(gain: float, p: int) -> list:
    """The row-major entries of R = gain^2 I_p at one state, on Python
    floats with the bits of numpy's gain^2 * I_p: gain^2 * 0.0 off the
    diagonal, so NaN there for an infinite gain."""
    g2 = gain * gain
    return [g2] + ([g2 * 0.0] * p + [g2]) * (p - 1)  # I_p: a one, then p zeros and a one


def _mv(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x for one vector or each row of a stack; per row this is the
    same BLAS call as M @ x, so the results agree bit for bit."""
    return M @ x if x.ndim == 1 else (M @ x[..., None])[..., 0]


def _predict_cov(mode: SystemMode, cov):
    return mode.A @ cov @ mode.A.T + mode.W @ mode.W.T


def _update(mode: SystemMode, cov, R):
    """Kalman gain and unchecked Joseph-form covariance of one
    covariance, after the condition test on the symmetrized innovation
    matrix."""
    C = mode.C
    S = C @ cov @ C.T + R
    S = 0.5 * (S + S.T)
    if not np.isfinite(S).all():  # eigvalsh needs finite entries
        raise _condition_error(False)
    mags = sorted(map(abs, np.linalg.eigvalsh(S).tolist()))
    if _ill_conditioned(mags[0], mags[-1]):
        raise _condition_error(True)
    K = np.linalg.solve(S, C @ cov).T
    IKC = np.eye(mode.state_dim) - K @ C
    return K, IKC @ cov @ IKC.T + K @ R @ K.T


def _ill_conditioned(small: float, large: float) -> bool:
    """Whether the smallest and largest eigenvalue magnitudes of a
    symmetric matrix give a condition number large / small above the
    limit (infinite where small = 0), or one is not finite, as a
    non-finite entry makes one of them."""
    return not (math.isfinite(large) and 0.0 < small and large <= _CONDITION_LIMIT * small)


def _condition_error(finite) -> IllConditionedUpdateError:
    """The error of an innovation matrix that fails the condition test:
    its non-finite entries, or else its condition number."""
    if not finite:
        return IllConditionedUpdateError("non-finite entries in innovation covariance")
    return IllConditionedUpdateError(
        f"innovation covariance condition number exceeds {_CONDITION_LIMIT:g}"
    )


# The covariance step of a mode with n = p = 2 (every shipped problem),
# one body for the filter and the MLO step, on Python floats: a 2-by-2
# matrix as the tuple of its row-major entries. numpy's 2-by-2 matmul
# goes through BLAS, which may fuse a multiply and an add, so these
# products can differ from the array path's in the last bit.

def _predict_cov_2x2(mode: SystemMode, P) -> tuple:
    """A P A^T + W W^T: the entries of the product M = A P, then
    M A^T + W W^T."""
    (a0, a1, a2, a3), _, (w0, w1, w2, w3), _, _ = mode.closed_form
    p0, p1, p2, p3 = P
    m0, m1, m2, m3 = a0 * p0 + a1 * p2, a0 * p1 + a1 * p3, a2 * p0 + a3 * p2, a2 * p1 + a3 * p3
    return (m0 * a0 + m1 * a1 + w0, m0 * a2 + m1 * a3 + w1, m2 * a0 + m3 * a1 + w2, m2 * a2 + m3 * a3 + w3)


def _update_2x2(mode: SystemMode, P, mean):
    """_update on Python floats for one prior P, with a state-dependent
    R read at `mean`: S, the condition test, then the gain K and the
    Joseph-form covariance, returned as row-major 4-tuples. The gain
    solves against S scaled by its largest entry, so no determinant
    under- or overflows where np.linalg.solve would not."""
    _, _, _, (c0, c1, c2, c3), R = mode.closed_form
    if R is None:
        R = _scalar_noise_cov(mode.noise.evaluate(mean), 2)
    p0, p1, p2, p3 = P
    r0, r1, r2, r3 = R
    q0, q1, q2, q3 = c0 * p0 + c1 * p2, c0 * p1 + c1 * p3, c2 * p0 + c3 * p2, c2 * p1 + c3 * p3  # C P
    s0, s1 = q0 * c0 + q1 * c1 + r0, q0 * c2 + q1 * c3 + r1
    s2, s3 = q2 * c0 + q3 * c1 + r2, q2 * c2 + q3 * c3 + r3
    s00, s01, s11 = 0.5 * (s0 + s0), 0.5 * (s1 + s2), 0.5 * (s3 + s3)
    # S's eigenvalues are (s00 + s11)/2 -+ hypot((s00 - s11)/2, s01), so their
    # magnitudes are |mid - radius| and mid + radius with mid = |s00 + s11|/2
    mid, radius = abs((s00 + s11) / 2), math.hypot((s00 - s11) / 2, s01)
    if _ill_conditioned(abs(mid - radius), mid + radius):
        raise _condition_error(all(map(math.isfinite, (s00, s01, s11))))
    scale = max(abs(s00), abs(s01), abs(s11))
    e00, e01, e11 = s00 / scale, s01 / scale, s11 / scale
    det, e10 = e00 * e11 - e01 * e01, -e01
    # K = (S^-1 C P)^T, from adj(S / scale) C P
    k0, k2 = (e11 * q0 + e10 * q2) / scale / det, (e11 * q1 + e10 * q3) / scale / det
    k1, k3 = (e10 * q0 + e00 * q2) / scale / det, (e10 * q1 + e00 * q3) / scale / det
    i0, i1 = 1.0 - (k0 * c0 + k1 * c2), -(k0 * c1 + k1 * c3)  # I - K C
    i2, i3 = -(k2 * c0 + k3 * c2), 1.0 - (k2 * c1 + k3 * c3)
    m0, m1, m2, m3 = i0 * p0 + i1 * p2, i0 * p1 + i1 * p3, i2 * p0 + i3 * p2, i2 * p1 + i3 * p3
    n0, n1, n2, n3 = k0 * r0 + k1 * r2, k0 * r1 + k1 * r3, k2 * r0 + k3 * r2, k2 * r1 + k3 * r3
    return (k0, k1, k2, k3), (  # (I - K C) P (I - K C)^T + K R K^T
        m0 * i0 + m1 * i1 + (n0 * k0 + n1 * k1), m0 * i2 + m1 * i3 + (n0 * k2 + n1 * k3),
        m2 * i0 + m3 * i1 + (n2 * k0 + n3 * k1), m2 * i2 + m3 * i3 + (n2 * k2 + n3 * k3))


def _floats(v) -> list:
    """np.asarray(v, dtype=float).reshape(-1).tolist(), with no array for a flat list or tuple."""
    if isinstance(v, (list, tuple)):
        try:
            return [*map(float, v)]
        except TypeError:  # nested sequences
            pass
    return np.asarray(v, dtype=float).reshape(-1).tolist()


def _predicted_mean(mode: SystemMode, b: BeliefState, u) -> np.ndarray:
    """predict_means of one belief and control, after checking their
    dimensions against the mode."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != mode.control_dim:
        raise ValueError(
            f"control dimension {u.shape[0]} != {mode.control_dim}"
        )
    if b.dim != mode.state_dim:
        raise ValueError(f"belief dimension {b.dim} != {mode.state_dim}")
    return predict_means(mode, b.mean, u)


def predict(mode: SystemMode, b: BeliefState, u) -> BeliefState:
    """Open-loop prediction: mean' = A mean + B u, cov' = A cov A^T + W W^T."""
    return make_belief(_predicted_mean(mode, b, u), _predict_cov(mode, b.cov))


def kalman_update(mode: SystemMode, b: BeliefState, u, y) -> BeliefState:
    """The filter step of an observed mode: predict with the control u,
    then update with the observation y, R read at the predicted mean
    (EKF-style linearization point); Joseph-form covariance. The
    predicted belief gets make_belief's checks (its mean finite, its
    covariance checked_cov's) but is not built; one checked belief is
    returned. For n = p = 2 it runs on Python floats, from u and y to the posterior."""
    if mode.obs_dim == 0:
        raise NoObservationError("mode has no observation (p = 0)")
    y = _floats(y)
    if len(y) != mode.obs_dim:
        raise ValueError(f"observation dimension {len(y)} != {mode.obs_dim}")
    if not mode.closed_form:
        mean = _predicted_mean(mode, b, u)
        K, cov = _update(mode, checked_cov(_predict_cov(mode, b.cov)), noise_cov(mode, mean))
        return make_belief(mean + K @ (y - mode.C @ mean), cov)
    u = _floats(u)
    if len(u) != mode.control_dim:
        raise ValueError(f"control dimension {len(u)} != {mode.control_dim}")
    if b.dim != 2:
        raise ValueError(f"belief dimension {b.dim} != 2")
    (a0, a1, a2, a3), (B0, B1), _, (c0, c1, c2, c3), _ = mode.closed_form
    x0, x1 = b.mean.tolist()
    b0, b1 = sum(map(operator.mul, B0, u)), sum(map(operator.mul, B1, u))
    m0, m1 = a0 * x0 + a1 * x1 + b0, a2 * x0 + a3 * x1 + b1  # predict_means on floats
    if not (math.isfinite(m0) and math.isfinite(m1)):
        raise InvalidCovarianceError("non-finite entries in belief state")
    prior = checked_cov_2x2(_predict_cov_2x2(mode, b.cov.ravel().tolist()))
    (k0, k1, k2, k3), (p0, p1, p2, p3) = _update_2x2(mode, prior, (m0, m1))
    v0, v1 = y[0] - (c0 * m0 + c1 * m1), y[1] - (c2 * m0 + c3 * m1)
    return make_belief((m0 + (k0 * v0 + k1 * v1), m1 + (k2 * v0 + k3 * v1)), ((p0, p1), (p2, p3)))


def propagate_mlo(mode: SystemMode, b: BeliefState, u) -> BeliefState:
    """Predict, then update assuming the maximum-likelihood observation
    y* = C mean' (zero innovation): the mean is the predicted mean and
    only the covariance contracts, as mlo_covariance computes it."""
    mean = _predicted_mean(mode, b, u)
    return make_belief(mean, mlo_covariance(mode, b.cov, mean))


def predict_means(mode: SystemMode, means, us):
    """The predicted mean A m + B u of one belief, or of each row of a
    (k, n) stack with one control per row, with make_belief's finite
    check."""
    return checked_mean(_mv(mode.A, means) + _mv(mode.B, us))


def mlo_covariance(mode: SystemMode, cov, mean=None):
    """The (n, n) covariance of one MLO step from `cov`, whose mean is
    predict_means' predicted mean `mean`: the predicted covariance,
    checked; for an observed mode then the condition test, the Kalman
    gain under R(mean) and the Joseph-form covariance, checked. For
    n = p = 2 it runs on Python floats.

    Only state-dependent noise reads the mean; otherwise the result
    uses neither the control nor the mean, so it is the same for every
    belief that starts from the same covariance."""
    if not mode.closed_form:
        cov = checked_cov(_predict_cov(mode, cov))
        return cov if mode.obs_dim == 0 else checked_cov(_update(mode, cov, noise_cov(mode, mean))[1])
    prior = checked_cov_2x2(_predict_cov_2x2(mode, cov.ravel().tolist()))
    _, cov = _update_2x2(mode, prior, None if mean is None else mean.tolist())
    return np.array(checked_cov_2x2(cov)).reshape(2, 2)


def sample_observation(mode: SystemMode, x_true, v) -> np.ndarray:
    """The observation y = C x + n(x) v for the measurement-noise draw
    v ~ N(0, I_p); a scalar gain multiplies v directly, with the bits of
    n(x) I_p v for a finite gain."""
    if mode.obs_dim == 0:
        raise NoObservationError("mode has no observation (p = 0)")
    x_true = np.asarray(x_true, dtype=float).reshape(-1)
    if isinstance(mode.noise, ScalarExpression):
        return mode.C @ x_true + mode.noise(x_true) * v
    return mode.C @ x_true + mode.noise @ v


def step_truth(mode: SystemMode, x_true, u, w) -> np.ndarray:
    """The next ground-truth state A x + B u + W w for the process-noise
    draw w ~ N(0, I_n)."""
    x_true = np.asarray(x_true, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if x_true.shape[0] != mode.state_dim or u.shape[0] != mode.control_dim:
        raise ValueError("dimension mismatch in step_truth")
    return mode.A @ x_true + mode.B @ u + mode.W @ w
