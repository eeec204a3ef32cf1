"""Switched linear belief systems.

Dynamics per mode:

    x_{k+1} = A x_k + B u_k + W w_k,        w_k ~ N(0, I_n)
    y_k     = C x_k + n(x_k) v_k,           v_k ~ N(0, I_p)

The measurement noise gain n is either a constant p-by-p matrix or a
scalar expression in the state multiplied by the identity. A mode with
no observation (p = 0) propagates open loop; otherwise planning uses
the maximum-likelihood-observation assumption: the future observation
equals its predicted mean, so the Kalman update has zero innovation and
belief propagation is deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .gaussian import BeliefState, checked_cov, checked_mean, make_belief
from .geometry import Polytope, polytope_contains

_CONDITION_LIMIT = 1e12


class NoObservationError(ValueError):
    """Operation requires an observation model but p = 0."""


class IllConditionedUpdateError(RuntimeError):
    """Innovation covariance is singular beyond the conditioning guard."""


# ---------------------------------------------------------------------------
# Scalar noise expressions: numbers, x0..x{n-1}, + - *, ^INT, parentheses
# ---------------------------------------------------------------------------

_NOISE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*|\.\d+|\d+)|(?P<var>x\d+)|(?P<op>[()+\-*^]))"
)


class ScalarExpression:
    """Compiled scalar polynomial expression over the state vector."""

    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self._ast = _parse_noise(text, dim)

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise ValueError(
                f"expression over {self.dim} variables evaluated at point of "
                f"dimension {x.shape[0]}"
            )
        return _eval_noise(self._ast, x)

    def __repr__(self):
        return f"ScalarExpression({self.text!r})"


def _tokenize_noise(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _NOISE_TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"bad character in noise expression: {text[pos:]!r}")
            break
        if m.lastgroup == "number":
            tokens.append(("num", float(m.group("number"))))
        elif m.lastgroup == "var":
            tokens.append(("var", int(m.group("var")[1:])))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


def _parse_noise(text: str, dim: int):
    tokens = _tokenize_noise(text)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def advance():
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def expr():
        node = term()
        while peek() == ("op", "+") or peek() == ("op", "-"):
            op = advance()[1]
            node = (op, node, term())
        return node

    def term():
        node = factor()
        while peek() == ("op", "*"):
            advance()
            node = ("*", node, factor())
        return node

    def factor():
        # Unary minus binds looser than ^: -x0^2 == -(x0^2).
        if peek() == ("op", "-"):
            advance()
            return ("neg", factor())
        node = base()
        if peek() == ("op", "^"):
            advance()
            kind, value = advance()
            if kind != "num" or value != int(value):
                raise ValueError("exponent must be an integer literal")
            node = ("^", node, int(value))
        return node

    def base():
        kind, value = advance()
        if kind == "num":
            return ("num", value)
        if kind == "var":
            if value >= dim:
                raise ValueError(f"x{value} out of range for dimension {dim}")
            return ("var", value)
        if (kind, value) == ("op", "("):
            node = expr()
            if advance() != ("op", ")"):
                raise ValueError("unbalanced parenthesis in noise expression")
            return node
        raise ValueError(f"unexpected token in noise expression: {value!r}")

    node = expr()
    if peek() != ("end", None):
        raise ValueError(f"trailing input in noise expression: {text!r}")
    return node


def _eval_noise(node, x) -> float:
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return float(x[node[1]])
    if tag == "neg":
        return -_eval_noise(node[1], x)
    if tag == "^":
        return _eval_noise(node[1], x) ** node[2]
    left = _eval_noise(node[1], x)
    right = _eval_noise(node[2], x)
    if tag == "+":
        return left + right
    if tag == "-":
        return left - right
    return left * right


# ---------------------------------------------------------------------------
# System modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemMode:
    """One location of the switched system.

    noise is a constant p-by-p matrix, a ScalarExpression (times the
    identity), or None when there is no observation.
    """

    A: np.ndarray
    B: np.ndarray
    W: np.ndarray
    C: np.ndarray | None = None
    noise: object = None

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
    sampling_period: float | None = None

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
        if self.control_domain.vertices is None:
            raise ValueError("control domain needs a V-representation")
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
    """Measurement covariance R(x) = n(x) n(x)^T, at one state or at
    each row of a stack of states."""
    p = mode.obs_dim
    if p == 0:
        raise NoObservationError("mode has no observation (p = 0)")
    if not isinstance(mode.noise, ScalarExpression):
        return mode.noise @ mode.noise.T
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        n_val = mode.noise(x)
    else:
        n_val = np.array([mode.noise(row) for row in x])[:, None, None]
    return (n_val * n_val) * np.eye(p)


def _mv(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x for one vector or each row of a stack; per row this is the
    same BLAS call as M @ x, so the results agree bit for bit."""
    return M @ x if x.ndim == 1 else (M @ x[..., None])[..., 0]


def _predict_cov(mode: SystemMode, cov):
    return mode.A @ cov @ mode.A.T + mode.W @ mode.W.T


def _gain(mode: SystemMode, cov, R):
    """Kalman gain of one covariance or a stack, after the condition
    test on the symmetrized innovation matrix."""
    C = mode.C
    S = C @ cov @ C.T + R
    S = 0.5 * (S + S.mT)
    if (np.linalg.cond(S) > _CONDITION_LIMIT).any():
        raise IllConditionedUpdateError(
            f"innovation covariance condition number exceeds {_CONDITION_LIMIT:g}"
        )
    return np.linalg.solve(S, C @ cov).mT


def _joseph_cov(mode: SystemMode, cov, K, R):
    IKC = np.eye(mode.state_dim) - K @ mode.C
    return IKC @ cov @ IKC.mT + K @ R @ K.mT


def _innovate(mode: SystemMode, mean, K, y):
    return mean + _mv(K, y - _mv(mode.C, mean))


def _joseph(mode: SystemMode, mean, cov, y, R):
    """Unchecked Joseph-form update of one belief or a stack."""
    K = _gain(mode, cov, R)
    return _innovate(mode, mean, K, y), _joseph_cov(mode, cov, K, R)


def predict(mode: SystemMode, b: BeliefState, u) -> BeliefState:
    """Open-loop prediction: mean' = A mean + B u, cov' = A cov A^T + W W^T."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != mode.control_dim:
        raise ValueError(
            f"control dimension {u.shape[0]} != {mode.control_dim}"
        )
    if b.dim != mode.state_dim:
        raise ValueError(f"belief dimension {b.dim} != {mode.state_dim}")
    return make_belief(predict_means(mode, b.mean, u), _predict_cov(mode, b.cov))


def kalman_update(mode: SystemMode, b: BeliefState, y) -> BeliefState:
    """Measurement update with state-dependent R evaluated at the mean
    (EKF-style linearization point); Joseph-form covariance."""
    if mode.obs_dim == 0:
        raise NoObservationError("mode has no observation (p = 0)")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != mode.obs_dim:
        raise ValueError(f"observation dimension {y.shape[0]} != {mode.obs_dim}")
    R = noise_cov(mode, b.mean)
    return make_belief(*_joseph(mode, b.mean, b.cov, y, R))


def propagate_mlo(mode: SystemMode, b: BeliefState, u) -> BeliefState:
    """Predict, then update assuming the maximum-likelihood observation
    y* = C mean' (zero innovation): the mean is the predicted mean and
    only the covariance contracts."""
    bp = predict(mode, b, u)
    if mode.obs_dim == 0:
        return bp
    R = noise_cov(mode, bp.mean)
    return make_belief(*_joseph(mode, bp.mean, bp.cov, _mv(mode.C, bp.mean), R))


def predict_means(mode: SystemMode, means, us):
    """The predicted mean A m + B u of one belief, or of each row of a
    (k, n) stack with one control per row, with make_belief's finite
    check."""
    return checked_mean(_mv(mode.A, means) + _mv(mode.B, us))


def mlo_covariance(mode: SystemMode, covs, means=None):
    """The covariance half of one MLO step: the predicted covariances,
    checked; for an observed mode then the condition test, the Kalman
    gain under R(means) and the Joseph-form covariance, checked.
    Returns (covariances, gain), the gain None when p = 0.

    covs is (k, n, n), or one (1, n, n) shared by every row. Only
    state-dependent noise reads the predicted means, and its R(means)
    widens a shared covariance to one per row; otherwise the result uses
    neither the controls nor the means, so it is the same for every
    belief that starts from the same covariance."""
    covs = checked_cov(_predict_cov(mode, covs))
    if mode.obs_dim == 0:
        return covs, None
    R = noise_cov(mode, means)
    K = _gain(mode, covs, R)
    return checked_cov(_joseph_cov(mode, covs, K, R)), K


def mlo_mean_update(mode: SystemMode, means, gain):
    """The zero-innovation Joseph mean step m + K (C m - C m) of a
    stack of predicted means, checked; the means as they are when the
    gain is None (p = 0). On finite means it changes no bit: C m - C m
    is +0.0, and a predicted mean, a sum of matmul results, holds no
    -0.0."""
    if gain is None:
        return means
    return checked_mean(_innovate(mode, means, gain, _mv(mode.C, means)))


def propagate_mlo_stack(mode: SystemMode, means, covs, us):
    """propagate_mlo for a stack of beliefs, one control per row:
    returns the (k, n) means and the symmetrized covariances. Every
    predicted and updated belief passes make_belief's checks, and each
    row equals propagate_mlo on that row bit for bit.

    The covariances are (k, n, n), or one (1, n, n) shared by every row.
    A shared covariance stays shared, predicted, checked and updated
    once, unless the noise depends on the state; then R(mean) widens it
    to one covariance per row."""
    means = predict_means(mode, means, us)
    covs, gain = mlo_covariance(mode, covs, means)
    return mlo_mean_update(mode, means, gain), covs


def sample_observation(mode: SystemMode, x_true, rng: np.random.Generator) -> np.ndarray:
    """Draw y = C x + n(x) v, v ~ N(0, I_p)."""
    p = mode.obs_dim
    if p == 0:
        raise NoObservationError("mode has no observation (p = 0)")
    x_true = np.asarray(x_true, dtype=float).reshape(-1)
    v = rng.standard_normal(p)
    if isinstance(mode.noise, ScalarExpression):
        gain = mode.noise(x_true) * np.eye(p)
    else:
        gain = mode.noise
    return mode.C @ x_true + gain @ v


def step_truth(mode: SystemMode, x_true, u, rng: np.random.Generator) -> np.ndarray:
    """Advance the ground-truth state: A x + B u + W w, w ~ N(0, I_n)."""
    x_true = np.asarray(x_true, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if x_true.shape[0] != mode.state_dim or u.shape[0] != mode.control_dim:
        raise ValueError("dimension mismatch in step_truth")
    w = rng.standard_normal(mode.state_dim)
    return mode.A @ x_true + mode.B @ u + mode.W @ w
