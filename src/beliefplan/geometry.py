"""Linear expressions, predicates, polytopes, and belief cones.

A polytope is kept in H-representation (list of halfspaces h.x + c <= 0)
with an optional V-representation used only for sampling. A belief cone
is a conjunction of probabilistic linear predicates; membership of a
Gaussian belief is a second-order-cone inequality per constraint:

    h . mean + c + Phi^{-1}(1 - eps) * sqrt(h^T cov h) <= 0
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import BeliefState, std_normal_quantile

CONTAINMENT_TOL = 1e-12
_MAX_REJECTIONS = 10 ** 6


class DegeneratePolytopeError(RuntimeError):
    """Rejection sampling failed to hit the polytope."""


@dataclass(frozen=True)
class LinearExpression:
    """Affine function h.x + c over the state."""

    h: np.ndarray
    c: float

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float).reshape(-1)
        if h.size == 0:
            raise ValueError("linear expression needs at least one coefficient")
        if not np.all(np.isfinite(h)) or not math.isfinite(self.c):
            raise ValueError("linear expression coefficients must be finite")
        h = h.copy()
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "c", float(self.c))

    @property
    def dim(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class ProbabilisticLinearPredicate:
    """Chance constraint p(expr(x) <= 0) >= 1 - epsilon."""

    expr: LinearExpression
    epsilon: float

    def __post_init__(self):
        if not (0.0 <= self.epsilon <= 0.5):
            raise ValueError(f"epsilon must lie in [0, 0.5], got {self.epsilon!r}")


@dataclass(frozen=True)
class DiscretePredicate:
    """Mode-set membership predicate over declared modes 0..N-1."""

    modes: frozenset

    def __post_init__(self):
        object.__setattr__(self, "modes", frozenset(int(m) for m in self.modes))

    def __contains__(self, mode: int) -> bool:
        return int(mode) in self.modes


@dataclass(frozen=True)
class Polytope:
    """Intersection of closed halfspaces, with optional vertex list.

    Construction stacks the halfspaces into read-only H (k, m) and c
    (k,), and keeps the vertex bounding box as box = (lo, hi)."""

    halfspaces: tuple
    vertices: tuple | None = None
    H: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)
    box: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hs = tuple(self.halfspaces)
        object.__setattr__(self, "halfspaces", hs)
        _stack_rows(self, [mu.h for mu in hs], [mu.c for mu in hs])
        box = None
        if self.vertices is not None:
            vs = tuple(np.asarray(v, dtype=float).reshape(-1) for v in self.vertices)
            worst = (np.vecdot(np.stack(vs)[:, None, :], self.H) + self.c).max(axis=1)
            if np.any(worst > 1e-9):
                i = worst.argmax()
                raise ValueError(f"vertex {vs[i]} violates halfspace (residual {worst[i]:g})")
            object.__setattr__(self, "vertices", vs)
            box = (_read_only(np.min(vs, axis=0)), _read_only(np.max(vs, axis=0)))
        object.__setattr__(self, "box", box)

    @property
    def dim(self) -> int:
        return self.H.shape[1]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of the vertex set."""
        if self.box is None:
            raise ValueError("polytope has no V-representation")
        return self.box


@dataclass(frozen=True)
class BeliefCone:
    """Conjunction of probabilistic linear predicates over beliefs.

    Construction stacks the constraints into read-only H (k, n) and c
    (k,), with quantile (k,) holding each row's Phi^{-1}(1 - epsilon),
    +inf where epsilon = 0. The empty cone has H of shape (0, 0)."""

    constraints: tuple = field(default_factory=tuple)
    H: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)
    quantile: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        preds = tuple(self.constraints)
        object.__setattr__(self, "constraints", preds)
        if len({p.expr.dim for p in preds}) > 1:
            raise ValueError("predicates have mixed state dimensions")
        _stack_rows(self, [p.expr.h for p in preds], [p.expr.c for p in preds])
        q = [std_normal_quantile(1.0 - p.epsilon) if p.epsilon else math.inf for p in preds]
        object.__setattr__(self, "quantile", _read_only(np.array(q, dtype=float)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _stack_rows(obj, hs, cs) -> None:
    """Set obj.H and obj.c, read-only, to the stacked rows h.x + c."""
    object.__setattr__(obj, "H", _read_only(np.stack(hs) if hs else np.zeros((0, 0))))
    object.__setattr__(obj, "c", _read_only(np.array(cs, dtype=float)))


def polytope_contains(P: Polytope, x) -> bool:
    """Membership with absolute tolerance 1e-12 on each halfspace."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return bool(_inside(P, x))


def _inside(P: Polytope, X: np.ndarray) -> np.ndarray:
    """Membership of one point (m,) or of each row of (B, m) points."""
    return (np.vecdot(X[..., None, :], P.H) + P.c <= CONTAINMENT_TOL).all(axis=-1)


def polytope_sample(P: Polytope, rng: np.random.Generator, count: int | None = None):
    """Uniform samples via rejection from the vertex bounding box: one
    point (m,), or (count, m) points in the order they were accepted.

    Each round draws only the samples still needed, and never more than
    the rejection budget left, so the draws are exactly those of count
    single samples taken one after another: a block of uniform draws
    equals the same draws made one at a time. DegeneratePolytopeError
    is raised after _MAX_REJECTIONS draws in a row without an acceptance.
    """
    lo, hi = P.bounding_box()
    need = 1 if count is None else count
    accepted = [np.empty((0, lo.size))]
    misses = 0
    while need:
        X = rng.uniform(lo, hi, size=(min(need, _MAX_REJECTIONS - misses), lo.size))
        hits = np.flatnonzero(_inside(P, X))
        accepted.append(X[hits])
        need -= hits.size
        misses = X.shape[0] - 1 - hits[-1] if hits.size else misses + X.shape[0]
        if misses >= _MAX_REJECTIONS:
            raise DegeneratePolytopeError(
                f"no sample accepted after {_MAX_REJECTIONS} rejections"
            )
    samples = np.concatenate(accepted)
    return samples[0] if count is None else samples


def box_polytope(bounds) -> Polytope:
    """Axis-aligned box from per-axis [lo, hi] bounds, with vertices."""
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    m = len(bounds)
    halfspaces = []
    for j, (lo, hi) in enumerate(bounds):
        if lo > hi:
            raise ValueError(f"box bound {j} has lo > hi")
        e = np.zeros(m)
        e[j] = 1.0
        halfspaces.append(LinearExpression(e, -hi))
        halfspaces.append(LinearExpression(-e, lo))
    vertices = [np.array(corner) for corner in itertools.product(*bounds)]
    return Polytope(tuple(halfspaces), tuple(vertices))


def cone_margin(pred: ProbabilisticLinearPredicate, b: BeliefState) -> float:
    """Second-order-cone margin; the predicate holds iff the result <= 0.

    epsilon = 0 maps to the +inf quantile: the margin is +inf unless the
    direction h carries no variance, in which case the deterministic
    margin h.mean + c is returned.
    """
    return float(_margins(BeliefCone((pred,)), b.mean[None], b.cov[None])[0, 0])


def _margins(cone: BeliefCone, means, covs) -> np.ndarray:
    """(B, k) margins of each belief of a stack, (B, n) means and
    (B, n, n) covariances, against each row of the cone. vecdot over
    rows and a stack of vector-matrix products give the same bits per
    row as the 1-D products of one constraint at one belief."""
    return _spread_margins(cone, means, cone_spread(cone, covs))


def _spread_margins(cone: BeliefCone, means, spread) -> np.ndarray:
    if cone.H.shape[0] == 0:
        return np.zeros((means.shape[0], 0))
    return np.vecdot(means[:, None, :], cone.H) + cone.c + spread


def cone_spread(cone: BeliefCone, covs) -> np.ndarray:
    """(B, k) variance terms Phi^{-1}(1 - eps) sqrt(h^T cov h) of each
    covariance of a (B, n, n) stack against each row of the cone: the
    part of the margins that does not read the mean. A direction without
    variance has none, also where eps = 0; otherwise an eps = 0 row's is
    +inf."""
    H = cone.H
    if H.shape[0] == 0:
        return np.zeros((covs.shape[0], 0))
    q = np.vecdot((H[:, None, None, :] @ covs)[:, :, 0, :], H[:, None, :]).T
    q = np.maximum(q, 0.0)  # clip PSD rounding noise
    return np.where(q > 0.0, cone.quantile, 0.0) * np.sqrt(q)


def cone_contains(cone: BeliefCone, b: BeliefState) -> bool:
    """Conjunction of cone_margin <= tol over all constraints."""
    return bool(cone_contains_stack(cone, b.mean[None], b.cov[None])[0])


def cone_contains_stack(cone: BeliefCone, means, covs) -> np.ndarray:
    """cone_contains for each belief of a stack: (B, n) means and
    (B, n, n) covariances give a (B,) mask."""
    return cone_holds(cone, means, cone_spread(cone, covs))


def cone_holds(cone: BeliefCone, means, spread) -> np.ndarray:
    """cone_contains_stack from the (B, n) means and the cone_spread of
    their covariances, (B, k) or one (1, k) row shared by every mean."""
    return (_spread_margins(cone, means, spread) <= CONTAINMENT_TOL).all(axis=1)
