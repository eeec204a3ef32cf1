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

from .gaussian import BeliefState, cached_quantile

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
    """Intersection of closed halfspaces, with optional vertex list."""

    halfspaces: tuple
    vertices: tuple | None = None

    def __post_init__(self):
        hs = tuple(self.halfspaces)
        object.__setattr__(self, "halfspaces", hs)
        if self.vertices is not None:
            vs = tuple(np.asarray(v, dtype=float).reshape(-1) for v in self.vertices)
            for v in vs:
                for mu in hs:
                    if eval_linear(mu, v) > 1e-9:
                        raise ValueError(
                            f"vertex {v} violates halfspace (residual "
                            f"{eval_linear(mu, v):g})"
                        )
            object.__setattr__(self, "vertices", vs)

    @property
    def dim(self) -> int:
        return self.halfspaces[0].dim

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of the vertex set."""
        if self.vertices is None:
            raise ValueError("polytope has no V-representation")
        pts = np.stack(self.vertices)
        return pts.min(axis=0), pts.max(axis=0)


@dataclass(frozen=True)
class BeliefCone:
    """Conjunction of probabilistic linear predicates over beliefs."""

    constraints: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))


def eval_linear(expr: LinearExpression, x) -> float:
    """Evaluate h.x + c."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != expr.dim:
        raise ValueError(f"dimension mismatch: expression {expr.dim}, point {x.shape[0]}")
    return float(expr.h @ x + expr.c)


def polytope_contains(P: Polytope, x) -> bool:
    """Membership with absolute tolerance 1e-12 on each halfspace."""
    return all(eval_linear(mu, x) <= CONTAINMENT_TOL for mu in P.halfspaces)


def polytope_sample(P: Polytope, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample via rejection from the vertex bounding box."""
    lo, hi = P.bounding_box()
    for _ in range(_MAX_REJECTIONS):
        x = rng.uniform(lo, hi)
        if polytope_contains(P, x):
            return x
    raise DegeneratePolytopeError(
        f"no sample accepted after {_MAX_REJECTIONS} rejections"
    )


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
    return float(_margin(pred, b.mean, b.cov))


def _margin(pred: ProbabilisticLinearPredicate, mean, cov):
    """cone_margin at one belief, or at each belief of a stack.
    vecdot and a vector-matrix product give the same bits per row as
    the 1-D dot products of a single belief."""
    h = pred.expr.h
    base = np.vecdot(mean, h) + pred.expr.c
    q = np.vecdot(h @ cov, h)
    q = np.maximum(q, 0.0) if q.ndim else max(q, 0.0)  # clip PSD rounding noise
    if pred.epsilon == 0.0:
        return np.where(q == 0.0, base, math.inf)
    return base + cached_quantile(1.0 - pred.epsilon) * np.sqrt(q)


def cone_contains(cone: BeliefCone, b: BeliefState) -> bool:
    """Conjunction of cone_margin <= tol over all constraints."""
    return all(cone_margin(p, b) <= CONTAINMENT_TOL for p in cone.constraints)


def cone_contains_stack(cone: BeliefCone, means, covs) -> np.ndarray:
    """cone_contains for each belief of a stack: (k, n) means and
    (k, n, n) covariances give a (k,) mask."""
    inside = np.ones(means.shape[0], dtype=bool)
    for p in cone.constraints:
        inside &= _margin(p, means, covs) <= CONTAINMENT_TOL
    return inside


def region_from_predicates(preds) -> BeliefCone:
    """Cone equal to the conjunction of the given predicates.

    An empty list yields the whole belief space (always contains).
    """
    preds = tuple(preds)
    if preds:
        dim = preds[0].expr.dim
        for p in preds:
            if p.expr.dim != dim:
                raise ValueError("predicates have mixed state dimensions")
    return BeliefCone(preds)
