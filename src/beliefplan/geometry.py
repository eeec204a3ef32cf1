"""Linear expressions, predicates, polytopes, and belief cones.

A polytope is kept in H-representation (list of halfspaces h.x + c <= 0)
with its vertices, whose bounding box sampling draws from. A belief cone
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

    def __eq__(self, other):
        """Equal coefficients and constant; the generated __eq__ would
        read the truth value of an array comparison."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.h, other.h) and self.c == other.c

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
class Polytope:
    """Intersection of closed halfspaces, with its vertices.

    Construction stacks the halfspaces into read-only H (k, m) and c
    (k,), keeps the vertex bounding box as box = (lo, hi), and sets
    is_box when the halfspaces are exactly that box's faces, x_j <= hi_j
    and -x_j <= -lo_j, so that every point of the box lies inside."""

    halfspaces: tuple
    vertices: tuple
    H: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)
    box: tuple = field(init=False, repr=False, compare=False)
    is_box: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hs = tuple(self.halfspaces)
        object.__setattr__(self, "halfspaces", hs)
        _stack_rows(self, [mu.h for mu in hs], [mu.c for mu in hs])
        vs = tuple(np.asarray(v, dtype=float).reshape(-1) for v in self.vertices)
        with np.errstate(over="ignore"):  # +inf fails the check below, -inf passes
            worst = (np.vecdot(np.stack(vs)[:, None, :], self.H) + self.c).max(axis=1)
        if np.any(worst > 1e-9):
            i = worst.argmax()
            raise ValueError(f"vertex {vs[i]} violates halfspace (residual {worst[i]:g})")
        object.__setattr__(self, "vertices", vs)
        box = (_read_only(np.min(vs, axis=0)), _read_only(np.max(vs, axis=0)))
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "is_box", _has_box_faces(self.H, self.c, *box))

    @property
    def dim(self) -> int:
        return self.H.shape[1]


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


def _has_box_faces(H: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the rows h.x + c <= 0, as a set, are the faces of the box
    [lo, hi]: x_j - hi_j <= 0 and -x_j + lo_j <= 0 for every axis j."""
    eye = np.eye(lo.size)
    faces = zip(np.concatenate((eye, -eye)).tolist(), np.concatenate((-hi, lo)).tolist())
    return {(*h, ci) for h, ci in zip(H.tolist(), c.tolist())} == {(*h, ci) for h, ci in faces}


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
    lo, hi = P.box
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
    cone = BeliefCone((pred,))
    return float(_spread_margins(cone, b.mean[None], cone_spread(cone, b.cov[None]))[0, 0])


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


def axis_bounds(H: np.ndarray, offsets: np.ndarray, dim: int) -> tuple:
    """Per-axis bounds (lo, hi) that the rows of H with one nonzero entry
    put on x through h.x + offset <= 0; -inf and +inf where no row bounds
    a side. Rows with other nonzero counts are ignored. The bounds are
    not clamped: lo > hi on an axis where those rows admit no x."""
    lo = np.full(dim, -np.inf)
    hi = np.full(dim, np.inf)
    axis_rows = np.count_nonzero(H, axis=1) == 1
    H = H[axis_rows]
    j = np.nonzero(H)[1]
    h = H[H != 0]
    bound = -offsets[axis_rows] / h
    np.minimum.at(hi, j[h > 0], bound[h > 0])
    np.maximum.at(lo, j[h < 0], bound[h < 0])
    return lo, hi


# A float mean passes a row when fl(h.m + c + spread) <= CONTAINMENT_TOL.
# The roundings of that sum, and of an axis bound -(c + spread - tol)/h,
# are a few ulps (about 1e-15 relative) of |h.m| + |c| + spread; along
# an axis that two rows bound, |h.m| is at most the larger of them. A
# region is called empty only when it is empty by CONTAINMENT_TOL plus
# _EMPTY_RTOL times that scale, six orders of magnitude above the
# rounding, so no float mean that a margin test accepts is ruled out.
_EMPTY_RTOL = 1e-9
# An infeasibility that HiGHS reports holds to its primal feasibility
# tolerance (1e-7 by default) on the rows, here scaled to |h| = 1; the
# LP's rows are loosened by ten times that as well, which also covers
# the rounding of h.m, a few ulps of |h| |m|, for every |m| below 1e8.
_LP_SLACK = 1e-6


def mean_region_empty(cones, spreads, dim: int) -> bool:
    """Whether no mean passes cone_holds against every cone with its
    spread, one (1, k) cone_spread row per cone, by more than the
    tolerance and rounding above. The axis rows decide first, as a
    per-axis box; only rows with other nonzero counts need an LP, and
    scipy's solver is imported then only."""
    H = np.concatenate([cone.H.reshape(-1, dim) for cone in cones])
    c = np.concatenate([cone.c for cone in cones])
    spread = np.concatenate([s[0] for s in spreads])
    if np.isinf(spread).any():  # an eps = 0 row with variance holds for no mean
        return True
    offsets = c + spread - CONTAINMENT_TOL
    scale = np.abs(c) + spread + CONTAINMENT_TOL
    lo, hi = axis_bounds(H, offsets, dim)
    axis_rows = np.count_nonzero(H, axis=1) == 1
    axis_scale = scale[axis_rows] / np.abs(H[axis_rows]).sum(axis=1)
    if (lo - hi > _EMPTY_RTOL * np.max(axis_scale, initial=0.0)).any():
        return True
    if axis_rows.all():
        return False
    from scipy.optimize import linprog  # costs ~0.5 s; no shipped problem needs it

    norm = np.linalg.norm(H, axis=1)
    norm[norm == 0] = 1.0
    b = (_EMPTY_RTOL * scale - offsets) / norm + _LP_SLACK
    lp = linprog(np.zeros(dim), A_ub=H / norm[:, None], b_ub=b, bounds=(None, None), method="highs")
    return lp.status == 2


def cone_contains(cone: BeliefCone, b: BeliefState):
    """Conjunction of cone_margin <= tol over all constraints: a bool for
    one belief, or a (B,) Boolean array for beliefs stacked as (B, n)
    means and (B, n, n) covariances, each entry with the bits of the
    one-belief test."""
    one = b.mean.ndim == 1
    means, covs = (b.mean[None], b.cov[None]) if one else (b.mean, b.cov)
    holds = cone_holds(cone, means, cone_spread(cone, covs))
    return bool(holds[0]) if one else holds


def cone_holds(cone: BeliefCone, means, spread) -> np.ndarray:
    """cone_contains for each of the (B, n) means, from the (B, k)
    cone_spread of their covariances; one (1, k) row broadcasts to every
    mean. Per row, the stacked products give the bits of one
    constraint's 1-D products at one belief."""
    return (_spread_margins(cone, means, spread) <= CONTAINMENT_TOL).all(axis=1)
