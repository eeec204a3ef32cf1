"""Sparse-RRT variant over belief states for one plan segment.

The tree grows in the belief space under maximum-likelihood-observation
propagation. Selection prefers low-uncertainty nodes among those near a
sampled mean-space point (active perception); insertion drains nearby
dominated nodes. A segment succeeds when some node's belief enters the
goal cone and a zero-control dwell keeps the goal satisfied for the
required number of further steps.

The tree is a set of parallel arrays, so selection and draining are a
few vector operations per iteration; an extension advances all of its
control candidates as one stack of beliefs. Where the mode's MLO
covariance reads neither the control nor the mean, every node at depth d
carries the same covariance, so one table of covariances by depth
serves the whole segment and each step of an extension is mean
arithmetic only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dynamics import (
    SwitchedSystem,
    SystemMode,
    mlo_covariance,
    mlo_mean_update,
    predict_means,
    propagate_mlo,
    propagate_mlo_stack,
)
from .gaussian import BeliefState, frozen_belief, uncertainty_measure
from .geometry import (
    BeliefCone,
    Polytope,
    cone_contains,
    cone_contains_stack,
    cone_holds,
    cone_spread,
    polytope_contains,
    polytope_sample,
)

_BOX_CLIP = 10.0  # clip unbounded sampling directions this far past the start
_NUM_RANDOM_CONTROLS = 7


class InternalConsistencyError(RuntimeError):
    """An internal invariant failed (an assembled trajectory failed the
    monitor, or a replayed branch differs from the tree); this is a bug
    signal, never silently ignored."""


@dataclass(frozen=True)
class RrtParams:
    """Search tunables. rrt_timeout is wall-clock seconds; iteration_cap,
    when set, bounds the loop instead and makes runs reproducible."""

    rrt_timeout: float | None = None
    iteration_cap: int | None = None
    delta_near: float = 1.0
    delta_drain: float = 0.5
    goal_bias: float = 0.25
    min_num_of_steps: int = 1
    max_num_of_steps: int = 1

    def __post_init__(self):
        if self.rrt_timeout is None and self.iteration_cap is None:
            raise ValueError("either rrt_timeout or iteration_cap is required")
        if self.rrt_timeout is not None and self.rrt_timeout <= 0:
            raise ValueError("rrt_timeout must be positive")
        if self.iteration_cap is not None and self.iteration_cap < 1:
            raise ValueError("iteration_cap must be at least 1")
        if not self.delta_drain <= self.delta_near:
            raise ValueError("delta_drain must not exceed delta_near")
        if not 0.0 <= self.goal_bias <= 1.0:
            raise ValueError("goal_bias must lie in [0, 1]")
        if not 1 <= self.min_num_of_steps <= self.max_num_of_steps:
            raise ValueError("need 1 <= min_num_of_steps <= max_num_of_steps")


class RrtTree:
    """The sparse tree as parallel arrays, row i holding node i: means
    (N, n), covariance traces, active mask, parent (-1 at the root) and
    depth in steps, grown by doubling. Each node also keeps its end
    belief and its constant control (None at the root); the beliefs in
    between are replayed on success."""

    def __init__(self, root: BeliefState, capacity: int = 64):
        self.size = 0
        self.means = np.empty((capacity, root.dim))
        self.traces = np.empty(capacity)
        self.active = np.zeros(capacity, dtype=bool)
        self.parent = np.empty(capacity, dtype=np.intp)
        self.depth = np.empty(capacity, dtype=np.intp)
        self.beliefs: list = []
        self.controls: list = []
        self.add(root, -1, None, 0)

    def add(self, belief: BeliefState, parent: int, control, steps: int) -> int:
        """Append an active node reached from `parent` by holding
        `control` for `steps` steps; returns its id."""
        i = self.size
        if i == self.traces.shape[0]:
            for name in ("means", "traces", "active", "parent", "depth"):
                old = getattr(self, name)
                grown = np.zeros((2 * i,) + old.shape[1:], dtype=old.dtype)
                grown[:i] = old
                setattr(self, name, grown)
        self.means[i] = belief.mean
        self.traces[i] = uncertainty_measure(belief)
        self.active[i] = True
        self.parent[i] = parent
        self.depth[i] = steps + (self.depth[parent] if parent >= 0 else 0)
        self.beliefs.append(belief)
        self.controls.append(control)
        self.size = i + 1
        return i

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        """Each row's active flag, as `.active` (read by the benchmark's
        trace counters)."""
        return (SimpleNamespace(active=bool(a)) for a in self.active[: self.size])


class CovarianceByDepth:
    """The covariances of a segment tree by depth, for a mode whose MLO
    covariance reads neither the control nor the mean (kind lbs or
    polbs_linear). Row d holds what d stacked steps from the start
    compute: the checked (1, n, n) covariance, the Kalman gain of its
    update (None without observation) and the stay cone's spread at it.
    Row 0 holds the start's covariance; the others are made on first
    use, each from the row before by mlo_covariance."""

    def __init__(self, mode: SystemMode, start_cov: np.ndarray, stay: BeliefCone):
        self.mode = mode
        self.stay = stay
        cov = start_cov[None]
        self.rows = [(cov, None, cone_spread(stay, cov))]

    def __getitem__(self, depth: int) -> tuple:
        while len(self.rows) <= depth:
            cov, gain = mlo_covariance(self.mode, self.rows[-1][0])
            self.rows.append((cov, gain, cone_spread(self.stay, cov)))
        return self.rows[depth]


def _depth_table(mode: SystemMode, cov: np.ndarray, stay: BeliefCone):
    """A CovarianceByDepth from `cov`, or None where the noise depends
    on the state and every belief needs its own covariance."""
    return None if mode.kind == "polbs_nonlinear" else CovarianceByDepth(mode, cov, stay)


@dataclass(frozen=True)
class SegmentTask:
    """One plan segment packaged for the continuous layer."""

    mode: int
    stay: BeliefCone
    goal: BeliefCone
    min_dwell_in_goal: int
    max_total_steps: int

    def __post_init__(self):
        if self.max_total_steps < 1:
            raise ValueError("max_total_steps must be at least 1")
        if self.min_dwell_in_goal < 0:
            raise ValueError("min_dwell_in_goal must be nonnegative")


@dataclass(frozen=True)
class SegmentResult:
    status: str  # "success" | "timeout" | "infeasible-start"
    beliefs: tuple = ()
    controls: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == "success"

    @property
    def num_steps(self) -> int:
        return len(self.controls)


def _distances(points: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row to a point, with the bits of
    np.linalg.norm on each row (a dot product, then sqrt)."""
    d = points - point
    return np.sqrt(np.vecdot(d, d))


def rrt_select(tree: RrtTree, sample_point: np.ndarray, delta_near: float) -> int:
    """Among active nodes within delta_near of the sample, the one with
    the least covariance trace; otherwise the nearest active node.
    Ties break toward the lowest node id."""
    ids = np.flatnonzero(tree.active[: len(tree)])
    if ids.size == 0:
        raise ValueError("tree has no active nodes")
    dist = _distances(tree.means[ids], sample_point)
    near = ids[dist <= delta_near]
    if near.size:
        return int(near[np.argmin(tree.traces[near])])
    return int(ids[np.argmin(dist)])


def _clamp_to_box(u: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(u, lo), hi)


def rrt_extend(
    mode: SystemMode,
    belief: BeliefState,
    target_point: np.ndarray,
    horizon: int,
    stay: BeliefCone,
    control_domain: Polytope,
    rng: np.random.Generator,
    table: CovarianceByDepth | None = None,
    depth: int = 0,
):
    """Try 8 constant controls (7 uniform, 1 greedy least-squares toward
    the target) for `horizon` steps each from `belief`; keep the survivor
    whose final mean is closest to the target, the first one on ties.
    Returns (control, end belief) or None when every candidate leaves
    the stay cone.

    The candidates advance together as one stack, and the rows that
    left the stay cone are dropped after each step: exactly the beliefs
    a candidate-by-candidate loop would compute are computed and checked.
    Unless the measurement noise depends on the state, every candidate
    has after step t the covariance of row depth + t + 1 of a
    CovarianceByDepth, so a step computes only the means and reads the
    covariance, gain and stay spread from that row. `table` is the one
    of the belief's tree, whose node at `depth` the belief is, or else
    one made here from the belief. With state-dependent noise the stack
    starts from one shared covariance and widens to one per row at the
    first update.
    """
    controls = polytope_sample(control_domain, rng, _NUM_RANDOM_CONTROLS)
    lo, hi = control_domain.bounding_box()
    reach = horizon * mode.B
    residual = target_point - belief.mean
    greedy, *_ = np.linalg.lstsq(reach, residual, rcond=None)
    greedy = _clamp_to_box(greedy, lo, hi)
    if polytope_contains(control_domain, greedy):
        controls = np.vstack([controls, greedy])

    alive = np.arange(len(controls))
    means = np.repeat(belief.mean[None], len(controls), axis=0)
    covs = belief.cov[None]
    if table is None:
        table, depth = _depth_table(mode, belief.cov, stay), 0
    for t in range(horizon):
        if table is None:  # the noise depends on the state
            means, covs = propagate_mlo_stack(mode, means, covs, controls[alive])
            inside = cone_contains_stack(stay, means, covs)
        else:
            means = predict_means(mode, means, controls[alive])
            covs, gain, spread = table[depth + t + 1]
            means = mlo_mean_update(mode, means, gain)
            inside = cone_holds(stay, means, spread)
        if not inside.all():
            alive, means = alive[inside], means[inside]
            if alive.size == 0:
                return None
            if len(covs) > 1:
                covs = covs[inside]
    best = int(np.argmin(_distances(means, target_point)))
    cov = covs[best] if len(covs) > 1 else covs[0]
    return controls[alive[best]], frozen_belief(means[best], cov)


def rrt_drain(tree: RrtTree, node_id: int, delta_drain: float) -> None:
    """Deactivate active non-ancestor nodes within delta_drain of the
    given node that carry strictly more uncertainty."""
    n = len(tree)
    drained = (
        tree.active[:n]
        & (_distances(tree.means[:n], tree.means[node_id]) <= delta_drain)
        & (tree.traces[:n] > tree.traces[node_id])
    )
    if not drained.any():
        return
    cursor = tree.parent[node_id]
    while cursor >= 0:
        drained[cursor] = False
        cursor = tree.parent[cursor]
    tree.active[:n] &= ~drained


def _cone_mean_box(cone: BeliefCone, center: np.ndarray) -> tuple:
    """Axis-aligned sampling box from the mean-space shadow of the cone
    (h.x + c <= 0 per constraint); unbounded directions are clipped to
    +-_BOX_CLIP around the center."""
    n = center.shape[0]
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    axis_rows = np.count_nonzero(cone.H, axis=1) == 1  # others do not tighten the box
    H = cone.H[axis_rows]
    j = np.nonzero(H)[1]
    h = H[H != 0]
    bound = -cone.c[axis_rows] / h
    np.minimum.at(hi, j[h > 0], bound[h > 0])
    np.maximum.at(lo, j[h < 0], bound[h < 0])
    lo = np.where(np.isfinite(lo), lo, center - _BOX_CLIP)
    hi = np.where(np.isfinite(hi), hi, center + _BOX_CLIP)
    hi = np.maximum(hi, lo)
    return lo, hi


def _dwell_in_goal(
    mode: SystemMode, belief: BeliefState, goal: BeliefCone, steps: int
):
    """Zero-control dwell; returns the visited beliefs ([] for zero
    steps) or None if the goal cone breaks mid-dwell."""
    u0 = np.zeros(mode.control_dim)
    out = []
    b = belief
    for _ in range(steps):
        b = propagate_mlo(mode, b, u0)
        if not cone_contains(goal, b):
            return None
        out.append(b)
    return out


def _reconstruct(mode: SystemMode, tree: RrtTree, node_id: int):
    """Step-by-step beliefs and controls from the root to a node,
    replaying each node's constant control. A replayed node belief that
    is not bit-equal to the stored one raises InternalConsistencyError."""
    chain = []
    cursor = node_id
    while cursor >= 0:
        chain.append(cursor)
        cursor = tree.parent[cursor]
    chain.reverse()
    b = tree.beliefs[0]
    beliefs = [b]
    controls = []
    for parent, node in zip(chain, chain[1:]):
        u = tree.controls[node]
        for _ in range(tree.depth[node] - tree.depth[parent]):
            b = propagate_mlo(mode, b, u)
            beliefs.append(b)
            controls.append(u)
        stored = tree.beliefs[node]
        if not (np.array_equal(b.mean, stored.mean) and np.array_equal(b.cov, stored.cov)):
            raise InternalConsistencyError(
                f"replaying the branch to RRT node {node} does not reproduce its belief"
            )
    return beliefs, controls


def _goal_reached(mode: SystemMode, task: SegmentTask, tree: RrtTree, node_id: int):
    """The success test for one node: its belief lies in the goal cone,
    the zero-control dwell fits in the step budget and keeps the goal.
    Returns the segment from the root through the dwell, or None."""
    belief = tree.beliefs[node_id]
    if not cone_contains(task.goal, belief):
        return None
    if tree.depth[node_id] + task.min_dwell_in_goal > task.max_total_steps:
        return None
    dwell = _dwell_in_goal(mode, belief, task.goal, task.min_dwell_in_goal)
    if dwell is None:
        return None
    beliefs, controls = _reconstruct(mode, tree, node_id)
    u0 = np.zeros(mode.control_dim)
    return SegmentResult(
        "success", tuple(beliefs + dwell), tuple(controls) + (u0,) * task.min_dwell_in_goal
    )


def solve_segment(
    sys: SwitchedSystem,
    task: SegmentTask,
    start: BeliefState,
    params: RrtParams,
    rng: np.random.Generator,
) -> SegmentResult:
    """Steer from `start` to the goal cone while the stay cone holds.

    Runs until success, the iteration cap, or the wall-clock timeout.
    Unless the noise depends on the state, the extensions share one
    CovarianceByDepth; the replay of a successful branch checks it.
    """
    mode = sys.modes[task.mode]
    if not cone_contains(task.stay, start) and not cone_contains(task.goal, start):
        return SegmentResult("infeasible-start")
    tree = RrtTree(start)
    table = _depth_table(mode, start.cov, task.stay)
    reached = _goal_reached(mode, task, tree, 0)
    if reached is not None:
        return reached

    goal_lo, goal_hi = _cone_mean_box(task.goal, start.mean)
    stay_lo, stay_hi = _cone_mean_box(task.stay, start.mean)
    deadline = (
        time.monotonic() + params.rrt_timeout
        if params.rrt_timeout is not None
        else None
    )
    iteration = 0
    while True:
        if params.iteration_cap is not None and iteration >= params.iteration_cap:
            return SegmentResult("timeout")
        if deadline is not None and time.monotonic() >= deadline:
            return SegmentResult("timeout")
        iteration += 1

        if rng.random() < params.goal_bias:
            sample = rng.uniform(goal_lo, goal_hi)
        else:
            sample = rng.uniform(stay_lo, stay_hi)
        node = rrt_select(tree, sample, params.delta_near)
        steps = int(rng.integers(params.min_num_of_steps, params.max_num_of_steps + 1))
        if tree.depth[node] + steps > task.max_total_steps:
            continue
        branch = rrt_extend(
            mode, tree.beliefs[node], sample, steps, task.stay, sys.control_domain, rng,
            table, int(tree.depth[node]),
        )
        if branch is None:
            continue
        control, end = branch
        new = tree.add(end, node, control, steps)
        rrt_drain(tree, new, params.delta_drain)
        reached = _goal_reached(mode, task, tree, new)
        if reached is not None:
            return reached
