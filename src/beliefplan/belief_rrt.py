"""Sparse-RRT variant over belief states for one plan segment.

The tree grows in the belief space under maximum-likelihood-observation
propagation. Selection skips nodes with no steps left to extend and
prefers low-uncertainty nodes among those near a sampled mean-space
point (active perception); insertion drains nearby dominated nodes. A
segment succeeds when some node's belief enters the goal cone and a
zero-control dwell keeps the goal satisfied for the required number of
further steps.

The tree is a set of parallel arrays, so selection and draining are a
few vector operations per iteration. An extension computes the mean
paths of all of its control candidates as one stack, then walks them
nearest final mean first and gives covariances from mlo_covariance
only to those it evaluates, until one stays in the cone. Before the
search, a segment whose MLO covariance reads neither the control nor
the mean is checked for a goal that no node can reach (the linear
stage of the pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dynamics import (
    IllConditionedUpdateError,
    SwitchedSystem,
    SystemMode,
    mlo_covariance,
    predict_means,
    propagate_mlo,
)
from .gaussian import BeliefState, InvalidCovarianceError, make_belief, uncertainty_measure
from .geometry import (
    BeliefCone,
    Polytope,
    axis_bounds,
    cone_contains,
    cone_holds,
    cone_spread,
    mean_region_empty,
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
    """Search tunables. iteration_cap, required, is the one bound on a
    segment search, so runs are reproducible."""

    iteration_cap: int
    # Accepts only None. It stays because bench/workloads.py passes
    # rrt_timeout=None to replace(); ROADMAP item 1 deletes it together
    # with that call.
    rrt_timeout: None = None
    delta_near: float = 1.0
    delta_drain: float = 0.5
    goal_bias: float = 0.25
    min_num_of_steps: int = 1
    max_num_of_steps: int = 1

    def __post_init__(self):
        if self.rrt_timeout is not None:
            raise ValueError("rrt_timeout must be None; iteration_cap bounds the search")
        if self.iteration_cap < 1:
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
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
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


@dataclass(frozen=True)
class SegmentTask:
    """One plan segment packaged for the continuous layer."""

    mode: int
    stay: BeliefCone
    goal: BeliefCone
    min_dwell_in_goal: int
    max_total_steps: int

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError(f"mode must be nonnegative, got {self.mode}")
        if self.max_total_steps < 1:
            raise ValueError("max_total_steps must be at least 1")
        if self.min_dwell_in_goal < 0:
            raise ValueError("min_dwell_in_goal must be nonnegative")


@dataclass(frozen=True)
class SegmentResult:
    status: str  # "success" | "timeout" | "infeasible-start"
    beliefs: tuple = ()
    controls: tuple = ()
    proof: str | None = None  # "goal-empty": a timeout decided before any search

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


def rrt_select(tree: RrtTree, sample_point: np.ndarray, delta_near: float, max_depth: int):
    """Among active nodes no deeper than max_depth (those with steps left
    to extend), the one with the least covariance trace within
    delta_near of the sample; otherwise the nearest one; None if there
    is none. Ties break toward the lowest node id."""
    ids = np.flatnonzero(tree.active[: tree.size] & (tree.depth[: tree.size] <= max_depth))
    if ids.size == 0:
        return None
    dist = _distances(tree.means[ids], sample_point)
    near = ids[dist <= delta_near]
    if near.size:
        return int(near[np.argmin(tree.traces[near])])
    return int(ids[np.argmin(dist)])


def _clamp_to_box(u: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(u, lo), hi)


def rrt_extend(
    mode: SystemMode, belief: BeliefState, target_point: np.ndarray, horizon: int,
    stay: BeliefCone, control_domain: Polytope, rng: np.random.Generator,
):
    """Try 8 constant controls (7 uniform, 1 greedy least-squares toward
    the target) for `horizon` steps each from `belief`; keep the survivor
    whose final mean is closest to the target, the first one on ties.
    Returns (control, end belief) or None when every candidate leaves
    the stay cone.

    The MLO mean reads no covariance, so all mean paths come first, one
    predict_means call per step over the stack. Then, nearest final mean
    first (stable, so ties keep the lowest index), each candidate gets
    its covariances over the whole horizon from mlo_covariance and one
    stay test over all of its steps, until one stays at every step. A
    numeric failure raises at any step of an evaluated candidate, also
    past its exit from the cone; candidates ranked behind the kept one
    are not evaluated. Unless the noise depends on the state, one
    covariance walk serves every candidate.
    """
    controls = polytope_sample(control_domain, rng, _NUM_RANDOM_CONTROLS)
    lo, hi = control_domain.box
    reach = horizon * mode.B
    residual = target_point - belief.mean
    if not (np.isfinite(reach).all() and np.isfinite(residual).all()):  # LAPACK would print
        raise np.linalg.LinAlgError("the greedy control's least-squares problem has non-finite entries")
    greedy, *_ = np.linalg.lstsq(reach, residual, rcond=None)
    greedy = _clamp_to_box(greedy, lo, hi)
    if polytope_contains(control_domain, greedy):
        controls = np.vstack([controls, greedy])

    steps = [belief.mean]  # broadcast against the controls at the first step
    for _ in range(horizon):
        steps.append(predict_means(mode, steps[-1], controls))
    paths = np.stack(steps[1:], axis=1)  # (candidates, horizon, n)
    order = np.argsort(_distances(paths[:, -1], target_point), kind="stable")
    shared = None if mode.kind == "polbs_nonlinear" else _covariances(mode, belief.cov, paths[0])
    for i in order:
        covs = shared if shared is not None else _covariances(mode, belief.cov, paths[i])
        if cone_holds(stay, paths[i], cone_spread(stay, covs)).all():
            return controls[i], make_belief(paths[i, -1], covs[-1])
    return None


def _covariances(mode: SystemMode, cov: np.ndarray, path: np.ndarray) -> np.ndarray:
    """The (horizon, n, n) MLO covariances from `cov` along one (horizon,
    n) mean path, one mlo_covariance call per step."""
    covs = [cov]
    for mean in path:
        covs.append(mlo_covariance(mode, covs[-1], mean))
    return np.stack(covs[1:])


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
    lo, hi = axis_bounds(cone.H, cone.c, center.shape[0])
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


def _goal_empty(mode: SystemMode, task: SegmentTask, cov: np.ndarray) -> bool:
    """Whether no node below the root can pass the goal test, for a mode
    whose MLO covariance reads neither the control nor the mean: every
    node at depth d then carries the covariance of d steps from `cov`,
    and passed the stay test at it. The goal test needs d <=
    max_total_steps - min_dwell_in_goal, so if no mean lies in both the
    goal and the stay cone at each such d, the search cannot succeed.
    The walk steps up to max_total_steps and stops early at the first
    covariance bit-equal to the one before, which every later one
    repeats. A step that raises gives no verdict; the search raises it
    if it gets there."""
    last_goal_depth = task.max_total_steps - task.min_dwell_in_goal
    for depth in range(1, task.max_total_steps + 1):
        try:
            before, cov = cov, mlo_covariance(mode, cov)
            spreads = (cone_spread(task.goal, cov[None]), cone_spread(task.stay, cov[None]))
        except (InvalidCovarianceError, IllConditionedUpdateError):
            return False
        if depth <= last_goal_depth and not mean_region_empty(
            (task.goal, task.stay), spreads, cov.shape[-1]
        ):
            return False
        if np.array_equal(cov, before):
            return True
    return True


# Overflows become non-finite entries, which the belief checks report.
@np.errstate(over="ignore", invalid="ignore")
def solve_segment(
    sys: SwitchedSystem,
    task: SegmentTask,
    start: BeliefState,
    params: RrtParams,
    rng: np.random.Generator,
) -> SegmentResult:
    """Steer from `start` to the goal cone while the stay cone holds.

    Runs until success, params.iteration_cap iterations, or a selection
    that finds no node with steps left to extend; the last two end as a
    "timeout".
    Unless the noise depends on the state, a goal that _goal_empty
    proves empty at every depth ends the segment as a "timeout" with
    proof "goal-empty" before a random number is drawn.
    """
    mode = sys.modes[task.mode]
    if not cone_contains(task.stay, start) and not cone_contains(task.goal, start):
        return SegmentResult("infeasible-start")
    tree = RrtTree(start)
    reached = _goal_reached(mode, task, tree, 0)
    if reached is not None:
        return reached
    if mode.kind != "polbs_nonlinear" and _goal_empty(mode, task, start.cov):
        return SegmentResult("timeout", proof="goal-empty")

    goal_lo, goal_hi = _cone_mean_box(task.goal, start.mean)
    stay_lo, stay_hi = _cone_mean_box(task.stay, start.mean)
    max_depth = task.max_total_steps - params.min_num_of_steps
    for _ in range(params.iteration_cap):
        if rng.random() < params.goal_bias:
            sample = rng.uniform(goal_lo, goal_hi)
        else:
            sample = rng.uniform(stay_lo, stay_hi)
        node = rrt_select(tree, sample, params.delta_near, max_depth)
        if node is None:  # no node has the budget for the shortest extension
            return SegmentResult("timeout")
        steps = int(rng.integers(params.min_num_of_steps, params.max_num_of_steps + 1))
        if tree.depth[node] + steps > task.max_total_steps:
            continue
        branch = rrt_extend(mode, tree.beliefs[node], sample, steps, task.stay,
                            sys.control_domain, rng)
        if branch is None:
            continue
        control, end = branch
        new = tree.add(end, node, control, steps)
        rrt_drain(tree, new, params.delta_drain)
        reached = _goal_reached(mode, task, tree, new)
        if reached is not None:
            return reached
    return SegmentResult("timeout")
