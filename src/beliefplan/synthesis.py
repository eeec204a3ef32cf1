"""Counterexample-guided synthesis loop.

The discrete planner proposes (atomic, mode) segment sequences with
dwell windows; the belief-space RRT checks each segment's dynamical
feasibility, chaining start beliefs through the plan. A segment failure
excludes the plan's prefix up to that segment and the loop continues
until a realized trajectory passes the trace monitor or no candidate
remains.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .belief_rrt import (
    InternalConsistencyError,
    RrtParams,
    SegmentTask,
    solve_segment,
)
from .discrete_planner import (
    CounterexampleStore,
    DiscretePlan,
    abstract,
    add_counterexample,
    bmc_next_candidate,
)
from .dynamics import SwitchedSystem
from .formula import Trace, monitor, monitor_word
from .gaussian import BeliefState, uncertainty_measure

_GROWTH_WARN_STEPS = 50


@dataclass(frozen=True)
class Problem:
    system: SwitchedSystem
    initial_belief: BeliefState
    formula: object

    def __post_init__(self):
        if self.initial_belief.dim != self.system.state_dim:
            raise ValueError(
                f"initial belief dimension {self.initial_belief.dim} != "
                f"system state dimension {self.system.state_dim}"
            )


@dataclass(frozen=True)
class SolutionTrajectory(Trace):
    """Belief trajectory with the T controls applied between its T+1
    beliefs and the belief index at which each plan segment starts; the
    trace monitor accepts it as it is."""

    controls: tuple
    segment_boundaries: tuple

    def __post_init__(self):
        super().__post_init__()
        if len(self.controls) != len(self.modes):
            raise ValueError("need one control per step")

    @property
    def num_steps(self) -> int:
        return len(self.modes)


@dataclass
class SynthesisResult:
    trajectory: SolutionTrajectory | None
    plan: DiscretePlan | None
    counterexamples: list
    iterations: int
    k_max: int
    candidate_log: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.trajectory is not None


def _warn_on_uncertainty_growth(beliefs) -> None:
    streak = 0
    prev = None
    for b in beliefs:
        tr = uncertainty_measure(b)
        if prev is not None and tr > prev + 1e-12:
            streak += 1
            if streak >= _GROWTH_WARN_STEPS:
                warnings.warn(
                    f"covariance trace grew for {streak} consecutive steps; "
                    "the uncertainty of this system may be unstable",
                    RuntimeWarning,
                )
                return
        else:
            streak = 0
        prev = tr


def _attempt_plan(
    problem: Problem, plan: DiscretePlan, params: RrtParams, rng
):
    """Chain segment RRT solves along the plan. Returns either
    ("ok", trajectory) or ("fail", failing segment index, status, proof)."""
    segs = plan.segments
    K = len(segs)
    cap = problem.formula.horizon + 1

    beliefs = [problem.initial_belief]
    modes: list[int] = []
    controls: list = []
    boundaries = [0]
    realized = []

    for j, seg in enumerate(segs):
        positions_used = len(beliefs)
        remaining = cap - positions_used
        if j < K - 1:
            goal = segs[j + 1].atomic.cone
            min_dwell = 0
            budget = min(seg.dwell_max, max(remaining, 1))
        else:
            goal = seg.atomic.cone
            min_dwell = max(seg.dwell_min - 1, 0)
            budget = min(seg.dwell_max - 1, remaining) if seg.dwell_max > 1 else 0
        task = SegmentTask(
            mode=seg.mode,
            stay=seg.atomic.cone,
            goal=goal,
            min_dwell_in_goal=min_dwell,
            max_total_steps=max(budget, 1),  # a zero-step success stays valid
        )
        result = solve_segment(problem.system, task, beliefs[-1], params, rng)
        if not result.ok:
            return ("fail", j, result.status, result.proof)
        beliefs.extend(result.beliefs[1:])
        controls.extend(result.controls)
        modes.extend([seg.mode] * result.num_steps)
        boundaries.append(len(beliefs) - 1)
        realized.append(result.num_steps)

    # Realized dwells (word positions): segment j covers its steps, the
    # final segment additionally owns its entry position.
    dwells = list(realized)
    dwells[-1] += 1
    if not monitor_word(problem.formula, plan.signature(), dwells):
        return ("fail", K - 1, "realized-dwell", None)

    trajectory = SolutionTrajectory(
        tuple(beliefs), tuple(modes), tuple(controls), tuple(boundaries[:-1])
    )
    return ("ok", trajectory)


def solve(
    problem: Problem,
    params: RrtParams,
    k_max: int,
    *,
    rng: np.random.Generator,
) -> SynthesisResult:
    """Alternate BMC proposals and RRT feasibility checks until a
    trajectory passes the monitor or the candidate space is exhausted.
    `rng` seeds every RRT segment, so a solve is reproducible."""
    pairs = abstract(problem.formula, problem.system)
    cex = CounterexampleStore()
    iterations = 0
    log: list = []

    while True:
        plan = bmc_next_candidate(pairs, problem.formula, cex, k_max)
        if plan is None:
            return SynthesisResult(None, None, cex.as_list(), iterations, k_max, log)
        iterations += 1
        outcome = _attempt_plan(problem, plan, params, rng)
        entry = {
            "plan": [list(p) for p in plan.signature()],
            "windows": [[seg.dwell_min, seg.dwell_max] for seg in plan.segments],
            "outcome": "success",
            "failed_segment": None,
        }
        log.append(entry)
        if outcome[0] == "fail":
            _, j, status, proof = outcome
            add_counterexample(cex, plan.signature()[: j + 1])
            entry.update(outcome=status, failed_segment=j)
            if proof is not None:
                entry["proof"] = proof
            continue
        trajectory = outcome[1]
        _warn_on_uncertainty_growth(trajectory.beliefs)
        if not monitor(problem.formula, trajectory, 0):
            raise InternalConsistencyError(
                "assembled trajectory failed the monitor; planner and "
                "monitor disagree"
            )
        return SynthesisResult(trajectory, plan, cex.as_list(), iterations, k_max, log)
