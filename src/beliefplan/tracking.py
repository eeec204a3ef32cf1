"""Finite-horizon discrete LQR tracking and closed-loop simulation.

Gains come from the backward Riccati recursion

    P_h = Q_final
    K_k = (R + B^T P_{k+1} B)^{-1} B^T P_{k+1} A
    P_k = Q + A^T P_{k+1} (A - B K_k)

and execution applies only K_0 each step, re-anchored to the reference
index (receding horizon). The simulation runs the feedback law against a
possibly different real system, with observations drawn from the
planner's observation model at the true state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief_rrt import InternalConsistencyError
from .dynamics import (
    SwitchedSystem,
    SystemMode,
    kalman_update,
    predict,
    sample_observation,
    step_truth,
)
from .gaussian import BeliefState
from .geometry import Polytope, polytope_contains
from .synthesis import SolutionTrajectory


@dataclass(frozen=True)
class LqrGains:
    """K_seq[k]: the feedback gain k steps into the horizon."""

    K_seq: tuple


def lqr_gains(mode: SystemMode, h: int, Q_final, Q, R) -> LqrGains:
    """Backward Riccati recursion for a single mode."""
    if h < 1:
        raise ValueError("horizon must be at least 1")
    A, B = mode.A, mode.B
    Q_final = np.atleast_2d(np.asarray(Q_final, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n, m = mode.state_dim, mode.control_dim
    if Q_final.shape != (n, n) or Q.shape != (n, n) or R.shape != (m, m):
        raise ValueError("cost matrix dimensions do not match the mode")
    if np.linalg.matrix_rank(R) < m:
        raise ValueError("R must be positive definite (nonsingular)")
    P = Q_final
    gains = []
    for _ in range(h):
        BtP = B.T @ P
        K = np.linalg.solve(R + BtP @ B, BtP @ A)
        P = Q + A.T @ P @ (A - B @ K)
        gains.append(K)
    gains.reverse()
    return LqrGains(tuple(gains))


def track_step(
    gains: LqrGains,
    ref_mean: np.ndarray,
    ref_control: np.ndarray,
    est: BeliefState,
    control_domain: Polytope,
) -> np.ndarray:
    """u = ref_control - K_0 (mean - ref_mean), clamped coordinate-wise
    into the control domain's bounding box, which lies inside a domain
    that is_box. A clamped control still outside the domain (possible
    when the domain is not a box) is pulled back along the segment
    toward ref_control, to its last point inside. Raises
    InternalConsistencyError when ref_control is itself outside."""
    u = ref_control - gains.K_seq[0] @ (est.mean - ref_mean)
    lo, hi = control_domain.bounding_box()
    u = np.minimum(np.maximum(u, lo), hi)
    if control_domain.is_box or polytope_contains(control_domain, u):
        return u
    if not polytope_contains(control_domain, ref_control):
        raise InternalConsistencyError(
            f"reference control {ref_control} lies outside the control domain"
        )
    H, c = control_domain.H, control_domain.c
    slack = -(H @ ref_control + c)
    rise = H @ (u - ref_control)
    t = np.min(slack[rise > 0] / rise[rise > 0], initial=1.0)
    return ref_control + max(t, 0.0) * (u - ref_control)


def simulate(
    sys: SwitchedSystem,
    real_sys: SwitchedSystem,
    ref: SolutionTrajectory,
    real_x0,
    num_steps: int,
    gains: dict,
    rng: np.random.Generator,
):
    """Track the reference for num_steps against the real system.

    Returns (estimated trajectory, true state sequence). The estimate
    starts at the reference initial belief; each step applies the
    feedback law, advances the truth through real_sys, draws an
    observation from the planner's model at the true state, and filters.
    The estimated trajectory carries the applied controls and the
    reference's segment boundaries up to num_steps.
    """
    if num_steps > ref.num_steps:
        raise ValueError(
            f"num_steps {num_steps} exceeds reference length {ref.num_steps}"
        )
    for k in range(num_steps):
        if ref.modes[k] not in gains:
            raise ValueError(f"no LQR gains for mode {ref.modes[k]}")

    est = ref.beliefs[0]
    x = np.asarray(real_x0, dtype=float).reshape(-1)
    est_beliefs = [est]
    modes = []
    controls = []
    xs = [x]
    for k in range(num_steps):
        mode_idx = ref.modes[k]
        mode = sys.modes[mode_idx]
        real_mode = real_sys.modes[mode_idx]
        u = track_step(
            gains[mode_idx],
            ref.beliefs[k].mean,
            ref.controls[k],
            est,
            sys.control_domain,
        )
        x = step_truth(real_mode, x, u, rng)
        est = predict(mode, est, u)
        if mode.obs_dim > 0:
            y = sample_observation(mode, x, rng)
            est = kalman_update(mode, est, y)
        est_beliefs.append(est)
        modes.append(mode_idx)
        controls.append(u)
        xs.append(x)
    boundaries = tuple(b for b in ref.segment_boundaries if b <= num_steps)
    return SolutionTrajectory(tuple(est_beliefs), tuple(modes), tuple(controls), boundaries), xs
