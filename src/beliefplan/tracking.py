"""Finite-horizon discrete LQR tracking and closed-loop simulation.

Gains come from the backward Riccati recursion

    P_h = Q_final
    K_k = (R + B^T P_{k+1} B)^{-1} B^T P_{k+1} A
    P_k = Q + A^T P_{k+1} (A - B K_k)

and execution applies only K_0 each step, re-anchored to the reference
index (receding horizon). The simulation runs the feedback law against a
possibly different real system, with observations drawn from the
planner's observation model at the true state. A mode with a closed
form (n = p = 2, every shipped problem) steps on Python floats, with
one filter step and one checked belief per step.
"""

from __future__ import annotations

from operator import mul

import numpy as np

from .belief_rrt import InternalConsistencyError
from .dynamics import (
    ScalarExpression,
    SwitchedSystem,
    SystemMode,
    kalman_update,
    propagate_mlo,
    sample_observation,
    step_truth,
)
from .gaussian import BeliefState
from .geometry import Polytope, polytope_contains
from .synthesis import SolutionTrajectory


def lqr_gains(mode: SystemMode, h: int, Q_final, Q, R) -> tuple:
    """Backward Riccati recursion for a single mode: entry k of the
    tuple is the feedback gain k steps into the horizon."""
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
    return tuple(gains)


def track_step(
    gains: tuple,
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
    u = ref_control - gains[0] @ (est.mean - ref_mean)
    lo, hi = control_domain.box
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
    feedback law, advances the truth through real_sys and, for an
    observed mode, draws an observation from the planner's model at the
    true state and takes the filter step (kalman_update); an unobserved
    mode predicts. The run's normals come from one standard_normal
    call: per step n for the truth, then p if the mode observes. A mode
    with a closed form (n = p = 2) runs on Python floats from the control
    (track_step's sums; a domain that is not a box keeps track_step) to
    the truth, the observation and the filter step, with B u included:
    sums that numpy's BLAS may round differently in the last bit. The
    estimated trajectory carries the applied controls (arrays built once
    at the end) and the reference's segment boundaries up to num_steps.
    """
    if num_steps > ref.num_steps:
        raise ValueError(
            f"num_steps {num_steps} exceeds reference length {ref.num_steps}"
        )
    for k in range(num_steps):
        if ref.modes[k] not in gains:
            raise ValueError(f"no LQR gains for mode {ref.modes[k]}")
    if (real_sys.state_dim, real_sys.control_dim) != (sys.state_dim, sys.control_dim):
        raise ValueError("the real system's dimensions differ from the planner's")

    n = sys.state_dim
    normals = rng.standard_normal(sum(n + sys.modes[i].obs_dim for i in ref.modes[:num_steps]))
    draws = normals.tolist()
    forms = {
        i: _float_form(sys.modes[i], real_sys.modes[i], gains[i])
        for i in set(ref.modes[:num_steps]) if sys.modes[i].closed_form
    }
    domain = sys.control_domain
    lo, hi = (v.tolist() for v in domain.box)

    est = ref.beliefs[0]
    x = np.asarray(real_x0, dtype=float).reshape(-1).tolist()
    est_beliefs = [est]
    modes = []
    controls = []
    xs = [x]
    j = 0  # the next unused draw
    for k in range(num_steps):
        mode_idx = ref.modes[k]
        mode = sys.modes[mode_idx]
        form = forms.get(mode_idx)
        if form is None:
            u = track_step(gains[mode_idx], ref.beliefs[k].mean, ref.controls[k], est, domain)
            x = step_truth(real_sys.modes[mode_idx], x, u, normals[j:j + n]).tolist()
            j += n
            if mode.obs_dim:
                y = sample_observation(mode, x, normals[j:j + mode.obs_dim])
                j += mode.obs_dim
                est = kalman_update(mode, est, u, y)
            else:
                est = propagate_mlo(mode, est, u)
        else:
            K0, (a0, a1, a2, a3), (B0, B1), (w0, w1, w2, w3), (c0, c1, c2, c3), noise = form
            if domain.is_box:
                m0, m1 = est.mean.tolist()
                r0, r1 = ref.beliefs[k].mean.tolist()
                e0, e1 = m0 - r0, m1 - r1
                u = [low if (v := r - (g0 * e0 + g1 * e1)) < low else high if v > high else v
                     for r, (g0, g1), low, high in zip(ref.controls[k].tolist(), K0, lo, hi)]
            else:
                u = track_step(gains[mode_idx], ref.beliefs[k].mean, ref.controls[k], est, domain).tolist()
            (x0, x1), (d0, d1, v0, v1) = x, draws[j:j + 4]
            j += 4
            b0, b1 = sum(map(mul, B0, u)), sum(map(mul, B1, u))
            x0, x1 = a0 * x0 + a1 * x1 + b0 + (w0 * d0 + w1 * d1), a2 * x0 + a3 * x1 + b1 + (w2 * d0 + w3 * d1)
            x = [x0, x1]
            if callable(noise):  # a state-dependent gain times the identity
                g = noise(x)
                y = (c0 * x0 + c1 * x1 + g * v0, c2 * x0 + c3 * x1 + g * v1)
            else:
                n0, n1, n2, n3 = noise
                y = (c0 * x0 + c1 * x1 + (n0 * v0 + n1 * v1), c2 * x0 + c3 * x1 + (n2 * v0 + n3 * v1))
            est = kalman_update(mode, est, u, y)
        est_beliefs.append(est)
        modes.append(mode_idx)
        controls.append(u)
        xs.append(x)
    boundaries = tuple(b for b in ref.segment_boundaries if b <= num_steps)
    trajectory = SolutionTrajectory(tuple(est_beliefs), tuple(modes), tuple(np.array(controls)), boundaries)
    return trajectory, list(np.array(xs))


def _float_form(mode: SystemMode, real_mode: SystemMode, gains: tuple) -> tuple:
    """What the tracked step of a closed-form mode reads, in Python
    floats: the rows of K_0 and of the real system's B; its A and W, the
    planner's C and its constant noise matrix as flat row-major
    sequences, or the noise gain's evaluate."""
    noise = mode.noise.evaluate if isinstance(mode.noise, ScalarExpression) else mode.noise.ravel().tolist()
    return (gains[0].tolist(), real_mode.A.ravel().tolist(), real_mode.B.tolist(),
            real_mode.W.ravel().tolist(), mode.closed_form[3], noise)
