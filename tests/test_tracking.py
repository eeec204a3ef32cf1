import numpy as np
import pytest

from beliefplan import dynamics, tracking
from beliefplan.belief_rrt import InternalConsistencyError
from beliefplan.dynamics import SwitchedSystem, SystemMode
from beliefplan.gaussian import make_belief
from beliefplan.geometry import LinearExpression, Polytope, box_polytope, polytope_contains
from beliefplan.synthesis import SolutionTrajectory
from beliefplan.tracking import lqr_gains, simulate, track_step


def _mode(A=None, B=None, W=None, observed=False):
    A = np.eye(2) if A is None else A
    B = 0.25 * np.eye(2) if B is None else B
    W = np.zeros((2, 2)) if W is None else W
    if observed:
        return SystemMode(A, B, W, C=np.eye(2), noise=[[1e-6, 0.0], [0.0, 1e-6]])
    return SystemMode(A, B, W)


def test_lqr_h1_gain_closed_form():
    # K = (R + B'QB)^{-1} B'QA = 0.25/(0.05+0.0625) I = 2.2222... I
    mode = _mode()
    g = lqr_gains(mode, 1, np.eye(2), np.eye(2), 0.05 * np.eye(2))
    assert np.allclose(g.K_seq[0], (0.25 / 0.1125) * np.eye(2), atol=1e-9)


def test_lqr_riccati_residuals_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        h = int(rng.integers(1, 21))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        mode = SystemMode(A, B, np.zeros((n, n)))
        Mq = rng.normal(size=(n, n))
        Q = Mq @ Mq.T
        Mqf = rng.normal(size=(n, n))
        Qf = Mqf @ Mqf.T
        Mr = rng.normal(size=(m, m))
        R = Mr @ Mr.T + 0.1 * np.eye(m)
        g = lqr_gains(mode, h, Qf, Q, R)
        # independent forward reconstruction of the P sequence
        P = Qf
        for k in range(h - 1, -1, -1):
            K = g.K_seq[k]
            residual = (R + B.T @ P @ B) @ K - B.T @ P @ A
            assert np.linalg.norm(residual, "fro") <= 1e-9 * max(1.0, np.linalg.norm(P, "fro"))
            P = Q + A.T @ P @ (A - B @ K)


def test_lqr_rejects_singular_R():
    with pytest.raises(ValueError):
        lqr_gains(_mode(), 5, np.eye(2), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        lqr_gains(_mode(), 0, np.eye(2), np.eye(2), np.eye(2))


def test_track_step_feedback_and_clamp():
    g = lqr_gains(_mode(), 1, np.eye(2), np.eye(2), 0.05 * np.eye(2))
    domain = box_polytope([(-1, 1), (-1, 1)])
    ref_mean = np.array([0.0, 0.0])
    ref_u = np.array([0.1, 0.0])
    est = make_belief([0.01, 0.0], 0.01 * np.eye(2))
    u = track_step(g, ref_mean, ref_u, est, domain)
    assert np.allclose(u, ref_u - g.K_seq[0] @ np.array([0.01, 0.0]))
    # large error saturates at the box
    est_far = make_belief([10.0, -10.0], 0.01 * np.eye(2))
    u = track_step(g, ref_mean, ref_u, est_far, domain)
    assert np.allclose(u, [-1.0, 1.0])


def _triangle():
    """Hull of (-1, -1), (1, -1), (-1, 1): the box [-1, 1]^2 cut by u0 + u1 <= 0."""
    halfspaces = (
        LinearExpression([-1.0, 0.0], -1.0),
        LinearExpression([0.0, -1.0], -1.0),
        LinearExpression([1.0, 1.0], 0.0),
    )
    return Polytope(halfspaces, ([-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]))


def test_track_step_pulls_back_into_a_non_box_domain():
    g = lqr_gains(_mode(), 1, np.eye(2), np.eye(2), 0.05 * np.eye(2))
    ref_mean = np.array([0.0, 0.0])
    ref_u = np.array([0.2, -0.6])
    est = make_belief([-10.0, -10.0], 0.01 * np.eye(2))
    u = track_step(g, ref_mean, ref_u, est, _triangle())
    # clamped to (1, 1), outside; pulled back along the segment to u0 + u1 = 0
    assert polytope_contains(_triangle(), u)
    assert u.sum() == pytest.approx(0.0, abs=1e-12)
    t = (u - ref_u) / (np.array([1.0, 1.0]) - ref_u)
    assert t[0] == pytest.approx(t[1]) and 0.0 <= t[0] <= 1.0


def test_track_step_rejects_reference_control_outside_domain():
    g = lqr_gains(_mode(), 1, np.eye(2), np.eye(2), 0.05 * np.eye(2))
    est = make_belief([-10.0, -10.0], 0.01 * np.eye(2))
    with pytest.raises(InternalConsistencyError):
        track_step(g, np.zeros(2), np.array([0.9, 0.9]), est, _triangle())


def _straight_reference(num_steps, observed=True):
    """Constant-control reference under the planner model."""
    from beliefplan.dynamics import propagate_mlo

    mode = _mode(observed=observed)
    sys = SwitchedSystem((mode,), box_polytope([(-1, 1), (-1, 1)]))
    u = np.array([0.5, 0.0])
    b = make_belief([0.0, 0.0], 0.01 * np.eye(2))
    beliefs = [b]
    for _ in range(num_steps):
        b = propagate_mlo(mode, b, u)
        beliefs.append(b)
    ref = SolutionTrajectory(
        tuple(beliefs), (0,) * num_steps, (u,) * num_steps, (0,)
    )
    return sys, ref


def test_simulate_zero_error_closed_loop():
    """real_x0 = ref mean, real = planned noiseless dynamics, near-zero
    measurement noise: estimated means track the reference within 1e-6."""
    sys, ref = _straight_reference(20)
    gains = {0: lqr_gains(sys.modes[0], 5, np.eye(2), np.eye(2), 0.05 * np.eye(2))}
    real = SwitchedSystem((_mode(),), sys.control_domain)
    est_trace, xs = simulate(
        sys, real, ref, ref.beliefs[0].mean, 20, gains, np.random.default_rng(0)
    )
    assert len(est_trace.beliefs) == 21
    assert len(xs) == 21
    for k in range(21):
        assert np.linalg.norm(est_trace.beliefs[k].mean - ref.beliefs[k].mean) <= 1e-6


def test_simulate_pulls_back_offset_start():
    sys, ref = _straight_reference(40)
    gains = {0: lqr_gains(sys.modes[0], 5, np.eye(2), np.eye(2), 0.05 * np.eye(2))}
    real = SwitchedSystem((_mode(),), sys.control_domain)
    x0 = ref.beliefs[0].mean + np.array([0.3, -0.3])
    est_trace, xs = simulate(sys, real, ref, x0, 40, gains, np.random.default_rng(0))
    start_err = np.linalg.norm(xs[0] - ref.beliefs[0].mean)
    end_err = np.linalg.norm(xs[-1] - ref.beliefs[-1].mean)
    assert end_err < 0.1 * start_err


def test_simulate_returns_the_applied_controls():
    """The estimated trajectory carries, bit for bit, the feedback
    control applied at each step, and the reference's segment
    boundaries up to the simulated length."""
    sys, ref = _straight_reference(12, observed=True)
    ref = SolutionTrajectory(ref.beliefs, ref.modes, ref.controls, (0, 6, 10))
    gains = {0: lqr_gains(sys.modes[0], 5, np.eye(2), np.eye(2), 0.05 * np.eye(2))}
    real = SwitchedSystem((_mode(W=0.01 * np.eye(2)),), sys.control_domain)
    est, _xs = simulate(sys, real, ref, [0.1, -0.1], 8, gains, np.random.default_rng(3))
    assert isinstance(est, SolutionTrajectory)
    assert est.num_steps == len(est.controls) == 8
    assert est.segment_boundaries == (0, 6)
    for k, u in enumerate(est.controls):
        expected = track_step(
            gains[0], ref.beliefs[k].mean, ref.controls[k], est.beliefs[k], sys.control_domain
        )
        assert np.array_equal(u, expected)


def test_simulate_validates_inputs():
    sys, ref = _straight_reference(5)
    gains = {0: lqr_gains(sys.modes[0], 5, np.eye(2), np.eye(2), 0.05 * np.eye(2))}
    real = SwitchedSystem((_mode(),), sys.control_domain)
    with pytest.raises(ValueError):
        simulate(sys, real, ref, [0.0, 0.0], 10, gains, np.random.default_rng(0))
    with pytest.raises(ValueError):
        simulate(sys, real, ref, [0.0, 0.0], 5, {}, np.random.default_rng(0))


def test_simulate_deterministic_given_seed():
    sys, ref = _straight_reference(15)
    gains = {0: lqr_gains(sys.modes[0], 5, np.eye(2), np.eye(2), 0.05 * np.eye(2))}
    real = SwitchedSystem((_mode(W=0.01 * np.eye(2)),), sys.control_domain)
    t1, x1 = simulate(sys, real, ref, [0.1, 0.1], 15, gains, np.random.default_rng(4))
    t2, x2 = simulate(sys, real, ref, [0.1, 0.1], 15, gains, np.random.default_rng(4))
    assert all(np.array_equal(a, b) for a, b in zip(x1, x2))
    assert all(
        np.array_equal(a.mean, b.mean) for a, b in zip(t1.beliefs, t2.beliefs)
    )


def test_simulate_calls_the_filter_through_the_hooked_names(monkeypatch):
    """bench/run.py times the filter by replacing kalman_update in
    tracking's namespace and make_belief in dynamics' namespace. One
    simulate of an observed mode must call each through those names:
    kalman_update once per step, make_belief twice (predict, then the
    update)."""
    calls = {}

    def count(module, name):
        inner = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    sys, ref = _straight_reference(12, observed=True)
    gains = {0: lqr_gains(sys.modes[0], 5, np.eye(2), np.eye(2), 0.05 * np.eye(2))}
    count(tracking, "kalman_update")
    count(dynamics, "make_belief")
    simulate(sys, sys, ref, [0.1, -0.1], 12, gains, np.random.default_rng(0))
    assert calls == {"kalman_update": 12, "make_belief": 24}
