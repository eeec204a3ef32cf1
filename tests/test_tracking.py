import hashlib
import importlib
import os
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import binom, chi2

from beliefplan import cli, dynamics, formula, synthesis, tracking
from beliefplan.belief_rrt import InternalConsistencyError
from beliefplan.dynamics import SwitchedSystem, SystemMode, noise_cov
from beliefplan.gaussian import make_belief
from beliefplan.geometry import (
    LinearExpression,
    Polytope,
    box_polytope,
    polytope_contains,
    polytope_sample,
)
from beliefplan.synthesis import SolutionTrajectory
from beliefplan.tracking import lqr_gains, simulate, track_step
import oracles
from oracles import contains_always_track_step, read_trajectory_csv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)


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
    assert np.allclose(g[0], (0.25 / 0.1125) * np.eye(2), atol=1e-9)


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
            K = g[k]
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
    assert np.allclose(u, ref_u - g[0] @ np.array([0.01, 0.0]))
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


def _square(halfspaces):
    return Polytope(tuple(LinearExpression(h, c) for h, c in halfspaces),
                    ([-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]))


DOMAINS = {
    "box_polytope": (box_polytope([(-1.0, 0.5), (-0.25, 2.0)]), True),
    # the faces of [-1, 1]^2 in another order, one of them twice
    "box_by_vertices": (_square([([0.0, -1.0], -1.0), ([1.0, 0.0], -1.0), ([-1.0, 0.0], -1.0),
                                 ([0.0, 1.0], -1.0), ([1.0, 0.0], -1.0)]), True),
    "triangle": (_triangle(), False),
    "rotated_square": (Polytope(tuple(LinearExpression(h, -1.0) for h in
                                      ([1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0])),
                                ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0])), False),
    # [-1, 1]^2 with its row x0 <= 1 written as 2 x0 <= 2
    "scaled_row_box": (_square([([2.0, 0.0], -2.0), ([-1.0, 0.0], -1.0), ([0.0, 1.0], -1.0),
                                ([0.0, -1.0], -1.0)]), False),
}


def _outcome(step, *args):
    try:
        return step(*args).tobytes()
    except InternalConsistencyError:
        return "outside"


@pytest.mark.parametrize("name", DOMAINS)
def test_box_flag_keeps_the_track_step_of_a_contains_always_reference(name):
    """A domain is_box when its halfspaces are exactly the faces of its
    vertex box; then track_step skips the membership test of the clamped
    control. On every domain track_step gives the bits, or the error, of
    the reference that always makes the test, on random estimates whose
    feedback control leaves the box, and on reference controls inside
    and outside the domain."""
    domain, is_box = DOMAINS[name]
    assert domain.is_box is is_box
    rng = np.random.default_rng(11)
    g = lqr_gains(_mode(), 1, np.eye(2), np.eye(2), 0.05 * np.eye(2))
    outcomes = set()
    for _ in range(400):
        ref_mean = rng.normal(size=2)
        ref_u = polytope_sample(domain, rng) if rng.random() < 0.9 else rng.uniform(-2, 2, 2)
        est = make_belief(ref_mean + rng.normal(scale=rng.choice([0.05, 2.0]), size=2), 0.01 * np.eye(2))
        mine = _outcome(track_step, g, ref_mean, ref_u, est, domain)
        ref = _outcome(contains_always_track_step, g[0], ref_mean, ref_u, est.mean, domain)
        assert mine == ref
        u = ref_u - g[0] @ (est.mean - ref_mean)
        outcomes.add("outside" if mine == "outside" else polytope_contains(domain, u))
    assert {False, True} <= outcomes


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


@pytest.mark.parametrize("noise, domain", [
    ("constant", "box_polytope"),
    ("constant", "rotated_square"),
    ("0.001 + 0.01*x0^2", "box_polytope"),
], ids=["constant-box", "constant-vertices", "state-dependent-box"])
def test_simulate_calls_the_filter_through_the_hooked_names(monkeypatch, noise, domain):
    """bench/run.py times the filter by replacing kalman_update in
    tracking's namespace and make_belief in dynamics' namespace. One
    simulate of an observed closed-form mode, with constant or
    state-dependent noise, in a box or a vertex control domain, must
    call each through those names, once per step: the filter step
    predicts and updates and builds one checked belief."""
    calls = {}

    def count(module, name):
        inner = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    sys, ref = _straight_reference(12, observed=True)
    if noise != "constant":
        sys = SwitchedSystem((SystemMode(np.eye(2), 0.25 * np.eye(2), np.zeros((2, 2)), C=np.eye(2), noise=noise),),
                             sys.control_domain)
    sys = SwitchedSystem(sys.modes, DOMAINS[domain][0])
    assert sys.modes[0].closed_form is not None and sys.control_domain.is_box == DOMAINS[domain][1]
    assert all(polytope_contains(sys.control_domain, u) for u in ref.controls)
    gains = {0: lqr_gains(sys.modes[0], 5, np.eye(2), np.eye(2), 0.05 * np.eye(2))}
    count(tracking, "kalman_update")
    count(dynamics, "make_belief")
    simulate(sys, sys, ref, [0.1, -0.1], 12, gains, np.random.default_rng(0))
    assert calls == {"kalman_update": 12, "make_belief": 12}


_EPS = np.finfo(float).eps


def _random_closed_form_mode(rng):
    """A random n = p = 2 mode: A a contracting rotation or a perturbed
    identity, W != 0, a general C, constant or state-dependent noise."""
    if rng.random() < 0.5:
        th = rng.uniform(-np.pi, np.pi)
        A = rng.uniform(0.5, 1.0) * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    else:
        A = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
    W = 10 ** rng.uniform(-3, -1) * rng.normal(size=(2, 2))
    C = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    noise = rng.choice(["const", "0.1*(5 - x0)^2 + 0.001", "0.05 + 0.01*x1^2"])
    if noise == "const":
        noise = 10 ** rng.uniform(-2, 0) * (rng.normal(size=(2, 2)) + 2 * np.eye(2))
    return SystemMode(A, rng.normal(scale=0.5, size=(2, 2)), W, C=C, noise=noise)


def _random_tracking_case(rng, domain, switched):
    """A planner system of one or two closed-form modes, plus an
    unobserved lbs mode when switched; a real system whose modes move
    differently; a random reference of 20 steps over those modes with
    controls inside the domain; LQR gains with a cheap control, so that
    an initial state far from the reference drives the feedback control
    out of the domain; and that initial state."""
    modes = [_random_closed_form_mode(rng) for _ in range(int(rng.integers(1, 3)))]
    if switched:
        modes.append(SystemMode(np.eye(2) + 0.2 * rng.normal(size=(2, 2)),
                                rng.normal(scale=0.5, size=(2, 2)), 0.05 * rng.normal(size=(2, 2))))
    real = [SystemMode(m.A + 0.05 * rng.normal(size=(2, 2)), m.B, 2 * m.W) for m in modes]
    sys = SwitchedSystem(tuple(modes), domain)
    steps = 20
    means = np.cumsum(rng.normal(scale=0.3, size=(steps + 1, 2)), axis=0)
    beliefs = (make_belief(means[0], 0.05 * np.eye(2)),) + tuple(make_belief(m, 0.01 * np.eye(2)) for m in means[1:])
    controls = tuple(polytope_sample(domain, rng) for _ in range(steps))
    ref = SolutionTrajectory(beliefs, tuple(int(i) for i in rng.integers(0, len(modes), steps)), controls, (0,))
    gains = {i: lqr_gains(m, 5, np.eye(2), np.eye(2), 0.01 * np.eye(2)) for i, m in enumerate(modes)}
    x0 = means[0] + rng.normal(scale=rng.choice([0.1, 3.0]), size=2)
    return sys, SwitchedSystem(tuple(real), domain), ref, x0, gains


@pytest.mark.parametrize("name", ["box_polytope", "triangle", "rotated_square"])
def test_float_step_matches_a_step_by_step_replay(name):
    """simulate against a replay of each of its steps from its own
    estimate and true state, on random switched systems: track_step,
    the truth A x + B u + W w and the observation C x + n(x) v through
    numpy, from sequential standard_normal draws (n for the truth, then
    p if the mode observes), and the filter step as oracle_predict then
    oracle_kalman_update. The closed-form step sums the same products on
    Python floats, where numpy's BLAS may fuse a multiply and an add:
    the control and the truth agree within 8 eps of the sum of their
    terms' magnitudes; the estimate within the bounds of
    test_closed_form_filter_matches_the_numpy_reference, 16 eps cond(S)
    for the covariance and 64 eps cond(S) for the mean, whose scale also
    counts the gain times the observation's terms. An unobserved mode
    predicts on the numpy path. The generators end in the same state.
    Non-box domains keep track_step, and the replay sees clamped
    controls leave them."""
    domain, is_box = DOMAINS[name]
    lo, hi = domain.box
    rng = np.random.default_rng(37)
    left_domain = observed_steps = 0
    for trial in range(40):
        sys, real_sys, ref, x0, gains = _random_tracking_case(rng, domain, switched=trial % 2 == 1)
        seed = int(rng.integers(2 ** 32))
        mine_rng, replay_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        est, xs = simulate(sys, real_sys, ref, x0, ref.num_steps, gains, mine_rng)
        for k, i in enumerate(ref.modes):
            mode, real, b, x, u = sys.modes[i], real_sys.modes[i], est.beliefs[k], xs[k], est.controls[k]
            K0, ref_mean, ref_u = gains[i][0], ref.beliefs[k].mean, ref.controls[k]
            e = b.mean - ref_mean
            u_ref = track_step(gains[i], ref_mean, ref_u, b, domain)
            assert np.all(np.abs(u - u_ref) <= 8 * _EPS * (np.abs(ref_u) + np.abs(K0) @ np.abs(e)))
            left_domain += not polytope_contains(domain, np.clip(ref_u - K0 @ e, lo, hi))
            w = replay_rng.standard_normal(2)
            x_ref = real.A @ x + real.B @ u + real.W @ w
            terms = np.abs(real.A) @ np.abs(x) + np.abs(real.B) @ np.abs(u) + np.abs(real.W) @ np.abs(w)
            assert np.all(np.abs(xs[k + 1] - x_ref) <= 8 * _EPS * terms)
            prior = oracles.oracle_predict(mode, b, u)
            mine = est.beliefs[k + 1]
            if mode.closed_form is None:
                assert mode.obs_dim == 0
                assert mine.mean.tobytes() == prior.mean.tobytes() and mine.cov.tobytes() == prior.cov.tobytes()
                continue
            observed_steps += 1
            v = replay_rng.standard_normal(2)
            nv = mode.noise(xs[k + 1]) * v if mode.kind == "polbs_nonlinear" else mode.noise @ v
            y = mode.C @ xs[k + 1] + nv
            ref_b = oracles.oracle_kalman_update(mode, prior, y)
            S = mode.C @ prior.cov @ mode.C.T + noise_cov(mode, prior.mean)
            cond = np.linalg.cond(S)
            K = np.linalg.solve(S, mode.C @ prior.cov).T
            y_terms = np.abs(y - mode.C @ prior.mean) + np.abs(mode.C) @ np.abs(xs[k + 1]) + np.abs(nv)
            mean_scale = max(np.abs(prior.mean).max(), np.abs(ref_b.mean).max(), (np.abs(K) @ y_terms).max())
            cov_scale = max(np.abs(prior.cov).max(), np.abs(ref_b.cov).max())
            assert np.abs(mine.mean - ref_b.mean).max() <= 64 * _EPS * cond * mean_scale
            assert np.abs(mine.cov - ref_b.cov).max() <= 16 * _EPS * cond * cov_scale
        assert mine_rng.bit_generator.state == replay_rng.bit_generator.state
    assert observed_steps > 300
    assert left_domain == 0 if is_box else left_domain > 20


LIGHTDARK = os.path.join(ROOT, "problems", "lightdark.json")
# bench/track_reference.csv is the CLI's trajectory.csv for light-dark at seed 0,
# up to a few ulps in its covariance cells (see test_cli.py).
TRACK_REFERENCE = os.path.join(ROOT, "bench", "track_reference.csv")


def _light_dark_executions(count, seed=2):
    """count LQR-tracked executions of the light-dark seed-0 plan, as the
    benchmark's track workload runs them: execution i draws its initial
    state from the initial belief, then its noise, from
    default_rng([seed, i]). Yields each estimated trajectory with the
    monitor's verdict."""
    problem, _, _, _, sim = cli.load_problem(LIGHTDARK)
    ref = read_trajectory_csv(TRACK_REFERENCE)
    gains = {i: lqr_gains(m, sim.lqr_horizon, sim.Q_final, sim.Q, sim.R)
             for i, m in enumerate(problem.system.modes)}
    init = problem.initial_belief
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        x0 = init.mean + np.linalg.cholesky(init.cov) @ rng.standard_normal(init.dim)
        est, _xs = tracking.simulate(
            problem.system, sim.real_system, ref, x0, ref.num_steps, gains, rng
        )
        yield est, formula.monitor(problem.formula, est, 0)


def _expected_hooks(workload):
    """EXPECTED_HOOKS[workload] of bench/run.py, read from its source
    without importing the benchmark or writing beside it."""
    path = os.path.join(ROOT, "bench", "run.py")
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    namespace = {"__name__": "bench_run", "__file__": path}
    exec(code, namespace)
    return namespace["EXPECTED_HOOKS"][workload]


def _count_hook_calls(monkeypatch, targets) -> dict:
    """Wrap each module attribute named in targets, in the namespace of
    the module that calls it, with a counter; returns the counts."""
    calls = {}
    for target in targets:
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        inner = getattr(module, attr)
        assert callable(inner), target
        calls[target] = 0

        def counted(*args, _target=target, _inner=inner, **kwargs):
            calls[_target] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    return calls


def test_one_tracked_execution_fires_every_expected_track_hook(monkeypatch):
    """The benchmark's traced track run fails when one of its expected
    hooks is missing or never called. Each of them, a module attribute
    in the namespace of the module that calls it, exists and is called
    during one load of the problem, one simulate and one monitor."""
    calls = _count_hook_calls(monkeypatch, _expected_hooks("track"))
    list(_light_dark_executions(1))
    assert calls and all(calls.values()), [t for t, n in calls.items() if not n]


DARKSWITCH = os.path.join(ROOT, "bench", "darkswitch.json")


@pytest.mark.parametrize("workload, path", [("lightdark", LIGHTDARK), ("darkswitch", DARKSWITCH)])
def test_one_solve_fires_every_expected_plan_hook(monkeypatch, tmp_path, workload, path):
    """The same guard for the benchmark's plan workloads, whose traced
    runs load the problem and solve it, light-dark after one in-process
    CLI run: each expected hook is called during one of each."""
    calls = _count_hook_calls(monkeypatch, _expected_hooks(workload))
    if workload == "lightdark":
        assert cli.run(["--problem", path, "--out", str(tmp_path), "--seed", "0"]) == 0
    problem, params, k_max, _, _ = cli.load_problem(path)
    assert synthesis.solve(problem, params, k_max=k_max, rng=np.random.default_rng(0)).ok
    assert calls and all(calls.values()), [t for t, n in calls.items() if not n]


def test_tracked_execution_bits_are_pinned():
    """SHA-256 over the estimated means and covariances and the verdicts
    of 12 tracked light-dark executions (9 satisfied, 3 failed because
    a window they need runs past the end of the trace): a change to the
    filter step, the feedback control or the monitor that moves one bit
    changes it."""
    digest = hashlib.sha256()
    verdicts = []
    for est, verdict in _light_dark_executions(12):
        digest.update(np.array([b.mean for b in est.beliefs]).tobytes())
        digest.update(np.array([b.cov for b in est.beliefs]).tobytes())
        digest.update(repr(verdict).encode())
        verdicts.append(verdict)
    assert verdicts.count(True) == 9 and verdicts.count(False) == 3
    assert digest.hexdigest() == "19a22f436c269a609232c2a4068c599eee8be68e0e4fd3089c2da76c8cc83c89"


LIGHTDARK_LINEAR = os.path.join(HERE, "data", "lightdark_linear.json")
LIGHTDARK_LINEAR_PLAN = os.path.join(HERE, "data", "lightdark_linear_seed0", "trajectory.csv")


def _tracked_runs(problem_path, plan_path, runs, seed):
    """`runs` tracked executions of a plan against the planner's own
    model, each from a true x0 drawn from the plan's initial belief:
    the estimated means (K, T + 1, n) and covariances (K, T + 1, n, n)
    and the true states (K, T + 1, n)."""
    problem, *_ = cli.load_problem(problem_path)
    ref = read_trajectory_csv(plan_path)
    sys = problem.system
    gains = {0: lqr_gains(sys.modes[0], 5, np.eye(2), np.eye(2), 0.05 * np.eye(2))}
    rng = np.random.default_rng(seed)
    start = ref.beliefs[0]
    root = np.linalg.cholesky(start.cov)
    means, covs, truth = [], [], []
    for _ in range(runs):
        x0 = start.mean + root @ rng.standard_normal(start.dim)
        est, xs = simulate(sys, sys, ref, x0, ref.num_steps, gains, rng)
        means.append([b.mean for b in est.beliefs])
        covs.append([b.cov for b in est.beliefs])
        truth.append(xs)
    return problem, np.array(means), np.array(covs), np.array(truth)


def test_tracked_filter_is_calibrated_against_the_true_state():
    """A statistical oracle for the filter. The seed-0 plan of
    tests/data/lightdark_linear (constant noise, W = 0.05 I) is tracked
    K = 200 times against its own model. The filter's belief is then
    the exact posterior, so at every step the NEES e^T P^-1 e of the
    error e = x - mean is chi-square with 2 degrees of freedom, and the
    runs are independent (Bar-Shalom, Li & Kirubarajan, 2001). Each
    family of checks below has a false-alarm rate of at most 1e-3,
    shared over its steps and predicates (Bonferroni):
    - per step, K times the mean NEES over the runs is chi-square with
      2K degrees of freedom;
    - pooled, the mean NEES is the mean of K independent run averages,
      each of variance at most 4, so within z 2 / sqrt(K) of 2;
    - for each predicate P(h.x + c <= 0) >= 1 - eps of the formula and
      each step, each of the N runs whose estimate satisfies it has the
      true state violate h.x + c <= 0 with probability at most eps, so
      the violations are at most the binomial (N, eps) bound.
    The steps within a run are not independent; the runs are the
    sample."""
    K, alpha = 200, 1e-3
    problem, means, covs, truth = _tracked_runs(LIGHTDARK_LINEAR, LIGHTDARK_LINEAR_PLAN, K, 2006)
    steps = means.shape[1]
    e = truth - means
    nees = np.einsum("kti,ktij,ktj->kt", e, np.linalg.inv(covs), e)
    lo, hi = chi2.ppf([alpha / steps / 2, 1 - alpha / steps / 2], 2 * K) / K
    per_step = nees.mean(axis=0)
    assert lo <= per_step.min() and per_step.max() <= hi, (per_step.min(), per_step.max())
    z = NormalDist().inv_cdf(1 - alpha / 2)
    assert abs(nees.mean() - 2.0) <= z * 2.0 / np.sqrt(K), nees.mean()
    preds = [p for a in formula.atomic_propositions(problem.formula) for p in a.cone.constraints]
    assert len(preds) == 8
    checked = 0
    for p in preds:
        h, c, eps = p.expr.h, p.expr.c, p.epsilon
        spread = NormalDist().inv_cdf(1 - eps) * np.sqrt(np.einsum("i,ktij,j->kt", h, covs, h))
        passes = means @ h + c + spread <= 0.0
        violations = (passes & (truth @ h + c > 0.0)).sum(axis=0)
        runs = passes.sum(axis=0)
        bound = binom.ppf(1 - alpha / (len(preds) * steps), runs, eps)
        assert (violations <= bound).all(), (p, (violations - bound).max())
        checked += (bound < runs).sum()  # steps where the bound can fail
    assert checked > 1000

