"""Acceptance suite: one test per criterion, tolerances pinned.

The light-dark scenario: a planar single integrator (A = I, B = 0.25 I,
no process noise) with measurement noise 0.1 (5 - x0)^2 + 0.001 that
vanishes near the light at x0 = 5. The specification

    (free_space) U[0,240] G[0,40] (target)

forces a detour toward the light to collapse uncertainty before holding
the tight chance-constrained target box at the origin.
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from beliefplan.belief_rrt import RrtParams
from beliefplan.cli import load_problem
from beliefplan.dynamics import SwitchedSystem, SystemMode, kalman_update, propagate_mlo
from beliefplan.formula import (
    atomic_propositions,
    monitor,
    monitor_dwells,
    monitor_word,
)
from beliefplan.gaussian import make_belief, std_normal_cdf, std_normal_quantile
from beliefplan.geometry import (
    LinearExpression,
    ProbabilisticLinearPredicate,
    box_polytope,
    cone_contains,
    cone_margin,
)
from beliefplan.synthesis import solve
from beliefplan.tracking import lqr_gains, simulate

from oracles import bisect_quantile, oracle_monitor, oracle_word, random_formula, random_trace

HERE = os.path.dirname(os.path.abspath(__file__))
LIGHTDARK = os.path.join(HERE, os.pardir, "problems", "lightdark.json")
DARKSWITCH = os.path.join(HERE, os.pardir, "bench", "darkswitch.json")

SEEDS = (0, 1, 2, 3, 4)


def _report(n, text):
    print(f"[criterion {n}] PASS: {text}")


@pytest.fixture(scope="module")
def lightdark():
    problem, params, k_max, _seed, sim = load_problem(LIGHTDARK)
    return problem, params, k_max, sim


@pytest.fixture(scope="module")
def solutions(lightdark):
    """Full solves for all five seeds (criteria 1-4 share these)."""
    problem, params, k_max, _sim = lightdark
    assert params.iteration_cap >= 2 * 10 ** 4
    out = {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        out[seed] = solve(problem, params, k_max=k_max, rng=rng)
    return out


def _cones(problem):
    atomics = {a.label: a for a in atomic_propositions(problem.formula)}
    return atomics["free_space"].cone, atomics["target"].cone


def test_criterion_01_lightdark_end_to_end(lightdark, solutions):
    problem, *_ = lightdark
    free_cone, target_cone = _cones(problem)
    successes = 0
    for seed in SEEDS:
        res = solutions[seed]
        if not res.ok:
            continue
        t = res.trajectory
        assert t.num_steps <= 281
        assert monitor(problem.formula, t, 0) is True
        # the final plan segment is the target hold; its entry index
        # starts the >= 41 positions that must sit in the target cone
        target_start = t.segment_boundaries[-1]
        target_beliefs = t.beliefs[target_start:]
        assert len(target_beliefs) >= 41
        for b in target_beliefs:
            assert cone_contains(target_cone, b)
        for b in t.beliefs[:target_start]:
            assert cone_contains(free_cone, b)
        successes += 1
    assert successes >= 4, f"only {successes}/5 seeds succeeded"
    _report(1, f"{successes}/5 seeds solved; monitor true; safe/target cones hold")


def test_criterion_02_active_perception(solutions):
    res = solutions[0]
    assert res.ok
    final_cov = res.trajectory.beliefs[-1].cov
    final_trace = float(np.trace(final_cov))
    bound = 2.0 * (0.25 / std_normal_quantile(0.95)) ** 2
    assert bound == pytest.approx(0.0462, abs=5e-5)
    assert final_trace <= bound
    assert final_trace <= 0.25 * 0.2
    _report(2, f"final trace(cov) = {final_trace:.4g} <= {bound:.4g} and <= 0.05")


def test_criterion_03_cegis_trace(lightdark, solutions):
    problem, *_ = lightdark
    res = solutions[0]
    log = res.candidate_log
    assert log[0]["plan"] == [["target", 0]]
    assert log[0]["outcome"] == "infeasible-start"
    assert (("target", 0),) in [tuple(map(tuple, p)) for p in res.counterexamples]
    assert log[1]["plan"] == [["free_space", 0], ["target", 0]]
    assert log[1]["outcome"] == "success"

    # enumeration oracle: declaration order is (free_space, target), so
    # the plans preceding [(target,0)] in canonical order are exactly
    # the all-free_space K=1 plans, and none of them admits a
    # satisfying dwell assignment while [(target,0)] does
    cap = problem.formula.horizon + 1
    assert cap == 281
    for d in range(1, cap + 1):
        assert not oracle_word(problem.formula, [("free_space", 0)], [d])
    assert oracle_word(problem.formula, [("target", 0)], [41])
    every_dwell = np.arange(1, cap + 1)[:, None]
    assert not monitor_dwells(problem.formula, [("free_space", 0)], every_dwell).any()
    assert monitor_word(problem.formula, [("target", 0)], [41])
    _report(3, "K=1 [(target,0)] fails infeasible-start, K=2 plan follows")


def test_criterion_04_tracked_execution(lightdark, solutions):
    problem, _params, _k_max, sim = lightdark
    res = solutions[0]
    assert res.ok
    ref = res.trajectory
    gains = {
        i: lqr_gains(mode, sim.lqr_horizon, sim.Q_final, sim.Q, sim.R)
        for i, mode in enumerate(problem.system.modes)
    }
    real_sys = sim.real_system

    def satisfied(real_x0, rng):
        est_trace, _xs = simulate(
            problem.system, real_sys, ref, real_x0, ref.num_steps, gains, rng
        )
        return monitor(problem.formula, est_trace, 0)

    # fixed-seed run from the paper's offset start
    assert satisfied(np.array([0.5, 2.75]), np.random.default_rng(0))

    # Monte Carlo over initial states drawn from the initial belief
    wins = 0
    init = problem.initial_belief
    L = np.linalg.cholesky(init.cov)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x0 = init.mean + L @ rng.standard_normal(init.dim)
        wins += satisfied(x0, rng)
    assert wins >= 16, f"only {wins}/20 tracked runs satisfied the formula"
    _report(4, f"fixed-seed tracked run satisfies formula; {wins}/20 random runs")


def test_criterion_05_gaussian_numerics():
    grid = np.linspace(1e-6, 1 - 1e-6, 1000)
    worst = max(abs(std_normal_cdf(std_normal_quantile(p)) - p) for p in grid)
    assert worst <= 1e-9
    assert std_normal_quantile(0.99) == pytest.approx(bisect_quantile(0.99), abs=1e-8)
    assert std_normal_quantile(0.99) == pytest.approx(2.3263478740, abs=1e-8)
    assert std_normal_quantile(0.95) == pytest.approx(bisect_quantile(0.95), abs=1e-8)
    assert std_normal_quantile(0.95) == pytest.approx(1.6448536270, abs=1e-8)
    _report(5, f"roundtrip error {worst:.2e} <= 1e-9; pinned quantiles match")


def test_criterion_06_chance_constraint_monte_carlo():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        mean = rng.normal(scale=2.0, size=dim)
        Lm = rng.normal(size=(dim, dim))
        cov = Lm @ Lm.T + 0.05 * np.eye(dim)
        b = make_belief(mean, cov)
        h = rng.normal(size=dim)
        eps = float(rng.uniform(0.01, 0.5))
        # place the offset exactly on the cone boundary
        c = -(h @ mean) - std_normal_quantile(1.0 - eps) * math.sqrt(h @ cov @ h)
        pred = ProbabilisticLinearPredicate(LinearExpression(h, c), eps)
        assert abs(cone_margin(pred, b)) <= 1e-9
        L = np.linalg.cholesky(b.cov)
        z = rng.standard_normal((10 ** 6, dim))
        x = b.mean + z @ L.T
        freq = float(np.mean(x @ h + c <= 0.0))
        assert abs(freq - (1.0 - eps)) <= 0.002, (eps, freq)
    _report(6, "20 boundary predicates: MC frequency within +-0.002 of 1-eps")


def test_criterion_07_monitor_oracle_equivalence():
    rng = np.random.default_rng(777)
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(1, 3))
        num_modes = int(rng.integers(1, 4))
        f = random_formula(rng, dim, num_modes, depth=int(rng.integers(0, 4)))
        h = f.horizon
        if h + 1 > 12:
            continue
        length = h + 1 + int(rng.integers(0, max(1, 12 - h)))
        length = min(length, 12)
        tr = random_trace(rng, dim, num_modes, length)
        assert monitor(f, tr, 0) == oracle_monitor(f, tr, 0)
        checked += 1
    _report(7, "1000 randomized instances: monitor == brute-force oracle")


def test_criterion_08_filtering_invariants():
    rng = np.random.default_rng(31)
    mode_pool = []
    for _ in range(5):
        n = int(rng.integers(1, 4))
        A = rng.normal(scale=0.6, size=(n, n))
        B = rng.normal(size=(n, n))
        W = rng.normal(scale=0.3, size=(n, n))
        C = rng.normal(size=(n, n))
        Ln = rng.normal(size=(n, n))
        noise = Ln @ Ln.T + 0.1 * np.eye(n)
        mode_pool.append(SystemMode(A, B, W, C=C, noise=noise))
    steps = 0
    while steps < 10 ** 4:
        mode = mode_pool[int(rng.integers(len(mode_pool)))]
        n = mode.state_dim
        Lc = rng.normal(size=(n, n))
        b = make_belief(rng.normal(size=n), Lc @ Lc.T + 1e-3 * np.eye(n))
        for _ in range(10):
            u = rng.normal(size=n)
            if rng.random() < 0.5:
                b = propagate_mlo(mode, b, u)
            else:
                y = rng.normal(size=n)
                b = kalman_update(mode, b, y)
            assert np.array_equal(b.cov, b.cov.T)
            assert np.linalg.eigvalsh(b.cov)[0] >= -1e-9
            steps += 1
    # W = 0, A = I: the covariance trace never increases under MLO
    mode = SystemMode(
        np.eye(2), 0.25 * np.eye(2), np.zeros((2, 2)),
        C=np.eye(2), noise="0.1*(5 - x0)^2 + 0.001",
    )
    b = make_belief([0.0, 2.5], 0.1 * np.eye(2))
    for _ in range(200):
        nxt = propagate_mlo(mode, b, rng.uniform(-1, 1, size=2))
        assert np.trace(nxt.cov) <= np.trace(b.cov) + 1e-12
        b = nxt
    _report(8, "10^4 filter steps symmetric PSD; W=0 trace non-increasing")


def test_criterion_09_lqr():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        h = int(rng.integers(1, 21))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        mode = SystemMode(A, B, np.zeros((n, n)))
        Mq = rng.normal(size=(n, n))
        Mqf = rng.normal(size=(n, n))
        Mr = rng.normal(size=(m, m))
        Q = Mq @ Mq.T
        Qf = Mqf @ Mqf.T
        R = Mr @ Mr.T + 0.1 * np.eye(m)
        g = lqr_gains(mode, h, Qf, Q, R)
        P = Qf
        for k in range(h - 1, -1, -1):
            K = g.K_seq[k]
            residual = (R + B.T @ P @ B) @ K - B.T @ P @ A
            assert np.linalg.norm(residual, "fro") <= 1e-9 * max(
                1.0, np.linalg.norm(B.T @ P @ A, "fro")
            )
            P = Q + A.T @ P @ (A - B @ K)
    mode = SystemMode(np.eye(2), 0.25 * np.eye(2), np.zeros((2, 2)))
    g = lqr_gains(mode, 1, np.eye(2), np.eye(2), 0.05 * np.eye(2))
    assert np.allclose(g.K_seq[0], 2.22222222222222 * np.eye(2), atol=1e-9)
    _report(9, "Riccati residuals <= 1e-9; h=1 gain 2.2222 I")


def test_criterion_10_cli_reproducibility(tmp_path):
    # The child does not inherit pytest's pythonpath setting, so put the
    # absolute src directory first on its PYTHONPATH.
    src = os.path.abspath(os.path.join(HERE, os.pardir, "src"))
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        r = subprocess.run(
            [
                sys.executable, "-m", "beliefplan.cli",
                "--problem", LIGHTDARK, "--out", str(out),
                "--seed", "0", "--iteration-cap", "20000",
            ],
            capture_output=True, text=True, env=env,
        )
        assert r.returncode == 0, r.stderr
        outs.append(out)
    for name in ("plan.json", "trajectory.csv", "simulation.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    _report(10, "two identical CLI runs produced byte-identical outputs")


def _solves_digest(results) -> str:
    """SHA-256 over each solve's plan segments and candidate log (as
    JSON), then its trajectory means, covariances and controls; a solve
    without a solution adds its candidate log only."""
    h = hashlib.sha256()
    for r in results:
        if not r.ok:
            h.update(json.dumps({"log": r.candidate_log}, sort_keys=True).encode())
            continue
        t = r.trajectory
        doc = {
            "plan": [[s.label, s.mode, s.dwell_min, s.dwell_max] for s in r.plan.segments],
            "log": r.candidate_log,
        }
        h.update(json.dumps(doc, sort_keys=True).encode())
        h.update(np.array([b.mean for b in t.beliefs]).tobytes())
        h.update(np.array([b.cov for b in t.beliefs]).tobytes())
        h.update(np.array(t.controls).tobytes())
    return h.hexdigest()


# Digests of RRT seeds 0-4 as the problem files set them up: a change to
# any decision of the segment RRT or of the plan search, or to any bit of
# a planned belief, changes them.
PINNED_SOLVES = {
    "lightdark": "8138bdc5644684e9cda93738bbd5afb49923d43f5d20db27130f9c2d6e8dc824",
    "darkswitch": "9ea931f864b6902b9784818f10bd9ba5aea34dbeb8449361a1e7f25fd0bd4df9",
}


def test_solves_of_seeds_0_to_4_are_pinned(solutions):
    problem, params, k_max, _, _ = load_problem(DARKSWITCH)
    darkswitch = [solve(problem, params, k_max=k_max, rng=np.random.default_rng(s)) for s in SEEDS]
    assert _solves_digest(solutions[s] for s in SEEDS) == PINNED_SOLVES["lightdark"]
    assert _solves_digest(darkswitch) == PINNED_SOLVES["darkswitch"]


def test_a_search_never_selects_a_node_without_steps_left(lightdark):
    """RRT seed 30002 used to spend its 20,000-iteration cap selecting
    deep, low-covariance nodes with no budget left for the shortest
    extension, and ended with no solution. With those nodes left out of
    the selection it solves, and the oracle accepts the trajectory."""
    problem, params, k_max, _sim = lightdark
    result = solve(problem, params, k_max=k_max, rng=np.random.default_rng(30002))
    assert result.ok
    t = result.trajectory
    assert oracle_monitor(problem.formula, t, 0)
    assert t.num_steps <= problem.formula.horizon + 1
