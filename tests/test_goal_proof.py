"""The goal-emptiness proof that solve_segment runs before its search,
for modes whose covariance at each depth is known in advance (lbs and
polbs_linear)."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

import oracles
from beliefplan import belief_rrt
from beliefplan.belief_rrt import (
    RrtParams,
    SegmentTask,
    _goal_empty,
    solve_segment,
)
from beliefplan.dynamics import SwitchedSystem, SystemMode, mlo_covariance
from beliefplan.gaussian import InvalidCovarianceError, make_belief
from beliefplan.geometry import (
    CONTAINMENT_TOL,
    BeliefCone,
    LinearExpression,
    ProbabilisticLinearPredicate,
    axis_bounds,
    box_polytope,
    cone_holds,
    cone_spread,
    mean_region_empty,
)


def _row(h, c, eps):
    return ProbabilisticLinearPredicate(LinearExpression(h, c), eps)


def _box_rows(center, half_widths, eps):
    rows = []
    for j, (c, w) in enumerate(zip(center, half_widths)):
        e = np.zeros(len(center))
        e[j] = 1.0
        rows.append(_row(e, -(c + w), eps))
        rows.append(_row(-e, c - w, eps))
    return rows


def _same_result(a, b):
    return (
        a.status == b.status and a.proof == b.proof
        and len(a.beliefs) == len(b.beliefs)
        and all(
            x.mean.tobytes() == y.mean.tobytes() and x.cov.tobytes() == y.cov.tobytes()
            for x, y in zip(a.beliefs, b.beliefs)
        )
        and all(np.array_equal(u, v) for u, v in zip(a.controls, b.controls))
    )


def _random_segment(rng, trial):
    """A random lbs or polbs_linear segment in 1 to 3 dimensions: a box
    stay cone around the start, a box goal near it, and in about half
    the cases a slanted row in the goal or the stay cone."""
    n = 1 + trial % 3
    m = int(rng.integers(1, 3))
    kind = ("lbs", "polbs_linear")[trial // 3 % 2]
    mode = oracles.random_mode(rng, n, m, kind, process_noise=rng.random() < 0.5)
    if rng.random() < 0.5:
        mode = SystemMode(A=np.eye(n), B=mode.B, W=mode.W, C=mode.C, noise=mode.noise)
    L = rng.normal(scale=0.15, size=(n, n))
    start = make_belief(rng.normal(size=n), L @ L.T)
    stay_rows = _box_rows(start.mean, rng.uniform(1.5, 4.0, size=n), float(rng.choice([0.01, 0.05])))
    center = start.mean + rng.normal(scale=1.0, size=n)
    goal_rows = _box_rows(center, rng.uniform(0.1, 1.0, size=n), float(rng.choice([0.05, 0.2])))
    if n > 1 and rng.random() < 0.5:
        h = rng.normal(size=n)
        h /= np.linalg.norm(h)
        # h.x <= h.center + offset: from no cut at all to cutting the box away
        slanted = _row(h, -(h @ center) - rng.uniform(-1.5, 0.5), 0.1)
        (goal_rows if rng.random() < 0.7 else stay_rows).append(slanted)
    task = SegmentTask(
        mode=0,
        stay=BeliefCone(tuple(stay_rows)),
        goal=BeliefCone(tuple(goal_rows)),
        min_dwell_in_goal=int(rng.integers(0, 3)),
        max_total_steps=int(rng.integers(3, 20)),
    )
    return SwitchedSystem((mode,), box_polytope([(-1.0, 1.0)] * m)), task, start


def _grid(task, start, points):
    """Every mean of a dense grid over the stay cone's mean box."""
    n = start.dim
    lo, hi = axis_bounds(task.stay.H, task.stay.c, n)
    axes = [np.linspace(a, b, points) for a, b in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


def _covariances(mode, cov, depth):
    """The covariances of 0 to `depth` MLO steps from cov."""
    rows = [cov]
    for _ in range(depth):
        rows.append(mlo_covariance(mode, rows[-1]))
    return rows


def _grid_hits(sys, task, start, depth_rows):
    """Depths d at which some grid mean passes the goal and the stay
    test at the covariance of d steps from the start."""
    grid = _grid(task, start, (201, 61, 25)[start.dim - 1])
    rows = _covariances(sys.modes[0], start.cov, max(depth_rows, default=0))
    hits = []
    for d in depth_rows:
        inside = cone_holds(task.goal, grid, cone_spread(task.goal, rows[d][None]))
        inside &= cone_holds(task.stay, grid, cone_spread(task.stay, rows[d][None]))
        if inside.any():
            hits.append(d)
    return hits


def test_proof_agrees_with_dense_enumeration_and_the_unpruned_search(monkeypatch):
    """Random segments, each solved with the proof and with the proof
    bypassed from the same seed. A pruned segment has no grid mean in
    goal and stay at any depth where a node could succeed, draws no
    random number, and the unpruned search does not solve it either.
    Otherwise both runs are the same search, bit for bit."""
    rng = np.random.default_rng(2024)
    params = RrtParams(iteration_cap=60, delta_near=1.0, goal_bias=0.5,
                       min_num_of_steps=1, max_num_of_steps=4)
    seen = {"pruned": 0, "pruned_by_lp": 0, "solved": 0, "searched": 0, "kinds": set()}
    linprog = scipy.optimize.linprog
    infeasible = []

    def counting_linprog(*args, **kwargs):
        result = linprog(*args, **kwargs)
        infeasible.append(result.status == 2)
        return result

    monkeypatch.setattr(scipy.optimize, "linprog", counting_linprog)
    for trial in range(90):
        sys, task, start = _random_segment(rng, trial)
        seed = int(rng.integers(1 << 30))
        r_proof = np.random.default_rng(seed)
        infeasible.clear()
        with_proof = solve_segment(sys, task, start, params, r_proof)
        with monkeypatch.context() as patch:
            patch.setattr(belief_rrt, "_goal_empty", lambda mode, task, cov: False)
            r_bare = np.random.default_rng(seed)
            bare = solve_segment(sys, task, start, params, r_bare)
        if with_proof.proof is not None:
            assert with_proof.proof == "goal-empty" and with_proof.status == "timeout"
            assert r_proof.bit_generator.state == np.random.default_rng(seed).bit_generator.state
            assert not bare.ok, trial
            last = task.max_total_steps - task.min_dwell_in_goal
            assert _grid_hits(sys, task, start, range(1, last + 1)) == [], trial
            seen["pruned"] += 1
            seen["pruned_by_lp"] += any(infeasible)
        else:
            assert _same_result(with_proof, bare), trial
            assert r_proof.bit_generator.state == r_bare.bit_generator.state
            seen["solved" if bare.ok else "searched"] += 1
        seen["kinds"].add(sys.modes[0].kind)
    assert seen["pruned"] >= 12 and seen["pruned_by_lp"] >= 3
    assert seen["solved"] >= 10 and seen["searched"] >= 5
    assert seen["kinds"] == {"lbs", "polbs_linear"}


def _counting_steps(monkeypatch):
    """The covariances the walk computes, in order, as mlo_covariance
    returns them to belief_rrt."""
    steps = []

    def counting(*args):
        steps.append(mlo_covariance(*args))
        return steps[-1]

    monkeypatch.setattr(belief_rrt, "mlo_covariance", counting)
    return steps


def test_grid_finds_the_means_the_walk_stops_at(monkeypatch):
    """The enumeration has teeth: where the walk stops at a depth with a
    mean in goal and stay, the grid finds one in most segments."""
    rng = np.random.default_rng(7)
    steps = _counting_steps(monkeypatch)
    stopped, found = 0, 0
    for trial in range(60):
        sys, task, start = _random_segment(rng, trial)
        steps.clear()
        if _goal_empty(sys.modes[0], task, start.cov):
            continue
        depth = len(steps)
        stopped += 1
        found += _grid_hits(sys, task, start, [depth]) == [depth]
    assert stopped >= 20 and found >= 0.8 * stopped


def _line_system():
    mode = SystemMode(A=[[1.0]], B=[[1.0]], W=[[0.0]])
    return SwitchedSystem((mode,), box_polytope([(-1.0, 1.0)]))


def _line_task(stay_hi, goal_lo):
    """1-D segment: stay x <= stay_hi, goal x >= goal_lo, both certain
    (eps = 0.05 on a zero covariance has no spread)."""
    return SegmentTask(
        mode=0,
        stay=BeliefCone((_row([1.0], -stay_hi, 0.05),)),
        goal=BeliefCone((_row([-1.0], goal_lo, 0.05),)),
        min_dwell_in_goal=0,
        max_total_steps=10,
    )


def _passing_means(task):
    """The floats within 1e-11 of 1 that pass the goal and the stay test
    at zero covariance."""
    means = 1.0 + np.arange(-50_000, 50_000)[:, None] * np.spacing(1.0)
    zero = np.zeros((1, 1))
    return means[cone_holds(task.goal, means, zero) & cone_holds(task.stay, means, zero)]


@pytest.mark.parametrize("gap, pruned", [(1e-10, False), (3e-12, False), (1e-6, True)])
def test_a_region_empty_by_less_than_the_slack_is_not_pruned(gap, pruned):
    """Goal x >= 1 + gap against stay x <= 1 at zero covariance. Every
    gap here leaves no float mean that passes both tests, but the proof
    prunes only gaps beyond CONTAINMENT_TOL and the rounding slack."""
    task = _line_task(1.0, 1.0 + gap)
    assert _passing_means(task).size == 0
    start = make_belief([0.0], [[0.0]])
    rng = np.random.default_rng(0)
    result = solve_segment(_line_system(), task, start, RrtParams(iteration_cap=20), rng)
    assert result.status == "timeout"
    assert (result.proof == "goal-empty") == pruned


def test_a_region_within_the_tolerance_is_not_empty():
    """Goal x >= 1 + CONTAINMENT_TOL against stay x <= 1: floats just
    above 1 pass both tests, so the region is not empty."""
    task = _line_task(1.0, 1.0 + CONTAINMENT_TOL)
    assert _passing_means(task).size > 0
    assert not mean_region_empty((task.goal, task.stay), (np.zeros((1, 1)),) * 2, 1)


def test_an_eps_zero_row_under_variance_empties_the_region():
    """An eps = 0 row holds for no mean once its direction has variance:
    its spread is +inf, and mean_region_empty calls the region empty,
    though its axis bounds alone would scale the gap by that +inf and
    call it not empty. At zero covariance the same cones are not empty."""
    goal = BeliefCone((_row([1.0, 0.0], -1.0, 0.0),))
    stay = BeliefCone(tuple(_box_rows([0.0, 0.0], [5.0, 5.0], 0.1)))
    cov = np.array([[[0.5, 0.1], [0.1, 0.2]]])
    spreads = (cone_spread(goal, cov), cone_spread(stay, cov))
    assert np.isinf(spreads[0]).all() and np.isfinite(spreads[1]).all()
    assert not cone_holds(goal, np.array([[-3.0, 0.0], [0.0, 0.0]]), spreads[0]).any()
    assert mean_region_empty((goal, stay), spreads, 2)
    zero = np.zeros((1, 2, 2))
    assert not mean_region_empty((goal, stay), (cone_spread(goal, zero), cone_spread(stay, zero)), 2)


def test_fixed_point_stop_after_a_repeated_row(monkeypatch):
    """A = diag(1, 0) without process noise: step 1 zeroes the second
    variance and step 2 repeats it, so the walk takes two steps only,
    though 50 are allowed. With process noise no covariance repeats and
    the walk takes every step the search could, also those too deep for
    a node to dwell in the goal after."""
    mode = SystemMode(A=[[1.0, 0.0], [0.0, 0.0]], B=np.eye(2), W=np.zeros((2, 2)))
    task = SegmentTask(
        mode=0,
        stay=BeliefCone(tuple(_box_rows([0.0, 0.0], [3.0, 3.0], 0.05))),
        goal=BeliefCone(tuple(_box_rows([2.0, 0.0], [0.05, 1.0], 0.05))),
        min_dwell_in_goal=0,
        max_total_steps=50,
    )
    start = make_belief([0.0, 0.0], 0.1 * np.eye(2))
    steps = _counting_steps(monkeypatch)
    assert _goal_empty(mode, task, start.cov)
    assert len(steps) == 2
    assert np.array_equal(steps[1], steps[0])
    assert not np.array_equal(steps[0], start.cov)
    noisy = SystemMode(A=mode.A, B=mode.B, W=0.01 * np.eye(2))
    steps.clear()
    task = replace(task, min_dwell_in_goal=5)
    assert _goal_empty(noisy, task, start.cov)
    assert len(steps) == task.max_total_steps


def test_lp_prunes_a_slanted_goal_the_box_cannot_decide():
    """Goal x0 <= 1, x1 <= 1 and x0 + x1 >= 3 inside a wide stay box:
    each axis has room, so only the LP over the slanted row shows that
    no mean fits. With x0 + x1 >= 1 some mean fits."""
    sys = SwitchedSystem(
        (SystemMode(A=np.eye(2), B=0.5 * np.eye(2), W=np.zeros((2, 2))),),
        box_polytope([(-1.0, 1.0)] * 2),
    )
    start = make_belief([0.0, 0.0], 0.01 * np.eye(2))
    stay = BeliefCone(tuple(_box_rows([0.0, 0.0], [5.0, 5.0], 0.05)))
    params = RrtParams(iteration_cap=200, goal_bias=0.5, min_num_of_steps=1, max_num_of_steps=3)
    for total, pruned in ((3.0, True), (1.0, False)):
        goal = BeliefCone((
            _row([1.0, 0.0], -1.0, 0.05), _row([0.0, 1.0], -1.0, 0.05),
            _row([-1.0, -1.0], total, 0.05),
        ))
        task = SegmentTask(mode=0, stay=stay, goal=goal, min_dwell_in_goal=0, max_total_steps=10)
        cov = mlo_covariance(sys.modes[0], start.cov)[None]
        spreads = (cone_spread(goal, cov), cone_spread(stay, cov))
        H = np.concatenate([goal.H, stay.H])
        offsets = np.concatenate([goal.c + spreads[0][0], stay.c + spreads[1][0]])
        lo, hi = axis_bounds(H, offsets, 2)
        assert (lo < hi).all()  # the box alone has room
        result = solve_segment(sys, task, start, params, np.random.default_rng(3))
        assert (result.proof == "goal-empty") == pruned


def _overflowing_segment(goal_lo, eps):
    """x1's variance grows by 1e200 a step, so the covariance of depth 2
    overflows; the stay cone and the goal x0 in [goal_lo, 1] read x0
    only, whose variance stays 0.01."""
    mode = SystemMode(A=[[1.0, 0.0], [0.0, 1e100]], B=[[1.0], [0.0]], W=np.zeros((2, 2)))
    x0 = np.array([1.0, 0.0])
    task = SegmentTask(
        mode=0,
        stay=BeliefCone((_row(x0, -5.0, 0.05), _row(-x0, -5.0, 0.05))),
        goal=BeliefCone((_row(x0, -1.0, eps), _row(-x0, goal_lo, eps))),
        min_dwell_in_goal=0,
        max_total_steps=5,
    )
    sys = SwitchedSystem((mode,), box_polytope([(-1.0, 1.0)]))
    return sys, task, make_belief([0.0, 0.0], 0.01 * np.eye(2))


def test_covariance_overflow_past_the_goal_depth_still_succeeds():
    """The goal is reached at depth 1, where the walk stops with no
    verdict, so the search succeeds before any covariance overflows, as
    it does without the proof."""
    sys, task, start = _overflowing_segment(0.3, 0.5)  # eps = 0.5: no spread
    with np.errstate(over="ignore"), pytest.raises(InvalidCovarianceError):
        _covariances(sys.modes[0], start.cov, 2)
    params = RrtParams(iteration_cap=5, goal_bias=1.0)
    result = solve_segment(sys, task, start, params, np.random.default_rng(0))
    assert result.ok and result.num_steps == 1 and result.proof is None


@pytest.mark.parametrize("warnings_as", ["ignored", "errors"])
def test_a_row_that_raises_ends_the_walk_without_a_verdict(warnings_as):
    """A goal that no mean reaches at any depth, but the covariance of
    depth 2 overflows: the walk gives no verdict, and the search raises
    InvalidCovarianceError when it extends to depth 2. numpy warns of
    nothing, whether the caller ignores its overflows or has it warn
    with warnings turned into errors."""
    sys, task, start = _overflowing_segment(0.99, 0.05)
    spreads = (cone_spread(task.goal, start.cov[None]), cone_spread(task.stay, start.cov[None]))
    assert mean_region_empty((task.goal, task.stay), spreads, 2)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with warnings.catch_warnings(record=True) as caught:
        if warnings_as == "ignored":
            warnings.simplefilter("always")
            context = np.errstate(over="ignore")
        else:
            warnings.simplefilter("error")
            context = np.errstate(over="warn")
        with context, pytest.raises(InvalidCovarianceError):
            solve_segment(sys, task, start, RrtParams(iteration_cap=50), rng)
    assert caught == []
    assert rng.bit_generator.state != before
