import json

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import oracles
from beliefplan import belief_rrt, cli
from beliefplan.belief_rrt import (
    InternalConsistencyError,
    RrtParams,
    RrtTree,
    SegmentTask,
    _reconstruct,
    rrt_drain,
    rrt_extend,
    rrt_select,
    solve_segment,
)
from beliefplan.dynamics import (
    IllConditionedUpdateError,
    SwitchedSystem,
    SystemMode,
    propagate_mlo,
)
from beliefplan.gaussian import make_belief
from beliefplan.geometry import (
    BeliefCone,
    LinearExpression,
    Polytope,
    ProbabilisticLinearPredicate,
    box_polytope,
    cone_contains,
    polytope_sample,
)


def _box_cone(bounds, eps):
    preds = []
    n = len(bounds)
    for j, (lo, hi) in enumerate(bounds):
        e = np.zeros(n)
        e[j] = 1.0
        preds.append(ProbabilisticLinearPredicate(LinearExpression(e, -hi), eps))
        preds.append(ProbabilisticLinearPredicate(LinearExpression(-e, lo), eps))
    return BeliefCone(tuple(preds))


def _lightdark_system():
    mode = SystemMode(
        A=np.eye(2), B=0.25 * np.eye(2), W=np.zeros((2, 2)),
        C=np.eye(2), noise="0.1*(5 - x0)^2 + 0.001",
    )
    return SwitchedSystem((mode,), box_polytope([(-1, 1), (-1, 1)]))


def _belief(mean, trace):
    return make_belief(mean, (trace / len(mean)) * np.eye(len(mean)))


def _tree(*nodes):
    """Tree from (mean, trace, parent) rows; the first row is the root."""
    (mean, trace, _), *rest = nodes
    tree = RrtTree(_belief(mean, trace))
    for mean, trace, parent in rest:
        tree.add(_belief(mean, trace), parent, None, 1)
    return tree


def test_params_validation():
    with pytest.raises(ValueError):
        RrtParams()  # neither timeout nor cap
    with pytest.raises(ValueError):
        RrtParams(iteration_cap=10, delta_near=1.0, delta_drain=2.0)
    with pytest.raises(ValueError):
        RrtParams(iteration_cap=10, goal_bias=1.5)
    with pytest.raises(ValueError):
        RrtParams(iteration_cap=10, min_num_of_steps=5, max_num_of_steps=3)


def test_select_prefers_low_uncertainty_near():
    tree = _tree(
        ([0.0, 0.0], 1.0, None),
        ([0.5, 0.0], 0.1, 0),  # near, low uncertainty
        ([0.2, 0.0], 0.5, 0),
    )
    assert rrt_select(tree, np.array([0.1, 0.0]), delta_near=1.0, max_depth=1) == 1


def test_select_falls_back_to_nearest():
    tree = _tree(
        ([10.0, 0.0], 0.1, None),
        ([5.0, 0.0], 5.0, 0),  # nearest, despite higher uncertainty
    )
    assert rrt_select(tree, np.array([4.0, 0.0]), delta_near=0.5, max_depth=1) == 1


def test_select_ignores_inactive():
    tree = _tree(
        ([0.0, 0.0], 0.01, None),
        ([0.1, 0.0], 5.0, 0),
    )
    tree.active[0] = False
    assert rrt_select(tree, np.array([0.0, 0.0]), delta_near=1.0, max_depth=1) == 1
    tree.active[1] = False
    assert rrt_select(tree, np.array([0.0, 0.0]), delta_near=1.0, max_depth=1) is None


def test_select_skips_nodes_deeper_than_max_depth():
    """A node whose depth leaves no room for the shortest extension is
    never selected, however low its uncertainty or near the sample."""
    tree = _tree(
        ([0.0, 0.0], 1.0, None),
        ([0.5, 0.0], 0.5, 0),  # depth 1
        ([0.1, 0.0], 0.01, 1),  # depth 2: near and least uncertain
        ([3.0, 0.0], 0.01, 2),  # depth 3: nearest to the far sample
    )
    near, far = np.array([0.1, 0.0]), np.array([3.0, 0.0])
    assert rrt_select(tree, near, delta_near=1.0, max_depth=2) == 2
    assert rrt_select(tree, near, delta_near=1.0, max_depth=1) == 1
    assert rrt_select(tree, far, delta_near=0.5, max_depth=3) == 3
    assert rrt_select(tree, far, delta_near=0.5, max_depth=2) == 1
    assert rrt_select(tree, near, delta_near=1.0, max_depth=-1) is None


def test_extend_respects_stay_cone():
    sys = _lightdark_system()
    start = _belief([0.0, 2.5], 0.2)
    stay = _box_cone([(-1, 5), (-1, 4)], 0.01)
    rng = np.random.default_rng(0)
    out = rrt_extend(sys.modes[0], start, np.array([2.0, 2.5]), 5, stay, sys.control_domain, rng)
    assert out is not None
    u, end = out
    # replaying the constant control stays in the cone and ends exactly at `end`
    b = start
    for _ in range(5):
        b = propagate_mlo(sys.modes[0], b, u)
        assert cone_contains(stay, b)
    assert np.array_equal(b.mean, end.mean)
    assert np.array_equal(b.cov, end.cov)


def test_extend_returns_none_when_boxed_in():
    sys = _lightdark_system()
    start = _belief([0.0, 2.5], 0.2)
    # stay cone the belief cannot re-enter: x0 <= -10 deterministically
    stay = _box_cone([(-20, -10), (-20, 20)], 0.01)
    rng = np.random.default_rng(0)
    assert rrt_extend(sys.modes[0], start, np.array([0.0, 0.0]), 3, stay, sys.control_domain, rng) is None


def test_drain_deactivates_dominated_neighbors():
    tree = _tree(
        ([0.0, 0.0], 1.0, None),
        ([0.1, 0.0], 0.5, 0),
        ([0.1, 0.05], 0.1, 0),  # the new node
    )
    rrt_drain(tree, 2, delta_drain=0.5)
    assert tree.active[0]  # ancestor, spared
    assert not tree.active[1]  # nearby and worse
    assert tree.active[2]


def test_drain_spares_better_nodes():
    tree = _tree(
        ([5.0, 5.0], 1.0, None),  # a far root, so node 1 is no ancestor of node 2
        ([0.0, 0.0], 0.05, 0),
        ([0.1, 0.0], 0.2, 0),  # the new node
    )
    rrt_drain(tree, 2, delta_drain=0.5)
    assert tree.active[1]


def _random_tree_pair(rng, size, grid):
    """The same random tree as an RrtTree and as the reference list of
    nodes. On the grid, means sit on half units and traces on tenths,
    so distance and trace ties are common."""
    if grid:
        means = rng.integers(-3, 4, size=(size, 2)) * 0.5
        traces = rng.integers(1, 6, size=size) * 0.1
    else:
        means = rng.uniform(-1.5, 1.5, size=(size, 2))
        traces = rng.uniform(0.1, 0.5, size=size)
    beliefs = [_belief(m, t) for m, t in zip(means, traces)]
    parents = [None] + [int(rng.integers(0, i)) for i in range(1, size)]
    active = rng.random(size) < 0.7
    tree = RrtTree(beliefs[0], capacity=4)
    ref = [oracles.ListNode(beliefs[0], None, 0)]
    for i in range(1, size):
        assert tree.add(beliefs[i], parents[i], None, 1) == i
        ref.append(oracles.ListNode(beliefs[i], parents[i], i, depth=ref[parents[i]].depth + 1))
    tree.active[:size] = active
    for node, a in zip(ref, active):
        node.active = bool(a)
    return tree, ref


def test_select_and_drain_match_list_reference():
    """Random trees, on and off the grid; half of the radii equal the
    reference's own distance to some node, so `<=` is tested at the
    boundary, where a distance one ulp off changes the answer."""
    rng = np.random.default_rng(2024)
    checked_select = checked_drain = drained = none_selected = 0
    for trial in range(300):
        size = int(rng.integers(1, 40))
        grid = trial % 2 == 0
        tree, ref = _random_tree_pair(rng, size, grid)
        assert len(tree) == size
        assert tree.active[:size].tolist() == [node.active for node in ref]
        for _ in range(10):
            sample = rng.integers(-4, 5, size=2) * 0.5 if grid else rng.uniform(-2, 2, size=2)
            delta = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
            if rng.random() < 0.5:
                delta = float(np.linalg.norm(ref[int(rng.integers(size))].belief.mean - sample))
            max_depth = int(rng.integers(0, 6))
            expected = oracles.list_rrt_select(ref, sample, delta, max_depth)
            assert rrt_select(tree, sample, delta, max_depth) == expected
            checked_select += expected is not None
            none_selected += expected is None
        node_id = int(rng.integers(0, size))
        delta = float(rng.choice([0.25, 0.5, 1.0]))
        if rng.random() < 0.5:
            other = ref[int(rng.integers(size))].belief.mean
            delta = float(np.linalg.norm(other - ref[node_id].belief.mean))
        before = sum(node.active for node in ref)
        oracles.list_rrt_drain(ref, ref[node_id], delta)
        rrt_drain(tree, node_id, delta)
        assert tree.active[:size].tolist() == [node.active for node in ref]
        checked_drain += 1
        drained += before - sum(node.active for node in ref)
    assert checked_select > 2000 and none_selected > 50
    assert checked_drain == 300 and drained > 100


def _same_bits(a, b):
    """Equal arrays with equal bits, so the sign of a zero counts."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_belief(a, b):
    return _same_bits(a.mean, b.mean) and _same_bits(a.cov, b.cov)


def _same_extension(got, expected):
    """The control and end belief of rrt_extend against the reference's
    control and last step belief, bit for bit."""
    if expected is None:
        return got is None
    (u, end), (u_ref, beliefs_ref) = got, expected
    return _same_bits(u, u_ref) and _same_belief(end, beliefs_ref[-1])


def _hull_polytope(vertices):
    hull = ConvexHull(np.array(vertices, dtype=float))
    halfspaces = tuple(LinearExpression(eq[:-1], eq[-1]) for eq in hull.equations)
    return Polytope(halfspaces, tuple(hull.points[hull.vertices]))


_HEXAGON = [(np.cos(a), np.sin(a)) for a in 0.3 + np.arange(6) * np.pi / 3]
_PLANAR_DOMAINS = (
    box_polytope([(-1.0, 1.0)] * 2),
    _hull_polytope([(-1.0, -1.0), (1.0, -0.5), (0.2, 1.0)]),
    _hull_polytope(_HEXAGON),
)


def test_extend_matches_per_candidate_reference():
    """Random modes (identity and non-identity A, with and without
    process noise, no observation, constant and state-dependent noise),
    random box cones and box, triangle and hexagon control domains: the
    extension returns the reference's control and end belief bit for
    bit and draws the same numbers, rejected draws included. In more
    than 10 trials the candidate with the nearest final mean leaves the
    cone and a farther one is kept."""
    rng = np.random.default_rng(77)
    seen = {"none": 0, "staggered": 0, "partial": 0, "rejected": 0, "behind": 0, "kinds": set()}
    for trial in range(300):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        kind = ("lbs", "polbs_linear", "polbs_nonlinear")[trial % 3]
        mode = oracles.random_mode(rng, n, m, kind, process_noise=rng.random() < 0.5)
        if rng.random() < 0.3:
            mode = SystemMode(A=np.eye(n), B=mode.B, W=mode.W, C=mode.C, noise=mode.noise)
        domain = _PLANAR_DOMAINS[trial // 3 % 3] if m == 2 else box_polytope([(-1.0, 1.0)])
        L = rng.normal(scale=0.2, size=(n, n))
        start = make_belief(rng.normal(size=n), L @ L.T)
        half = rng.uniform(0.5, 4.0, size=n)
        stay = _box_cone(
            [(c - w, c + w) for c, w in zip(start.mean, half)],
            float(rng.choice([0.01, 0.05, 0.2])),
        )
        target = start.mean + rng.normal(scale=2.0, size=n)
        horizon = int(rng.integers(1, 9))
        seed = int(rng.integers(1 << 30))
        r_ref, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
        expected, exits, candidates = oracles.list_rrt_extend(mode, start, target, horizon, stay, domain, r_ref)
        got = rrt_extend(mode, start, target, horizon, stay, domain, r_new)
        assert _same_extension(got, expected), trial
        assert r_new.bit_generator.state == r_ref.bit_generator.state
        r_plain = np.random.default_rng(seed)
        r_plain.uniform(*domain.box, size=(7, m))
        dead = {e for e in exits if e is not None}
        seen["none"] += expected is None
        seen["partial"] += expected is not None and bool(dead)
        seen["staggered"] += len(dead) > 1
        seen["rejected"] += r_plain.bit_generator.state != r_ref.bit_generator.state
        finals = []
        for u in candidates:
            m_final = start.mean
            for _ in range(horizon):
                m_final = mode.A @ m_final + mode.B @ u
            finals.append(np.linalg.norm(m_final - target))
        seen["behind"] += expected is not None and exits[int(np.argmin(finals))] is not None
        seen["kinds"].add(mode.kind)
    assert seen["none"] > 10 and seen["partial"] > 10 and seen["staggered"] > 10
    assert seen["rejected"] > 30 and seen["behind"] > 10
    assert seen["kinds"] == {"lbs", "polbs_linear", "polbs_nonlinear"}


def test_extend_matches_reference_with_zero_epsilon_cones():
    """epsilon = 0 constraints hold only along directions that carry no
    variance: a noise-free mode with a rank-deficient covariance keeps
    the x0 constraints deterministic, while the x1 constraints are
    violated by every candidate whenever they are hard."""
    rng = np.random.default_rng(5)
    outcomes = set()
    for trial in range(120):
        A = np.diag([1.0 + 0.1 * rng.normal(), 1.0])
        mode = SystemMode(A=A, B=rng.normal(scale=0.5, size=(2, 2)), W=np.zeros((2, 2)))
        start = make_belief(rng.normal(size=2), np.diag([0.0, 0.1]))
        w = rng.uniform(0.5, 3.0)
        eps_x1 = float(rng.choice([0.0, 0.05]))
        preds = [
            ProbabilisticLinearPredicate(LinearExpression([1.0, 0.0], -(start.mean[0] + w)), 0.0),
            ProbabilisticLinearPredicate(LinearExpression([-1.0, 0.0], start.mean[0] - w), 0.0),
            ProbabilisticLinearPredicate(LinearExpression([0.0, 1.0], -(start.mean[1] + 5.0)), eps_x1),
        ]
        stay = BeliefCone(tuple(preds))
        domain = box_polytope([(-1.0, 1.0)] * 2)
        target = start.mean + rng.normal(scale=2.0, size=2)
        horizon = int(rng.integers(1, 9))
        seed = int(rng.integers(1 << 30))
        r_ref, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
        expected, *_ = oracles.list_rrt_extend(mode, start, target, horizon, stay, domain, r_ref)
        got = rrt_extend(mode, start, target, horizon, stay, domain, r_new)
        assert _same_extension(got, expected), trial
        assert r_new.bit_generator.state == r_ref.bit_generator.state
        if eps_x1 == 0.0:
            assert got is None
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_chained_extensions_match_reference_at_depth():
    """Extensions chained from each end belief, so that each starts at
    the depth the one before reached: random lbs and polbs_linear modes,
    identity and non-identity A, with and without process noise. Each
    extension equals the per-candidate reference started from the same
    belief, bit for bit, and draws the same numbers."""
    rng = np.random.default_rng(91)
    seen = {"deep": 0, "none": 0, "kinds": set()}
    for trial in range(160):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        kind = ("lbs", "polbs_linear")[trial % 2]
        mode = oracles.random_mode(rng, n, m, kind, process_noise=trial // 2 % 2 == 0)
        if rng.random() < 0.3:
            mode = SystemMode(A=np.eye(n), B=mode.B, W=mode.W, C=mode.C, noise=mode.noise)
        L = rng.normal(scale=0.2, size=(n, n))
        start = make_belief(rng.normal(size=n), L @ L.T)
        stay = _box_cone(
            [(c - w, c + w) for c, w in zip(start.mean, rng.uniform(1.0, 4.0, size=n))],
            float(rng.choice([0.01, 0.05, 0.2])),
        )
        domain = _PLANAR_DOMAINS[trial // 4 % 3] if m == 2 else box_polytope([(-1.0, 1.0)])
        belief, depth = start, 0
        for link in range(4):
            target = belief.mean + rng.normal(scale=2.0, size=n)
            horizon = int(rng.integers(1, 7))
            seed = int(rng.integers(1 << 30))
            r_ref, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
            expected, *_ = oracles.list_rrt_extend(mode, belief, target, horizon, stay, domain, r_ref)
            got = rrt_extend(mode, belief, target, horizon, stay, domain, r_new)
            assert _same_extension(got, expected), (trial, link)
            assert r_new.bit_generator.state == r_ref.bit_generator.state
            if got is None:
                seen["none"] += 1
                break
            belief, depth = got[1], depth + horizon
            seen["deep"] += link > 0
        seen["kinds"].add(mode.kind)
    assert seen["deep"] > 150 and seen["none"] > 10
    assert seen["kinds"] == {"lbs", "polbs_linear"}


def _table_system(kind):
    """A planar mode without observation or observing x0 with constant
    noise; process noise makes the covariance differ at every depth."""
    observed = {"C": [[1.0, 0.0]], "noise": [[0.3]]} if kind == "polbs_linear" else {}
    mode = SystemMode(A=[[1.0, 0.1], [0.0, 1.0]], B=0.25 * np.eye(2), W=0.2 * np.eye(2), **observed)
    return SwitchedSystem((mode,), box_polytope([(-1.0, 1.0)] * 2))


@pytest.mark.parametrize("kind", ["lbs", "polbs_linear"])
def test_table_tree_replays_bit_for_bit(kind, monkeypatch):
    """Every node of a capped search in a mode whose covariance reads
    neither the control nor the mean holds the belief that propagate_mlo
    computes along its branch from the root, bit for bit."""
    sys = _table_system(kind)
    mode = sys.modes[0]
    assert mode.kind == kind
    trees = []
    drain = belief_rrt.rrt_drain

    def capture(tree, node_id, delta_drain):
        trees.append(tree)
        return drain(tree, node_id, delta_drain)

    monkeypatch.setattr(belief_rrt, "rrt_drain", capture)
    # The goal holds means at shallow depths, so no proof ends the
    # segment, but x1's variance outgrows it long before a mean gets there.
    task = SegmentTask(
        mode=0,
        stay=_box_cone([(-6.0, 6.0), (-6.0, 6.0)], 0.05),
        goal=_box_cone([(4.0, 6.0), (-0.7, 0.7)], 0.05),
        min_dwell_in_goal=0,
        max_total_steps=40,
    )
    start = make_belief([-3.0, 0.5], 0.1 * np.eye(2))
    params = RrtParams(iteration_cap=150, delta_near=2.0, min_num_of_steps=1, max_num_of_steps=4)
    result = solve_segment(sys, task, start, params, np.random.default_rng(8))
    assert result.status == "timeout" and result.proof is None
    tree = trees[-1]
    replay = [tree.beliefs[0]]
    for i in range(1, len(tree)):
        b = replay[tree.parent[i]]
        for _ in range(tree.depth[i] - tree.depth[tree.parent[i]]):
            b = propagate_mlo(mode, b, tree.controls[i])
        replay.append(b)
        assert _same_belief(tree.beliefs[i], b), i
    assert len(tree) > 100 and tree.depth[: len(tree)].max() >= 10


def _ill_conditioned_system(noise):
    """Observing x0 while x0 carries no variance, from x1 = 1 with the
    control box [-1, 1]^2. With noise gain "x1" the innovation matrix is
    R = x1^2, singular exactly when x1 = 0, and only the greedy
    candidate, clamped to u1 = -1 toward a target with x1 <= -3, lands
    there. With the constant gain [[0.0]] it is singular at every step
    (the goal-emptiness proof then gives no verdict, and the search
    raises)."""
    mode = SystemMode(
        A=np.eye(2), B=np.eye(2), W=np.zeros((2, 2)), C=[[1.0, 0.0]], noise=noise,
    )
    return SwitchedSystem((mode,), box_polytope([(-1, 1), (-1, 1)]))


def _ill_conditioned_solve(sys, start):
    task = SegmentTask(
        mode=0,
        stay=_box_cone([(-5, 5), (-5, 5)], 0.05),
        goal=BeliefCone((ProbabilisticLinearPredicate(LinearExpression([0.0, 1.0], 3.0), 0.05),)),
        min_dwell_in_goal=0,
        max_total_steps=20,
    )
    params = RrtParams(iteration_cap=50, goal_bias=1.0)
    with pytest.raises(IllConditionedUpdateError):
        solve_segment(sys, task, start, params, np.random.default_rng(0))


def test_one_ill_conditioned_candidate_aborts_the_segment():
    sys = _ill_conditioned_system("x1")
    mode = sys.modes[0]
    start = make_belief([0.0, 1.0], np.diag([0.0, 0.01]))
    propagate_mlo(mode, start, [0.3, -0.7])  # a uniform candidate is well conditioned
    with pytest.raises(IllConditionedUpdateError):
        propagate_mlo(mode, start, [0.3, -1.0])  # the clamped greedy one is not
    _ill_conditioned_solve(sys, start)


def test_ill_conditioned_constant_noise_aborts_the_segment():
    sys = _ill_conditioned_system([[0.0]])
    assert sys.modes[0].kind == "polbs_linear"
    start = make_belief([0.0, 1.0], np.diag([0.0, 0.01]))
    with pytest.raises(IllConditionedUpdateError):
        propagate_mlo(sys.modes[0], start, [0.3, -0.7])
    _ill_conditioned_solve(sys, start)


def test_a_failing_candidate_behind_a_survivor_is_not_evaluated():
    """The square of the noise gain 1 + x1^400 overflows where
    |x1| > 2.43, so a candidate whose third step gets there raises, but
    it ranks behind the greedy candidate, whose final mean is at the
    target: the extension keeps the greedy control without evaluating
    the farther ones, and its end belief is the propagate_mlo replay of
    that control. The per-candidate reference, which propagates every
    candidate, raises."""
    mode = SystemMode(A=np.eye(2), B=np.eye(2), W=np.zeros((2, 2)), C=np.eye(2), noise="1 + x1^400")
    domain = box_polytope([(-1, 1), (-1, 1)])
    start = make_belief([0.0, 0.0], 0.01 * np.eye(2))
    stay = _box_cone([(-10, 10), (-10, 10)], 0.05)
    target, horizon = np.array([0.0, 0.3]), 3
    failing = [u for u in polytope_sample(domain, np.random.default_rng(0), 7) if abs(u[1]) > 0.85]
    assert failing
    b = start
    with pytest.raises(IllConditionedUpdateError):
        for _ in range(horizon):
            b = propagate_mlo(mode, b, failing[0])
    with pytest.raises(IllConditionedUpdateError):
        oracles.list_rrt_extend(mode, start, target, horizon, stay, domain, np.random.default_rng(0))
    u, end = rrt_extend(mode, start, target, horizon, stay, domain, np.random.default_rng(0))
    assert np.allclose(u, [0.0, 0.1])
    b = start
    for _ in range(horizon):
        b = propagate_mlo(mode, b, u)
    assert _same_belief(end, b)


@pytest.mark.parametrize("box, B", [
    ([(0.3, 0.3), (-0.2, -0.2)], np.eye(2)),  # one point: every candidate is one control
    ([(0.3, 0.3), (-1.0, 1.0)], [[1.0, 0.0], [0.0, 0.0]]),  # u1 moves no mean
])
def test_tied_candidates_keep_the_lowest_index(box, B):
    """Where every candidate's final mean is the same, the extension
    keeps candidate 0, the first uniform draw, as the per-candidate
    reference does, bit for bit."""
    mode = SystemMode(A=np.eye(2), B=B, W=np.zeros((2, 2)), C=np.eye(2), noise="0.1*(5 - x0)^2 + 0.001")
    domain = box_polytope(box)
    start = make_belief([0.0, 0.5], 0.1 * np.eye(2))
    stay = _box_cone([(-5, 5), (-5, 5)], 0.05)
    target = np.array([2.0, -1.0])
    expected, exits, candidates = oracles.list_rrt_extend(
        mode, start, target, 4, stay, domain, np.random.default_rng(3)
    )
    got = rrt_extend(mode, start, target, 4, stay, domain, np.random.default_rng(3))
    assert len(candidates) == 8 and exits == [None] * 8
    assert _same_extension(got, expected) and _same_bits(got[0], candidates[0])


@pytest.mark.parametrize("kind", ["lbs", "polbs_linear"])
def test_shared_covariance_walk_takes_at_most_horizon_steps(kind, monkeypatch):
    """Without state-dependent noise one covariance walk serves every
    candidate: an extension makes at most `horizon` mlo_covariance
    calls, also where it evaluates several candidates."""
    calls = {"cov": 0, "stay": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(belief_rrt, "mlo_covariance", counting("cov", belief_rrt.mlo_covariance))
    monkeypatch.setattr(belief_rrt, "cone_holds", counting("stay", belief_rrt.cone_holds))
    rng = np.random.default_rng(13)
    several = 0
    for trial in range(80):
        mode = oracles.random_mode(rng, 2, 2, kind, process_noise=trial % 2 == 0)
        start = make_belief(rng.normal(size=2), 0.05 * np.eye(2))
        stay = _box_cone([(c - w, c + w) for c, w in zip(start.mean, rng.uniform(0.5, 3.0, size=2))], 0.05)
        target = start.mean + rng.normal(scale=2.0, size=2)
        horizon = int(rng.integers(1, 9))
        calls.update(cov=0, stay=0)
        rrt_extend(mode, start, target, horizon, stay, _PLANAR_DOMAINS[trial % 3], rng)
        assert calls["cov"] <= horizon, trial
        several += calls["stay"] > 1
    assert several > 10


def _assert_exits(tmp_path, capsys, doc, code, message):
    """Running the CLI on the problem `doc` exits with `code`, and its
    error output names `message` without a traceback."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--problem", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def _ill_conditioned_doc(noise):
    return {
        "state_dim": 2,
        "control_dim": 2,
        "modes": [{"A": np.eye(2).tolist(), "B": np.eye(2).tolist(), "W": [[0.0, 0.0], [0.0, 0.0]],
                   "C": [[1.0, 0.0]], "noise": noise}],
        "control_domain": {"box": [[-1.0, 1.0], [-1.0, 1.0]]},
        "initial": {"mean": [0.0, 1.0], "cov": [[0.0, 0.0], [0.0, 0.01]]},
        "named_formulas": {
            "stay": "P(x1 <= 5) >= 0.95 & P(-x1 <= 5) >= 0.95",
            "goal": "P(x1 + 3 <= 0) >= 0.95",
        },
        "formula": "(stay) U[0,20] G[0,2] (goal)",
        "planner": {"iteration_cap": 50, "goal_bias": 1.0, "k_max": 2},
    }


def test_one_ill_conditioned_candidate_exits_numeric(tmp_path, capsys):
    _assert_exits(tmp_path, capsys, _ill_conditioned_doc("x1"), cli.EXIT_NUMERIC, "condition number")


def test_ill_conditioned_constant_noise_exits_numeric(tmp_path, capsys):
    _assert_exits(tmp_path, capsys, _ill_conditioned_doc([[0.0]]), cli.EXIT_NUMERIC, "condition number")


def _corrupting(make_belief, part="mean"):
    """make_belief with the mean, or the covariance, of every belief
    moved by one ulp."""
    def corrupt(mean, cov):
        if part == "mean":
            return make_belief(np.nextafter(mean, np.inf), cov)
        return make_belief(mean, np.nextafter(cov, np.inf))
    return corrupt


def test_reconstruct_rejects_a_corrupted_node():
    sys = _lightdark_system()
    mode = sys.modes[0]
    start = _belief([0.0, 2.5], 0.2)
    stay = _box_cone([(-1, 5), (-1, 4)], 0.01)
    u, end = rrt_extend(mode, start, np.array([2.0, 2.5]), 4, stay, sys.control_domain,
                        np.random.default_rng(3))
    tree = RrtTree(start)
    tree.add(end, 0, u, 4)
    replayed, controls = _reconstruct(mode, tree, 1)
    assert len(replayed) == 5 and len(controls) == 4
    assert np.array_equal(replayed[-1].cov, end.cov)
    tree.beliefs[1] = make_belief(np.nextafter(end.mean, np.inf), end.cov)
    with pytest.raises(InternalConsistencyError):
        _reconstruct(mode, tree, 1)


def _small_doc(noise):
    return {
        "state_dim": 1,
        "control_dim": 1,
        "modes": [{"A": [[1.0]], "B": [[1.0]], "W": [[0.0]], "C": [[1.0]], "noise": noise}],
        "control_domain": {"box": [[-1.0, 1.0]]},
        "initial": {"mean": [0.0], "cov": [[0.01]]},
        "named_formulas": {
            "safe": "P(-x0 <= 1) >= 0.95 & P(x0 <= 6) >= 0.95",
            "goal": "P(x0 - 5 <= 0.3) >= 0.9 & P(5 - x0 <= 0.3) >= 0.9",
        },
        "formula": "(safe) U[0,20] G[0,5] (goal)",
        "planner": {"iteration_cap": 2000, "k_max": 3},
    }


def test_corrupted_tree_exits_internal(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(belief_rrt, "make_belief", _corrupting(belief_rrt.make_belief))
    _assert_exits(tmp_path, capsys, _small_doc("0.01"), cli.EXIT_INTERNAL, "does not reproduce")


def test_corrupted_table_node_exits_internal(tmp_path, monkeypatch, capsys):
    """Constant noise, so every node at one depth has one covariance; a
    stored covariance one ulp off is caught by the replay of the
    successful branch."""
    monkeypatch.setattr(belief_rrt, "make_belief", _corrupting(belief_rrt.make_belief, "cov"))
    _assert_exits(tmp_path, capsys, _small_doc([[0.1]]), cli.EXIT_INTERNAL, "does not reproduce")


def test_solve_segment_infeasible_start():
    sys = _lightdark_system()
    task = SegmentTask(
        mode=0,
        stay=_box_cone([(-0.25, 0.25), (-0.25, 0.25)], 0.05),
        goal=_box_cone([(-0.25, 0.25), (-0.25, 0.25)], 0.05),
        min_dwell_in_goal=40,
        max_total_steps=280,
    )
    start = make_belief([0.0, 2.5], 0.1 * np.eye(2))
    params = RrtParams(iteration_cap=100, delta_near=2.0, min_num_of_steps=3, max_num_of_steps=15)
    result = solve_segment(sys, task, start, params, np.random.default_rng(0))
    assert result.status == "infeasible-start"


def test_solve_segment_immediate_goal_zero_dwell():
    sys = _lightdark_system()
    stay = _box_cone([(-1, 5), (-1, 4)], 0.01)
    task = SegmentTask(mode=0, stay=stay, goal=stay, min_dwell_in_goal=0, max_total_steps=10)
    start = make_belief([0.0, 2.5], 0.1 * np.eye(2))
    params = RrtParams(iteration_cap=10)
    result = solve_segment(sys, task, start, params, np.random.default_rng(0))
    assert result.ok
    assert result.num_steps == 0


def test_solve_segment_start_in_goal_dwells_without_searching():
    """A start in the goal passes the same goal test as every other
    node: the result is the start and its zero-control dwell, and the
    search draws no random numbers."""
    sys = _lightdark_system()
    mode = sys.modes[0]
    stay = _box_cone([(-1, 5), (-1, 4)], 0.01)
    task = SegmentTask(mode=0, stay=stay, goal=stay, min_dwell_in_goal=3, max_total_steps=10)
    start = make_belief([0.0, 2.5], 0.1 * np.eye(2))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    result = solve_segment(sys, task, start, RrtParams(iteration_cap=10), rng)
    assert rng.bit_generator.state == before
    assert result.ok and result.beliefs[0] is start
    assert len(result.beliefs) == 4 and len(result.controls) == 3
    b = start
    for got, u in zip(result.beliefs[1:], result.controls):
        assert np.array_equal(u, np.zeros(2))
        b = propagate_mlo(mode, b, np.zeros(2))
        assert np.array_equal(got.mean, b.mean) and np.array_equal(got.cov, b.cov)


def test_solve_segment_start_in_goal_without_dwell_budget_searches():
    sys = _lightdark_system()
    stay = _box_cone([(-1, 5), (-1, 4)], 0.01)
    task = SegmentTask(mode=0, stay=stay, goal=stay, min_dwell_in_goal=5, max_total_steps=4)
    start = make_belief([0.0, 2.5], 0.1 * np.eye(2))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    result = solve_segment(sys, task, start, RrtParams(iteration_cap=10), rng)
    assert rng.bit_generator.state != before
    assert result.status == "timeout"


def test_solve_segment_start_in_goal_outside_stay_is_feasible():
    sys = _lightdark_system()
    task = SegmentTask(
        mode=0,
        stay=_box_cone([(10, 11), (10, 11)], 0.05),
        goal=_box_cone([(-1, 5), (-1, 4)], 0.01),
        min_dwell_in_goal=2,
        max_total_steps=10,
    )
    start = make_belief([0.0, 2.5], 0.1 * np.eye(2))
    result = solve_segment(sys, task, start, RrtParams(iteration_cap=10), np.random.default_rng(0))
    assert result.status != "infeasible-start"
    assert result.ok and result.num_steps == 2


def test_solve_segment_reaches_goal():
    sys = _lightdark_system()
    stay = _box_cone([(-1, 5), (-1, 4)], 0.01)
    goal = _box_cone([(1.5, 3.0), (1.5, 3.0)], 0.05)
    task = SegmentTask(mode=0, stay=stay, goal=goal, min_dwell_in_goal=3, max_total_steps=100)
    start = make_belief([0.0, 2.5], 0.05 * np.eye(2))
    params = RrtParams(
        iteration_cap=5000, delta_near=2.0, delta_drain=0.5,
        goal_bias=0.25, min_num_of_steps=3, max_num_of_steps=15,
    )
    result = solve_segment(sys, task, start, params, np.random.default_rng(1))
    assert result.ok
    assert result.num_steps <= 100
    assert len(result.beliefs) == result.num_steps + 1
    # stay cone holds at every visited belief after the start
    for b in result.beliefs[1:]:
        assert cone_contains(stay, b) or cone_contains(goal, b)
    # final min_dwell_in_goal+1 beliefs sit in the goal cone
    for b in result.beliefs[-(task.min_dwell_in_goal + 1):]:
        assert cone_contains(goal, b)


def test_solve_segment_timeout_status():
    sys = _lightdark_system()
    stay = _box_cone([(-1, 5), (-1, 4)], 0.01)
    # unreachable goal: outside the stay region
    goal = _box_cone([(40, 41), (40, 41)], 0.05)
    task = SegmentTask(mode=0, stay=stay, goal=goal, min_dwell_in_goal=0, max_total_steps=20)
    start = make_belief([0.0, 2.5], 0.05 * np.eye(2))
    params = RrtParams(iteration_cap=50, min_num_of_steps=3, max_num_of_steps=15)
    result = solve_segment(sys, task, start, params, np.random.default_rng(0))
    assert result.status == "timeout"


def test_solve_segment_ends_when_no_node_has_steps_left(monkeypatch):
    """A budget below the shortest extension (max_total_steps 2 <
    min_num_of_steps 3) leaves even the root without steps to extend.
    State-dependent noise skips the goal-empty proof and the root is not
    in the goal, so the search starts; its first selection finds no
    node, and the segment ends as a timeout with the root alone in its
    tree, far below its iteration cap."""
    selections = []
    select = belief_rrt.rrt_select

    def recording(tree, *args):
        node = select(tree, *args)
        selections.append((tree.size, node))
        return node

    monkeypatch.setattr(belief_rrt, "rrt_select", recording)
    sys = _lightdark_system()
    assert sys.modes[0].kind == "polbs_nonlinear"
    stay = _box_cone([(-1, 5), (-1, 4)], 0.01)
    goal = _box_cone([(1.5, 3.0), (1.5, 3.0)], 0.05)
    task = SegmentTask(mode=0, stay=stay, goal=goal, min_dwell_in_goal=0, max_total_steps=2)
    start = make_belief([0.0, 2.5], 0.05 * np.eye(2))
    params = RrtParams(iteration_cap=100, min_num_of_steps=3, max_num_of_steps=15)
    result = solve_segment(sys, task, start, params, np.random.default_rng(0))
    assert result.status == "timeout" and result.proof is None
    assert selections == [(1, None)]


def test_solve_segment_deterministic_given_seed():
    sys = _lightdark_system()
    stay = _box_cone([(-1, 5), (-1, 4)], 0.01)
    goal = _box_cone([(1.5, 3.0), (1.5, 3.0)], 0.05)
    task = SegmentTask(mode=0, stay=stay, goal=goal, min_dwell_in_goal=2, max_total_steps=100)
    start = make_belief([0.0, 2.5], 0.05 * np.eye(2))
    params = RrtParams(iteration_cap=5000, delta_near=2.0, min_num_of_steps=3, max_num_of_steps=15)
    r1 = solve_segment(sys, task, start, params, np.random.default_rng(11))
    r2 = solve_segment(sys, task, start, params, np.random.default_rng(11))
    assert r1.status == r2.status
    if r1.ok:
        assert all(
            np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
            for a, b in zip(r1.beliefs, r2.beliefs)
        )
