import warnings

import numpy as np
import pytest

from beliefplan import synthesis
from beliefplan.belief_rrt import RrtParams
from beliefplan.dynamics import SwitchedSystem, SystemMode
from beliefplan.formula import Until, always, monitor, named, parse_formula
from beliefplan.gaussian import make_belief
from beliefplan.geometry import box_polytope
from beliefplan.synthesis import Problem, _warn_on_uncertainty_growth, solve


def _simple_problem(formula_text, named_texts=(), noise="0.01", num_modes=1):
    mode = SystemMode(
        A=np.eye(1), B=np.eye(1), W=np.zeros((1, 1)), C=np.eye(1), noise=noise
    )
    sys = SwitchedSystem((mode,) * num_modes, box_polytope([(-1, 1)]))
    names = {}
    for fname, text in named_texts:
        names[fname] = named(parse_formula(text, 1, num_modes, names), fname)
    f = parse_formula(formula_text, 1, num_modes, names)
    initial = make_belief([0.0], [[0.01]])
    return Problem(sys, initial, f)


def _params(cap=3000):
    return RrtParams(
        iteration_cap=cap, delta_near=1.0, delta_drain=0.5,
        goal_bias=0.25, min_num_of_steps=1, max_num_of_steps=5,
    )


def test_problem_dimension_check():
    mode = SystemMode(np.eye(1), np.eye(1), np.zeros((1, 1)))
    sys = SwitchedSystem((mode,), box_polytope([(-1, 1)]))
    f = parse_formula("true", 2, 1)
    with pytest.raises(ValueError):
        Problem(sys, make_belief([0.0, 0.0], np.eye(2)), f)


def test_solve_reach_and_hold():
    problem = _simple_problem(
        "(safe) U[0,20] G[0,5] (goal)",
        named_texts=[
            ("safe", "P(-x0 <= 1) >= 0.95 & P(x0 <= 6) >= 0.95"),
            ("goal", "P(x0 - 5 <= 0.3) >= 0.9 & P(5 - x0 <= 0.3) >= 0.9"),
        ],
    )
    res = solve(problem, _params(), k_max=3, rng=np.random.default_rng(0))
    assert res.ok
    t = res.trajectory
    assert t.num_steps <= 26
    assert monitor(problem.formula, t, 0) is True
    # plan and log shape
    assert res.plan is not None
    assert res.candidate_log[-1]["outcome"] == "success"


def test_solve_needs_a_seeded_generator_by_keyword():
    """No unseeded fallback: a solve without rng=, or with it passed by
    position, is refused before any search."""
    problem = _simple_problem("G[0,10] (safe)", named_texts=[("safe", "P(x0 <= 1) >= 0.95")])
    with pytest.raises(TypeError):
        solve(problem, _params(), 2)
    with pytest.raises(TypeError):
        solve(problem, _params(), 2, np.random.default_rng(0))


def test_solve_trajectory_satisfies_monitor_always_formula():
    problem = _simple_problem(
        "G[0,10] (safe)",
        named_texts=[("safe", "P(-x0 <= 1) >= 0.95 & P(x0 <= 1) >= 0.95")],
    )
    res = solve(problem, _params(), k_max=2, rng=np.random.default_rng(2))
    assert res.ok
    assert monitor(problem.formula, res.trajectory, 0) is True
    assert res.trajectory.num_steps <= 11


def test_solve_no_solution_when_goal_unreachable():
    # goal region deterministically outside anything reachable while
    # staying alive: the cone requires x0 <= -50 at 0.9 confidence
    problem = _simple_problem(
        "F[0,5] (goal)",
        named_texts=[("goal", "P(x0 <= -50) >= 0.9")],
    )
    res = solve(problem, _params(cap=200), k_max=2, rng=np.random.default_rng(0))
    assert not res.ok
    assert res.trajectory is None
    assert res.counterexamples  # at least the failing plan prefix
    assert all(e["outcome"] != "success" for e in res.candidate_log)


def test_solve_records_counterexamples_and_continues():
    """The initial belief is outside the goal cone, so the single-segment
    goal plan fails with infeasible-start before the two-segment plan
    succeeds."""
    problem = _simple_problem(
        "(safe) U[0,20] G[0,5] (goal)",
        named_texts=[
            ("safe", "P(-x0 <= 1) >= 0.95 & P(x0 <= 6) >= 0.95"),
            ("goal", "P(x0 - 5 <= 0.3) >= 0.9 & P(5 - x0 <= 0.3) >= 0.9"),
        ],
    )
    res = solve(problem, _params(), k_max=3, rng=np.random.default_rng(0))
    assert res.ok
    assert res.iterations >= 2
    assert (("goal", 0),) in [tuple(p) for p in res.counterexamples]
    first = res.candidate_log[0]
    assert first["plan"] == [["goal", 0]]
    assert first["outcome"] == "infeasible-start"


def test_rejected_realized_dwells_are_counterexamples(monkeypatch):
    """The word monitor on a candidate's realized dwells, made to reject
    them: every candidate whose segments all solve is logged as
    "realized-dwell" at its last segment K - 1, and its full signature
    becomes a counterexample; every other one fails at its first failing
    segment. With nothing left to propose, solve ends with no plan."""
    words, solved = [], []
    solve_segment = synthesis.solve_segment

    def reject(f, signature, dwells):
        words.append((signature, dwells))
        return False

    def recording(*args):
        result = solve_segment(*args)
        solved.append(result.ok)
        return result

    monkeypatch.setattr(synthesis, "monitor_word", reject)
    monkeypatch.setattr(synthesis, "solve_segment", recording)
    problem = _simple_problem(
        "(safe) U[0,20] G[0,5] (goal)",
        named_texts=[
            ("safe", "P(-x0 <= 1) >= 0.95 & P(x0 <= 6) >= 0.95"),
            ("goal", "P(x0 - 5 <= 0.3) >= 0.9 & P(5 - x0 <= 0.3) >= 0.9"),
        ],
        num_modes=2,
    )
    res = solve(problem, _params(cap=300), k_max=3, rng=np.random.default_rng(0))
    assert not res.ok and res.plan is None
    counterexamples = [tuple(map(tuple, c)) for c in res.counterexamples]
    rejected = 0
    for entry in res.candidate_log:
        signature = tuple(map(tuple, entry["plan"]))
        assert signature[: entry["failed_segment"] + 1] in counterexamples
        if entry["outcome"] == "realized-dwell":
            K = len(signature)
            assert entry["failed_segment"] == K - 1
            assert solved[:K] == [True] * K
            rejected += 1
        else:
            K = entry["failed_segment"] + 1
            assert solved[:K] == [True] * (K - 1) + [False]
        del solved[:K]
    assert solved == []
    assert len(words) == rejected == 8
    assert {len(e["plan"]) for e in res.candidate_log if e["outcome"] == "realized-dwell"} == {2, 3}


def test_solve_deterministic_given_seed():
    problem = _simple_problem(
        "F[0,15] (goal)",
        named_texts=[("goal", "P(x0 - 3 <= 0.3) >= 0.9 & P(3 - x0 <= 0.3) >= 0.9")],
    )
    r1 = solve(problem, _params(), k_max=2, rng=np.random.default_rng(8))
    r2 = solve(problem, _params(), k_max=2, rng=np.random.default_rng(8))
    assert r1.ok == r2.ok
    if r1.ok:
        assert r1.trajectory.num_steps == r2.trajectory.num_steps
        for a, b in zip(r1.trajectory.beliefs, r2.trajectory.beliefs):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.cov, b.cov)


def test_segment_boundaries_consistent():
    problem = _simple_problem(
        "(safe) U[0,20] G[0,5] (goal)",
        named_texts=[
            ("safe", "P(-x0 <= 1) >= 0.95 & P(x0 <= 6) >= 0.95"),
            ("goal", "P(x0 - 5 <= 0.3) >= 0.9 & P(5 - x0 <= 0.3) >= 0.9"),
        ],
    )
    res = solve(problem, _params(), k_max=3, rng=np.random.default_rng(0))
    assert res.ok
    t = res.trajectory
    assert len(t.segment_boundaries) == len(res.plan.segments)
    assert t.segment_boundaries[0] == 0
    assert all(
        a < b for a, b in zip(t.segment_boundaries, t.segment_boundaries[1:])
    )
    assert t.segment_boundaries[-1] <= t.num_steps


def _beliefs_with_traces(traces):
    return [make_belief([0.0], [[t]]) for t in traces]


def test_uncertainty_growth_warns_after_50_growing_steps():
    """The warning fires once the covariance trace has grown for 50
    steps in a row; not after 49, nor when a flat step splits 50 growing
    steps into two runs of 25."""
    with pytest.warns(RuntimeWarning, match="grew for 50 consecutive steps"):
        _warn_on_uncertainty_growth(_beliefs_with_traces(1.0 + np.arange(51)))
    split = np.concatenate([1.0 + np.arange(26), 26.0 + np.arange(26)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _warn_on_uncertainty_growth(_beliefs_with_traces(1.0 + np.arange(50)))
        _warn_on_uncertainty_growth(_beliefs_with_traces(split))
