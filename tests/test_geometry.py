import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import oracles
from beliefplan import geometry
from beliefplan.gaussian import BeliefState, make_belief, std_normal_quantile
from beliefplan.geometry import (
    BeliefCone,
    DegeneratePolytopeError,
    LinearExpression,
    Polytope,
    ProbabilisticLinearPredicate,
    _spread_margins,
    box_polytope,
    cone_contains,
    cone_holds,
    cone_margin,
    cone_spread,
    polytope_contains,
    polytope_sample,
)
from oracles import list_cone_contains, list_cone_margin, list_polytope_contains


def _pred(h, c, eps):
    return ProbabilisticLinearPredicate(LinearExpression(h, c), eps)


def test_linear_expression_validation():
    with pytest.raises(ValueError):
        LinearExpression([], 0.0)
    with pytest.raises(ValueError):
        LinearExpression([np.inf], 0.0)


def test_predicate_epsilon_range():
    expr = LinearExpression([1.0], 0.0)
    ProbabilisticLinearPredicate(expr, 0.0)
    ProbabilisticLinearPredicate(expr, 0.5)
    with pytest.raises(ValueError):
        ProbabilisticLinearPredicate(expr, 0.51)
    with pytest.raises(ValueError):
        ProbabilisticLinearPredicate(expr, -0.01)


def test_box_polytope_contains_and_box():
    P = box_polytope([(-1.0, 1.0), (0.0, 2.0)])
    assert polytope_contains(P, [0.0, 1.0])
    assert polytope_contains(P, [1.0, 2.0])  # boundary included
    assert not polytope_contains(P, [1.0 + 1e-6, 1.0])
    lo, hi = P.box
    assert np.allclose(lo, [-1.0, 0.0]) and np.allclose(hi, [1.0, 2.0])


def test_polytope_rejects_violating_vertex():
    hs = (LinearExpression([1.0], -1.0),)  # x <= 1
    with pytest.raises(ValueError):
        Polytope(hs, (np.array([2.0]),))


def test_polytope_sample_inside():
    P = box_polytope([(-1.0, 1.0), (-1.0, 1.0)])
    rng = np.random.default_rng(7)
    for _ in range(100):
        assert polytope_contains(P, polytope_sample(P, rng))


def test_cone_margin_closed_form():
    # margin = h.mean + c + Phi^{-1}(1-eps) sqrt(h' cov h), checked
    # against an independent evaluation of each factor
    pred = ProbabilisticLinearPredicate(LinearExpression([1.0, 0.0], -5.0), 0.05)
    b = make_belief([1.0, 2.0], [[0.09, 0.0], [0.0, 0.04]])
    expected = 1.0 - 5.0 + std_normal_quantile(0.95) * 0.3
    assert cone_margin(pred, b) == pytest.approx(expected, abs=1e-12)


def test_cone_margin_lightdark_safety_halfspace():
    # oracle: -5 + Phi^{-1}(0.99) * sqrt(0.1), quantile by bisection
    pred = ProbabilisticLinearPredicate(LinearExpression([1.0, 0.0], -5.0), 0.01)
    b = make_belief([0.0, 2.5], [[0.1, 0.0], [0.0, 0.1]])
    assert cone_margin(pred, b) == pytest.approx(-4.264344208814, abs=1e-9)


def test_cone_margin_epsilon_half_is_mean_margin():
    # Phi^{-1}(0.5) = 0: median quantile drops the spread term
    pred = ProbabilisticLinearPredicate(LinearExpression([1.0], -2.0), 0.5)
    b = make_belief([1.0], [[4.0]])
    assert cone_margin(pred, b) == pytest.approx(-1.0, abs=1e-12)


def test_cone_margin_epsilon_zero():
    b = make_belief([0.0], [[1.0]])
    hard = ProbabilisticLinearPredicate(LinearExpression([1.0], -1.0), 0.0)
    assert cone_margin(hard, b) == math.inf
    # no variance along h -> deterministic margin
    b0 = make_belief([0.5], [[0.0]])
    assert cone_margin(hard, b0) == pytest.approx(-0.5)


def test_cone_contains_conjunction():
    preds = [
        ProbabilisticLinearPredicate(LinearExpression([1.0], -2.0), 0.05),
        ProbabilisticLinearPredicate(LinearExpression([-1.0], -2.0), 0.05),
    ]
    cone = BeliefCone(preds)
    tight = make_belief([0.0], [[1e-4]])
    wide = make_belief([0.0], [[4.0]])
    assert cone_contains(cone, tight)
    assert not cone_contains(cone, wide)


def test_empty_cone_contains_everything():
    assert cone_contains(BeliefCone(), make_belief([100.0], [[50.0]]))
    means = np.array([[100.0, -3.0], [0.0, 0.0]])
    covs = np.array([50.0 * np.eye(2), np.zeros((2, 2))])
    spread = cone_spread(BeliefCone(), covs)
    assert cone_holds(BeliefCone(), means, spread).tolist() == [True, True]


def test_belief_cone_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="mixed state dimensions"):
        BeliefCone((_pred([1.0], 0.0, 0.1), _pred([1.0, 0.0], 0.0, 0.1)))


def test_compiled_arrays_are_read_only_stacks():
    cone = BeliefCone((_pred([1.0, 2.0], -3.0, 0.05), _pred([0.0, -1.0], 0.5, 0.0)))
    assert cone.H.tolist() == [[1.0, 2.0], [0.0, -1.0]]
    assert cone.c.tolist() == [-3.0, 0.5]
    assert cone.quantile.tolist() == [std_normal_quantile(0.95), math.inf]
    P = box_polytope([(-1.0, 1.0), (0.0, 2.0)])
    for a in (cone.H, cone.c, cone.quantile, P.H, P.c, *P.box):
        assert not a.flags.writeable


def _random_cone(rng, n):
    """0-4 rows, each general, zero (a constant constraint) or on one
    axis; constants include c = 1e-12, the containment tolerance."""
    preds = []
    for _ in range(rng.integers(0, 5)):
        kind = rng.integers(0, 3)
        h = rng.normal(size=n) if kind == 0 else np.zeros(n)
        if kind == 2:
            h[rng.integers(n)] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        c = 1e-12 if kind == 1 and rng.random() < 0.5 else float(rng.normal())
        eps = float(rng.choice([0.0, 0.5, rng.uniform(0.01, 0.5)]))
        preds.append(_pred(h, c, eps))
    return BeliefCone(tuple(preds))


def _random_beliefs(rng, n, size):
    """Means and PSD covariances; an axis is without variance with
    probability 0.3, so axis rows there see zero variance."""
    L = rng.normal(size=(size, n, n))
    L[:, rng.random(n) < 0.3, :] = 0.0
    return rng.normal(scale=2.0, size=(size, n)), L @ L.mT


def test_margins_match_per_constraint_reference():
    """Stacked margins are bit-equal to the per-constraint 1-D products,
    and every verdict is equal, for one belief and for stacks; a (B, n)
    stack of beliefs gets the one-belief cone_contains verdict per row."""
    rng = np.random.default_rng(2016)
    for _ in range(1500):
        n = int(rng.integers(1, 5))
        cone = _random_cone(rng, n)
        means, covs = _random_beliefs(rng, n, int(rng.integers(1, 6)))
        ref = np.array([
            [list_cone_margin(p, mean, cov) for p in cone.constraints]
            for mean, cov in zip(means, covs)
        ]).reshape(len(means), len(cone.constraints))
        spread = cone_spread(cone, covs)
        assert np.array_equal(_spread_margins(cone, means, spread), ref)
        verdicts = [list_cone_contains(cone, mean, cov) for mean, cov in zip(means, covs)]
        assert cone_holds(cone, means, spread).tolist() == verdicts
        b = make_belief(means[0], covs[0])
        assert cone_contains(cone, b) == verdicts[0]
        stacked = cone_contains(cone, BeliefState(means, covs))
        assert stacked.shape == (len(means),) and stacked.tolist() == verdicts
        assert verdicts == [cone_contains(cone, make_belief(m, c)) for m, c in zip(means, covs)]
        for p, r in zip(cone.constraints, ref[0]):
            assert cone_margin(p, b) == r


def test_containment_tolerance_is_inclusive():
    b = make_belief([0.0, 0.0], [[0.0, 0.0], [0.0, 1.0]])
    at_tol = BeliefCone((_pred([0.0, 0.0], 1e-12, 0.3), _pred([1.0, 0.0], 1e-12, 0.0)))
    assert cone_contains(at_tol, b)
    assert not cone_contains(BeliefCone((_pred([1.0, 0.0], 2e-12, 0.0),)), b)
    P = Polytope((LinearExpression([1.0], 1e-12), LinearExpression([-1.0], -1.0)), ([-1.0], [-1e-12]))
    assert polytope_contains(P, [0.0])
    assert not polytope_contains(P, [1e-12])


def _random_polytope(rng):
    """A random box, or the hull of random points in 2 or 3 dimensions."""
    if rng.random() < 0.5:
        lo = rng.normal(size=int(rng.integers(1, 4)))
        return box_polytope(list(zip(lo, lo + rng.uniform(0.0, 2.0, size=lo.size))))
    pts = rng.normal(size=(8, int(rng.integers(2, 4))))
    hull = ConvexHull(pts)
    halfspaces = tuple(LinearExpression(eq[:-1], eq[-1]) for eq in hull.equations)
    return Polytope(halfspaces, tuple(pts[hull.vertices]))


def test_polytope_contains_matches_per_halfspace_reference():
    """Vertices, points clamped to the bounding box and points around it
    get the verdict of the halfspace-by-halfspace check."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        P = _random_polytope(rng)
        lo, hi = P.box
        assert np.array_equal(lo, np.min(P.vertices, axis=0))
        assert np.array_equal(hi, np.max(P.vertices, axis=0))
        around = rng.uniform(lo - 0.5, hi + 0.5, size=(20, lo.size))
        points = [*P.vertices, *np.clip(around, lo, hi), *around]
        verdicts = [polytope_contains(P, x) for x in points]
        assert verdicts == [list_polytope_contains(P, x) for x in points]
        assert all(verdicts[: len(P.vertices)])


def test_batched_sample_equals_sequential_single_draws():
    """polytope_sample(P, rng, count) returns the samples, and leaves the
    generator in the state, of count single samples taken in turn and of
    the one-draw-at-a-time reference, on boxes and on 2-D/3-D hulls."""
    rng = np.random.default_rng(23)
    rejected = 0
    for _ in range(200):
        P = _random_polytope(rng)
        count = int(rng.integers(0, 12))
        seed = int(rng.integers(1 << 30))
        r_batch, r_single, r_ref = (np.random.default_rng(seed) for _ in range(3))
        batch = polytope_sample(P, r_batch, count)
        singles = [polytope_sample(P, r_single) for _ in range(count)]
        refs = [oracles.list_polytope_sample(P, r_ref) for _ in range(count)]
        assert batch.shape == (count, P.dim)
        assert np.array_equal(batch, np.reshape(singles, (count, P.dim)))
        assert np.array_equal(batch, np.reshape([x for x, _ in refs], (count, P.dim)))
        assert r_batch.bit_generator.state == r_single.bit_generator.state
        assert r_batch.bit_generator.state == r_ref.bit_generator.state
        rejected += sum(draws for _, draws in refs) > count
    assert rejected > 50


def _sliver():
    """Triangle (0, 0), (1, 1), (1, 1 - 1e-9): a 5e-10 share of its
    bounding box [0, 1]^2."""
    d = 1e-9
    halfspaces = (
        LinearExpression([-1.0, 1.0], 0.0),
        LinearExpression([1.0, 0.0], -1.0),
        LinearExpression([1.0 - d, -1.0], 0.0),
    )
    return Polytope(halfspaces, (np.zeros(2), np.ones(2), np.array([1.0, 1.0 - d])))


@pytest.mark.parametrize("count", [None, 1, 3, 50])
def test_rejection_budget_counts_draws(monkeypatch, count):
    """On a sliver the error comes after exactly _MAX_REJECTIONS draws,
    whatever the number of samples asked for."""
    monkeypatch.setattr(geometry, "_MAX_REJECTIONS", 20)
    P = _sliver()
    rng, r_ref = np.random.default_rng(9), np.random.default_rng(9)
    with pytest.raises(DegeneratePolytopeError, match="after 20 rejections"):
        polytope_sample(P, rng, count)
    r_ref.uniform(*P.box, size=(20, 2))
    assert rng.bit_generator.state == r_ref.bit_generator.state


@pytest.mark.parametrize("budget", [1, 2, 3, 5])
def test_rejection_budget_matches_sequential_reference(monkeypatch, budget):
    """On a triangle that fills half its bounding box, a run of budget
    rejections may end inside a round or span two: the batched sampler
    raises exactly when the one-draw-at-a-time reference gives up, and
    both leave the generator in the same state."""
    monkeypatch.setattr(geometry, "_MAX_REJECTIONS", budget)
    halfspaces = (
        LinearExpression([-1.0, 0.0], 0.0),
        LinearExpression([0.0, -1.0], 0.0),
        LinearExpression([1.0, 1.0], -1.0),
    )
    P = Polytope(halfspaces, (np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    outcomes = {"raised": 0, "sampled": 0}
    for seed in range(300):
        count = 1 + seed % 9
        rng, r_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = []
        while len(expected) < count:
            x, _ = oracles.list_polytope_sample(P, r_ref, budget)
            if x is None:
                break
            expected.append(x)
        if len(expected) < count:
            with pytest.raises(DegeneratePolytopeError):
                polytope_sample(P, rng, count)
            outcomes["raised"] += 1
        else:
            assert np.array_equal(polytope_sample(P, rng, count), np.array(expected))
            outcomes["sampled"] += 1
        assert rng.bit_generator.state == r_ref.bit_generator.state
    assert min(outcomes.values()) > 10
