import json
import math
import os
import re

import numpy as np
import pytest

import oracles
from beliefplan import cli
from beliefplan.dynamics import (
    _CONDITION_LIMIT,
    IllConditionedUpdateError,
    NoObservationError,
    ScalarExpression,
    SwitchedSystem,
    SystemMode,
    _predict_cov_2x2,
    _update,
    kalman_update,
    mlo_covariance,
    noise_cov,
    predict,
    predict_means,
    propagate_mlo,
    sample_observation,
    step_truth,
)
from beliefplan import belief_rrt
from beliefplan.belief_rrt import rrt_extend
from beliefplan.formula import MAX_NESTING, parse_noise
from beliefplan.gaussian import EIGENVALUE_TOL, BeliefState, InvalidCovarianceError, make_belief
from beliefplan.geometry import BeliefCone, box_polytope


def _lightdark_mode():
    return SystemMode(
        A=np.eye(2),
        B=0.25 * np.eye(2),
        W=np.zeros((2, 2)),
        C=np.eye(2),
        noise="0.1*(5 - x0)^2 + 0.001",
    )


def test_scalar_expression():
    e = ScalarExpression("0.1*(5 - x0)^2 + 0.001", 2)
    assert e([5.0, 0.0]) == pytest.approx(0.001)
    assert e([0.0, 0.0]) == pytest.approx(2.501)
    assert e([3.0, 7.0]) == pytest.approx(0.1 * 4 + 0.001)


@pytest.mark.parametrize(
    "text, value",
    [
        ("-x0^2", -9.0),  # unary minus binds looser than ^
        ("1 + -x0^2", -8.0),
        ("1 - x0^2", -8.0),
        ("(-x0)^2", 9.0),
        ("-x0*2", -6.0),
        ("2*-x0^2", -18.0),
        ("--x0", 3.0),
        ("-2^2 + x0", -1.0),
    ],
)
def test_scalar_expression_unary_minus(text, value):
    assert ScalarExpression(text, 1)([3.0]) == value


def _random_noise_text(rng, depth):
    """A random expression over x0 and x1 with + - *, unary minus and
    ^2, ^3 or ^5."""
    if depth == 0 or rng.random() < 0.2:
        return str(rng.choice(["x0", "x1", f"{rng.uniform(0, 3):.3f}"]))
    kind = int(rng.integers(5))
    sub = _random_noise_text(rng, depth - 1)
    if kind == 0:
        return f"({sub})^{rng.choice([2, 3, 5])}"
    if kind == 1:
        return f"-{sub}"
    op = "+-*"[kind - 2]
    return f"({sub} {op} {_random_noise_text(rng, depth - 1)})"


def test_scalar_expression_takes_one_state():
    """A call on one state (n,) returns a Python float, for fixed and
    random expressions with ^2, ^3, ^5 and unary minus; a point of any
    other shape, a (k, n) stack included, is a ValueError."""
    rng = np.random.default_rng(1306)
    texts = ["x0^2", "-x1^3", "(x0 - x1)^5"]
    texts += [_random_noise_text(rng, 3) for _ in range(7)]
    for text in texts:
        e = ScalarExpression(text, 2)
        assert type(e(rng.uniform(-10.0, 10.0, size=2))) is float
        for shape in ((1,), (3,), (1, 2), (4, 2)):
            with pytest.raises(ValueError, match=re.escape(f"point of shape {shape}")):
                e(np.zeros(shape))


def test_scalar_expression_errors():
    with pytest.raises(ValueError):
        ScalarExpression("x9", 2)
    with pytest.raises(ValueError):
        ScalarExpression("x0 ^ 2.5", 1)
    with pytest.raises(ValueError):
        ScalarExpression("x0 $ 2", 1)
    with pytest.raises(ValueError):
        ScalarExpression("(x0", 1)


def test_scalar_expression_nesting_bound():
    """Parentheses, unary minuses and operator levels up to MAX_NESTING
    parse; one level more is a ValueError, not a RecursionError."""
    half = MAX_NESTING // 2
    for text in (
        lambda d: "(" * d + "x0" + ")" * d,
        lambda d: "-" * d + "x0",
        lambda d: " + ".join(["x0"] * (d + 1)),  # d + 1 terms, d levels
        lambda d: "(" * half + "-" * (d - half) + "x0" + ")" * half,
    ):
        assert ScalarExpression(text(MAX_NESTING), 1)([2.0]) in (2.0, 2.0 * (MAX_NESTING + 1))
        with pytest.raises(ValueError, match="nests deeper than"):
            ScalarExpression(text(MAX_NESTING + 1), 1)


_X0, _X1 = ("var", 0), ("var", 1)


def _negs(k, node):
    for _ in range(k):
        node = ("neg", node)
    return node


def _sum(k):
    """The left chain of x0 + x0 + ... with k + 1 terms, k levels."""
    node = _X0
    for _ in range(k):
        node = ("+", node, _X0)
    return node


_LIGHTDARK_NOISE = ("+", ("*", ("num", 0.1), ("^", ("-", ("num", 5.0), _X0), 2)), ("num", 0.001))

# Noise texts over light-dark's two state variables: the syntax tree of
# an accepted text, or None for one that --validate-only rejects with
# exit code 4, and for a deliberate difference from the noise parser
# that preceded formula.parse_noise, that parser's verdict.
NOISE_CORPUS = [
    ("0.1*(5 - x0)^2 + 0.001", _LIGHTDARK_NOISE, None),
    ("--x0", _negs(2, _X0), None),
    ("- - -x1", _negs(3, _X1), None),
    ("-x0^2", ("neg", ("^", _X0, 2)), None),
    ("(-x0)^2", ("^", ("neg", _X0), 2), None),
    ("2*-x0^2", ("*", ("num", 2.0), ("neg", ("^", _X0, 2))), None),
    ("1 - -x1", ("-", ("num", 1.0), ("neg", _X1)), None),
    ("x0 - x1 - 1", ("-", ("-", _X0, _X1), ("num", 1.0)), None),
    ("x0^2.0", ("^", _X0, 2), None),
    ("x0^0", ("^", _X0, 0), None),
    ("5. * .5", ("*", ("num", 5.0), ("num", 0.5)), None),
    ("x01", _X1, None),
    ("\n x1\t", _X1, None),
    ("(" * MAX_NESTING + "x0" + ")" * MAX_NESTING, _X0, None),
    ("-" * MAX_NESTING + "x0", _negs(MAX_NESTING, _X0), None),
    (" + ".join(["x0"] * (MAX_NESTING + 1)), _sum(MAX_NESTING), None),
    ("x0^2.5", None, None),
    ("x0^2^2", None, None),
    ("x0^-2", None, None),
    ("x0^x1", None, None),
    ("2x0", None, None),
    ("", None, None),
    ("x9", None, None),
    ("x", None, None),
    ("+x0", None, None),
    ("x0 $ 2", None, None),
    ("(x0", None, None),
    ("x0)", None, None),
    ("(" * (MAX_NESTING + 1) + "x0" + ")" * (MAX_NESTING + 1), None, None),
    ("-" * (MAX_NESTING + 1) + "x0", None, None),
    (" + ".join(["x0"] * (MAX_NESTING + 2)), None, None),
    # Exponent notation: one number syntax for formulas and noise.
    ("1e-3", ("num", 0.001), "rejected: bad character"),
    ("x0^1e1", ("^", _X0, 10), "rejected: bad character"),
    # A number too large for a float is not finite.
    ("9" * 400, None, "accepted as ('num', inf)"),
    ("x0^" + "9" * 400, None, "OverflowError traceback, exit code 1"),
    # Variables are ASCII identifiers, as in formulas.
    ("x\u0661", None, "accepted as x1 (U+0661 is ARABIC-INDIC DIGIT ONE)"),
]


@pytest.mark.parametrize("text, tree, before", NOISE_CORPUS,
                         ids=[f"{i}:{t[:12]!r}" for i, (t, _, _) in enumerate(NOISE_CORPUS)])
def test_noise_corpus_keeps_its_verdicts(tmp_path, capsys, text, tree, before):
    """Each text gets its pinned syntax tree, or exits 4 through
    --validate-only with one line on stderr."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "problems", "lightdark.json")) as fh:
        doc = json.load(fh)
    doc["modes"][0]["noise"] = text
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--problem", str(path), "--validate-only"])
    stderr = capsys.readouterr().err
    if tree is None:
        assert exit_.value.code == cli.EXIT_NUMERIC
        assert stderr.startswith("numeric error: $.modes[0]: ") and stderr.count("\n") == 1, stderr
        with pytest.raises(ValueError):
            parse_noise(text, 2)
    else:
        assert exit_.value.code == cli.EXIT_SOLUTION, stderr
        assert parse_noise(text, 2) == tree


def _python_noise_text(rng, n, depth):
    """A random noise text whose numbers all carry a decimal point, so
    that Python evaluates it on floats once ^ is read as **."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return f"x{rng.integers(n)}"
        return f"{rng.uniform(0.0, 3.0):.3f}"
    kind = int(rng.integers(6))
    sub = _python_noise_text(rng, n, depth - 1)
    if kind == 0:
        return f"({sub})^{rng.integers(5)}"
    if kind == 1:
        return "-" * int(rng.integers(1, 4)) + sub
    if kind == 2:
        return f"({sub})"
    op = "+-*"[kind - 3]
    return f"{sub} {op} {_python_noise_text(rng, n, depth - 1)}"


def test_noise_expressions_match_pythons_own_evaluation():
    """Python's grammar gives ** the same place as ^ here: above unary
    minus, which binds above * and then binary + and -, each left
    associative, and a float ** int per value. So Python's eval of each
    generated text with ^ read as ** is an independent oracle: at each
    state the values agree bit for bit."""
    rng = np.random.default_rng(2020)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        text = _python_noise_text(rng, n, 4)
        xs = rng.uniform(-3.0, 3.0, size=(8, n))
        code = compile(text.replace("^", "**"), "<noise>", "eval")
        want = np.array([eval(code, {f"x{i}": v for i, v in enumerate(row)})
                         for row in xs.tolist()], dtype=float)
        e = ScalarExpression(text, n)
        one = np.array([e(row) for row in xs])
        assert np.array_equal(one.view(np.int64), want.view(np.int64)), text


def test_an_overflowing_power_is_a_signed_infinity():
    """Where float ** int raises OverflowError, ^ gives the infinity of
    the power's sign."""
    xs = np.array([[0.0], [10.0], [5.0], [4.0], [-1e300]])
    for text, want in (
        ("(5 - x0)^500", [math.inf, math.inf, 0.0, 1.0, math.inf]),
        ("(5 - x0)^501", [math.inf, -math.inf, 0.0, 1.0, math.inf]),
        ("-x0^3", [-0.0, -1000.0, -125.0, -64.0, math.inf]),
    ):
        e = ScalarExpression(text, 1)
        one = np.array([e(row) for row in xs])
        assert np.array_equal(one.view(np.int64), np.array(want).view(np.int64)), text


def test_mode_kinds():
    m = _lightdark_mode()
    assert m.kind == "polbs_nonlinear"
    assert m.obs_dim == 2
    lbs = SystemMode(np.eye(2), np.eye(2), np.zeros((2, 2)))
    assert lbs.kind == "lbs"
    assert lbs.obs_dim == 0
    lin = SystemMode(np.eye(1), np.eye(1), np.zeros((1, 1)), C=np.eye(1), noise=[[0.3]])
    assert lin.kind == "polbs_linear"


def test_mode_validation():
    with pytest.raises(ValueError):
        SystemMode(np.eye(2), np.ones((3, 1)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SystemMode(np.eye(2), np.eye(2), np.zeros((2, 2)), C=np.eye(2))  # no noise
    with pytest.raises(ValueError):
        SystemMode(np.eye(2), np.eye(2), np.zeros((2, 2)), noise=[[1.0]])  # no C


def test_noise_cov_scalar_and_matrix():
    m = _lightdark_mode()
    # oracle: n(x)^2 at x0=0 is 2.501^2 = 6.255001 exactly
    assert np.allclose(noise_cov(m, [0.0, 0.0]), 6.255001 * np.eye(2), atol=1e-9)
    assert np.allclose(noise_cov(m, [5.0, 1.0]), (0.001 ** 2) * np.eye(2))
    lin = SystemMode(np.eye(1), np.eye(1), np.zeros((1, 1)), C=np.eye(1), noise=[[0.3]])
    assert np.allclose(noise_cov(lin, [0.0]), [[0.09]])
    lbs = SystemMode(np.eye(1), np.eye(1), np.zeros((1, 1)))
    with pytest.raises(NoObservationError):
        noise_cov(lbs, [0.0])


def test_noise_cov_at_one_state_keeps_numpys_bits():
    """R at one state, built on Python floats, against numpy's
    gain^2 * I_p: the same dtype, shape and bytes for p = 1, 2, 3, also
    where the gain overflows (inf on the diagonal, NaN off it) or is
    NaN."""
    rng = np.random.default_rng(5)
    for p in (1, 2, 3):
        mode = SystemMode(np.eye(2), np.eye(2), np.zeros((2, 2)), C=np.ones((p, 2)),
                          noise="x0*x0*x0 - 2*x1*x1")
        xs = np.vstack([rng.uniform(-10.0, 10.0, size=(50, 2)),
                        [[1e200, 0.0], [1e200, 1e200], [0.0, 0.0]]])
        with np.errstate(over="ignore", invalid="ignore"):
            refs = [(mode.noise(x) * mode.noise(x)) * np.eye(p) for x in xs]
        mine = [noise_cov(mode, x) for x in xs]
        assert [(R.dtype, R.shape, R.tobytes()) for R in mine] == \
            [(R.dtype, R.shape, R.tobytes()) for R in refs]


def test_predict():
    m = _lightdark_mode()
    b = make_belief([0.0, 2.5], 0.1 * np.eye(2))
    bp = predict(m, b, [1.0, -1.0])
    assert np.allclose(bp.mean, [0.25, 2.25])
    assert np.allclose(bp.cov, 0.1 * np.eye(2))  # W = 0, A = I


def test_predict_process_noise():
    m = SystemMode(2.0 * np.eye(1), np.eye(1), 0.5 * np.eye(1))
    b = make_belief([1.0], [[1.0]])
    bp = predict(m, b, [0.0])
    assert np.allclose(bp.mean, [2.0])
    assert np.allclose(bp.cov, [[4.25]])  # 4*1 + 0.25


def test_kalman_update_textbook():
    # scalar oracle: K = P/(P+R), P+ = (1-K)P
    m = SystemMode(np.eye(1), np.eye(1), np.zeros((1, 1)), C=np.eye(1), noise=[[1.0]])
    b = make_belief([0.0], [[1.0]])
    bu = kalman_update(m, b, [0.0], [2.0])  # A = 1, W = 0: the prior is b
    assert bu.mean[0] == pytest.approx(1.0)
    assert bu.cov[0, 0] == pytest.approx(0.5)


def test_mlo_keeps_mean_contracts_cov():
    m = _lightdark_mode()
    b = make_belief([0.0, 2.5], 0.1 * np.eye(2))
    bn = propagate_mlo(m, b, [0.5, 0.0])
    # zero innovation: mean is exactly the predicted mean
    assert np.allclose(bn.mean, [0.125, 2.5])
    assert np.trace(bn.cov) < np.trace(b.cov)


def test_mlo_contraction_stronger_in_the_light():
    m = _lightdark_mode()
    b = make_belief([0.0, 2.5], 0.1 * np.eye(2))
    dark = propagate_mlo(m, b, [0.0, 0.0])
    b_light = make_belief([4.9, 2.5], 0.1 * np.eye(2))
    light = propagate_mlo(m, b_light, [0.0, 0.0])
    assert np.trace(light.cov) < np.trace(dark.cov)


def test_mlo_without_observation_is_predict():
    lbs = SystemMode(np.eye(1), np.eye(1), 0.1 * np.eye(1))
    b = make_belief([0.0], [[1.0]])
    assert np.allclose(propagate_mlo(lbs, b, [1.0]).cov, predict(lbs, b, [1.0]).cov)


def test_sample_observation_statistics():
    m = SystemMode(np.eye(1), np.eye(1), np.zeros((1, 1)), C=np.eye(1), noise=[[0.5]])
    rng = np.random.default_rng(3)
    ys = np.array([sample_observation(m, [2.0], rng.standard_normal(1))[0] for _ in range(4000)])
    assert ys.mean() == pytest.approx(2.0, abs=0.05)
    assert ys.std() == pytest.approx(0.5, abs=0.05)


def test_step_truth_noiseless():
    m = SystemMode(np.eye(2), 0.25 * np.eye(2), np.zeros((2, 2)))
    rng = np.random.default_rng(0)
    x = step_truth(m, [0.5, 2.75], [1.0, -1.0], rng.standard_normal(2))
    assert np.allclose(x, [0.75, 2.5])


def test_switched_system_validation():
    box = box_polytope([(-1, 1), (-1, 1)])
    m = _lightdark_mode()
    sys = SwitchedSystem((m,), box)
    assert sys.state_dim == 2 and sys.control_dim == 2
    with pytest.raises(ValueError):
        SwitchedSystem((), box)
    with pytest.raises(ValueError):
        SwitchedSystem((m,), box_polytope([(-1, 1)]))


def _mlo_stack_step(mode, means, cov, us):
    """One MLO step of a stack of means from one shared covariance, as
    the segment RRT takes it: the predicted means, then the covariance
    at each of them."""
    means = predict_means(mode, means, us)
    return means, np.stack([mlo_covariance(mode, cov, mean) for mean in means])


def test_covariance_walk_matches_a_propagate_mlo_replay():
    """belief_rrt._covariances along the mean path of one constant
    control, for all three mode kinds and n = 1 to 3: every step equals
    a step-by-step propagate_mlo replay of the same path bit for bit.
    Unless the noise depends on the state, the walk along another path
    gives the same bits, so one walk serves every candidate."""
    rng = np.random.default_rng(41)
    for trial in range(240):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        kind = ("lbs", "polbs_linear", "polbs_nonlinear")[trial % 3]
        mode = oracles.random_mode(rng, n, m, kind, process_noise=rng.random() < 0.5)
        L = rng.normal(scale=0.2, size=(n, n))
        b = make_belief(rng.normal(size=n), L @ L.T)
        us = rng.uniform(-1.0, 1.0, size=(2, m))
        means, steps = np.array([b.mean, b.mean]), []
        for _ in range(int(rng.integers(1, 5))):
            means = predict_means(mode, means, us)
            steps.append(means)
        paths = np.stack(steps, axis=1)  # (2, horizon, n)
        covs = belief_rrt._covariances(mode, b.cov, paths[0])
        assert covs.shape == (paths.shape[1], n, n)
        ref = b
        for mean, cov in zip(paths[0], covs):
            ref = propagate_mlo(mode, ref, us[0])
            assert np.array_equal(mean, ref.mean), trial
            assert np.array_equal(cov, ref.cov), trial
        if kind != "polbs_nonlinear":
            assert np.array_equal(belief_rrt._covariances(mode, b.cov, paths[1]), covs), trial


@pytest.mark.parametrize("kind", ["lbs", "polbs_linear", "polbs_nonlinear"])
def test_shared_covariance_stack_rejects_a_non_finite_mean_row(kind):
    mode = oracles.random_mode(np.random.default_rng(3), 2, 2, kind, process_noise=False)
    means = np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]])
    cov = 0.1 * np.eye(2)
    with pytest.raises(InvalidCovarianceError, match="non-finite"):
        _mlo_stack_step(mode, means, cov, np.zeros((3, 2)))
    with pytest.raises(InvalidCovarianceError, match="non-finite"):
        propagate_mlo(mode, BeliefState(means[1], cov), np.zeros(2))  # unchecked: NaN in the mean


def test_shared_covariance_stack_rejects_a_singular_constant_noise():
    """R = 0 observing x0, which carries no variance: the innovation
    covariance is singular for every row of the shared covariance."""
    mode = SystemMode(np.eye(2), np.eye(2), np.zeros((2, 2)), C=[[1.0, 0.0]], noise=[[0.0]])
    cov = np.diag([0.0, 0.1])
    means = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 3.0]])
    with pytest.raises(IllConditionedUpdateError):
        _mlo_stack_step(mode, means, cov, np.ones((3, 2)))
    with pytest.raises(IllConditionedUpdateError):
        propagate_mlo(mode, make_belief(means[0], cov), np.ones(2))


def test_mlo_mean_is_the_predicted_mean_where_c_m_overflows():
    """Under MLO the planned mean is the predicted mean, also where the
    predicted observation C m overflows: a zero-innovation update
    m + K (C m - C m) would make it inf - inf = nan. propagate_mlo and
    the segment RRT's step both keep the finite predicted mean."""
    mode = SystemMode(np.eye(2), 0.25 * np.eye(2), np.zeros((2, 2)), C=[[1.0, 1.0]], noise=[[0.1]])
    b = make_belief([1e308, 1e308], 0.1 * np.eye(2))
    u = np.zeros(2)
    assert np.array_equal(propagate_mlo(mode, b, u).mean, predict(mode, b, u).mean)
    rng = np.random.default_rng(0)
    branch = rrt_extend(mode, b, b.mean, 2, BeliefCone(), box_polytope([(-1, 1), (-1, 1)]), rng)
    assert branch is not None
    control, end = branch
    ref = propagate_mlo(mode, propagate_mlo(mode, b, control), control)
    assert np.array_equal(end.mean, ref.mean) and np.array_equal(end.cov, ref.cov)
    assert np.array_equal(end.mean, b.mean)  # 1e308 absorbs 2 * 0.25 * |u| <= 0.5


def _near_condition_limit(rng, n):
    """A symmetric n-by-n matrix, of either sign per eigenvalue, whose
    condition number lies within 1% of 1e12; a 1-by-1 one is zero, or a
    number of any magnitude (condition number 1)."""
    if n == 1:
        return np.array([[0.0 if rng.random() < 0.3 else rng.choice([-1, 1]) * 10 ** rng.uniform(-300, 300)]])
    s = 10 ** rng.uniform(-3, 3)
    small = s / (1e12 * (1 + rng.uniform(-1, 1) * 1e-2))
    eigs = np.array([small, *rng.uniform(small, s, n - 2), s]) * rng.choice([-1.0, 1.0], n)
    return oracles.matrix_with_eigenvalues(rng, eigs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_condition_verdicts_match_cond_outside_the_rounding_band(n):
    """The condition test of _update against np.linalg.cond on each
    matrix of random stacks straddling 1e12 (C = I, R = 0, so the
    innovation matrix is the covariance): the verdicts differ only where
    the matrix has |cond / 1e12 - 1| <= 1e-3."""
    rng = np.random.default_rng(10 + n)
    mode = SystemMode(np.eye(n), np.eye(n), np.zeros((n, n)), C=np.eye(n), noise=np.zeros((n, n)))
    R = np.zeros((n, n))
    outcomes = {"ill": 0, "well": 0, "differ": 0}
    for _ in range(2000):
        stack = np.array([_near_condition_limit(rng, n) for _ in range(rng.integers(1, 4))])
        for S in stack:
            try:
                _update(mode, S, R)
                ill = False
            except IllConditionedUpdateError as exc:
                assert str(exc) == "innovation covariance condition number exceeds 1e+12"
                ill = True
            if ill != oracles.oracle_ill_conditioned(S[None]):
                outcomes["differ"] += 1
                assert abs(np.linalg.cond(S) / 1e12 - 1) <= 1e-3
            outcomes["ill" if ill else "well"] += 1
    assert outcomes["ill"] > 500 and outcomes["well"] > 500, outcomes


@pytest.mark.parametrize("cov", [np.zeros((2, 2)), [[1.0, 2.0], [2.0, 4.0]]], ids=["zero", "rank-1"])
def test_singular_innovation_matrix_is_ill_conditioned(cov):
    """R = 0 and C = I make the innovation matrix the covariance: zero,
    or of rank 1 with eigenvalues 0 and 5."""
    mode = SystemMode(np.eye(2), np.eye(2), np.zeros((2, 2)), C=np.eye(2), noise=np.zeros((2, 2)))
    with pytest.raises(IllConditionedUpdateError):
        kalman_update(mode, make_belief([0.0, 0.0], cov), [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(IllConditionedUpdateError):
        propagate_mlo(mode, make_belief([0.0, 0.0], cov), [0.0, 0.0])


def test_three_dimensional_condition_verdicts_are_unchanged():
    """A 3-D belief observed through C = I: a condition number of 1e6
    passes, 1e15 and a singular innovation matrix fail, as with
    np.linalg.cond, with the same message."""
    mode = SystemMode(np.eye(3), np.eye(3), np.zeros((3, 3)), C=np.eye(3), noise=np.zeros((3, 3)))
    for diag, ill in (([1.0, 1e-3, 1e-6], False), ([1.0, 1e-3, 1e-15], True), ([1.0, 0.5, 0.0], True)):
        assert oracles.oracle_ill_conditioned(np.diag(diag)) == ill
        b = make_belief(np.zeros(3), np.diag(diag))
        if ill:
            with pytest.raises(IllConditionedUpdateError, match="condition number exceeds 1e"):
                kalman_update(mode, b, np.zeros(3), np.zeros(3))
        else:
            kalman_update(mode, b, np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# The filter step of a mode with n = p = 2, on Python floats
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _random_filter_case(rng):
    """A random n = p = 2 mode, belief, control and observation: A a
    contracting rotation or a perturbed identity, W != 0, a general C,
    constant or state-dependent noise, and a covariance of scale 1e-6 to
    1e6. One case in four is C = I, R = 0 and A = I, W = 0 instead,
    with a covariance whose condition number lies within 1% of 1e12, so
    that the condition test decides it."""
    if rng.random() < 0.25:
        mode = SystemMode(np.eye(2), np.eye(2), np.zeros((2, 2)), C=np.eye(2), noise=np.zeros((2, 2)))
        s = 10 ** rng.uniform(-6, 6)
        cov = oracles.matrix_with_eigenvalues(rng, [s / (1e12 * (1 + rng.uniform(-1, 1) * 1e-2)), s])
    else:
        if rng.random() < 0.5:
            th = rng.uniform(-np.pi, np.pi)
            A = rng.uniform(0.5, 1.0) * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        else:
            A = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
        W = 10 ** rng.uniform(-3, 0) * rng.normal(size=(2, 2))
        if rng.random() < 0.5:
            noise = 10 ** rng.uniform(-3, 0) * (rng.normal(size=(2, 2)) + 2 * np.eye(2))
        else:
            noise = "0.1*(5 - x0)^2 + 0.001"
        B, C = rng.normal(scale=0.5, size=(2, 2)), rng.normal(size=(2, 2))
        mode = SystemMode(A, B, W, C=C, noise=noise)
        L = rng.normal(size=(2, 2))
        cov = 10 ** rng.uniform(-6, 6) * (L @ L.T + 1e-3 * np.eye(2))
    b = make_belief(rng.normal(scale=3.0, size=2), cov)
    return mode, b, rng.uniform(-1.0, 1.0, size=2), rng.normal(scale=3.0, size=2)


def _outcome(step, *args):
    try:
        return step(*args)
    except IllConditionedUpdateError as exc:
        return str(exc)


def test_closed_form_filter_matches_the_numpy_reference():
    """The filter step (kalman_update) of n = p = 2 modes against the
    numpy reference, oracle_predict then oracle_kalman_update, on 3,000
    random cases; predict, the numpy body, gives oracle_predict's bits.
    The filter step's predicted covariance, _predict_cov_2x2 on Python
    floats, is within 8 eps of the largest entry of oracle_predict's;
    its predicted mean is not exposed and not compared. Both updates
    round a solve against S = C P C^T + R, whose error grows with
    cond(S): the posterior covariances differ by at most
    16 eps cond(S) of the largest prior or posterior entry, the means by
    64 eps cond(S) of the largest prior or posterior entry or entry of
    |K| |y - C m|, the size of the terms the update sums. The worst
    measured over 4 x 30,000 such cases were 5.5 eps, 6.7 eps cond(S)
    and 14 eps cond(S). The verdicts and messages agree outside
    |cond(S) / 1e12 - 1| <= 1e-3."""
    rng = np.random.default_rng(2)
    outcomes = {"updated": 0, "ill": 0, "differ": 0}
    for _ in range(3000):
        mode, b, u, y = _random_filter_case(rng)
        mine, prior = predict(mode, b, u), oracles.oracle_predict(mode, b, u)
        assert mine.mean.tobytes() == prior.mean.tobytes() and mine.cov.tobytes() == prior.cov.tobytes()
        cov = np.reshape(_predict_cov_2x2(mode, b.cov.ravel().tolist()), (2, 2))
        assert np.abs(cov - prior.cov).max() <= 8 * _EPS * np.abs(prior.cov).max()
        mine = _outcome(kalman_update, mode, b, u, y)
        ref = _outcome(oracles.oracle_kalman_update, mode, prior, y)
        S = mode.C @ prior.cov @ mode.C.T + noise_cov(mode, prior.mean)
        cond = np.linalg.cond(S)
        if isinstance(mine, str) != isinstance(ref, str):
            outcomes["differ"] += 1
            assert abs(cond / 1e12 - 1) <= 1e-3
        elif isinstance(mine, str):
            outcomes["ill"] += 1
            assert mine == ref
        else:
            outcomes["updated"] += 1
            cov_scale = max(np.abs(prior.cov).max(), np.abs(ref.cov).max())
            K = np.linalg.solve(S, mode.C @ prior.cov).mT
            terms = np.abs(K) @ np.abs(y - mode.C @ prior.mean)
            mean_scale = max(np.abs(prior.mean).max(), np.abs(ref.mean).max(), terms.max())
            assert np.abs(mine.cov - ref.cov).max() <= 16 * _EPS * cond * cov_scale
            assert np.abs(mine.mean - ref.mean).max() <= 64 * _EPS * cond * mean_scale
    assert outcomes["updated"] > 2000 and outcomes["ill"] > 200, outcomes


def _random_mlo_case(rng):
    """A random n = p = 2 mode as in _random_filter_case, and a stack of
    1 to 8 predicted means with one shared covariance or one per row;
    in one case in four the mode is C = I, R = 0, A = I, W = 0 and the
    covariances have condition numbers within 1% of 1e12."""
    mode, b, _, _ = _random_filter_case(rng)
    k = int(rng.integers(1, 9))
    means = b.mean + rng.normal(scale=3.0, size=(k, 2))
    if rng.random() < 0.5:
        return mode, b.cov[None], means
    if not mode.W.any():
        s = 10 ** rng.uniform(-6, 6, size=k)
        eigs = [[v / (1e12 * (1 + rng.uniform(-1, 1) * 1e-2)), v] for v in s]
        return mode, np.array([oracles.matrix_with_eigenvalues(rng, e) for e in eigs]), means
    L = rng.normal(size=(k, 2, 2))
    scale = 10 ** rng.uniform(-6, 6, size=(k, 1, 1))
    return mode, scale * (L @ L.mT + 1e-3 * np.eye(2)), means


def _mlo_outcome(step, *args):
    """The result of an MLO step, or the type and message of its error."""
    try:
        return step(*args)
    except (IllConditionedUpdateError, InvalidCovarianceError) as exc:
        return type(exc).__name__, str(exc)


def _compare_mlo(mine, mode, cov, mean):
    """An outcome of the closed-form MLO step from one covariance and
    mean against oracles.oracle_mlo_covariance on the 1-row stack, with
    the bounds of test_closed_form_filter_matches_the_numpy_reference:
    the covariance within 16 eps cond(S) of the largest entry of the
    predicted or posterior covariance. The verdicts and messages agree
    unless |cond(S) / 1e12 - 1| <= 1e-3. Returns "updated", "raised" or
    "differ"."""
    ref = _mlo_outcome(oracles.oracle_mlo_covariance, mode, cov[None], mean[None])
    prior = oracles.oracle_symmetrized_cov(mode.A @ cov @ mode.A.T + mode.W @ mode.W.T)
    with np.errstate(over="ignore", invalid="ignore"):
        S = mode.C @ prior @ mode.C.T + noise_cov(mode, mean)
    if isinstance(mine, tuple) or isinstance(ref, tuple):
        if isinstance(mine, tuple) and isinstance(ref, tuple):
            assert mine == ref
            return "raised"
        assert abs(np.linalg.cond(S) / 1e12 - 1) <= 1e-3, (mine, ref)
        return "differ"
    assert mine.shape == ref[0].shape == S.shape
    scale = max(np.abs(prior).max(), np.abs(ref).max())
    assert np.abs(mine - ref[0]).max() <= 16 * _EPS * np.linalg.cond(S) * scale
    return "updated"


def test_closed_form_mlo_step_matches_the_numpy_reference():
    """mlo_covariance and propagate_mlo of n = p = 2 modes against the
    numpy body they replace, row by row on 3,000 random stacks of 1 to 8
    means with A != I, W != 0, a general C, constant or state-dependent
    noise, and one shared or one per-row covariance, and on stacks whose
    innovation matrices straddle the condition limit. propagate_mlo keeps
    the reference's predicted mean bit for bit."""
    rng = np.random.default_rng(26)
    outcomes = {"updated": 0, "raised": 0, "differ": 0}
    for _ in range(3000):
        mode, covs, means = _random_mlo_case(rng)
        for cov, mean in zip(np.broadcast_to(covs, (len(means), 2, 2)), means):
            outcomes[_compare_mlo(_mlo_outcome(mlo_covariance, mode, cov, mean), mode, cov, mean)] += 1
        b = make_belief(means[0], covs[0])
        u = rng.uniform(-1.0, 1.0, size=2)
        mean = mode.A @ b.mean + mode.B @ u
        mine = _mlo_outcome(propagate_mlo, mode, b, u)
        if not isinstance(mine, tuple):
            assert np.array_equal(mine.mean, mean)
            mine = mine.cov
        _compare_mlo(mine, mode, b.cov, mean)
    assert outcomes["updated"] > 1500 and outcomes["raised"] > 200, outcomes


def _exact_mode(C=np.eye(2), noise=np.zeros((2, 2))):
    """A = I and W = 0, so that both paths predict the covariance
    exactly and the thresholds are met by the values the test builds."""
    return SystemMode(np.eye(2), 0.25 * np.eye(2), np.zeros((2, 2)), C=C, noise=noise)


@pytest.mark.parametrize("low, verdict", [(-0.9e-9, None), (-1.1e-9, "negative eigenvalue -1.1e-09")])
@pytest.mark.parametrize("row", [0, 2, 4])
def test_mlo_step_eigenvalue_threshold_anywhere_in_the_stack(low, verdict, row):
    """A predicted covariance whose smallest eigenvalue lies just above
    or just below EIGENVALUE_TOL, in the first, a middle or the last
    row of a stack of five, each row stepped on its own: both paths
    update every other row, and both pass this one or both name the
    eigenvalue."""
    assert -1.1e-9 < EIGENVALUE_TOL < -0.9e-9
    mode = _exact_mode(noise="0.1*(5 - x0)^2 + 0.001")
    covs = np.array([np.diag([0.2, 0.1])] * 5)
    covs[row] = np.diag([1.0, low])
    means = np.linspace([0.0, 1.0], [4.0, 2.0], 5)
    for i, (cov, mean) in enumerate(zip(covs, means)):
        mine = _mlo_outcome(mlo_covariance, mode, cov, mean)
        ref = _mlo_outcome(oracles.oracle_mlo_covariance, mode, cov[None], mean[None])
        if verdict is None or i != row:
            assert not isinstance(mine, tuple) and not isinstance(ref, tuple)
        else:
            assert mine == ref == ("InvalidCovarianceError", f"covariance has {verdict}")


@pytest.mark.parametrize("row", [0, 3, 6])
@pytest.mark.parametrize("factor, ill", [(0.99, False), (1.01, True)])
def test_mlo_step_condition_threshold_anywhere_in_the_stack(row, factor, ill):
    """C = I and R = 0 make each innovation matrix its covariance. One
    row of seven has a condition number 1% below or above
    _CONDITION_LIMIT, the others are well conditioned. Stepped row by
    row, both paths update the others, and both update this one or both
    raise the condition-number error."""
    mode = _exact_mode()
    covs = np.array([np.diag([1.0, 0.5 + 0.1 * i]) for i in range(7)])
    covs[row] = np.diag([1.0, 1.0 / (factor * _CONDITION_LIMIT)])
    means = np.zeros((7, 2))
    for i, (cov, mean) in enumerate(zip(covs, means)):
        mine = _mlo_outcome(mlo_covariance, mode, cov, mean)
        ref = _mlo_outcome(oracles.oracle_mlo_covariance, mode, cov[None], mean[None])
        if ill and i == row:
            expected = ("IllConditionedUpdateError", "innovation covariance condition number exceeds 1e+12")
            assert mine == ref == expected
        else:
            assert np.abs(mine - ref[0]).max() <= 16 * _EPS * 1e12
    b = make_belief(means[row], covs[row])
    assert isinstance(_mlo_outcome(propagate_mlo, mode, b, np.zeros(2)), tuple) == ill


def test_mlo_step_non_finite_gain_fails_the_covariance_check():
    """C = 1e-310 I (subnormal), P = 1e307 I and a gain x0 read at x0 = 0
    give a well-conditioned innovation matrix S = 1e-313 I whose gain
    P C^T S^-1, about 1e310, overflows: both paths pass the condition
    test and then reject the non-finite covariance (the other rows, with
    R = I, update finitely), and numpy warns of nothing."""
    mode = _exact_mode(C=1e-310 * np.eye(2), noise="x0")
    covs = np.array([np.eye(2), 1e307 * np.eye(2), np.eye(2)])
    means = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    expected = ("InvalidCovarianceError", "non-finite entries in belief state")
    assert _mlo_outcome(mlo_covariance, mode, covs[1], means[1]) == expected
    assert _mlo_outcome(oracles.oracle_mlo_covariance, mode, covs[[1]], means[[1]]) == expected
    for row in (0, 2):
        assert np.isfinite(mlo_covariance(mode, covs[row], means[row])).all()
    b = make_belief([0.0, 0.0], covs[1])
    assert _mlo_outcome(propagate_mlo, mode, b, np.zeros(2)) == expected


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_closed_form_gain_where_the_determinant_under_or_overflows(scale):
    """S of order 1e-200 or 1e200 has a determinant of order 1e-400 or
    1e400, which underflows to 0 or overflows to inf. Scaled by its
    largest entry, the closed form still solves it, as np.linalg.solve
    does, within a few eps of the reference."""
    noise = math.sqrt(scale) * np.array([[1.0, 0.2], [0.0, 1.5]])
    mode = SystemMode(np.eye(2), np.eye(2), np.zeros((2, 2)), C=np.eye(2), noise=noise)
    b = make_belief([1.0, -2.0], scale * np.array([[2.0, 0.3], [0.3, 1.0]]))
    S = b.cov + noise @ noise.T
    assert float(S[0, 0]) * float(S[1, 1]) == (0.0 if scale < 1 else math.inf)
    mine = kalman_update(mode, b, [0.0, 0.0], [1.5, -1.0])  # A = I, W = 0, u = 0: the prior is b
    ref = oracles.oracle_kalman_update(mode, b, [1.5, -1.0])
    K = np.linalg.solve(S, b.cov).mT
    assert np.allclose(ref.mean, b.mean + K @ (np.array([1.5, -1.0]) - b.mean), rtol=1e-14, atol=0)
    assert np.abs(mine.mean - ref.mean).max() <= 8 * _EPS * np.abs(ref.mean).max()
    assert np.abs(mine.cov - ref.cov).max() <= 8 * _EPS * np.abs(ref.cov).max()


@pytest.mark.parametrize(
    "cov, message",
    [(np.zeros((2, 2)), "condition number exceeds 1e+12"),
     ([[1.0, 2.0], [2.0, 4.0]], "condition number exceeds 1e+12")],
    ids=["zero", "rank-1"],
)
def test_closed_form_singular_innovation_matrix(cov, message):
    """C = I and R = 0 make S the covariance: zero, or singular of rank 1.
    The closed form raises the reference's error with its message and
    never divides by the zero determinant."""
    mode = SystemMode(np.eye(2), np.eye(2), np.zeros((2, 2)), C=np.eye(2), noise=np.zeros((2, 2)))
    b = make_belief([0.0, 0.0], cov)
    expected = "innovation covariance " + message
    # A = I, W = 0 and u = 0, so the filter step's prior is b
    assert _outcome(kalman_update, mode, b, [0.0, 0.0], [1.0, 1.0]) == expected
    assert _outcome(oracles.oracle_kalman_update, mode, b, [1.0, 1.0]) == expected


@pytest.mark.parametrize("constant", [False, True], ids=["state-dependent", "constant"])
@pytest.mark.parametrize("n, p", [(2, 2), (2, 1), (3, 3), (1, 1), (3, 2), (1, 2)])
def test_non_finite_innovation_matrix_is_named(n, p, constant):
    """A noise gain x0^2 of 1e200, or a constant gain 1e200 I, squares to
    R = inf I, and inf * 0 puts NaN off its diagonal on the numpy path:
    both paths raise the non-finite message, not the condition number,
    and numpy warns of nothing (warnings are errors under pytest)."""
    C = np.eye(p, n)
    noise = 1e200 * np.eye(p) if constant else "x0^2"
    mode = SystemMode(np.eye(n), np.eye(n), np.zeros((n, n)), C=C, noise=noise)
    b = make_belief(np.r_[1.0 if constant else 1e100, np.zeros(n - 1)], 0.1 * np.eye(n))
    expected = "non-finite entries in innovation covariance"
    # A = I, W = 0 and u = 0, so the filter step's prior is b
    assert _outcome(kalman_update, mode, b, np.zeros(n), np.zeros(p)) == expected
    assert _outcome(oracles.oracle_kalman_update, mode, b, np.zeros(p)) == expected
    with pytest.raises(IllConditionedUpdateError, match=expected):
        propagate_mlo(mode, b, np.zeros(n))


@pytest.mark.parametrize("n, p", [(1, 1), (3, 3), (3, 1), (2, 1), (2, 0), (3, 0), (3, 2), (1, 2)])
def test_other_shapes_keep_the_numpy_bits(n, p):
    """Outside n = p = 2, predict and the filter step keep the numpy
    path: the same bits as the reference, oracle_predict and then
    oracle_kalman_update, on random modes with A != I, W != 0 and
    constant or state-dependent noise."""
    rng = np.random.default_rng(10 * n + p)
    for trial in range(200):
        A = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        W = 0.1 * rng.normal(size=(n, n))
        C = rng.normal(size=(p, n)) if p else None
        noise = None
        if p:
            noise = "0.1*(5 - x0)^2 + 0.001" if trial % 2 else rng.normal(size=(p, p)) + 2 * np.eye(p)
        mode = SystemMode(A, rng.normal(size=(n, 2)), W, C=C, noise=noise)
        L = rng.normal(size=(n, n))
        b = make_belief(rng.normal(size=n), 10 ** rng.uniform(-3, 3) * (L @ L.T + 1e-3 * np.eye(n)))
        u = rng.uniform(-1.0, 1.0, size=2)
        mine, ref = predict(mode, b, u), oracles.oracle_predict(mode, b, u)
        assert mine.mean.tobytes() == ref.mean.tobytes() and mine.cov.tobytes() == ref.cov.tobytes()
        if p:
            y = rng.normal(size=p)
            mine = kalman_update(mode, b, u, y)
            ref = oracles.oracle_kalman_update(mode, oracles.oracle_predict(mode, b, u), y)
            assert mine.mean.tobytes() == ref.mean.tobytes() and mine.cov.tobytes() == ref.cov.tobytes()


def _input_forms(v):
    """A vector as an ndarray, a list and a tuple of Python floats, and
    as a column: a (k, 1) ndarray and nested lists."""
    v = np.asarray(v, dtype=float)
    return [v, v.tolist(), tuple(v.tolist()), v.reshape(-1, 1), v.reshape(-1, 1).tolist()]


def test_closed_form_filter_reads_its_inputs_in_any_form():
    """The closed-form filter step reads u and y as floats: given as an
    ndarray, a list, a tuple or a column they give the same bytes; a wrong length
    raises the dimension message; a non-finite observation makes a
    non-finite mean, which the belief check rejects."""
    rng = np.random.default_rng(41)
    for _ in range(50):
        mode, b, u, y = _random_filter_case(rng)
        try:
            ref = kalman_update(mode, b, u, y)
        except IllConditionedUpdateError:
            continue
        for uf in _input_forms(u):
            for yf in _input_forms(y):
                mine = kalman_update(mode, b, uf, yf)
                assert mine.mean.tobytes() == ref.mean.tobytes() and mine.cov.tobytes() == ref.cov.tobytes()
    mode, b, u, y = _lightdark_mode(), make_belief([1.0, 2.0], 0.1 * np.eye(2)), [0.1, -0.2], [1.0, 2.0]
    for bad in _input_forms([0.1, -0.2, 0.3]) + _input_forms([0.1]):
        with pytest.raises(ValueError, match=rf"^control dimension {len(bad)} != 2$"):
            kalman_update(mode, b, bad, y)
        with pytest.raises(ValueError, match=rf"^observation dimension {len(bad)} != 2$"):
            kalman_update(mode, b, u, bad)
    for bad in ([math.nan, 2.0], [1.0, math.inf]):
        for yf in _input_forms(bad):
            with pytest.raises(InvalidCovarianceError, match="^non-finite entries in belief state$"):
                kalman_update(mode, b, u, yf)


@pytest.mark.parametrize("m", [1, 3])
def test_closed_form_filter_with_other_control_widths(m):
    """A closed-form mode (n = p = 2) with m = 1 or 3 control columns:
    the filter step, B u on Python floats, against oracle_predict then
    oracle_kalman_update, within the bounds of
    test_closed_form_filter_matches_the_numpy_reference."""
    rng = np.random.default_rng(50 + m)
    updated = 0
    for _ in range(300):
        mode, b, _, y = _random_filter_case(rng)
        mode = SystemMode(mode.A, rng.normal(scale=0.5, size=(2, m)), mode.W, C=mode.C, noise=mode.noise)
        assert mode.closed_form is not None
        u = rng.uniform(-1.0, 1.0, size=m)
        prior = oracles.oracle_predict(mode, b, u)
        mine = _outcome(kalman_update, mode, b, u, y)
        ref = _outcome(oracles.oracle_kalman_update, mode, prior, y)
        S = mode.C @ prior.cov @ mode.C.T + noise_cov(mode, prior.mean)
        cond = np.linalg.cond(S)
        if isinstance(mine, str) or isinstance(ref, str):
            assert mine == ref or abs(cond / 1e12 - 1) <= 1e-3
            continue
        updated += 1
        cov_scale = max(np.abs(prior.cov).max(), np.abs(ref.cov).max())
        K = np.linalg.solve(S, mode.C @ prior.cov).mT
        terms = np.abs(K) @ np.abs(y - mode.C @ prior.mean)
        mean_scale = max(np.abs(prior.mean).max(), np.abs(ref.mean).max(), terms.max())
        assert np.abs(mine.cov - ref.cov).max() <= 16 * _EPS * cond * cov_scale
        assert np.abs(mine.mean - ref.mean).max() <= 64 * _EPS * cond * mean_scale
    assert updated > 150
