import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from beliefplan.gaussian import (
    EIGENVALUE_TOL,
    BeliefState,
    InvalidCovarianceError,
    checked_cov,
    make_belief,
    std_normal_cdf,
    std_normal_quantile,
    uncertainty_measure,
)


def test_make_belief_basic():
    b = make_belief([0.0, 2.5], [[0.1, 0.0], [0.0, 0.1]])
    assert b.dim == 2
    assert np.allclose(b.mean, [0.0, 2.5])
    assert np.allclose(b.cov, 0.1 * np.eye(2))
    assert uncertainty_measure(b) == pytest.approx(0.2)


def test_make_belief_symmetrizes_tiny_asymmetry():
    cov = np.array([[1.0, 0.5 + 1e-9], [0.5, 1.0]])
    b = make_belief([0.0, 0.0], cov)
    assert np.array_equal(b.cov, b.cov.T)


def test_make_belief_rejects_gross_asymmetry():
    with pytest.raises(InvalidCovarianceError):
        make_belief([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])


def test_make_belief_rejects_negative_eigenvalue():
    with pytest.raises(InvalidCovarianceError):
        make_belief([0.0], [[-1e-3]])


def _verdict(check, cov):
    """The covariance a check returns, or the message it raises."""
    try:
        return check(cov)
    except InvalidCovarianceError as exc:
        return str(exc)


def _near_eigenvalue_tol(rng, n):
    """A symmetric n-by-n matrix of norm s whose smallest eigenvalue
    lies within 1e-14 s of EIGENVALUE_TOL."""
    s = 10 ** rng.uniform(-2, 2)
    low = EIGENVALUE_TOL + rng.uniform(-1, 1) * 1e-14 * s
    if n == 1:
        return np.array([[low]])
    return oracles.matrix_with_eigenvalues(rng, [low, *rng.uniform(0, s, n - 2), s])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_psd_verdicts_match_eigvalsh_outside_the_rounding_band(n):
    """checked_cov against the eigvalsh reference on each matrix of
    random stacks whose smallest eigenvalues straddle -1e-9: the
    verdicts differ only where the matrix has |lambda_min + 1e-9| <=
    1e-15 ||S||, and beyond n = 2, which uses eigvalsh itself, never."""
    rng = np.random.default_rng(n)
    outcomes = {"accepted": 0, "rejected": 0, "differ": 0}
    for _ in range(2000):
        stack = np.array([_near_eigenvalue_tol(rng, n) for _ in range(rng.integers(1, 4))])
        for cov in stack:
            mine, ref = _verdict(checked_cov, cov), _verdict(oracles.oracle_checked_cov, cov[None])
            if isinstance(mine, str) != isinstance(ref, str):
                outcomes["differ"] += 1
                lams = np.linalg.eigvalsh(cov)
                assert n == 2 and abs(lams[0] + 1e-9) <= 1e-15 * np.abs(lams).max()
            elif isinstance(mine, str):
                outcomes["rejected"] += 1
                assert mine.startswith("covariance has negative eigenvalue")
            else:
                outcomes["accepted"] += 1
                assert np.array_equal(mine, ref[0])
    assert outcomes["accepted"] > 500 and outcomes["rejected"] > 500, outcomes


def test_three_dimensional_verdicts_and_messages_are_unchanged():
    """Beyond 2-by-2 the checks still run on numpy and eigvalsh: the same
    covariance or the same message as the reference, for each kind of
    failure."""
    good = np.diag([1.0, 0.5, 0.1])
    asym = good + np.triu(np.full((3, 3), 1e-3), 1)
    negative = np.diag([1.0, -1e-3, 0.1])
    nonfinite = np.diag([1.0, np.inf, 0.1])
    for cov in (good, asym, negative, nonfinite):
        mine, ref = _verdict(checked_cov, cov), _verdict(oracles.oracle_checked_cov, cov)
        if isinstance(ref, str):
            assert mine == ref
        else:
            assert np.array_equal(mine, ref)


def _built(make, mean, cov):
    """What a belief constructor makes of its input: the exception class
    and message, or the dtype, shape and bytes of both arrays, whether
    each is read-only and whether either shares memory with the input."""
    try:
        b = make(mean, cov)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = [a for a in (mean, cov) if isinstance(a, np.ndarray)]
    return [(x.dtype, x.shape, x.tobytes(), x.flags.writeable,
             any(np.shares_memory(x, a) for a in arrays)) for x in (b.mean, b.cov)]


def _make_belief_inputs(rng):
    """Fixed edge cases, then random 1-by-1, 2-by-2 and 3-by-3 inputs
    near the asymmetry and eigenvalue limits."""
    nan, inf = math.nan, math.inf
    below = np.nextafter(EIGENVALUE_TOL, -1.0)
    yield from [
        ([-0.0, 0.0], [[-0.0, 0.0], [-0.0, -0.0]]),
        ([-0.0], [[-0.0]]),
        ([1, 2], [[1, 0], [0, 1]]),
        (np.float32([1.5, 2.5]), np.float32([[1.0, 0.25], [0.25, 1.0]])),
        ([0.0, 0.0], [[1.0, 1e-6], [0.0, 1.0]]),  # asymmetry exactly at the limit
        ([0.0, 0.0], [[1.0, np.nextafter(1e-6, 1.0)], [0.0, 1.0]]),
        ([0.0, 0.0], [[EIGENVALUE_TOL, 0.0], [0.0, 1.0]]),
        ([0.0, 0.0], [[below, 0.0], [0.0, 1.0]]),
        ([0.0], [[EIGENVALUE_TOL]]),
        ([0.0], [[below]]),
        ([nan, 0.0], 0.1 * np.eye(2)),
        ([0.0, -inf], 0.1 * np.eye(2)),
        ([inf], [[1.0]]),
        ([0.0, 0.0], [[1.0, nan], [nan, 1.0]]),
        ([0.0, 0.0], [[inf, 0.0], [0.0, 1.0]]),
        ([nan, 0.0], [[1.0, 0.5], [0.1, 1.0]]),  # non-finite mean before asymmetry
        ([0.0, 0.0], [[1.0, 0.5], [0.1, nan]]),  # non-finite covariance before asymmetry
        ([0.0, 0.0], [[1.0, 0.5], [0.1, -1.0]]),  # asymmetry before the eigenvalue
        ([0.0, 0.0], [[1.0, np.nextafter(1e-6, 0.0)], [0.0, 1.0]]),
        ([0.0, 0.0], [[np.nextafter(EIGENVALUE_TOL, 0.0), 0.0], [0.0, 1.0]]),
        ([0.0], [[np.nextafter(EIGENVALUE_TOL, 0.0)]]),
        ([0.0, 0.0], [[1.7e308, 0.0], [0.0, 1.0]]),  # the symmetrization overflows
        ([0.0, 0.0], [[1.0, 1.7e308], [1.7e308, 1.0]]),
        ([0.0], [[1.7e308]]),
        ([nan, 0.0], [[1.7e308, 0.0], [0.0, 1.0]]),  # non-finite mean before overflow
        ([0.0, 0.0], [[1.7e308, 0.5], [0.1, -1.0]]),  # overflow before asymmetry
        ([0.0, 0.0], [[1.0]]),
        ([0.0], np.eye(2)),
        ([0.0, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], np.ones((1, 2, 2))),
        ([[0.0, 1.0]], np.eye(2)),
        (0.5, [[2.0]]),
        ([], np.zeros((0, 0))),
        (np.zeros(3), np.diag([1.0, 0.5, below])),
    ]
    for _ in range(3000):
        n = int(rng.integers(1, 4))
        mean = rng.normal(size=n)
        lows = EIGENVALUE_TOL * (1 + rng.uniform(-1, 1, size=n) * 1e-3)
        eigs = np.where(rng.random(n) < 0.5, lows, rng.uniform(0, 2, n))
        skew = rng.choice([0.0, 1.0, -1.0]) * 1e-6 * (1 + rng.uniform(-1e-9, 1e-9))
        cov = oracles.matrix_with_eigenvalues(rng, eigs) + np.triu(np.full((n, n), skew), 1)
        if rng.random() < 0.05:
            mean[rng.integers(n)] = rng.choice([math.nan, math.inf, -math.inf])
        yield mean, cov


def _nested(a: np.ndarray, seq):
    """The array as nested lists or tuples (seq) of Python scalars."""
    return seq(_nested(row, seq) for row in a) if a.ndim else a.item()


def _forms(mean, cov):
    """The input as arrays, as nested lists and as nested tuples."""
    mean, cov = np.asarray(mean), np.asarray(cov)
    return [(mean, cov)] + [(_nested(mean, seq), _nested(cov, seq)) for seq in (list, tuple)]


def test_make_belief_matches_the_numpy_reference_bit_for_bit():
    """make_belief, whose checks run on Python floats at n = 2,
    against the numpy reference: the same exception class and message,
    or the same bytes in fresh read-only arrays, on edge cases
    (non-finite entries, an overflowing symmetrization, asymmetry and
    eigenvalue at their limits and one ulp either side, and each check's
    order against the next) and on 3,000 random inputs at the asymmetry
    and eigenvalue limits, each given as arrays, as lists and as
    tuples."""
    outcomes = {"built": 0, "raised": 0}
    for inputs in _make_belief_inputs(np.random.default_rng(19)):
        for mean, cov in [inputs, *_forms(*inputs)]:
            mine = _built(make_belief, mean, cov)
            assert mine == _built(oracles.oracle_make_belief, mean, cov), (mean, cov)
            outcomes["raised" if isinstance(mine, tuple) else "built"] += 1
    assert outcomes["built"] > 4000 and outcomes["raised"] > 4000, outcomes


@pytest.mark.parametrize("cov", [
    [[1.7e308]],
    [[1.7e308, 0.0], [0.0, 1.0]],
    [[1.0, 1.7e308], [1.7e308, 1.0]],  # 0.5 (b + c) overflows
    np.diag([1.0, 1.0, 1.7e308]),
    [[1.0, 0.0], [0.0, 1.7e308]],
])
def test_an_overflowing_symmetrization_is_non_finite(cov):
    """An entry whose symmetrized value overflows, on or off the
    diagonal, fails the finite check rather than giving a covariance
    that holds inf, at every size, without a numpy warning."""
    cov = np.array(cov)
    with pytest.raises(InvalidCovarianceError, match="^non-finite entries in belief state$"):
        checked_cov(cov)
    with pytest.raises(InvalidCovarianceError, match="^non-finite entries in belief state$"):
        make_belief(np.zeros(len(cov)), cov)


@pytest.mark.parametrize("n", [2, 3])
def test_an_overflowing_asymmetry_is_reported_as_asymmetry(n):
    """Entries +-1.7e308 opposite each other symmetrize to 0 but their
    difference overflows: the asymmetry check fails on inf, on Python
    floats and through numpy alike, without a numpy warning."""
    cov = np.eye(n)
    cov[0, 1], cov[1, 0] = 1.7e308, -1.7e308
    with pytest.raises(InvalidCovarianceError, match="^covariance asymmetry inf exceeds 1e-6$"):
        make_belief(np.zeros(n), cov)


def test_checked_cov_keeps_the_numpy_bits_on_stacks():
    """checked_cov on each matrix of random stacks of 1-by-1 and 2-by-2
    covariances, as the planner's MLO step calls it, against the numpy
    reference on the 1-row stack: the same symmetrized bytes or the same
    message."""
    rng = np.random.default_rng(23)
    for _ in range(1000):
        n, k = int(rng.integers(1, 3)), int(rng.integers(0, 5))
        stack = np.array([oracles.matrix_with_eigenvalues(rng, rng.uniform(-1e-8, 1.0, n))
                          for _ in range(k)]).reshape(k, n, n)
        stack += rng.choice([0.0, 1e-6, 1e-5]) * np.triu(rng.random((k, n, n)), 1)
        for cov in stack:
            mine, ref = _verdict(checked_cov, cov), _verdict(oracles.oracle_symmetrized_cov, cov[None])
            if isinstance(ref, str):
                assert mine == ref
            else:
                assert mine.shape == ref[0].shape and mine.tobytes() == ref[0].tobytes()


def test_belief_arrays_read_only():
    b = make_belief([1.0], [[1.0]])
    with pytest.raises(ValueError):
        b.mean[0] = 2.0
    with pytest.raises(ValueError):
        b.cov[0, 0] = 2.0


def test_cdf_against_erf_identity():
    for x in np.linspace(-8, 8, 201):
        expected = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        assert std_normal_cdf(x) == pytest.approx(expected, abs=1e-15)


def test_cdf_symmetry():
    for x in np.linspace(0, 10, 101):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


def _bisect_quantile(p, lo=-40.0, hi=40.0, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("p", [1e-6, 0.01, 0.05, 0.3, 0.5, 0.9, 0.95, 0.99, 1 - 1e-6])
def test_quantile_against_bisection(p):
    assert std_normal_quantile(p) == pytest.approx(_bisect_quantile(p), abs=1e-9)


def test_quantile_known_values():
    # oracle: bisection on the erfc-based CDF
    assert std_normal_quantile(0.99) == pytest.approx(2.3263478740, abs=1e-8)
    assert std_normal_quantile(0.95) == pytest.approx(1.6448536270, abs=1e-8)
    assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_quantile_domain_errors():
    from beliefplan.gaussian import DomainError

    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_quantile_cdf_roundtrip(p):
    assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-9
