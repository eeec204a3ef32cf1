import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from beliefplan.gaussian import (
    BeliefState,
    InvalidCovarianceError,
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
