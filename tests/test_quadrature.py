import numpy as np
import pytest

from weakhyp._quadrature import (adaptive_panel, fixed_panel, gauss_rule,
                                 oscillatory_panel)
from weakhyp.analysis import linear_fit
from weakhyp.errors import InsufficientDataError, QuadratureError


def test_fixed_panel_polynomial_exactness():
    # degree 2n-1 polynomials are exact for the n-point rule
    poly = np.polynomial.Polynomial([1.0, -2.0, 0.5, 3.0, -1.0])
    anti = poly.integ()
    lo = np.array([-1.0, 0.2])
    hi = np.array([0.5, 1.7])
    got = fixed_panel(lambda s: poly(s), lo, hi, 3)
    expected = anti(hi) - anti(lo)
    assert np.max(np.abs(got - expected)) < 1e-14


def test_fixed_panel_empty_intervals_are_zero():
    got = fixed_panel(lambda s: np.ones_like(s), np.array([1.0]),
                      np.array([0.5]), 4)
    assert got[0] == 0.0


def test_adaptive_panel_converges_on_sqrt_singularity():
    got = adaptive_panel(lambda s, idx: np.sqrt(s), np.array([0.0]),
                         np.array([1.0]), tol=1e-10)
    assert abs(float(got[0]) - 2.0 / 3.0) < 1e-9


def test_adaptive_panel_raises_on_hopeless_integrand():
    rng = np.random.default_rng(0)

    def noisy(s, idx):
        return rng.standard_normal(s.shape)

    with pytest.raises(QuadratureError):
        adaptive_panel(noisy, np.array([0.0]), np.array([1.0]),
                       tol=1e-12, n_max=64)


def test_oscillatory_panel_raises_on_hopeless_integrand():
    rng = np.random.default_rng(0)

    def noisy(s):
        return rng.standard_normal(s.shape)

    with pytest.raises(QuadratureError, match="2 frequencies did not "
                                              "converge with 64 nodes"):
        oscillatory_panel(noisy, 0.0, 1.0, np.array([1.0, 2.0]), n_max=64)


def test_oscillatory_panel_matches_closed_form():
    xi = np.linspace(0.0, 200.0, 81)
    got = oscillatory_panel(lambda s: np.ones_like(s), -0.5, 0.5, xi)
    expected = np.where(xi == 0.0, 1.0, 2.0 * np.sin(0.5 * xi)
                        / np.where(xi == 0.0, 1.0, xi))
    assert np.max(np.abs(got - expected)) < 1e-10


def test_gauss_rule_cached_and_normalised():
    nodes, weights = gauss_rule(7)
    assert abs(weights.sum() - 2.0) < 1e-14
    assert nodes.shape == (7,)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 64, 256, 1024])
def test_gauss_rule_matches_dense_eigenvalue_oracle(n):
    # numpy's leggauss takes the eigenvalues of the dense Jacobi matrix
    nodes, weights = gauss_rule(n)
    oracle_nodes, oracle_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(nodes - oracle_nodes)) <= 4e-16
    assert np.max(np.abs(weights - oracle_weights)) <= 1e-13
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert abs(weights.sum() - 2.0) <= 1e-14
    if n <= 64:
        for k in range(2 * n):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            assert abs(np.sum(weights * nodes ** k) - exact) <= 1e-13


def test_linear_fit_guards():
    with pytest.raises(InsufficientDataError):
        linear_fit(np.array([1.0]), np.array([2.0]))
    with pytest.raises(InsufficientDataError):
        linear_fit(np.array([1.0, 1.0]), np.array([2.0, 3.0]))
    slope, intercept, r2 = linear_fit(np.array([0.0, 1.0, 2.0]),
                                      np.array([1.0, 3.0, 5.0]))
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)
