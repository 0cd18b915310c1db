import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhyp.reduction import (characteristic_polynomial, companion_matrix,
                               companion_row)
from weakhyp.symmetrisers import (build_symmetriser,
                                  vandermonde_product_squared,
                                  verify_quadratic_bounds)

from oracles import symmetriser_figures


def intertwining_nullspace(mu, tol=1e-12):
    """Orthonormal basis of symmetric solutions of S A - A^T S = 0.

    Independent oracle for the construction: it solves the constrained
    linear system directly, and the built symmetriser must lie in its span.
    """
    mu = np.asarray(mu, dtype=float)
    m = mu.size
    a = companion_matrix(companion_row(characteristic_polynomial(mu)))
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    columns = []
    for (i, j) in pairs:
        basis = np.zeros((m, m))
        basis[i, j] = 1.0
        basis[j, i] = 1.0
        columns.append((basis @ a - a.T @ basis).ravel())
    system = np.array(columns).T
    _, svals, vt = np.linalg.svd(system)
    rank = int(np.sum(svals > tol * max(svals[0], 1.0))) if svals.size else 0
    null = vt[rank:].T
    basis_mats = []
    for col in null.T:
        mat = np.zeros((m, m))
        for coef, (i, j) in zip(col, pairs):
            mat[i, j] += coef
            if i != j:
                mat[j, i] += coef
        basis_mats.append(mat)
    return np.array(basis_mats)


def sample_vectors(seed, trials, m):
    """Complex trial vectors (trials, m), real then imaginary part per
    trial."""
    v = np.random.default_rng(seed).standard_normal((trials, 2, m))
    return v[:, 0] + 1j * v[:, 1]


def test_two_root_example_matches_constrained_solve_oracle():
    sym = build_symmetriser([-1.0, 1.0])
    assert np.allclose(sym.matrix, 2.0 * np.eye(2))
    assert sym.det_value == pytest.approx(4.0)
    # oracle: nullspace of S A - A^T S on symmetric matrices contains S
    basis = intertwining_nullspace([-1.0, 1.0])
    flat = sym.matrix.ravel()
    stack = basis.reshape(basis.shape[0], -1).T
    coeff, *_ = np.linalg.lstsq(stack, flat, rcond=None)
    assert np.linalg.norm(stack @ coeff - flat) <= 1e-10 * np.linalg.norm(flat)


def test_coincident_roots_give_singular_psd():
    sym = build_symmetriser([0.0, 0.0])
    assert sym.det_value == 0.0
    eig = np.linalg.eigvalsh(sym.matrix)
    assert eig[0] >= -1e-12 * max(eig[-1], 1.0)


def test_three_root_determinant_brute_force():
    sym = build_symmetriser([1.0, 2.0, 3.0])
    assert sym.det_value == pytest.approx(4.0, rel=1e-12)
    assert vandermonde_product_squared([1.0, 2.0, 3.0]) == pytest.approx(4.0)


def test_symmetry_is_exact_by_construction():
    sym = build_symmetriser([-0.7, 0.1, 0.4, 1.3])
    assert np.array_equal(sym.matrix, sym.matrix.T)


def test_intertwining_identity():
    sym = build_symmetriser([-0.7, 0.1, 0.4, 1.3])
    assert sym.intertwining_residual() <= 1e-10


def test_quadratic_bounds_scalar_matrix():
    sym = build_symmetriser([-1.0, 1.0])
    report = verify_quadratic_bounds(sym, sample_vectors(0, 100, 2))
    assert report.min_form == pytest.approx(2.0, abs=1e-12)
    assert report.max_form == pytest.approx(2.0, abs=1e-12)
    assert not report.violations


def test_det_floor_with_declared_spacing():
    sym = build_symmetriser([0.0, 0.1])
    report = verify_quadratic_bounds(sym, sample_vectors(1, 20, 2),
                                     omega=0.1)
    assert report.det_floor == pytest.approx(0.01)
    assert sym.det_value >= report.det_floor - 1e-15
    assert not report.violations


def test_det_floor_three_roots_example():
    sym = build_symmetriser([0.0, 0.1, 0.2])
    assert sym.det_value == pytest.approx(4e-6, rel=1e-10)
    report = verify_quadratic_bounds(sym, sample_vectors(2, 20, 3),
                                     omega=0.1)
    assert report.det_floor == pytest.approx(1e-6)
    assert not report.violations


def test_entry_bound_polynomial_in_root_bound():
    # rows hold elementary symmetric combos of m-1 roots bounded by c, so
    # |W_ik| <= binom(m-1, k) c^(m-1-k) and |S| <= m max|W|^2
    rng = np.random.default_rng(3)
    c = 2.0
    for _ in range(200):
        m = int(rng.integers(2, 5))
        mu = np.sort(rng.uniform(-c, c, m))
        sym = build_symmetriser(mu)
        import math
        w_bound = max(math.comb(m - 1, k) * c ** (m - 1 - k)
                      for k in range(m))
        assert np.max(np.abs(sym.matrix)) <= m * w_bound ** 2 + 1e-12


def test_lower_bound_chain():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        mu = np.sort(rng.uniform(-2.0, 2.0, m))
        for i in range(1, m):
            mu[i] = max(mu[i], mu[i - 1] + 0.1)
        sym = build_symmetriser(mu)
        eig = np.linalg.eigvalsh(sym.matrix)
        floor = sym.det_value / eig[-1] ** (m - 1)
        assert eig[0] >= floor - 1e-10 * eig[-1]
        assert sym.det_value >= 0.1 ** (m * m - m) * (1.0 - 1e-12)


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0))
@settings(max_examples=40, deadline=None)
def test_intertwining_random_roots(m, seed):
    rng = np.random.default_rng(seed)
    mu = np.sort(rng.uniform(-3.0, 3.0, m))
    sym = build_symmetriser(mu)
    a = companion_matrix(companion_row(characteristic_polynomial(mu)))
    residual = np.linalg.norm(sym.matrix @ a - a.T @ sym.matrix, 2)
    scale = np.linalg.norm(sym.matrix, 2) * np.linalg.norm(a, 2)
    assert residual <= 1e-10 * max(scale, 1e-300)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_audit_equals_per_tuple_oracle(m):
    # a third of the tuples have two coincident roots: singular S, no
    # separation floor
    rng = np.random.default_rng(40 + m)
    omega = 0.05
    mu = np.sort(rng.uniform(-3.0, 3.0, (60, m)), axis=-1)
    if m > 1:
        mu[:20, 1] = mu[:20, 0]
    if m == 2:
        # gaps whose square by the C library's pow, as Python's ** takes
        # it, differs from the rounded product: det S and the Vandermonde
        # product of (0, gap) are such squares
        gaps = [g for g in rng.uniform(0.1, 3.0, 20000).tolist()
                if g ** 2 != g * g][:5]
        mu = np.concatenate([mu, [[0.0, g] for g in gaps]])
    n = len(mu)
    draws = rng.standard_normal((n, 8, 2, m))
    vectors = draws[:, :, 0] + 1j * draws[:, :, 1]
    sym = build_symmetriser(mu)
    inter = sym.intertwining_residual()
    vdm = vandermonde_product_squared(mu)
    report = verify_quadratic_bounds(sym, vectors, omega=omega)
    for k in range(n):
        f = symmetriser_figures(mu[k], vectors[k], omega)
        assert np.array_equal(sym.matrix[k], f["matrix"])
        assert sym.det_value[k] == f["det_value"]
        assert sym.spacing[k] == f["spacing"]
        assert inter[k] == f["intertwining"]
        assert vdm[k] == f["vandermonde"]
        for key in ("min_form", "max_form", "eigen_min", "eigen_max",
                    "violations"):
            assert getattr(report, key)[k] == f[key], key
        if f["det_floor"] is None:
            assert np.isnan(report.det_floor[k])
        else:
            assert report.det_floor[k] == f["det_floor"]
    # one tuple alone gives the scalars of its row in the stack
    alone = build_symmetriser(mu[-1])
    assert alone.det_value == sym.det_value[-1]
    assert alone.intertwining_residual() == inter[-1]
    assert verify_quadratic_bounds(alone, vectors[-1], omega=omega) \
        .min_form == report.min_form[-1]
