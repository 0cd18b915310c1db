import random

import numpy as np
import pytest

from weakhyp import reduction
from weakhyp.errors import (ConfigurationError, HyperbolicityError,
                            InvalidParameterError, NumericalError,
                            UnsupportedError)
from weakhyp.mollifiers import friedrichs_mollifier
from weakhyp.recovery import recover_coefficients
from weakhyp.reduction import (_faddeev, CompanionSystem, FirstOrderSystem,
                               LowerOrderPart, LowerTerm, RootValuePrincipal,
                               SeparablePart,
                               characteristic_polynomial, cofactor_matrix,
                               companion_matrix, companion_row,
                               random_hyperbolic_system, table_rows,
                               to_block_sylvester)
from weakhyp.roots import (RegularisedRoots, bracket, constant_roots,
                           roots_from_linear_forms, roots_from_time_profiles,
                           transport_roots)
from weakhyp.profiles import heaviside_profile

from oracles import (PolynomialPrincipal, adjugate_coefficients,
                     first_non_real_time, principal_rows_per_time,
                     root_value, separable_rows_per_entry, verify_per_tau)


# the per-time matrices of D_t V = (A + B) V + F at one time, read from the
# parts' tabulation calls as the integrator reads them


def _principal_matrix(system, t, xi):
    """A(t, xi) at one frequency."""
    xi_arr = np.array([float(xi)])
    rows = system.principal.row_provider(np.array([t]), xi_arr)(slice(None))
    return companion_matrix(np.moveaxis(rows, 1, 0), bracket(xi_arr))[0, 0]


def _eigenvalues(system, t, xi):
    return np.sort(np.real(np.linalg.eigvals(_principal_matrix(system, t, xi))))


def _separable_rows(system, t, xi):
    """The separable entries' last row (width, K) at one time, or None."""
    separable = system.principal.separable
    if separable is None:
        return None
    return table_rows([separable.tables(np.array([t]), xi)])(slice(None))[0]


def _lower_order_matrix(system, t, xi):
    """B(t, xi) at one frequency: zero but for the last row."""
    m = system.order
    mat = np.zeros((m, m), dtype=complex)
    rows = _separable_rows(system, t, np.array([float(xi)]))
    if rows is not None:
        mat[m - 1] = rows[:m, 0]
    return mat


def _forcing_vector(system, t, xi):
    """F(t, xi), shape (m, K): zero but for the last component."""
    out = np.zeros((system.order, xi.size), dtype=complex)
    rows = _separable_rows(system, t, xi)
    if rows is not None and system.width > system.order:
        out[system.order - 1] = rows[system.order]
    return out


@pytest.fixture(scope="module")
def phi():
    return friedrichs_mollifier()


def _wave_system(ghat0=None, ghat1=None):
    principal = PolynomialPrincipal(
        order=2, coefficients={1: lambda t: np.zeros(np.shape(t)),
                               2: lambda t: np.ones(np.shape(t))})
    data = () if ghat0 is None else (ghat0, ghat1)
    return CompanionSystem(principal, data)


def test_companion_wave_structure_and_eigenvalues():
    system = _wave_system()
    xi = 3.0
    br = np.sqrt(1.0 + xi * xi)
    a = _principal_matrix(system, 0.2, xi)
    assert a[0, 1] == pytest.approx(br)
    assert a[0, 0] == 0.0 and a[1, 1] == 0.0
    assert a[1, 0] == pytest.approx(xi * xi / br)
    eig = np.sort(np.linalg.eigvals(a).real)
    assert np.allclose(eig, [-xi, xi], atol=1e-12)


def test_companion_sparsity_pattern():
    principal = PolynomialPrincipal(
        order=4,
        coefficients={d: (lambda t: np.ones(np.shape(t))) for d in range(1, 5)})
    system = CompanionSystem(principal)
    a = _principal_matrix(system, 0.0, 2.0)
    br = np.sqrt(5.0)
    for i in range(3):
        assert a[i, i + 1] == pytest.approx(br)
        for j in range(4):
            if j != i + 1:
                assert a[i, j] == 0.0


def test_transport_companion_is_scalar_symbol():
    principal = PolynomialPrincipal(
        order=1, coefficients={1: lambda t: 2.0 * np.ones(np.shape(t))})
    system = CompanionSystem(principal)
    assert _principal_matrix(system, 0.0, 3.0)[0, 0] == pytest.approx(6.0)


def test_zero_data_and_forcing_vanish():
    system = _wave_system(lambda xi: np.zeros_like(xi, dtype=complex),
                          lambda xi: np.zeros_like(xi, dtype=complex))
    xi = np.linspace(-5.0, 5.0, 11)
    assert np.all(system.V0(xi) == 0.0)
    assert np.all(_forcing_vector(system, 0.3, xi) == 0.0)


def test_missing_degree_raises_configuration_error():
    with pytest.raises(ConfigurationError):
        PolynomialPrincipal(order=2,
                            coefficients={2: lambda t: np.ones(np.shape(t))})


def test_data_length_validated():
    principal = PolynomialPrincipal(
        order=2, coefficients={1: lambda t: np.zeros(np.shape(t)),
                               2: lambda t: np.ones(np.shape(t))})
    with pytest.raises(ConfigurationError):
        CompanionSystem(principal, (lambda xi: np.ones_like(xi),))


def test_lower_order_block_only_last_row():
    lower = LowerOrderPart(order=2, terms=(
        LowerTerm(0, 2, lambda t: 1.5 * np.ones(np.shape(t))),))
    principal = PolynomialPrincipal(
        order=2, coefficients={1: lambda t: np.zeros(np.shape(t)),
                               2: lambda t: np.ones(np.shape(t))},
        separable=SeparablePart(2, tuple(lower.entries(lambda c: c))))
    system = CompanionSystem(principal)
    b = _lower_order_matrix(system, 0.1, 2.0)
    assert np.all(b[0, :] == 0.0)
    br = np.sqrt(5.0)
    # nu=0, j=2 lands in column k = m - j + 1 = 1 with weight <xi>^(k-m)
    assert b[1, 0] == pytest.approx(1.5 / br)
    assert b[1, 1] == 0.0


def _ones(v):
    return np.ones(np.shape(v))


def test_separable_part_refuses_a_column_outside_its_width():
    assert SeparablePart(3, ((0, _ones, _ones), (2, _ones, _ones))).width == 3
    for column in (-1, 3):
        with pytest.raises(InvalidParameterError, match="column"):
            SeparablePart(3, ((0, _ones, _ones), (column, _ones, _ones)))


def test_root_value_principal_refuses_a_separable_width_other_than_m_or_m_plus_1(
        phi):
    # m = 2: B alone has width 2, B and a forcing F width 3
    reg = RegularisedRoots(constant_roots([-1.0, 1.0]), phi, 0.1)
    for width in (2, 3):
        part = SeparablePart(width, ((width - 1, _ones, _ones),))
        assert CompanionSystem(RootValuePrincipal(reg, part)).width == width
    for width in (1, 4):
        with pytest.raises(ConfigurationError, match="width") as info:
            RootValuePrincipal(reg, SeparablePart(width, ((0, _ones, _ones),)))
        assert info.value.field == "separable"


def _ordered_family(order, odd):
    """``order`` ordered heaviside roots: even (the same profile in both
    directions) or odd (r_j(t, d) = c_j(t) d, so that negative frequencies
    read the other direction's profile)."""
    if odd:
        return roots_from_linear_forms(
            [[heaviside_profile(0.4, 0.7 * j, 0.7 * j + 0.5, (0.0, 1.0))]
             for j in range(order)])
    return roots_from_time_profiles(
        [heaviside_profile(0.5, j - 1.5, 1.2 * j - 1.0, (0.0, 1.0))
         for j in range(order)])


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_root_value_principal_matches_regularised_roots(phi, order, odd):
    reg = RegularisedRoots(_ordered_family(order, odd), phi, 0.1)
    system = CompanionSystem(RootValuePrincipal(reg))
    for t in (0.2, 0.5, 0.9):
        for xi in (1.0, -4.0, 16.0):
            eig = _eigenvalues(system, t, xi)
            expected = np.sort([float(root_value(reg, j, t, xi))
                                for j in range(1, order + 1)])
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(eig - expected)) / scale <= 1e-9


def _assert_rows_near(got, want):
    """The one table's rows agree with the per-time path's to 1e-14 of the
    largest row entry: the same symbols, summed in another order."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _assert_blocks_are_rows(rows, size, oracle):
    """Every read of ``rows`` (single times in a shuffled order, 7-time
    slices and an integer array) gives each time the bits of its single
    read, and those agree with ``oracle(times)``."""
    single = {}
    for i in np.random.default_rng(size).permutation(size):
        single[i] = rows(np.array([i]))[0]
        assert np.array_equal(rows(slice(i, i + 1))[0], single[i])
    _assert_rows_near(np.array([single[i] for i in range(size)]),
                      oracle(slice(None)))
    # 7-time slices: 53 is no multiple of 7, so the last slice is short
    for lo in range(0, size, 7):
        block = rows(slice(lo, lo + 7))
        times = range(lo, min(lo + 7, size))
        assert block.shape[0] == len(times)
        for k, i in enumerate(times):
            assert np.array_equal(block[k], single[i])
    sample = np.random.default_rng(size + 1).choice(size, 9)
    for k, i in enumerate(sample):
        assert np.array_equal(rows(sample)[k], single[i])


#: the principal families whose rows the one table must give at both signs
#: of xi: odd (the bare order keeps its id), even, and m = 1 with the
#: feature -d, so that positive frequencies read the negative speed
_ROW_FAMILIES = [
    *(pytest.param(lambda o=order: _ordered_family(o, True), id=str(order))
      for order in (1, 2, 3, 4)),
    *(pytest.param(lambda o=order: _ordered_family(o, False),
                   id=f"even-{order}") for order in (1, 2, 3, 4)),
    pytest.param(lambda: transport_roots(-1.5), id="transport")]


@pytest.mark.parametrize("family", _ROW_FAMILIES)
def test_row_blocks_match_per_time_oracle(phi, family):
    reg = RegularisedRoots(family(), phi, 0.05)
    xi = np.array([-7.5, -1.0, 0.0, 0.5, 3.0, 12.0])
    t_grid = np.linspace(0.0, 1.0, 53)
    rows = RootValuePrincipal(reg).row_provider(t_grid, xi)
    assert rows(slice(None)).shape == (t_grid.size, reg.order, xi.size)
    _assert_blocks_are_rows(rows, t_grid.size, lambda index:
                            principal_rows_per_time(reg, t_grid[index], xi))


@pytest.mark.parametrize("order", [2, 3])
def test_each_read_convolves_the_coefficients_once(monkeypatch, phi, order):
    # one stack convolution of the coefficients per row_provider call and
    # per roots call, whatever the order
    calls = []
    convolved = RegularisedRoots.convolved

    def counted(self):
        calls.append(self)
        return convolved(self)

    monkeypatch.setattr(RegularisedRoots, "convolved", counted)
    reg = RegularisedRoots(_ordered_family(order, False), phi, 0.05)
    principal = RootValuePrincipal(reg)
    t, xi = np.linspace(0.0, 1.0, 9), np.array([-2.0, 0.0, 3.0])
    for read in (principal.row_provider, principal.roots, principal.roots,
                 principal.row_provider):
        before = len(calls)
        read(t, xi)
        assert calls[before:] == [reg]


@pytest.mark.parametrize("forced, odd", [
    pytest.param(forced, odd, id=f"{forced}" if odd else f"{forced}-even")
    for odd in (True, False) for forced in (False, True)])
def test_one_table_holds_the_lower_order_and_forcing_entries(phi, forced,
                                                             odd):
    # a real and a complex lower-order coefficient and, if forced, a forcing
    # with a complex space factor, at both signs of xi: the one table's
    # rows are the per-time principal rows plus the per-entry products
    reg = RegularisedRoots(_ordered_family(3, odd), phi, 0.05)
    lower = LowerOrderPart(3, (
        LowerTerm(0, 1, lambda t: np.cos(5.0 * np.asarray(t))),
        LowerTerm(1, 3, lambda t: (1.0 - 2.0j) * np.asarray(t) ** 2)))
    entries = list(lower.entries(lambda c: c))
    if forced:
        entries.append((3, lambda t: np.exp(-np.asarray(t)),
                        lambda xi: np.exp(0.3j * xi) / (1.0 + xi * xi)))
    separable = SeparablePart(3 + forced, tuple(entries))
    xi = np.array([-7.5, -1.0, 0.0, 0.5, 3.0, 12.0])
    t_grid = np.linspace(0.0, 1.0, 53)
    system = CompanionSystem(RootValuePrincipal(reg, separable))
    assert system.width == 3 + forced
    rows = system.principal.row_provider(t_grid, xi)
    assert rows.dtype == complex

    def oracle(index):
        want = separable_rows_per_entry(separable, t_grid[index], xi)
        want[:, :3] += principal_rows_per_time(reg, t_grid[index], xi)
        return want

    _assert_blocks_are_rows(rows, t_grid.size, oracle)


def test_polynomial_principal_matches_recovered_sets(phi):
    reg = RegularisedRoots(constant_roots([-1.0, 1.0]), phi, 1e-9)
    sets = {j: recover_coefficients(reg, j, 1) for j in (1, 2)}
    principal = PolynomialPrincipal.from_coefficient_sets(sets)
    system = CompanionSystem(principal)
    eig = _eigenvalues(system, 0.4, 5.0)
    assert np.allclose(eig, [-5.0, 5.0], atol=1e-7)


# -- companion matrix helper -----------------------------------------------------


def test_companion_matrix_from_coefficients():
    # random monic polynomials (separated real roots, m <= 4) and random
    # weights on the superdiagonal: the eigenvalues are the roots, and a
    # stacked call gives each item the bits of its own call as a stack of
    # one (a float weight takes the C library's pow, which can round
    # otherwise than numpy's vectorised power)
    rng = np.random.default_rng(3)
    for m in range(1, 5):
        roots = np.sort(rng.uniform(-3.0, 3.0, (20, m)), axis=-1) \
            + 0.5 * np.arange(m)
        coeffs = characteristic_polynomial(roots)
        weights = rng.uniform(0.5, 4.0, 20)
        mats = companion_matrix(companion_row(coeffs, weights), weights)
        assert mats.shape == (20, m, m)
        for i in range(20):
            item = slice(i, i + 1)
            alone = companion_matrix(companion_row(coeffs[item],
                                                   weights[item]),
                                     weights[item])[0]
            assert alone.tobytes() == mats[i].tobytes()
            eig = np.sort(np.linalg.eigvals(alone).real)
            assert np.allclose(eig, roots[i], rtol=1e-9, atol=1e-9)


# -- adjugate matrices --------------------------------------------------------------


def delta_coefficients(poly, t, xi):
    """Coefficients of delta(tau) = det(tau I - A(t, xi)), highest first, from
    the Faddeev recursion that builds the adjugate."""
    _, coeffs = _faddeev(np.asarray(poly.a_eval(t, xi)))
    return coeffs


def test_cofactor_one_by_one():
    poly = cofactor_matrix(lambda t, xi: np.array([[2.0 * xi]]), 1)
    coeffs = adjugate_coefficients(poly, 0.0, 3.0)
    assert coeffs[0, 0, 0] == pytest.approx(1.0)
    delta = delta_coefficients(poly, 0.0, 3.0)
    assert np.allclose(delta.real, [1.0, -6.0])
    assert poly.verify(0.0, 3.0) <= 1e-12


def test_cofactor_two_by_two_adjugate():
    # A = [[0, xi], [xi, 0]]: adj(tau I - A) = [[tau, xi], [xi, tau]]
    poly = cofactor_matrix(
        lambda t, xi: np.array([[0.0, xi], [xi, 0.0]]), 2)
    xi = 2.5
    coeffs = adjugate_coefficients(poly, 0.0, xi)
    assert np.allclose(coeffs[..., 1].real, np.eye(2))
    assert np.allclose(coeffs[..., 0].real, [[0.0, xi], [xi, 0.0]])
    delta = delta_coefficients(poly, 0.0, xi)
    assert np.allclose(delta.real, [1.0, 0.0, -xi * xi])
    assert poly.verify(0.0, xi) <= 1e-12


def test_cofactor_random_three_by_three_identity():
    system = random_hyperbolic_system(random.Random(5), 3)
    poly = cofactor_matrix(system.a_symbol, 3)
    assert poly.verify(0.3, 2.0) <= 1e-9


@pytest.mark.parametrize("size", [2, 3, 4])
def test_stacked_checks_equal_the_per_sample_oracles(size, monkeypatch):
    # reduced systems as the reduce audit draws them, at its frequencies
    rng = random.Random(size)
    samples = np.linspace(0.0, 1.0, 17)

    def outcome(check, *args):
        try:
            return check(*args)
        except NumericalError as exc:
            return str(exc)

    raised = 0
    for _ in range(4):
        system = random_hyperbolic_system(rng, size)
        system.check_hyperbolic(samples)
        assert first_non_real_time(system, samples) is None
        poly = cofactor_matrix(system.a_symbol, size)
        for xi in (1.0, 5.0):
            assert outcome(poly.verify, 0.3, xi) \
                == outcome(verify_per_tau, poly, 0.3, xi)
            # with no tolerance, both raise at the first tau whose
            # residual is not zero, with the same message
            with monkeypatch.context() as patch:
                patch.setattr(reduction, "_ADJUGATE_TOL", 0.0)
                got = outcome(poly.verify, 0.3, xi)
                assert got == outcome(verify_per_tau, poly, 0.3, xi)
                raised += isinstance(got, str)
    assert raised
    # a 2 x 2 corner with eigenvalues +/- sqrt(onset - t) turns complex
    # after t = onset: both checks name the first sample past it
    for onset in (-0.5, 0.3, 0.5, 0.95, 2.0):
        def a1(t, onset=onset):
            mat = np.diag(np.arange(1.0, size + 1.0))
            mat[:2, :2] = [[0.0, 1.0], [onset - t, 0.0]]
            return mat

        system = FirstOrderSystem(a1=a1)
        first = first_non_real_time(system, samples)
        if first is None:
            system.check_hyperbolic(samples)
            continue
        with pytest.raises(HyperbolicityError, match=f"at t={first:g}$"):
            system.check_hyperbolic(samples)


def test_cofactor_caps_order():
    with pytest.raises(UnsupportedError):
        cofactor_matrix(lambda t, xi: np.eye(5), 5)


# -- block reduction ----------------------------------------------------------------


def test_block_reduction_one_by_one_is_identity():
    system = FirstOrderSystem(a1=lambda t: np.array([[2.0]]))
    block_form = to_block_sylvester(system)
    xi = 3.0
    assert block_form.block(0.2, xi)[0, 0] == pytest.approx(2.0 * xi)


def test_block_reduction_constant_two_by_two_eigenvalues():
    basis = np.array([[1.0, 1.0], [0.0, 1.0]])
    a1 = basis @ np.diag([-1.0, 2.0]) @ np.linalg.inv(basis)
    system = FirstOrderSystem(a1=lambda t: a1)
    block_form = to_block_sylvester(system)
    xi = 4.0
    eig = block_form.block_eigenvalues(0.5, xi)
    assert np.allclose(eig, [-xi, 2.0 * xi], atol=1e-10)


def test_block_reduction_random_three_by_three_eigenvalues():
    system = random_hyperbolic_system(random.Random(13), 3)
    block_form = to_block_sylvester(system)
    for xi in (1.0, 5.0):
        eig = block_form.block_eigenvalues(0.3, xi)
        direct = np.sort(np.linalg.eigvals(system.a_symbol(0.3, xi)).real)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(eig - direct)) / scale <= 1e-9


@pytest.mark.parametrize("seed, size, redraws",
                         [(5, 3, 0), (71, 2, 1), (52, 3, 1), (11, 4, 1)])
def test_random_hyperbolic_system_draw_order(seed, size, redraws):
    # a twin stream replays the documented draws: the eigenvalues, then the
    # basis normals row by row, redrawn while the basis is ill-conditioned;
    # the next draw of both streams agrees, so nothing is drawn after them
    rng, twin = random.Random(seed), random.Random(seed)
    system = random_hyperbolic_system(rng, size)
    eigs = sorted(twin.uniform(-2.0, 2.0) for _ in range(size))
    for i in range(1, size):
        eigs[i] = max(eigs[i], eigs[i - 1] + 0.3)

    def normals():
        return np.array([twin.gauss(0.0, 1.0) for _ in range(size * size)]
                        ).reshape(size, size)

    bases = [np.eye(size) + 0.3 * normals()]
    while np.linalg.cond(bases[-1]) > 20.0:
        bases.append(np.eye(size) + 0.3 * normals())
    assert len(bases) == redraws + 1
    expected = bases[-1] @ np.diag(eigs) @ np.linalg.inv(bases[-1])
    assert np.array_equal(system.a1(0.0), expected)
    assert rng.random() == twin.random()


def test_block_reduction_rejects_non_real_spectrum():
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    system = FirstOrderSystem(a1=lambda t: rotation)
    with pytest.raises(HyperbolicityError):
        to_block_sylvester(system)
