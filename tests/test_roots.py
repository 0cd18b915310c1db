import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhyp.analysis import linear_fit
from weakhyp.errors import InsufficientDataError, InvalidParameterError
from weakhyp.mollifiers import (convolve_profile, friedrichs_mollifier,
                                scale_mollifier)
from weakhyp.profiles import heaviside_profile, hoelder_profile
from weakhyp.roots import (RegularisedRoots, RootFamily, bracket,
                           constant_roots, linear_scale,
                           logarithmic_scale, roots_from_linear_forms,
                           roots_from_time_profiles, transport_roots,
                           wave_speed_roots)
from weakhyp.profiles import constant_profile, piecewise_constant_profile

from oracles import FD4, dt_power, pure_root, root_profile, root_value


# -- moderateness certification of the roots (the paper's claim, audited) -----


@dataclass(frozen=True)
class ModeratenessSample:
    epsilons: tuple[float, ...]
    xi: tuple[float, ...] | float = 8.0
    t_count: int = 161


@dataclass(frozen=True)
class ExponentFit:
    j: int
    k: int
    n_fitted: float
    r_squared: float
    sup_norms: tuple[float, ...]
    trivially_zero: bool


def certify_moderateness(family, phi, k_max, sample):
    """Fit N_k in sup_t |d_t^k lambda_{j,eps}| <= c eps^{-N_k} |xi|, with
    the family regularised at omega(eps) = eps (the linear scale).

    Derivatives are 4th-order central differences (:func:`dt_power`) with
    step omega(eps)/50, fine enough to resolve the mollification scale.
    With a jump-discontinuous profile the fitted exponents track k.
    """
    if k_max > 4 or k_max < 1:
        raise InvalidParameterError(
            "finite-difference depth limit: k_max must be in 1..4")
    eps_list = tuple(sample.epsilons)
    if len(eps_list) < 3:
        raise InsufficientDataError("moderateness fit needs >= 3 epsilon values")
    xi = sample.xi
    t_grid = np.linspace(0.0, family.horizon, sample.t_count)
    scale = linear_scale()
    regs = [RegularisedRoots(family, phi, scale(eps)) for eps in eps_list]
    fits: list[ExponentFit] = []
    for j in range(1, family.order + 1):
        for k in range(1, k_max + 1):
            weight_sum = sum(abs(w) for w in FD4[k][1])
            sups = []
            floors = []
            for reg in regs:
                h = reg.omega / 50.0
                values = {off: np.asarray(root_value(reg, j, t_grid + off * h,
                                                     xi), dtype=float)
                          for off in FD4[k][0]}
                sups.append(float(np.max(np.abs(
                    dt_power(values.__getitem__, k, h)))))
                scale = max(float(np.max(np.abs(v))) for v in values.values())
                # rounding noise of the stencil itself; anything below it is
                # numerically indistinguishable from a zero derivative
                floors.append(64.0 * np.finfo(float).eps * scale
                              * weight_sum / h ** k)
            if all(s_ <= f_ for s_, f_ in zip(sups, floors)):
                fits.append(ExponentFit(j, k, 0.0, 1.0, tuple(sups), True))
                continue
            slope, _, r2 = linear_fit(np.log(1.0 / np.asarray(eps_list)),
                                      np.log(np.maximum(sups, 1e-300)))
            fits.append(ExponentFit(j, k, float(slope), float(r2),
                                    tuple(sups), False))
    return fits


def check_ordered(family, t_samples, directions):
    """Smallest gap r_{j+1} - r_j over the samples (negative = unordered)."""
    worst = math.inf
    for d in directions:
        stack = np.array([np.real(root_profile(family, j, d)(t_samples))
                          for j in range(1, family.order + 1)])
        if family.order > 1:
            worst = min(worst, float(np.min(np.diff(stack, axis=0))))
    return worst if worst is not math.inf else 0.0


def evaluate(family, j, t, xi):
    """lambda_j(t, xi) of an unregularised family at one frequency point."""
    v = np.atleast_1d(np.asarray(xi, dtype=float))
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.zeros(np.shape(t))
    return np.real(root_profile(family, j, v).density(t)) * norm


@pytest.fixture(scope="module")
def phi():
    return friedrichs_mollifier()


def test_constant_roots_regularised_values(phi):
    w = linear_scale()(0.25)
    reg = RegularisedRoots(constant_roots([-1.0, 1.0]), phi, w)
    xi = 3.0
    br = float(bracket(np.array(xi)))
    assert abs(float(root_value(reg, 1, 0.5, xi)) - (-xi + w * br)) < 1e-12
    assert abs(float(root_value(reg, 2, 0.5, xi))
               - (xi + 2 * w * br)) < 1e-12


def test_double_root_spacing_is_exact(phi):
    reg = RegularisedRoots(constant_roots([0.0, 0.0]), phi,
                           linear_scale()(0.125))
    xi = 5.0
    gap = float(root_value(reg, 2, 0.4, xi) - root_value(reg, 1, 0.4, xi))
    assert gap == pytest.approx(reg.omega * float(bracket(np.array(xi))),
                                rel=1e-14)


def test_heaviside_roots_smooth_and_separated(phi):
    speed = heaviside_profile(0.5, 1.0, 4.0, (0.0, 1.0))
    reg = RegularisedRoots(wave_speed_roots(speed), phi, 0.1)
    t = np.linspace(0.0, 1.0, 101)
    for xi in (1.0, 10.0):
        lam1 = np.asarray(root_value(reg, 1, t, xi), dtype=float)
        lam2 = np.asarray(root_value(reg, 2, t, xi), dtype=float)
        gap = lam2 - lam1
        assert np.min(gap) >= 0.1 * float(bracket(np.array(xi))) - 1e-10
        # smooth: second difference bounded by the mollification scale
        d2 = np.diff(lam2, 2)
        assert np.all(np.isfinite(d2))


def test_unordered_family_rejected():
    with pytest.raises(InvalidParameterError):
        constant_roots([1.0, -1.0])


def test_transport_roots_are_odd():
    fam = transport_roots(2.0)
    assert float(evaluate(fam, 1, 0.5, 3.0)) == pytest.approx(6.0)
    assert float(evaluate(fam, 1, 0.5, -3.0)) == pytest.approx(-6.0)


def test_homogeneity_of_pure_part(phi):
    speed = heaviside_profile(0.5, 1.0, 4.0, (0.0, 1.0))
    reg = RegularisedRoots(wave_speed_roots(speed), phi,
                           linear_scale()(0.25))
    lam2 = float(pure_root(reg, 2, 0.3, 2.0))
    lam6 = float(pure_root(reg, 2, 0.3, 6.0))
    assert lam6 == pytest.approx(3.0 * lam2, rel=1e-13)


def test_linf_convergence_continuous_profiles(phi):
    a = hoelder_profile(0.5, 0.5, 1.0, 1.0, (0.0, 1.0))
    fam = wave_speed_roots(a)
    t = np.linspace(0.0, 1.0, 201)
    target = evaluate(fam, 2, t, 4.0)
    sups = []
    for eps in (0.2, 0.1, 0.05):
        reg = RegularisedRoots(fam, phi, linear_scale()(eps))
        vals = np.asarray(pure_root(reg, 2, t, 4.0), dtype=float)
        sups.append(float(np.max(np.abs(vals - target))))
    assert sups[0] > sups[1] > sups[2]


def test_moderateness_constant_roots_slope_zero(phi):
    fits = certify_moderateness(
        constant_roots([-1.0, 1.0]), phi, 1,
        ModeratenessSample(epsilons=(0.25, 0.125, 0.0625), xi=8.0))
    for fit in fits:
        assert abs(fit.n_fitted) <= 0.2


def test_moderateness_heaviside_exponents(phi):
    speed = heaviside_profile(0.5, 1.0, 4.0, (0.0, 1.0))
    sample = ModeratenessSample(epsilons=(0.25, 0.125, 0.0625, 0.03125),
                                xi=8.0)
    fits = {(f.j, f.k): f for f in certify_moderateness(
        wave_speed_roots(speed), phi, 2, sample)}
    for j in (1, 2):
        assert fits[(j, 1)].n_fitted == pytest.approx(1.0, abs=0.2)
        assert fits[(j, 2)].n_fitted == pytest.approx(2.0, abs=0.3)


def test_moderateness_guards(phi):
    fam = constant_roots([0.0])
    with pytest.raises(InvalidParameterError):
        certify_moderateness(fam, phi, 5,
                             ModeratenessSample((0.5, 0.25, 0.125)))
    with pytest.raises(InsufficientDataError):
        certify_moderateness(fam, phi, 1, ModeratenessSample((0.5, 0.25)))


def test_scale_validation():
    with pytest.raises(InvalidParameterError):
        linear_scale(0.0)
    scale = linear_scale()
    with pytest.raises(InvalidParameterError):
        scale(0.0)
    with pytest.raises(InvalidParameterError):
        scale(2.0)
    log = logarithmic_scale(1, 2)
    assert 0.0 < log(2.0 ** -9) < log(2.0 ** -3) < 1.0
    # N + m^2 - m < 1 makes the scale undefined (division by zero) or leave
    # (0, 1]
    for n_exponent, order in ((0, 1), (-1, 1), (-3, 2)):
        with pytest.raises(InvalidParameterError, match="log exponent"):
            logarithmic_scale(n_exponent, order)


def test_logarithmic_scale_holds_below_1e_minus_9():
    # the scale decays slower than any power of eps, so a tiny eps still
    # gives a scale in (0, 1): about 0.35 at 1e-10
    assert 0.0 < logarithmic_scale(1, 2)(1e-10) < 1.0


def test_linear_form_family_ordered_on_positive_orthant():
    profiles = [[piecewise_constant_profile([0.0, 0.5, 1.0], [1.0, 1.2],
                                            (0.0, 1.0)),
                 piecewise_constant_profile([0.0, 1.0], [1.1], (0.0, 1.0))],
                [piecewise_constant_profile([0.0, 1.0], [2.0], (0.0, 1.0)),
                 piecewise_constant_profile([0.0, 1.0], [2.3], (0.0, 1.0))]]
    fam = roots_from_linear_forms(profiles)
    t = np.linspace(0.0, 1.0, 33)
    for d in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 2.0)):
        gap = check_ordered(fam, t, [d])
        assert gap > 0.0


def test_direction_table_reads_the_exact_unit_direction(phi):
    # the coefficients along (1, 2) are weighted by (1, 2)/sqrt(5) as
    # computed, not by a rounded copy of it
    coeffs = [[piecewise_constant_profile([0.0, 0.3, 1.0], [0.9, 1.3],
                                          (0.0, 1.0)),
               piecewise_constant_profile([0.0, 0.6, 1.0], [1.1, 0.7],
                                          (0.0, 1.0))],
              [piecewise_constant_profile([0.0, 0.5, 1.0], [2.0, 2.4],
                                          (0.0, 1.0)),
               piecewise_constant_profile([0.0, 1.0], [2.3], (0.0, 1.0))]]
    fam = roots_from_linear_forms(coeffs)
    reg = RegularisedRoots(fam, phi, 0.05)
    t = np.linspace(0.0, 1.0, 33)
    table = reg.direction_table(t, [(1.0, 2.0)])[0]
    unit = (1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0))
    kernel = scale_mollifier(phi, 0.05)
    for j in (1, 2):
        c1, c2 = (np.real(convolve_profile(c, kernel)(t))
                  for c in fam.coefficients[j - 1])
        expected = unit[0] * c1 + unit[1] * c2
        assert np.array_equal(table[j - 1], expected)


def test_bound_is_the_exact_sup_of_constant_pieces():
    # a spike 0.0015 wide lies between the 513 times on [0, 1] at which the
    # wave-speed bound was once sampled, which read 1; the speed bound sizes
    # the auto box and the cone clearance, so it must see the spike
    breaks = [0.0, 0.5002, 0.5017, 1.0]
    spike = piecewise_constant_profile(breaks, [1.0, 25.0, 1.0], (0.0, 1.0))
    assert wave_speed_roots(spike).bound == 5.0
    assert roots_from_time_profiles([spike.scaled(-1.0), spike]).bound == 25.0
    dip = piecewise_constant_profile(breaks, [2.0, -30.0, 2.0], (0.0, 1.0))
    assert roots_from_linear_forms([[spike, dip]]).bound \
        == 30.0 * math.sqrt(2.0)
    # a speed that vanishes on the spike alone is not positive
    with pytest.raises(InvalidParameterError):
        wave_speed_roots(piecewise_constant_profile(breaks, [1.0, 0.0, 1.0],
                                                    (0.0, 1.0)))
    # overlapping pieces add up, at the start of a piece and at the end of
    # one: 1 + 2 on [0.4, 0.6), and 1 - 1 then 1 around 0.5
    bumped = constant_profile(1.0, (0.0, 1.0)) + piecewise_constant_profile(
        [0.0, 0.4, 0.6, 1.0], [0.0, 2.0, 0.0], (0.0, 1.0))
    assert roots_from_time_profiles([bumped]).bound == 3.0
    cancelled = constant_profile(1.0, (0.0, 1.0)) \
        + constant_profile(-1.0, (0.0, 0.5))
    assert roots_from_time_profiles([cancelled]).bound == 1.0
    # a non-constant piece is read at its ends and on the sample grid
    speed = hoelder_profile(0.5, 0.3, 1.0, 2.0, (0.0, 1.0))
    assert wave_speed_roots(speed).bound \
        == float(np.sqrt(speed.density(np.array([1.0]))[0]))


def _random_linear_family(rng, order, dimension):
    """Piecewise-constant coefficients c_jk of either sign on [0, 1]."""
    coeffs = []
    for _ in range(order):
        row = []
        for _ in range(dimension):
            inner = np.sort(rng.uniform(0.05, 0.95, int(rng.integers(0, 4))))
            breaks = [0.0, *inner, 1.0]
            row.append(piecewise_constant_profile(
                breaks, list(rng.uniform(-2.0, 2.0, len(breaks) - 1)),
                (0.0, 1.0)))
        coeffs.append(row)
    return roots_from_linear_forms(coeffs)


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3),
       st.floats(min_value=-4.0, max_value=0.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_direction_table_matches_per_direction_oracle(phi, order, dimension,
                                                      log_omega, seed):
    # the contraction of the coefficient convolutions against each root's
    # profile along the direction, convolved on its own: equal to rounding
    rng = np.random.default_rng(seed)
    fam = _random_linear_family(rng, order, dimension)
    reg = RegularisedRoots(fam, phi, 10.0 ** log_omega)
    t = np.concatenate([rng.uniform(-0.2, 1.2, 17), [0.0, 1.0]])
    directions = [tuple(rng.standard_normal(dimension)) for _ in range(4)]
    table = reg.direction_table(t, directions)
    for d, rows in zip(directions, table):
        unit = np.asarray(d) / np.linalg.norm(d)
        for j in range(1, order + 1):
            # rounding of each term of the contraction and of the oracle's
            # own sum over the pieces of every coefficient
            scale = sum(abs(g) * max(abs(p.value) for p in c.pieces)
                        for g, c in zip(unit, fam.coefficients[j - 1]))
            oracle = pure_root(reg, j, t, d) / np.linalg.norm(d)
            assert np.max(np.abs(rows[j - 1] - oracle)) \
                <= 16.0 * np.finfo(float).eps * scale


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def test_one_feature_table_is_the_convolution_bit_for_bit(phi):
    # a one-feature family's row is g(d) times the convolution, which is
    # exact; far outside the padded support the convolution is +0.0, and a
    # negative feature keeps the -0.0 that a sum over the features would
    # turn into 0.0
    kernel = scale_mollifier(phi, 0.03)
    t = np.concatenate([np.linspace(-0.1, 1.1, 61), [-50.0, 50.0]])
    speed = heaviside_profile(0.45, 1.0, 4.0, (0.0, 1.0))
    for fam, signs in ((wave_speed_roots(speed), (1.0, 1.0)),
                       (constant_roots([-1.0, 0.0, 2.0]), (1.0, 1.0)),
                       (transport_roots(1.5), (1.0, -1.0)),
                       (transport_roots(-1.5), (-1.0, 1.0))):
        reg = RegularisedRoots(fam, phi, 0.03)
        table = reg.direction_table(t, [(1.0,), (-2.0,)])
        for rows, sign in zip(table, signs):
            for row, (c,) in zip(rows, fam.coefficients):
                expected = np.real(convolve_profile(c, kernel)(t))
                if sign < 0.0:
                    expected = sign * expected
                assert np.array_equal(_bits(row), _bits(expected))
    assert np.signbit(table[0][0, -1]) and table[0][0, -1] == 0.0


def test_direction_row_is_the_same_alone_or_in_a_batch(phi):
    rng = np.random.default_rng(4)
    fam = _random_linear_family(rng, 3, 3)
    reg = RegularisedRoots(fam, phi, 0.02)
    t = rng.uniform(0.0, 1.0, 29)
    directions = [tuple(rng.standard_normal(3)) for _ in range(6)]
    batch = reg.direction_table(t, directions)
    for d, rows in zip(directions, batch):
        alone = reg.direction_table(t, [d])[0]
        assert np.array_equal(_bits(rows), _bits(alone))
