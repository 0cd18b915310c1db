import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhyp._quadrature import fixed_panel
from weakhyp.errors import InsufficientDataError, InvalidParameterError
from weakhyp.mollifiers import (GevreyCutoffMollifier, convolve_profile,
                                friedrichs_mollifier, scale_mollifier,
                                vanishing_moment_mollifier)
from weakhyp.profiles import (bump_profile, constant_profile,
                              heaviside_profile, hoelder_profile,
                              piecewise_constant_profile, point_mass_profile,
                              polynomial_piece_profile, zero_profile)

from oracles import fourier_approximation_rate, trapezoid


@pytest.fixture(scope="module")
def phi():
    return friedrichs_mollifier()


# -- kernel invariants ---------------------------------------------------------


def moment(kernel, k):
    """Exact k-th moment ``int t^k kernel(t) dt``."""
    poly = kernel.base_poly
    if k:
        poly = poly * Polynomial([0.0, 1.0]) ** k
    anti = poly.integ()
    return float(anti(1.0) - anti(-1.0)) * kernel.scale ** k


@pytest.mark.parametrize("kernel_factory, q", [
    pytest.param(friedrichs_mollifier, 0, id="friedrichs_mollifier"),
    pytest.param(lambda: vanishing_moment_mollifier(2), 2, id="<lambda>0"),
    pytest.param(lambda: vanishing_moment_mollifier(4), 4, id="<lambda>1"),
])
def test_unit_mass_and_vanishing_moments(kernel_factory, q):
    kernel = kernel_factory()
    assert abs(moment(kernel, 0) - 1.0) <= 1e-10
    for k in range(1, q + 1):
        assert abs(moment(kernel, k)) <= 1e-8


def test_kernel_vanishes_outside_support(phi):
    t = np.array([-2.0, -1.0000001, 1.0000001, 5.0])
    assert np.all(phi(t) == 0.0)


@given(st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=20, deadline=None)
def test_scaled_kernels_keep_unit_mass(eps):
    scaled = scale_mollifier(friedrichs_mollifier(), eps)
    assert abs(moment(scaled, 0) - 1.0) <= 1e-10
    assert abs(scaled.support_radius - eps) <= 1e-15


# -- scaling --------------------------------------------------------------------


def test_scale_identity(phi):
    same = scale_mollifier(phi, 1.0)
    t = np.linspace(-1.0, 1.0, 33)
    assert np.array_equal(same(t), phi(t))


def test_scale_half(phi):
    half = scale_mollifier(phi, 0.5)
    assert half.support_radius == 0.5
    assert abs(moment(half, 0) - 1.0) <= 1e-10


def test_scale_sup_norm_growth(phi):
    # quadrature-free oracle: dense sampling of both kernels
    t = np.linspace(-1.0, 1.0, 4001)
    sup_base = float(np.max(phi(t)))
    tenth = scale_mollifier(phi, 0.1)
    sup_tenth = float(np.max(tenth(t / 10.0)))
    assert abs(sup_tenth / sup_base - 10.0) <= 1e-8


def test_scale_rejects_non_positive(phi):
    with pytest.raises(InvalidParameterError):
        scale_mollifier(phi, 0.0)
    with pytest.raises(InvalidParameterError):
        scale_mollifier(phi, -0.3)


# -- convolution -----------------------------------------------------------------


def test_delta_convolution_returns_kernel(phi):
    eps = 0.25
    scaled = scale_mollifier(phi, eps)
    conv = convolve_profile(point_mass_profile(0.0), scaled)
    t = np.linspace(-0.4, 0.4, 17)
    assert np.max(np.abs(conv(t) - scaled(t))) == 0.0


def test_derivative_atom_convolution(phi):
    scaled = scale_mollifier(phi, 0.25)
    conv = convolve_profile(point_mass_profile(0.0, order=1), scaled)
    t = np.linspace(-0.4, 0.4, 17)
    assert np.max(np.abs(conv(t) - scaled.derivative(t, 1))) == 0.0


def test_heaviside_ramp_matches_cumulative_kernel_oracle(phi):
    eps = 0.1
    scaled = scale_mollifier(phi, eps)
    step = heaviside_profile(0.5, 0.0, 1.0, (0.0, 1.0))
    conv = convolve_profile(step, scaled)
    assert abs(float(conv(0.39))) <= 1e-14
    assert abs(float(conv(0.61)) - 1.0) <= 1e-12
    # oracle: (H * phi)(t) = int_{-r}^{t - 0.5} phi for t near the jump
    t_probe = 0.53
    s = np.linspace(-eps, t_probe - 0.5, 20001)
    cumulative = trapezoid(scaled(s), s)
    assert abs(float(conv(t_probe)) - cumulative) <= 1e-7


def test_convolution_linearity(phi):
    scaled = scale_mollifier(phi, 0.2)
    p1 = heaviside_profile(0.4, 0.0, 1.0, (0.0, 1.0))
    p2 = constant_profile(0.5, (0.0, 1.0))
    a = 2.5
    combo = convolve_profile(p1.scaled(a) + p2, scaled)
    split = lambda t: a * convolve_profile(p1, scaled)(t) \
        + convolve_profile(p2, scaled)(t)
    t = np.linspace(-0.1, 1.1, 25)
    assert np.max(np.abs(combo(t) - split(t))) <= 1e-12


def test_support_containment(phi):
    scaled = scale_mollifier(phi, 0.2)
    p = box_profile = constant_profile(1.0, (0.2, 0.6))
    conv = convolve_profile(p, scaled)
    outside = np.array([-0.2, -0.01, 0.81, 1.5])
    assert np.max(np.abs(conv(outside))) < 1e-14


def test_linf_convergence_for_continuous_density(phi):
    p = bump_profile(0.5, 0.5)
    t = np.linspace(0.05, 0.95, 201)
    target = np.real(p.density(t))
    sups = []
    for eps in (0.2, 0.1, 0.05):
        conv = convolve_profile(p, scale_mollifier(phi, eps))
        sups.append(float(np.max(np.abs(conv(t) - target))))
    assert sups[0] > sups[1] > sups[2]


def _gauss_oracle(breaks, values, kernel, k, t):
    """Constant pieces integrated in the kernel variable y = t - s by one
    Gauss-Legendre panel, exact for the kernel's polynomial degree."""
    r = kernel.support_radius
    n = kernel.degree // 2 + 2
    out = np.zeros(t.shape)
    for lo, hi, c in zip(breaks, breaks[1:], values):
        out += c * fixed_panel(lambda y: kernel.derivative(y, k),
                               np.maximum(-r, t - hi),
                               np.minimum(r, t - lo), n)
    return out


@given(breaks=st.lists(st.floats(min_value=-1.0, max_value=2.0),
                       min_size=2, max_size=6, unique=True).map(sorted),
       data=st.data(),
       log_omega=st.floats(min_value=-9.0, max_value=0.0),
       k=st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_constant_pieces_match_gauss_oracle(phi, breaks, data, log_omega, k):
    # subnormal values carry no relative precision, so no relative bound can
    # hold for them: c * 0.5000000000000010 and c * 0.4999999999999996 round
    # to different multiples of 5e-324
    values = data.draw(st.lists(
        st.floats(min_value=-5.0, max_value=5.0,
                  allow_subnormal=False).filter(lambda v: v != 0.0),
        min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    omega = 10.0 ** log_omega
    kernel = scale_mollifier(phi, omega)
    offsets = data.draw(st.lists(st.floats(min_value=-1.2, max_value=1.2),
                                 min_size=1, max_size=8))
    # points within omega of every breakpoint, and across the support
    t = np.concatenate(
        [b + omega * np.array(offsets + [-1.0, 0.0, 1.0]) for b in breaks]
        + [np.linspace(breaks[0] - 0.5, breaks[-1] + 0.5, 41)])
    profile = piecewise_constant_profile(breaks, values,
                                         (breaks[0], breaks[-1]))
    closed = convolve_profile(profile, kernel, derivative=k)(t)
    oracle = _gauss_oracle(breaks, values, kernel, k, t)
    c_max = max(abs(v) for v in values)
    bound = 1e-13 * c_max if k == 0 else 1e-9 * c_max * omega ** -k
    assert np.max(np.abs(closed - oracle)) <= bound


@given(breaks=st.lists(st.floats(min_value=-1.0, max_value=2.0),
                       min_size=9, max_size=21, unique=True).map(sorted),
       data=st.data(),
       log_omega=st.floats(min_value=-1.0, max_value=0.0),
       k=st.integers(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_a_point_alone_equals_it_in_a_batch(phi, breaks, data, log_omega, k):
    # 8 to 20 constant pieces: numpy sums one point's eight or more terms
    # pairwise, but a batch's in sequence, unless the order is fixed
    values = data.draw(st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_subnormal=False),
        min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    profile = piecewise_constant_profile(breaks, values,
                                         (breaks[0], breaks[-1]))
    conv = convolve_profile(profile, scale_mollifier(phi, 10.0 ** log_omega),
                            derivative=k)
    t = np.array(data.draw(st.lists(
        st.floats(min_value=breaks[0], max_value=breaks[-1]),
        min_size=2, max_size=8)))
    batch = conv(t)
    for i, point in enumerate(t):
        assert np.array_equal(np.atleast_1d(conv(point)), batch[i:i + 1])


def test_mixed_profile_is_sum_of_its_parts(phi):
    parts = [constant_profile(2.0, (0.0, 0.4)),
             polynomial_piece_profile([1.0, -2.0, 0.5, 3.0], 0.4, 0.7),
             hoelder_profile(0.5, 0.85, 1.0, 0.3, (0.7, 1.0)),
             point_mass_profile(0.55, order=1, weight=0.7)]
    whole = parts[0] + parts[1] + parts[2] + parts[3]
    kernel = scale_mollifier(phi, 0.05)
    t = np.linspace(-0.1, 1.1, 49)
    got = convolve_profile(whole, kernel)(t)
    split = sum(convolve_profile(p, kernel)(t) for p in parts)
    assert np.max(np.abs(got - split)) <= 1e-12 * np.max(np.abs(split))


def test_stack_rows_are_each_profile_convolved_alone(phi):
    # constant-piece counts differ between rows (the shorter ones padded),
    # atoms and other pieces keep their own panels: each row has the bits
    # of its profile alone, at every derivative order and at a scalar time
    # (the adaptive Hoelder piece at order 0, where its quadrature
    # converges), in a real stack and in one whose constants are complex
    profiles = [heaviside_profile(0.45, -1.0, 4.0, (0.0, 1.0)),
                piecewise_constant_profile([0.0, 0.2, 0.21, 0.5, 1.0],
                                           [1.0, -3.0, 0.5, 2.0], (0.0, 1.0)),
                constant_profile(0.7, (-2.0, 3.0))
                + point_mass_profile(0.55, order=1, weight=-0.7),
                polynomial_piece_profile([1.0, -2.0], 0.1, 0.4),
                zero_profile()]
    hoelder = hoelder_profile(0.5, 0.85, 1.0, 0.3, (0.7, 1.0)) \
        + constant_profile(-0.5, (0.0, 0.7))
    kernel = scale_mollifier(phi, 0.05)
    t = np.concatenate([np.linspace(-0.1, 1.1, 49), [-40.0, 40.0]])
    for k in (0, 1, 2):
        real = profiles + [hoelder] if k == 0 else profiles
        for members in (real, [p.scaled(1.5 - 2.0j) for p in real[:3]]):
            stack = convolve_profile(members, kernel, derivative=k)
            rows = stack(t)
            assert rows.shape == (len(members), t.size)
            assert rows.dtype == (float if members is real else complex)
            for row, profile in zip(rows, members):
                alone = convolve_profile(profile, kernel, k)(t)
                assert np.array_equal(row.view(float), alone.view(float))
            assert np.array_equal(stack(0.3), stack(np.array([0.3]))[:, 0])


# -- cutoff mollifier ---------------------------------------------------------------


def test_cutoff_mollifier_evaluation_identity(phi):
    # the plateau cutoff is one on the kernel support for every scale in
    # (0, 1], so the kernel is the scaled base kernel, bit for bit
    for omega in (1.0, 0.3, 1.0 / math.e, 1e-3, 2.0 ** -30):
        g = GevreyCutoffMollifier(phi, omega)
        x = np.linspace(-1.5 * omega, 1.5 * omega, 31)
        assert np.array_equal(g(x), scale_mollifier(phi, omega)(x))
        assert g.support_radius == omega
    for omega in (0.0, -0.5, 1.5, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            GevreyCutoffMollifier(phi, omega)


def test_cutoff_support_shrinks_logarithmically(phi):
    for omega in (0.5, 0.1, 0.01):
        g = GevreyCutoffMollifier(phi, omega)
        assert g.support_radius <= 4.0 / abs(math.log(omega)) + 1e-15


def test_cutoff_inherits_moments_for_small_scales():
    g = GevreyCutoffMollifier(vanishing_moment_mollifier(2), 0.05)
    xi = np.array([0.0])
    assert abs(g.fourier_transform(xi)[0] - 1.0) <= 1e-10


# -- approximation rate ----------------------------------------------------------------


def test_approximation_rate_point_mass_q2():
    g = GevreyCutoffMollifier(vanishing_moment_mollifier(2), 0.05)
    xi = np.linspace(0.0, 100.0, 401)
    fit = fourier_approximation_rate(point_mass_profile(0.0), g, q=2, s=2.0,
                                     xi_grid=xi)
    assert fit.q_hat >= 2.0 - 0.2


def test_approximation_rate_point_mass_q4():
    g = GevreyCutoffMollifier(vanishing_moment_mollifier(4), 0.05)
    xi = np.linspace(0.0, 100.0, 401)
    fit = fourier_approximation_rate(point_mass_profile(0.0), g, q=4, s=2.0,
                                     xi_grid=xi)
    assert fit.q_hat >= 4.0 - 0.3


def test_approximation_rate_zero_profile_is_exact():
    g = GevreyCutoffMollifier(vanishing_moment_mollifier(2), 0.05)
    xi = np.linspace(0.0, 10.0, 11)
    fit = fourier_approximation_rate(zero_profile(), g, q=2, s=2.0,
                                     xi_grid=xi)
    assert fit.exact and fit.q_hat == math.inf


def test_approximation_rate_needs_three_scales():
    g = GevreyCutoffMollifier(vanishing_moment_mollifier(2), 0.05)
    with pytest.raises(InsufficientDataError):
        fourier_approximation_rate(point_mass_profile(0.0), g, 2, 2.0,
                                   np.linspace(0, 10, 5), omegas=(0.1, 0.05))
