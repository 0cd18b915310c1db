import numpy as np
import pytest

from weakhyp._quadrature import adaptive_panel
from weakhyp.errors import InvalidParameterError
from weakhyp.profiles import (PointMass, RoughProfile, Piece, box_profile,
                              bump_profile, constant_profile, extend_profile,
                              heaviside_profile, piecewise_constant_profile,
                              point_mass_profile, polynomial_piece_profile,
                              zero_profile)


def integral(profile):
    """Total mass: the pieces by adaptive quadrature plus the order-0
    atoms."""
    total = 0.0 + 0.0j
    for p in profile.pieces:
        total += complex(adaptive_panel(
            lambda s, idx, _fn=p.fn: np.asarray(_fn(s)),
            np.array(p.lo), np.array(p.hi), tol=1e-12))
    for at in profile.atoms:
        if at.order == 0:
            total += at.weight
    return total


def test_breakpoints_must_lie_in_support():
    with pytest.raises(InvalidParameterError):
        RoughProfile((Piece(-1.0, 2.0, lambda t: t, 1),), (), (0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        RoughProfile((), (PointMass(3.0),), (0.0, 1.0))


def test_density_evaluation_and_right_endpoint():
    p = heaviside_profile(0.5, 1.0, 4.0, (0.0, 1.0))
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(p.density(t), [1.0, 1.0, 4.0, 4.0, 4.0])


def test_linear_structure():
    p1 = constant_profile(2.0, (0.0, 1.0))
    p2 = heaviside_profile(0.3, 0.0, 1.0, (0.0, 1.0))
    combo = 3.0 * p1 + p2
    t = np.linspace(0.0, 0.99, 7)
    assert np.allclose(combo.density(t), 3.0 * p1.density(t) + p2.density(t))


def test_fourier_transform_atoms_closed_form():
    xi = np.linspace(-20.0, 20.0, 41)
    delta = point_mass_profile(0.3)
    assert np.allclose(delta.fourier_transform(xi), np.exp(-1j * 0.3 * xi))
    ddelta = point_mass_profile(0.0, order=1, weight=2.0)
    assert np.allclose(ddelta.fourier_transform(xi), 2.0 * 1j * xi)


def test_fourier_transform_box_closed_form():
    # oracle: int_{-h}^{h} e^{-i xi s} ds = 2 sin(h xi) / xi
    xi = np.linspace(0.5, 60.0, 25)
    h = 0.7
    box = box_profile(0.0, h)
    expected = 2.0 * np.sin(h * xi) / xi
    assert np.max(np.abs(box.fourier_transform(xi) - expected)) < 1e-10


def test_integral_matches_closed_forms():
    assert abs(integral(box_profile(0.0, 0.5, 3.0)) - 3.0) < 1e-12
    assert abs(integral(point_mass_profile(0.1, weight=2.5)) - 2.5) == 0.0
    # derivative atoms carry no mass
    assert integral(point_mass_profile(0.0, order=1)) == 0.0


def test_polynomial_piece_profile():
    p = polynomial_piece_profile([1.0, 2.0, 3.0], 0.0, 1.0)
    t = np.array([0.2, 0.8])
    assert np.allclose(p.density(t), 1.0 + 2.0 * t + 3.0 * t * t)


def test_extend_profile_continues_edge_values():
    p = heaviside_profile(0.5, 1.0, 4.0, (0.0, 1.0))
    ext = extend_profile(p, 2.0)
    assert np.allclose(ext.density(np.array([-1.5, -0.1])), 1.0)
    assert np.allclose(ext.density(np.array([1.1, 2.9])), 4.0)
    assert ext.support == (-2.0, 3.0)


def test_zero_profile_is_empty():
    z = zero_profile()
    assert integral(z) == 0.0
    assert np.all(z.density(np.linspace(-1, 1, 5)) == 0.0)


def test_bump_profile_shape():
    g = bump_profile(0.0, 1.0)
    assert float(g.density(np.array([0.0]))[0]) == 1.0
    assert float(g.density(np.array([1.0]))[0]) == 0.0
    assert g.support == (-1.0, 1.0)


def test_piecewise_constant_validation():
    with pytest.raises(InvalidParameterError):
        piecewise_constant_profile([0.0, 0.0, 1.0], [1.0, 2.0], (0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        piecewise_constant_profile([0.0, 1.0], [1.0, 2.0], (0.0, 1.0))
