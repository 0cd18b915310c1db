import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhyp._quadrature import adaptive_panel
from weakhyp.errors import InvalidParameterError
from weakhyp.profiles import (PointMass, RoughProfile, Piece, box_profile,
                              bump_profile, constant_profile, extend_profile,
                              heaviside_profile, hoelder_profile,
                              piecewise_constant_profile, point_mass_profile,
                              polynomial_piece_profile, zero_profile)
from weakhyp.roots import _transformed_profile


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
    combo = p1.scaled(3.0) + p2
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
    # past a span: the pieces are cut to it and only those reaching an end
    # are continued, by their values there; a constant one is lengthened
    bump = bump_profile(0.0, 0.3)
    ext = extend_profile(bump, 2.0, (0.0, 1.0))
    t = np.array([-1.5, -0.1, 0.1, 0.5, 2.5])
    assert np.array_equal(ext.density(t),
                          [1.0, 1.0, bump.density(np.array([0.1]))[0], 0, 0])
    ext = extend_profile(box_profile(0.5, 0.1), 2.0, (0.0, 1.0))
    assert np.array_equal(ext.density(np.array([-1.0, 0.2, 0.5, 0.8, 2.0])),
                          [0, 0, 1.0, 0, 0])
    ext = extend_profile(constant_profile(3.0, (0.0, 1.0)), 2.0, (0.0, 1.0))
    assert [(p.lo, p.hi) for p in ext.pieces] == [(-2.0, 3.0)]


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


_levels = st.floats(min_value=0.1, max_value=10.0)


@st.composite
def _built_profiles(draw):
    """A profile from one constructor, then a chain of scalings, sums,
    extensions and square roots."""
    kind = draw(st.sampled_from(["constant", "heaviside", "piecewise", "box",
                                 "hoelder", "polynomial"]))
    if kind == "constant":
        profile = constant_profile(draw(_levels), (0.0, 1.0))
    elif kind == "heaviside":
        profile = heaviside_profile(draw(st.floats(0.1, 0.9)),
                                    draw(_levels), draw(_levels), (0.0, 1.0))
    elif kind == "piecewise":
        values = draw(st.lists(_levels, min_size=1, max_size=4))
        breaks = np.linspace(0.0, 1.0, len(values) + 1)
        profile = piecewise_constant_profile(breaks, values, (0.0, 1.0))
    elif kind == "box":
        profile = box_profile(0.5, 0.25, draw(_levels))
    elif kind == "hoelder":
        profile = hoelder_profile(0.5, 0.4, draw(_levels), 0.5, (0.0, 1.0))
    else:
        coeffs = draw(st.lists(_levels, min_size=1, max_size=3))
        profile = polynomial_piece_profile(coeffs, 0.0, 1.0)
    for op in draw(st.lists(st.sampled_from(
            ["scale", "complex_scale", "add", "extend", "sqrt"]),
            max_size=4)):
        if op == "scale":
            profile = profile.scaled(draw(st.floats(-3.0, 3.0)))
        elif op == "complex_scale":
            profile = profile.scaled(complex(draw(_levels), draw(_levels)))
        elif op == "add":
            profile = profile + heaviside_profile(0.3, draw(_levels),
                                                  draw(_levels), (0.0, 1.0))
        elif op == "extend":
            profile = extend_profile(profile, draw(st.floats(0.5, 2.0)))
        else:
            profile = _transformed_profile(
                profile, lambda v: np.sqrt(np.abs(v)))
    return profile


@given(_built_profiles())
@settings(max_examples=80, deadline=None)
def test_piece_value_is_the_constant_fn_returns(profile):
    for piece in profile.pieces:
        if piece.degree == 0:
            mid = np.array([0.5 * (piece.lo + piece.hi)])
            assert piece.fn(mid)[0] == piece.value
        else:
            assert piece.value is None


def test_piece_value_exactly_on_constant_pieces():
    with pytest.raises(InvalidParameterError):
        Piece(0.0, 1.0, lambda t: np.ones(np.shape(t)), degree=0)
    with pytest.raises(InvalidParameterError):
        Piece(0.0, 1.0, lambda t: t, degree=1, value=1.0)
