"""Rough one-dimensional profiles: piecewise-smooth densities plus atoms.

A :class:`RoughProfile` models the admissible coefficient and datum classes:
a bounded piecewise-smooth density together with a finite combination of
derivatives of point masses.  The same type serves time profiles (equation
coefficients, lower-order terms, temporal forcing factors) and space profiles
(initial data, spatial forcing factors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._quadrature import oscillatory_panel
from .errors import InvalidParameterError

Array = np.ndarray

#: exponent of the bump profile (1 - u^2)^power, which is C^(power-1)
_BUMP_POWER = 8


@dataclass(frozen=True)
class PointMass:
    """``weight * (d/dt)^order delta(t - location)`` in the distributional sense."""

    location: float
    order: int = 0
    weight: complex = 1.0

    def __post_init__(self):
        if self.order < 0:
            raise InvalidParameterError("point mass derivative order must be >= 0")


@dataclass(frozen=True)
class Piece:
    """A smooth density piece on [lo, hi).

    ``degree`` declares the polynomial degree when the evaluator is exactly
    polynomial; quadrature against polynomial kernels is then exact with a
    fixed node count.  ``degree=None`` marks a general smooth (or endpoint
    singular, e.g. Hoelder) piece handled by adaptive quadrature.

    A constant piece (``degree=0``) also carries its constant as ``value``,
    equal to what ``fn`` returns, so that readers such as the closed-form
    convolution need not call ``fn``.  The constructors of constant pieces,
    scaling, :func:`extend_profile` and the pointwise maps of ``roots`` set
    it; it is ``None`` on every other piece.
    """

    lo: float
    hi: float
    fn: Callable[[Array], Array]
    degree: int | None = None
    value: complex | None = None

    def __post_init__(self):
        if not self.hi > self.lo:
            raise InvalidParameterError("piece must have positive length")
        if (self.degree == 0) != (self.value is not None):
            raise InvalidParameterError(
                "a piece carries a value exactly when it is constant")


def _constant_piece(lo: float, hi: float, value: complex) -> Piece:
    """The degree-0 piece equal to ``value`` on [lo, hi)."""
    def fn(t: Array) -> Array:
        return np.full(np.shape(t), value)
    return Piece(lo, hi, fn, degree=0, value=value)


@dataclass(frozen=True)
class RoughProfile:
    """Piecewise-smooth density plus a finite list of point-mass atoms."""

    pieces: tuple[Piece, ...] = ()
    atoms: tuple[PointMass, ...] = ()
    support: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        a, b = self.support
        if not b >= a:
            raise InvalidParameterError("support interval must be ordered")
        tol = 1e-12 * max(1.0, abs(a), abs(b))
        for p in self.pieces:
            if p.lo < a - tol or p.hi > b + tol:
                raise InvalidParameterError(
                    f"piece [{p.lo}, {p.hi}] outside support [{a}, {b}]")
        for atom in self.atoms:
            if atom.location < a - tol or atom.location > b + tol:
                raise InvalidParameterError(
                    f"atom at {atom.location} outside support [{a}, {b}]")

    # -- evaluation -------------------------------------------------------

    def density(self, t: Array | float) -> Array:
        """Evaluate the density part (atoms carry no pointwise values).

        Pieces are half-open [lo, hi) except that the right-most endpoint is
        closed, so the density is defined on all of its support.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        top = max((p.hi for p in self.pieces), default=None)
        for p in self.pieces:
            mask = (t >= p.lo) & (t < p.hi)
            if p.hi == top:
                mask |= t == p.hi
            if np.any(mask):
                out[mask] += np.asarray(p.fn(t[mask]), dtype=complex)
        if np.max(np.abs(out.imag), initial=0.0) == 0.0:
            return out.real
        return out

    __call__ = density

    # -- linear structure ---------------------------------------------------

    def scaled(self, a: complex) -> "RoughProfile":
        pieces = tuple(
            Piece(p.lo, p.hi, (lambda f: (lambda t: a * np.asarray(f(t))))(p.fn),
                  p.degree,
                  None if p.value is None else (a * np.asarray(p.value))[()])
            for p in self.pieces)
        atoms = tuple(PointMass(at.location, at.order, a * at.weight)
                      for at in self.atoms)
        return RoughProfile(pieces, atoms, self.support)

    def __add__(self, other: "RoughProfile") -> "RoughProfile":
        support = (min(self.support[0], other.support[0]),
                   max(self.support[1], other.support[1]))
        return RoughProfile(self.pieces + other.pieces,
                            self.atoms + other.atoms, support)

    # -- transforms ---------------------------------------------------------

    def fourier_transform(self, xi: Array) -> Array:
        """Continuous Fourier transform ``int p(t) exp(-i t xi) dt``.

        Atoms contribute ``weight * (i xi)^order * exp(-i xi location)``
        exactly; density pieces are integrated by oscillation-aware
        Gauss-Legendre refinement.
        """
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape, dtype=complex)
        for p in self.pieces:
            out += oscillatory_panel(p.fn, p.lo, p.hi, xi)
        for at in self.atoms:
            out += at.weight * (1j * xi) ** at.order * np.exp(-1j * xi * at.location)
        return out


# -- constructors -----------------------------------------------------------

def constant_profile(value: complex, support: tuple[float, float]) -> RoughProfile:
    lo, hi = support
    return RoughProfile((_constant_piece(lo, hi, value),), (), support)


def heaviside_profile(jump: float, low: complex, high: complex,
                      support: tuple[float, float]) -> RoughProfile:
    """`low` before the jump time, `high` from it on."""
    lo, hi = support
    if not lo < jump < hi:
        raise InvalidParameterError("jump time must lie inside the support")
    return RoughProfile((_constant_piece(lo, jump, low),
                         _constant_piece(jump, hi, high)), (), support)


def piecewise_constant_profile(breakpoints: Sequence[float],
                               values: Sequence[complex],
                               support: tuple[float, float]) -> RoughProfile:
    """Density equal to values[k] on [b_k, b_{k+1}); breakpoints include ends."""
    bp = [float(b) for b in breakpoints]
    if len(values) != len(bp) - 1:
        raise InvalidParameterError("need one value per interval")
    if any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
        raise InvalidParameterError("breakpoints must increase strictly")
    pieces = tuple(_constant_piece(b0, b1, v)
                   for b0, b1, v in zip(bp, bp[1:], values))
    return RoughProfile(pieces, (), support)


def hoelder_profile(alpha: float, center: float, base: float, amplitude: float,
                    support: tuple[float, float]) -> RoughProfile:
    """``base + amplitude * |t - center|^alpha``: C^alpha at the center."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidParameterError("Hoelder exponent must be in (0, 1]")
    lo, hi = support

    def left(t: Array) -> Array:
        return base + amplitude * np.abs(center - t) ** alpha

    def right(t: Array) -> Array:
        return base + amplitude * np.abs(t - center) ** alpha

    pieces = []
    if lo < center < hi:
        pieces = [Piece(lo, center, left, degree=None),
                  Piece(center, hi, right, degree=None)]
    else:
        pieces = [Piece(lo, hi, right, degree=None)]
    return RoughProfile(tuple(pieces), (), support)


def polynomial_piece_profile(coeffs: Sequence[float], lo: float,
                             hi: float) -> RoughProfile:
    """Single polynomial piece on its own support [lo, hi], coefficients in
    ascending powers of t; a single coefficient gives a constant piece."""
    poly = np.polynomial.Polynomial(list(coeffs))
    if len(coeffs) == 1:
        return RoughProfile((_constant_piece(lo, hi, poly.coef[0]),), (),
                            (lo, hi))

    def fn(t: Array) -> Array:
        return poly(t)

    return RoughProfile((Piece(lo, hi, fn, degree=len(coeffs) - 1),),
                        (), (lo, hi))


def point_mass_profile(location: float, order: int = 0,
                       weight: complex = 1.0) -> RoughProfile:
    return RoughProfile((), (PointMass(location, order, weight),),
                        (location, location))


def bump_profile(center: float, radius: float,
                 amplitude: float = 1.0) -> RoughProfile:
    """Compactly supported C^7 bump ``amplitude*(1-((x-c)/r)^2)^8``."""
    if radius <= 0:
        raise InvalidParameterError("bump radius must be positive")

    def fn(x: Array) -> Array:
        u = (x - center) / radius
        return amplitude * (1.0 - u * u) ** _BUMP_POWER

    return RoughProfile(
        (Piece(center - radius, center + radius, fn, degree=2 * _BUMP_POWER),),
        (), (center - radius, center + radius))


def box_profile(center: float, halfwidth: float,
                amplitude: float = 1.0) -> RoughProfile:
    if halfwidth <= 0:
        raise InvalidParameterError("box halfwidth must be positive")
    return RoughProfile(
        (_constant_piece(center - halfwidth, center + halfwidth, amplitude),),
        (), (center - halfwidth, center + halfwidth))


def zero_profile() -> RoughProfile:
    return RoughProfile((), (), (0.0, 0.0))


def extend_profile(profile: RoughProfile, pad: float,
                   span: tuple[float, float] | None = None) -> RoughProfile:
    """Continue the density constantly past both ends of ``span``, by
    default the extent of its pieces.

    Mollifying a coefficient that is meant to hold on a working interval
    must not see artificial jumps at the interval ends, so coefficient-type
    profiles are extended by their one-sided edge values before convolution.
    Pieces are cut to ``span``, and only the pieces that reach one of its
    ends are continued past it: a profile that is zero at an end stays zero
    beyond it.  Atoms are left untouched.
    """
    if pad <= 0:
        raise InvalidParameterError("extension pad must be positive")
    lo, hi = span if span is not None else (
        min((p.lo for p in profile.pieces), default=profile.support[0]),
        max((p.hi for p in profile.pieces), default=profile.support[1]))
    pieces = [p if lo <= p.lo and p.hi <= hi
              else Piece(max(p.lo, lo), min(p.hi, hi), p.fn, p.degree, p.value)
              for p in profile.pieces if p.lo < hi and p.hi > lo]
    head, tail = [], []
    # a constant edge piece is lengthened over the pad: an equal twin beside
    # it would round apart from it within the mollifier's reach of the
    # seam, so that the mollified profile is not bitwise constant there
    for edge, a, b, ends in ((lo, lo - pad, lo, head),
                             (hi, hi, hi + pad, tail)):
        for k, p in enumerate(pieces):
            if edge not in (p.lo, p.hi):
                continue
            if p.degree == 0:
                pieces[k] = _constant_piece(min(p.lo, a), max(p.hi, b),
                                            p.value)
            else:
                value = complex(np.asarray(p.fn(np.array([edge]))).ravel()[0])
                ends.append(_constant_piece(a, b, value))
    pieces = head + pieces + tail
    support = (min(profile.support[0], lo) - pad,
               max(profile.support[1], hi) + pad)
    return RoughProfile(tuple(pieces), profile.atoms, support)
