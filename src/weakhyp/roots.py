"""Characteristic root families and their separated mollified regularisations.

Root j along the unit direction d is r_j(t, d) = sum_k c_jk(t) g_k(d), with
lambda_j(t, xi) = r_j(t, xi/|xi|) |xi| (degree-one homogeneity).  eps enters
a regularisation only through its scale omega = omega(eps), which the caller
computes once; a :class:`RegularisedRoots` carries that number.  Convolution
is linear, so regularisation at scale omega convolves each coefficient c_jk
once and contracts with the features g(d), in ``direction_table`` for the
recovery and as c_j(t) g(xi/|xi|) |xi| for the solver's one-feature family.
The separating shift j*omega*<xi>, which gives the roots a gap of at least
omega*<xi>, and the speed bound it implies are written once, here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError
from .mollifiers import Convolution, Mollifier, convolve_profile, scale_mollifier
from .profiles import Piece, RoughProfile, constant_profile, extend_profile

#: coefficient-type profiles are continued past [0, T] by this margin so that
#: mollification near the interval ends sees no artificial jump
EDGE_PAD = 2.0

Array = np.ndarray

def bracket(xi: Array | float) -> Array:
    """The weight <xi> = (1 + |xi|^2)^(1/2) for scalar frequencies."""
    xi = np.asarray(xi, dtype=float)
    return np.sqrt(1.0 + xi * xi)


# -- scale functions -----------------------------------------------------------


@dataclass(frozen=True)
class OmegaScale:
    """Mollification scale eps -> omega(eps) in (0, 1]; omega(eps) is the
    one number through which eps enters a solve, and the constructors below
    keep it in range."""

    fn: Callable[[float], float]

    def __call__(self, epsilon: float) -> float:
        if not 0.0 < epsilon <= 1.0:
            raise InvalidParameterError(
                f"epsilon must lie in (0, 1], got {epsilon}")
        return float(self.fn(epsilon))


def linear_scale(coefficient: float = 1.0) -> OmegaScale:
    if not 0.0 < coefficient <= 1.0:
        raise InvalidParameterError("linear scale coefficient must be in (0, 1]")
    return OmegaScale(lambda e: coefficient * e)


def logarithmic_scale(n_exponent: int, order: int) -> OmegaScale:
    """omega(eps) = (ln(e + 1/eps))^(-1/(N + m^2 - m)); decays slower than
    any power of eps, which is what keeps the exponential energy factor
    polynomially bounded.  N + m^2 - m must be at least 1, so that omega
    is defined and lies in (0, 1]."""
    if order < 1:
        raise InvalidParameterError("order must be >= 1")
    if n_exponent + order * order - order < 1:
        raise InvalidParameterError(
            f"log exponent N + m^2 - m must be >= 1, got N={n_exponent} "
            f"with m={order}")
    expo = 1.0 / (n_exponent + order * order - order)
    return OmegaScale(lambda e: (math.log(math.e + 1.0 / e)) ** (-expo))


# -- root families ---------------------------------------------------------------


def _unit_direction(direction: Sequence[float]) -> tuple[float, ...]:
    d = np.asarray(direction, dtype=float).ravel()
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        raise InvalidParameterError("direction must be nonzero")
    return tuple(float(x) for x in d / norm)


@dataclass
class RootFamily:
    """m real bounded roots, homogeneous of degree one in the frequency:
    ``coefficients`` is the (m, n) matrix of padded time profiles c_jk, and
    ``features`` maps unit directions (D, dimension) to g(d) (D, n).

    ``bound`` bounds every |r_j(t, d)| on [0, horizon] over unit d.  The
    constructors take it from the coefficients' values
    (:func:`_value_range`): exactly from their degree-0 pieces, and from
    samples of any other piece.
    """

    order: int
    dimension: int
    coefficients: tuple[tuple[RoughProfile, ...], ...]
    features: Callable[[Array], Array]
    bound: float
    horizon: float = 1.0


def _even(directions: Array) -> Array:
    """g(d) = 1, the one feature of a direction-independent family."""
    return np.ones((len(directions), 1))


def _transformed_profile(profile: RoughProfile,
                         func: Callable[[Array], Array]) -> RoughProfile:
    """Apply a pointwise map to the density; degree-0 pieces stay degree 0,
    with the map applied to their value."""
    pieces = tuple(
        Piece(p.lo, p.hi,
              (lambda f: (lambda t: func(np.asarray(f(t)))))(p.fn),
              0 if p.degree == 0 else None,
              func(np.asarray(p.value))[()] if p.degree == 0 else None)
        for p in profile.pieces)
    if profile.atoms:
        raise InvalidParameterError("root profiles cannot carry atoms")
    return RoughProfile(pieces, (), profile.support)


def _value_range(profile: RoughProfile, horizon: float
                 ) -> tuple[float, float]:
    """Least and largest value of the real density on [0, horizon].

    A degree-0 piece counts with its value; any other piece with the least
    and largest of its values at its ends and at the times of a 513-point
    grid on [0, horizon] inside it.  The pieces covering a time add up, and
    that set changes only at piece edges, so reading every edge gives the
    range exactly where the density is piecewise constant.
    """
    ranges = []
    for p in profile.pieces:
        if p.degree == 0:
            value = complex(p.value).real
            ranges.append((p.lo, p.hi, value, value))
            continue
        a, b = max(p.lo, 0.0), min(p.hi, horizon)
        if a > b:
            continue
        grid = np.linspace(0.0, horizon, 513)
        t = np.concatenate([[a], grid[(grid > a) & (grid < b)], [b]])
        values = np.real(np.asarray(p.fn(t)))
        ranges.append((p.lo, p.hi, float(values.min()), float(values.max())))
    # the density's pieces are half-open, but the right-most one is closed
    top = max((p.hi for p in profile.pieces), default=None)
    points = {0.0, horizon}.union(
        e for lo, hi, _, _ in ranges for e in (lo, hi) if 0.0 <= e <= horizon)
    sums = [[(least, most) for lo, hi, least, most in ranges
             if lo <= x and (x < hi or x == hi == top)] for x in points]
    return (min(sum((least for least, _ in c), 0.0) for c in sums),
            max(sum((most for _, most in c), 0.0) for c in sums))


def _sup_abs(profiles: Sequence[RoughProfile], horizon: float) -> float:
    """The largest |density| of ``profiles`` on [0, horizon]."""
    return max((max(-least, most) for least, most in
                (_value_range(p, horizon) for p in profiles)), default=0.0)


def constant_roots(values: Sequence[float], dimension: int = 1,
                   horizon: float = 1.0) -> RootFamily:
    """Constant roots r_j = values[j-1], which must be ordered, r_1 <= ...
    <= r_m."""
    vals = [float(v) for v in values]
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise InvalidParameterError(
            f"root values must be ordered, r_1 <= ... <= r_m: got {vals}")
    pad = (-EDGE_PAD, horizon + EDGE_PAD)
    return RootFamily(order=len(vals), dimension=dimension,
                      coefficients=tuple((constant_profile(v, pad),)
                                         for v in vals),
                      features=_even,
                      bound=max((abs(v) for v in vals), default=0.0),
                      horizon=horizon)


def roots_from_time_profiles(profiles: Sequence[RoughProfile],
                             dimension: int = 1, horizon: float = 1.0
                             ) -> RootFamily:
    """Direction-independent family (even symbols, e.g. wave-type).

    The profiles must be ordered, r_1 <= ... <= r_m, at 257 times on
    [0, T]: the separating shift keeps ordered roots apart, and coincident
    ones are allowed.  ``bound`` is the largest |r_j| on [0, T], exact on
    constant pieces and sampled on the others (see :func:`_value_range`).
    """
    profs = [extend_profile(p, EDGE_PAD) for p in profiles]
    t = np.linspace(0.0, horizon, 257)
    vals = np.array([p.density(t) for p in profs])
    crossed = np.argwhere(np.diff(np.real(vals), axis=0) < 0.0)
    if crossed.size:
        j, k = crossed[0]
        raise InvalidParameterError(
            f"root profiles must be ordered, r_1 <= ... <= r_m: "
            f"r_{j + 2} < r_{j + 1} at t={t[k]:g}")
    return RootFamily(order=len(profs), dimension=dimension,
                      coefficients=tuple((p,) for p in profs),
                      features=_even, bound=_sup_abs(profs, horizon),
                      horizon=horizon)


def roots_from_linear_forms(coeff_profiles: Sequence[Sequence[RoughProfile]]
                            ) -> RootFamily:
    """r_j(t, d) = sum_k c_jk(t) d_k on [0, 1]; polynomial symbols for every
    order.

    Ordering of distinct linear forms can only hold on the closed positive
    orthant (componentwise-increasing coefficients), which is where the
    recovery plans sample; the caller keeps the family ordered there.
    """
    padded = tuple(tuple(extend_profile(c, EDGE_PAD) for c in row)
                   for row in coeff_profiles)
    n = len(padded[0])
    bound = _sup_abs([c for row in padded for c in row], 1.0) * math.sqrt(n)
    return RootFamily(order=len(padded), dimension=n, coefficients=padded,
                      features=lambda d: d, bound=bound)


def wave_speed_roots(speed: RoughProfile, horizon: float = 1.0) -> RootFamily:
    """Second-order pair -/+ sqrt(a(t)) |xi| from a speed profile that is
    positive on [0, T] (checked as :func:`_value_range` reads it)."""
    if _value_range(speed, horizon)[0] <= 0.0:
        raise InvalidParameterError("wave speed profile must be positive")
    plus = _transformed_profile(speed, np.sqrt)
    return roots_from_time_profiles([plus.scaled(-1.0), plus], dimension=1,
                                    horizon=horizon)


def transport_roots(speed: float, horizon: float = 1.0) -> RootFamily:
    """Single root a*xi (odd symbol), any sign of the speed: the coefficient
    |a| with the feature sign(a)*d_0."""
    sign = math.copysign(1.0, speed)
    return RootFamily(order=1, dimension=1,
                      coefficients=((constant_profile(
                          abs(speed), (-EDGE_PAD, horizon + EDGE_PAD)),),),
                      features=lambda d: sign * d[:, :1],
                      bound=abs(speed), horizon=horizon)


# -- regularisation ---------------------------------------------------------------


def separating_shift(order: int, w: float, br: Array) -> Array:
    """The shifts j*w*<xi> (order, K) for j = 1..order, from the weights
    ``br`` = <xi> (K,) at the scale w = omega(eps)."""
    return np.arange(1, order + 1)[:, None] * (w * br)


def speed_bound(family: RootFamily, w: float) -> float:
    """Bound on |lambda_j,eps| / <xi>: the family's bound plus the largest
    separating shift at the scale w = omega(eps)."""
    return family.bound + family.order * w


@dataclass
class RegularisedRoots:
    """Mollified root family lambda_j * phi_omega at the scale
    ``omega`` = omega(eps), without the separating shift (which
    :func:`separating_shift` gives); this part keeps the exact degree-one
    homogeneity and is what coefficient recovery consumes.  The ordering of
    ``base`` is checked by the family constructors."""

    base: RootFamily
    mollifier: Mollifier
    omega: float

    @property
    def order(self) -> int:
        return self.base.order

    def convolved(self) -> Convolution:
        """The (m, n) coefficient profiles, row by row, convolved at the
        scale omega as one stack of m * n rows."""
        kernel = scale_mollifier(self.mollifier, self.omega)
        return convolve_profile(
            [c for row in self.base.coefficients for c in row], kernel)

    def direction_table(self, t: Array,
                        directions: Sequence[Sequence[float]]) -> Array:
        """Convolved profile values (len(directions), m, len(t)) along the
        unit vectors of ``directions``, in their order: the recovery's and
        its round trip's one path to root profiles.  The coefficients are
        convolved in one call, and the convolutions are contracted with the
        features by multiply-adds in feature order, elementwise in the
        direction, so a row's bits do not depend on the batch, and n = 1 is
        exact."""
        base = self.base
        n = len(base.coefficients[0])
        values = np.real(self.convolved()(t)).reshape(
            self.order, n, np.size(t))
        units = np.array([_unit_direction(d) for d in directions]).reshape(
            len(directions), base.dimension)
        g = base.features(units)[:, :, None, None]
        table = g[:, 0] * values[:, 0]
        for k in range(1, n):
            table = table + g[:, k] * values[:, k]
        return table


# -- time derivatives by finite differences ------------------------------------------

#: 4th-order central stencils of d^k/dt^k: offsets and weights per order k
_FD4 = {
    1: ((-2, -1, 1, 2), (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)),
    2: ((-2, -1, 0, 1, 2),
        (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)),
    3: ((-3, -2, -1, 1, 2, 3),
        (-1.0 / 8.0, 1.0, -13.0 / 8.0, 13.0 / 8.0, -1.0, 1.0 / 8.0)),
    4: ((-3, -2, -1, 0, 1, 2, 3),
        (-1.0 / 6.0, 2.0, -13.0 / 2.0, 28.0 / 3.0, -13.0 / 2.0, 2.0,
         -1.0 / 6.0)),
}


def dt_power(sample: Callable[[int], Array], order: int, h: float) -> Array:
    """D_t^order (D_t = -i d/dt) by 4th-order central differences.

    ``sample(k)`` is the value k steps of length h from the point of
    evaluation: a function evaluated at t + k h, or an array slice shifted
    by k.
    """
    if order == 0:
        return np.asarray(sample(0), dtype=complex)
    offsets, weights = _FD4[order]
    acc = None
    for off, wgt in zip(offsets, weights):
        term = wgt * np.asarray(sample(off), dtype=complex)
        acc = term if acc is None else acc + term
    return (-1j) ** order * acc / h ** order

