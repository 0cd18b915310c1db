"""Friedrichs-type mollifiers, the data kernel and profile convolution.

Kernels are polynomial bumps on a compact interval, so unit mass and
vanishing moments are linear conditions solved exactly and derivatives of
any order are available in closed form.  Convolution against a constant
density piece is a difference of one kernel primitive at two clipped
kernel-variable endpoints; higher-degree polynomial pieces are integrated
by a Gauss-Legendre panel exact for their degree, and general smooth pieces
adaptively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial import Polynomial

from ._quadrature import adaptive_panel, fixed_panel, oscillatory_panel
from .errors import InvalidParameterError
from .profiles import RoughProfile

Array = np.ndarray

#: exponent of the bump factor (1 - t^2)^power of every kernel
KERNEL_POWER = 8


@dataclass(frozen=True)
class Mollifier:
    """Smooth compactly supported kernel ``scale^-1 * P(t/scale)``.

    ``base_poly`` lives on [-1, 1] and integrates to 1 there; the physical
    kernel at scale ``s`` has support radius ``s`` and unchanged unit mass.
    """

    base_poly: Polynomial
    scale: float = 1.0

    @property
    def support_radius(self) -> float:
        return self.scale

    @property
    def degree(self) -> int:
        return len(self.base_poly.coef) - 1

    def __call__(self, t: Array | float) -> Array:
        return self.derivative(t, 0)

    def derivative(self, t: Array | float, k: int = 1) -> Array:
        """k-th kernel derivative, identically zero outside the support."""
        t = np.asarray(t, dtype=float)
        u = t / self.scale
        inside = np.abs(u) <= 1.0
        out = np.zeros(t.shape, dtype=float)
        if np.any(inside):
            poly = self.base_poly.deriv(k) if k else self.base_poly
            out[inside] = poly(u[inside]) / self.scale ** (k + 1)
        return out


def _even_moment_table(max_even: int) -> dict[int, float]:
    """Exact values of ``int_{-1}^{1} u^k (1-u^2)^KERNEL_POWER du`` for even
    k."""
    base = Polynomial([1.0, 0.0, -1.0]) ** KERNEL_POWER
    table = {}
    for k in range(0, max_even + 1, 2):
        poly = base * Polynomial([0.0, 1.0]) ** k if k else base
        anti = poly.integ()
        table[k] = float(anti(1.0) - anti(-1.0))
    return table


def friedrichs_mollifier() -> Mollifier:
    """Unit-mass bump ``c (1 - t^2)^KERNEL_POWER`` on [-1, 1]."""
    poly = Polynomial([1.0, 0.0, -1.0]) ** KERNEL_POWER
    anti = poly.integ()
    mass = float(anti(1.0) - anti(-1.0))
    return Mollifier(poly / mass)


def vanishing_moment_mollifier(q: int) -> Mollifier:
    """Bump kernel whose moments 1..q vanish exactly.

    Built as an even polynomial weight times ``(1-t^2)^KERNEL_POWER``; odd
    moments vanish by symmetry and the even ones are killed by a small exact
    linear solve, so no tabulation or truncation error enters the kernel.
    """
    if q < 0:
        raise InvalidParameterError("moment order must be >= 0")
    n_even = q // 2 + 1  # unknown even weight coefficients a_0, a_2, ...
    table = _even_moment_table(4 * (n_even - 1) + 2)
    system = np.array([[table[2 * r + 2 * i] for i in range(n_even)]
                       for r in range(n_even)])
    rhs = np.zeros(n_even)
    rhs[0] = 1.0
    weights = np.linalg.solve(system, rhs)
    coefs = np.zeros(2 * n_even - 1)
    coefs[::2] = weights
    poly = Polynomial(coefs) * Polynomial([1.0, 0.0, -1.0]) ** KERNEL_POWER
    return Mollifier(poly)


def scale_mollifier(m: Mollifier, epsilon: float) -> Mollifier:
    """Rescale: kernel_eps(t) = eps^-1 kernel(t/eps); unit mass preserved."""
    if not epsilon > 0:
        raise InvalidParameterError(f"scale must be positive, got {epsilon}")
    return replace(m, scale=m.scale * epsilon)


# -- cutoff mollifier ---------------------------------------------------------


@dataclass(frozen=True)
class GevreyCutoffMollifier:
    """The data kernel ``w^-1 base(x/w)`` of scale w in (0, 1].

    Garetto and Ruzhansky multiply the scaled kernel by a plateau cutoff
    ``chi(x |log w|)`` that is one on ``|x| |log w| <= 2``.  On the support
    ``|x| <= w`` of a base kernel on [-1, 1], ``|x| |log w| <= w |log w|
    <= 1/e`` for every w in (0, 1], so the cutoff is one wherever the kernel
    is nonzero, and the kernel keeps the base's unit mass and vanishing
    moments.
    """

    base: Mollifier
    scale: float

    def __post_init__(self):
        if not 0 < self.scale <= 1:
            raise InvalidParameterError(
                f"cutoff mollifier scale must lie in (0, 1], got {self.scale}")

    @property
    def support_radius(self) -> float:
        return self.scale * self.base.support_radius

    def __call__(self, x: Array | float) -> Array:
        return scale_mollifier(self.base, self.scale)(x)

    def fourier_transform(self, xi: Array) -> Array:
        r = self.support_radius
        return oscillatory_panel(self.__call__, -r, r, np.asarray(xi, float))


# -- convolution ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _primitive_coefficients(base_coef: tuple[float, ...], k: int) -> Array:
    """Coefficients of Q with ``int P^(k) du = Q``: ``int P`` for k = 0,
    ``P^(k-1)`` otherwise, for the base polynomial P given by ``base_coef``."""
    poly = Polynomial(base_coef)
    return (poly.integ() if k == 0 else poly.deriv(k - 1)).coef


class Convolution:
    """Smooth function ``(profile * kernel)``, optionally differentiated, of
    one profile or of a stack of them.

    A stack gives one row per profile, in order; one profile is the
    one-row case, called without the row axis.  Atoms convolve
    analytically into kernel derivatives.  Constant density pieces on
    [lo, hi) are summed in closed form, each with the constant its
    ``Piece`` carries as ``value``, so that building a convolution calls no
    profile function: with the kernel variable ``u = (t - s)/scale``
    clipped to the base support [-1, 1], each adds
    ``c * [Q(u_hi) - Q(u_lo)] / scale^k`` where ``u_lo`` comes from ``hi``
    and ``u_hi`` from ``lo``, and ``Q`` is the primitive of the k-th
    derivative of the base polynomial.  The constant pieces of the whole
    stack take one pass, and each row sums its own in piece order, so a
    row's bits are those of its profile convolved alone when the stack's
    constants are all real, or all complex, as in a single profile or a
    root family's coefficients.  Pieces of higher
    declared degree are integrated exactly by a fixed Gauss-Legendre panel,
    and pieces with ``degree=None`` adaptively (to the quadrature's default
    absolute tolerance), profile by profile.
    """

    def __init__(self, profiles: RoughProfile | Sequence[RoughProfile],
                 kernel: Mollifier, derivative: int = 0):
        self.stacked = not isinstance(profiles, RoughProfile)
        self.profiles = tuple(profiles) if self.stacked else (profiles,)
        self.kernel = kernel
        self.derivative_order = derivative
        constant = [[p for p in prof.pieces if p.degree == 0]
                    for prof in self.profiles]
        self._other_pieces = [[p for p in prof.pieces if p.degree != 0]
                              for prof in self.profiles]
        # axes: piece slot, profile, point.  A profile with fewer constant
        # pieces fills its last slots with zero values on zero-length
        # spans, whose +0.0 leaves each running sum's bits as they are
        depth = max(map(len, constant), default=0)
        slots = [[(p.hi, p.lo, p.value) for p in pieces]
                 + [(0.0, 0.0, 0.0)] * (depth - len(pieces))
                 for pieces in constant]
        hi, lo, values = np.array(slots, dtype=complex).reshape(
            len(constant), depth, 3).transpose(2, 1, 0)[..., None]
        # rows u_lo (from each piece's hi), then u_hi (from its lo)
        self._const_edges = np.concatenate([hi.real, lo.real])
        self._const_values = values if np.any(values.imag) else values.real
        self._primitive = _primitive_coefficients(
            tuple(kernel.base_poly.coef), derivative)

    def __call__(self, t: Array | float) -> Array:
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros((len(self.profiles),) + t.shape, dtype=complex)
        k = self.derivative_order
        kernel = self.kernel
        r = kernel.support_radius
        for row, profile in zip(out, self.profiles):
            for atom in profile.atoms:
                row += atom.weight * kernel.derivative(t - atom.location,
                                                       atom.order + k)
        # work in the kernel variable: the clipped endpoints are then built at
        # the kernel scale, immune to cancellation when the scale is many
        # orders below |t|
        t_flat = t.ravel()
        depth = self._const_edges.shape[0] // 2
        if depth:
            w = kernel.scale
            # in place, so that a stack's temporaries stay two arrays of
            # its edges' size
            u = t_flat - self._const_edges
            u /= w
            np.clip(u, -1.0, 1.0, out=u)
            # Horner's rule, with the operations of numpy's polyval
            q = np.full_like(u, self._primitive[-1])
            for c in self._primitive[-2::-1]:
                q *= u
                q += c
            mass = q[depth:] - q[:depth]
            # cumsum, not sum: numpy sums a single column pairwise
            total = (self._const_values * mass).cumsum(axis=0)[-1]
            out += (total / w ** k).reshape(out.shape)
        for row, pieces in zip(out, self._other_pieces):
            for piece in pieces:
                lo_y = np.maximum(-r, t - piece.hi)
                hi_y = np.minimum(r, t - piece.lo)

                if piece.degree is not None:
                    def exact_integrand(y: Array, _fn=piece.fn) -> Array:
                        return np.asarray(_fn(t[..., None] - y)) \
                            * kernel.derivative(y, k)

                    n_exact = (piece.degree + kernel.degree) // 2 + 2
                    row += fixed_panel(exact_integrand, lo_y, hi_y, n_exact)
                else:
                    def integrand(y: Array, idx: Array, _fn=piece.fn
                                  ) -> Array:
                        return np.asarray(_fn(t_flat[idx][:, None] - y)) \
                            * kernel.derivative(y, k)

                    contrib = adaptive_panel(integrand, lo_y, hi_y,
                                             context="profile convolution")
                    row += contrib.reshape(t.shape)
        if np.max(np.abs(out.imag), initial=0.0) == 0.0:
            out = out.real
        out = out if self.stacked else out[0]
        return out[..., 0] if scalar else out


def convolve_profile(p: RoughProfile | Sequence[RoughProfile], m: Mollifier,
                     derivative: int = 0) -> Convolution:
    """Smooth callable ``t -> (p * m)(t)`` (or its derivative), of one
    profile or, one row each, of a stack of them."""
    if not math.isfinite(m.support_radius) or m.support_radius <= 0:
        raise InvalidParameterError("kernel must have positive finite support")
    return Convolution(p, m, derivative=derivative)

