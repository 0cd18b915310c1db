"""Test oracles and fakes shared by several test modules.

Nothing in the package calls these: a recovered coefficient as a callable
of t, a substitute principal part, the relative energy drift of a trace, and
the approximation-rate audit of the cutoff mollifier.  Test modules import
them as ``oracles``; pytest's default import mode puts ``tests/`` on
``sys.path``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from weakhyp._stats import linear_fit
from weakhyp.errors import (ConfigurationError, InsufficientDataError,
                            InvalidParameterError, UnsupportedError)
from weakhyp.mollifiers import GevreyCutoffMollifier
from weakhyp.profiles import RoughProfile
from weakhyp.recovery import HomogeneousCoefficientSet
from weakhyp.reduction import Index, companion_blocks
from weakhyp.roots import bracket
from weakhyp.solver import EnergyTrace

Array = np.ndarray


def coefficient(cset: HomogeneousCoefficientSet, nu: tuple[int, ...]
                ) -> Callable[[Array], Array]:
    """The recovered coefficient a_nu as a callable of t (a float at a
    scalar t)."""
    def call(t):
        out = cset.evaluate(t)[tuple(nu)]
        return float(out[0]) if np.ndim(t) == 0 else out
    return call


@dataclass
class PolynomialPrincipal:
    """Principal symbols from per-degree coefficient callables (n = 1).

    ``coefficients[d]`` evaluates the degree-d coefficient a_d(t); the last
    row entries are ``a_{m-j+1}(t) xi^{m-j+1} <xi>^{j-m}``.  Root values come
    from companion eigenvalues.
    """

    order: int
    coefficients: Mapping[int, Callable[[Array], Array]]
    speed_bound: float = 1.0

    def __post_init__(self):
        missing = [d for d in range(1, self.order + 1)
                   if d not in self.coefficients]
        if missing:
            raise ConfigurationError(
                f"missing principal coefficient degree(s) {missing}",
                field="principal")

    @staticmethod
    def from_coefficient_sets(sets: Mapping[int, HomogeneousCoefficientSet],
                              speed_bound: float = 1.0) -> "PolynomialPrincipal":
        coeffs = {}
        for degree, cset in sets.items():
            if cset.dimension != 1:
                raise UnsupportedError("companion assembly is one-dimensional")
            coeffs[degree] = coefficient(cset, (degree,))
        return PolynomialPrincipal(order=max(sets), coefficients=coeffs,
                                   speed_bound=speed_bound)

    def roots(self, t: Array, xi: Array) -> Array:
        """Sorted companion eigenvalues (T, m, K) at the times ``t``."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        mats = companion_blocks(self.row_provider(t, xi)(slice(None)),
                                bracket(xi))
        return np.swapaxes(np.sort(np.real(np.linalg.eigvals(mats)),
                                   axis=-1), 1, 2)

    def row_provider(self, t: Array, xi: Array) -> Callable[[Index], Array]:
        """Last rows (T, m, K) at the times ``t[index]``."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        br = bracket(xi)
        m = self.order
        monomials = np.empty((m, xi.size))
        values = np.empty((t.size, m))
        for j in range(1, m + 1):
            d = m - j + 1
            monomials[j - 1] = xi ** d * br ** (j - m)
            values[:, j - 1] = np.real(np.asarray(
                self.coefficients[d](t), dtype=complex))

        def rows(index: Index) -> Array:
            return values[index, :, None] * monomials

        return rows

    def max_normalised_speed(self) -> float:
        return self.speed_bound


def max_relative_drift(trace: EnergyTrace) -> float:
    """Largest |E(t) - E(0)| / E(0) of an energy trace (absolute when
    E(0) <= 0)."""
    e0 = float(trace.energies[0])
    if e0 <= 0.0:
        return float(np.max(np.abs(trace.energies)))
    return float(np.max(np.abs(trace.energies - e0)) / e0)


@dataclass(frozen=True)
class ApproximationRateFit:
    """Fitted decay order of the cutoff-mollifier approximation error."""

    q_hat: float
    r_squared: float
    omegas: tuple[float, ...]
    errors: tuple[float, ...]
    exact: bool
    nu: float
    s: float


def fourier_approximation_rate(p: RoughProfile, g: GevreyCutoffMollifier,
                               s: float, xi_grid: Array,
                               omegas: Sequence[float] | None = None,
                               nu: float = 2.0) -> ApproximationRateFit:
    """Fit the order of ``sup_xi |FT(p*rho_w) - FT(p)| exp(-nu <xi>^(1/s))``.

    Sweeps the cutoff-mollifier scale, measures the weighted transform error
    on the given frequency grid and regresses log-error on log-scale.  A base
    kernel with q vanishing moments yields a fitted order of at least q.
    """
    if g.base.moment_order < 1:
        raise InvalidParameterError(
            "approximation-rate fit needs a kernel with vanishing moments")
    if omegas is None:
        omegas = tuple(float(w) for w in np.geomspace(0.01, 0.1, 8))
    if len(omegas) < 3:
        raise InsufficientDataError(
            "approximation-rate fit needs at least 3 scale samples")
    xi = np.asarray(xi_grid, dtype=float)
    if xi.size == 0:
        raise InvalidParameterError("frequency grid is empty")
    weight = np.exp(-nu * (1.0 + xi ** 2) ** (0.5 / s))
    p_hat = p.fourier_transform(xi)
    errors = []
    for w in omegas:
        rho_hat = g.with_scale(w).fourier_transform(xi)
        errors.append(float(np.max(np.abs(p_hat * (rho_hat - 1.0)) * weight)))
    errors_arr = np.asarray(errors)
    if np.all(errors_arr < 1e-300):
        return ApproximationRateFit(math.inf, 1.0, tuple(omegas),
                                    tuple(errors), True, nu, s)
    slope, _, r2 = linear_fit(np.log(np.asarray(omegas)), np.log(errors_arr))
    return ApproximationRateFit(float(slope), float(r2), tuple(omegas),
                                tuple(errors), False, nu, s)
