"""Test oracles and fakes shared by several test modules.

Nothing in the package calls these: recovered coefficients from a sigma
table of their own plan (all at once, one as a callable of t, and their
polynomial reconstruction of sigma), a substitute principal part, the
relative energy drift and the fitted growth rate of a trace, the
approximation-rate audit of the
cutoff mollifier, the staged RK4 loop that the integrator's step matrices
replace on constant stretches and the per-entry pass that found those
stretches by comparing rows, the tau-coefficients of an adjugate, the
per-item paths that the batched audits replaced (the per-tuple symmetriser
and its audit loop, and the per-root symmetric functions of the recovery),
and the per-direction root profiles that the coefficient contraction
replaced, with the per-root regularised values, pure and with the
separating shift.
Test modules import them as ``oracles``; pytest's default import mode puts
``tests/`` on ``sys.path``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from weakhyp.analysis import linear_fit
from weakhyp.errors import (ConfigurationError, InsufficientDataError,
                            InvalidParameterError, UnsupportedError)
from weakhyp.mollifiers import (GevreyCutoffMollifier, convolve_profile,
                                scale_mollifier)
from weakhyp.profiles import RoughProfile
from weakhyp.recovery import HomogeneousCoefficientSet, sigma_table
from weakhyp.reduction import (CompanionSystem, Index, PolynomialMatrix,
                               _faddeev, characteristic_polynomial,
                               companion_matrix, companion_row)
from weakhyp.roots import RegularisedRoots, RootFamily, bracket
from weakhyp.solver import EnergyTrace

Array = np.ndarray

#: the trapezoidal rule; numpy before 2.0 names it ``trapz``
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def coefficient(cset: HomogeneousCoefficientSet, nu: tuple[int, ...]
                ) -> Callable[[Array], Array]:
    """The recovered coefficient a_nu as a callable of t (a float at a
    scalar t)."""
    def call(t):
        out = evaluate(cset, t)[tuple(nu)]
        return float(out[0]) if np.ndim(t) == 0 else out
    return call


def evaluate(cset: HomogeneousCoefficientSet, t: Array | float
             ) -> Mapping[tuple[int, ...], Array]:
    """Every coefficient of ``cset`` at the times ``t``, from a sigma table
    of the plan's directions alone."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    return cset.evaluate(t_arr, sigma_table(cset.roots, t_arr,
                                            cset.plan.directions))


def sigma_hat(cset: HomogeneousCoefficientSet, t: float,
              xi: Sequence[float]) -> float:
    """-sum_nu a_nu(t) xi^nu at one time, the polynomial reconstruction of
    the degree's symmetric function."""
    return -sum(float(vals[0]) * math.prod(x ** k for x, k in zip(xi, nu))
                for nu, vals in evaluate(cset, t).items())


@dataclass
class PolynomialPrincipal:
    """Principal symbols from per-degree coefficient callables (n = 1).

    ``coefficients[d]`` evaluates the degree-d coefficient a_d(t); the last
    row entries are ``a_{m-j+1}(t) xi^{m-j+1} <xi>^{j-m}``.  Root values come
    from companion eigenvalues.
    """

    order: int
    coefficients: Mapping[int, Callable[[Array], Array]]

    def __post_init__(self):
        missing = [d for d in range(1, self.order + 1)
                   if d not in self.coefficients]
        if missing:
            raise ConfigurationError(
                f"missing principal coefficient degree(s) {missing}",
                field="principal")

    @staticmethod
    def from_coefficient_sets(sets: Mapping[int, HomogeneousCoefficientSet]
                              ) -> "PolynomialPrincipal":
        coeffs = {}
        for degree, cset in sets.items():
            if cset.dimension != 1:
                raise UnsupportedError("companion assembly is one-dimensional")
            coeffs[degree] = coefficient(cset, (degree,))
        return PolynomialPrincipal(order=max(sets), coefficients=coeffs)

    def roots(self, t: Array, xi: Array) -> Array:
        """Sorted companion eigenvalues (T, m, K) at the times ``t``."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        mats = companion_matrix(
            np.moveaxis(self.row_provider(t, xi)(slice(None)), 1, 0),
            bracket(xi))
        return np.swapaxes(np.sort(np.real(np.linalg.eigvals(mats)),
                                   axis=-1), 1, 2)

    def row_provider(self, t: Array, xi: Array) -> Callable[[Index], Array]:
        """Last rows (T, m, K) at the times ``t[index]``; ``steady`` marks
        the neighbouring times where every coefficient's bits are equal."""
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

        bits = values.view(np.int64)
        rows.steady = (bits[1:] == bits[:-1]).all(axis=1)
        return rows


def constant_entries(system: CompanionSystem, xi: Array, t_grid: Array
                     ) -> Array:
    """(nt, K): whether entry k's last rows, principal plus lower, are equal
    at every stage time that step i of the integrator reads, the quarter
    points of its step-doubling steps included, compared entry by entry; a
    forced problem has none.  The per-entry pass that the integrator's
    per-member ``steady`` steps replaced."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float)
    nt = t_grid.size - 1
    if system.forcing is not None:
        return np.zeros((nt, xi.size), dtype=bool)
    h = float(t_grid[1] - t_grid[0])
    # stage times as indices on the quarter-step lattice t_0 + q h / 4
    doubled = 4 * np.arange(0, nt, max(1, nt // 100))
    lattice = np.union1d(np.arange(0, 4 * nt + 1, 2),
                         np.concatenate([doubled + 1, doubled + 3]))
    stage_times = t_grid[0] + 0.25 * h * lattice
    rows = system.principal.row_provider(stage_times, xi)(slice(None))
    if system.lower is not None:
        rows = rows + system.lower.row_provider(stage_times, xi)(slice(None))
    same = (rows[1:] == rows[:-1]).all(axis=1)  # (intervals, K)
    starts = np.searchsorted(lattice, 4 * np.arange(nt + 1))
    return np.array([same[starts[i]:starts[i + 1]].all(axis=0)
                     for i in range(nt)]).reshape(nt, xi.size)


def staged_rk4(system: CompanionSystem, xi: Array, t_grid: Array) -> Array:
    """States (nt + 1, m, K) of fixed-step RK4 for D_t V = (A + B) V + F,
    one step at a time, each stage reading the rows and forcing at its own
    time, with the integrator's arithmetic for one member."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float)
    nt = t_grid.size - 1
    h = float(t_grid[1] - t_grid[0])
    # stage time k is the half step t_0 + k h / 2, as the integrator forms it
    stage_times = t_grid[0] + 0.25 * h * np.arange(0, 4 * nt + 1, 2)
    rows = system.principal.row_provider(stage_times, xi)(slice(None))
    if system.lower is not None:
        rows = rows + system.lower.row_provider(stage_times, xi)(slice(None))
    force = None if system.forcing is None else \
        system.forcing.values_provider(stage_times, xi)(slice(None))
    ibr = 1j * bracket(xi)

    def rhs(k: int, state: Array) -> Array:
        out = np.empty_like(state)
        out[:-1] = ibr * state[1:]
        last = (rows[k] * state).sum(axis=0)
        if force is not None:
            last = last + force[k]
        out[-1] = 1j * last
        return out

    states = [system.V0(xi).astype(complex)]
    for i in range(nt):
        v = states[-1]
        k1 = rhs(2 * i, v)
        k2 = rhs(2 * i + 1, v + 0.5 * h * k1)
        k3 = rhs(2 * i + 1, v + 0.5 * h * k2)
        k4 = rhs(2 * i + 2, v + h * k3)
        states.append(v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(states)


def fitted_growth_rate(trace: EnergyTrace) -> float | None:
    """Least-squares slope of log E(t) over the times where E > 1e-300, or
    None with fewer than two such times."""
    positive = trace.energies > 1e-300
    if np.count_nonzero(positive) < 2:
        return None
    slope, _, _ = linear_fit(trace.times[positive],
                             np.log(trace.energies[positive]))
    return float(slope)


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
                               q: int, s: float, xi_grid: Array,
                               omegas: Sequence[float] | None = None,
                               nu: float = 2.0) -> ApproximationRateFit:
    """Fit the order of ``sup_xi |FT(p*rho_w) - FT(p)| exp(-nu <xi>^(1/s))``.

    Sweeps the cutoff-mollifier scale, measures the weighted transform error
    on the given frequency grid and regresses log-error on log-scale.  A base
    kernel with ``q`` vanishing moments, as its caller built it, yields a
    fitted order of at least q.
    """
    if q < 1:
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
        rho_hat = GevreyCutoffMollifier(g.base, w).fourier_transform(xi)
        errors.append(float(np.max(np.abs(p_hat * (rho_hat - 1.0)) * weight)))
    errors_arr = np.asarray(errors)
    if np.all(errors_arr < 1e-300):
        return ApproximationRateFit(math.inf, 1.0, tuple(omegas),
                                    tuple(errors), True, nu, s)
    slope, _, r2 = linear_fit(np.log(np.asarray(omegas)), np.log(errors_arr))
    return ApproximationRateFit(float(slope), float(r2), tuple(omegas),
                                tuple(errors), False, nu, s)


def adjugate_coefficients(poly: PolynomialMatrix, t: float, xi: float
                          ) -> Array:
    """The (m, m, m) coefficients of ``poly`` at (t, xi): slice [..., k]
    multiplies tau^k."""
    mats, _ = _faddeev(np.asarray(poly.a_eval(t, xi)))
    out = np.empty((poly.size, poly.size, poly.size), dtype=complex)
    for k, mat in enumerate(mats):
        out[..., poly.size - 1 - k] = mat
    return out


# -- the per-tuple symmetriser ------------------------------------------------------


def eigenvector_rows(mu: Sequence[float]) -> Array:
    """Rows of left-eigenvector coefficients, one tuple at a time: W[i]
    holds, ascending in tau, the coefficients of prod_{j != i} (tau - mu_j).
    """
    mu = np.asarray(mu, dtype=float)
    m = mu.size
    rows = np.empty((m, m))
    for i in range(m):
        others = np.delete(mu, i)
        descending = np.real(characteristic_polynomial(others)) \
            if others.size else np.array([1.0])
        rows[i] = descending[::-1]
    return rows


def symmetriser_figures(mu: Sequence[float], vectors: Array,
                        omega: float | None) -> dict:
    """Every figure of one tuple's symmetriser audit, computed alone.

    ``vectors`` (trials, m) are the complex trial vectors; the bound
    violations are counted.
    """
    mu = np.asarray(mu, dtype=float)
    m = mu.size
    rows = eigenvector_rows(mu)
    gram = rows.T @ rows
    s = 0.5 * (gram + gram.T)
    det_w = float(np.linalg.det(rows)) if m > 1 else 1.0
    det_value = det_w ** 2
    spacing = float(np.min(np.diff(mu))) if m > 1 else math.inf
    a = companion_matrix(companion_row(characteristic_polynomial(mu)))
    num = float(np.linalg.norm(s @ a - a.T @ s, 2))
    den = max(float(np.linalg.norm(s, 2)) * float(np.linalg.norm(a, 2)),
              1e-300)
    vandermonde = 1.0
    for i, j in itertools.combinations(range(m), 2):
        vandermonde *= (mu[j] - mu[i]) ** 2
    eigen = np.linalg.eigvalsh(s)
    min_form = math.inf
    max_form = -math.inf
    for v in vectors:
        v = v / np.linalg.norm(v)
        q = float(np.real(np.conj(v) @ s @ v))
        min_form = min(min_form, q)
        max_form = max(max_form, q)
    lam_min = float(eigen[0])
    lam_max = float(eigen[-1])
    violations = 0
    if min_form < det_value / max(lam_max, 1e-300) ** (m - 1) - 1e-12:
        violations += 1
    if lam_min < -1e-12 * max(lam_max, 1.0):
        violations += 1
    det_floor = None
    if omega is not None and spacing >= omega:
        det_floor = omega ** (m * m - m)
        if det_value < det_floor * (1.0 - 1e-12):
            violations += 1
    return {"matrix": s, "det_value": det_value, "spacing": spacing,
            "intertwining": num / den, "vandermonde": vandermonde,
            "min_form": min_form, "max_form": max_form, "eigen_min": lam_min,
            "eigen_max": lam_max, "det_floor": det_floor,
            "violations": violations}


def symmetriser_audit_rows(count: int, max_order: int, spacing: float,
                           bound: float, form_trials: int,
                           seed: int) -> tuple[list[tuple], int]:
    """The ``symmetriser`` CSV rows and the violation count, one tuple at a
    time: each tuple draws its order and roots, then per trial a real and an
    imaginary part."""
    rng = np.random.default_rng(seed)
    rows = []
    violations = 0
    for index in range(count):
        m = int(rng.integers(1, max_order + 1))
        mu = np.sort(rng.uniform(-bound, bound, m))
        for i in range(1, m):
            mu[i] = max(mu[i], mu[i - 1] + spacing)
        vectors = np.array([rng.standard_normal(m)
                            + 1j * rng.standard_normal(m)
                            for _ in range(form_trials)])
        f = symmetriser_figures(mu, vectors, spacing)
        vdm = f["vandermonde"]
        det_err = abs(f["det_value"] - vdm) / vdm if vdm > 0 else 0.0
        eig_floor = f["eigen_min"] / max(f["eigen_max"], 1e-300)
        violations += f["violations"]
        rows.append((index, m, f["spacing"] if m > 1 else 0.0,
                     f["intertwining"], det_err, eig_floor, f["det_value"],
                     vdm))
    return rows, violations


# -- per-root values and symmetric functions ----------------------------------------


def root_profile(family: RootFamily, j: int, xi) -> RoughProfile:
    """Root j's time profile along the unit vector ``xi/|xi|``, written out:
    its coefficient profiles scaled by the unit direction's features and
    summed with ``+``, the per-direction path that ``direction_table``'s
    contraction replaces."""
    v = np.atleast_1d(np.asarray(xi, dtype=float))
    features = family.features((v / np.linalg.norm(v))[None, :])[0]
    out = None
    for c, g in zip(family.coefficients[j - 1], features):
        term = c.scaled(g)
        out = term if out is None else out + term
    return out


def pure_root(reg: RegularisedRoots, j: int, t: Array | float, xi) -> Array:
    """(lambda_j * phi_omega)(t, xi) for one root: its :func:`root_profile`
    along ``xi``, convolved on its own, times |xi|."""
    v = np.atleast_1d(np.asarray(xi, dtype=float))
    kernel = scale_mollifier(reg.mollifier, reg.omega)
    convolution = convolve_profile(root_profile(reg.base, j, v), kernel)
    return np.real(convolution(t)) * float(np.linalg.norm(v))


def root_value(reg: RegularisedRoots, j: int, t: Array | float, xi
               ) -> Array:
    """The separated regularised root lambda_j,eps(t, xi): the pure root
    plus its shift j * omega * <xi>, written out here."""
    v = np.atleast_1d(np.asarray(xi, dtype=float))
    return pure_root(reg, j, t, v) \
        + j * reg.omega * math.sqrt(1.0 + float(v @ v))


def sigma_per_root(reg: RegularisedRoots, t: Array,
                   directions: Sequence[tuple[float, ...]]
                   ) -> dict[tuple[float, ...], Array]:
    """What ``recovery.sigma_table`` returns, one direction at a time: each
    direction's roots from a table of that direction alone, whose row has
    the bits of the batched table's."""
    out = {}
    for xi in directions:
        vals = reg.direction_table(t, [xi])[0] \
            * float(np.linalg.norm(xi))
        out[xi] = characteristic_polynomial(np.moveaxis(vals, 0, -1))
    return out
