"""Test oracles and fakes shared by several test modules.

Nothing in the package calls these: recovered coefficients from a sigma
table of their own plan (all at once, one as a callable of t, and their
polynomial reconstruction of sigma), a substitute principal part, the
relative energy drift and the fitted growth rate of a trace, the
approximation-rate audit of the
cutoff mollifier, the staged RK4 loop (its states and its step-doubling
estimate) that the integrator replaces on each constant stretch by powers
of its step map, and the per-entry pass that found those
stretches by comparing rows, the stability gate's full SVD of every
sampled entry that its Frobenius screen replaced, the tau-coefficients of
an adjugate, the
per-item paths that the batched audits replaced (the per-tuple symmetriser
and its audit loop, the per-root symmetric functions of the recovery, the
per-sample hyperbolicity check and the per-tau adjugate residuals), the
per-direction root profiles that the coefficient contraction replaced,
with the per-root regularised values, pure and with the separating shift,
the direction table built from one convolution per coefficient, which
the stacked convolution replaced, and the per-time principal rows (root
values, characteristic polynomial, companion row) and per-entry separable
rows that the one last-row table replaced.
Test modules import them as ``oracles``; pytest's default import mode puts
``tests/`` on ``sys.path``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from weakhyp import reduction
from weakhyp.analysis import linear_fit
from weakhyp.errors import (ConfigurationError, InsufficientDataError,
                            InvalidParameterError, NumericalError,
                            UnsupportedError)
from weakhyp.mollifiers import (GevreyCutoffMollifier, convolve_profile,
                                scale_mollifier)
from weakhyp.profiles import RoughProfile
from weakhyp.recovery import HomogeneousCoefficientSet, sigma_table
from weakhyp.reduction import (CompanionSystem, FirstOrderSystem, Index,
                               PolynomialMatrix, SeparablePart, _faddeev,
                               characteristic_polynomial, companion_matrix,
                               companion_row, table_rows)
from weakhyp.roots import (RegularisedRoots, RootFamily, _unit_direction,
                           bracket, separating_shift)

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
    """Principal symbols from per-degree coefficient callables (n = 1), with
    the entries of ``separable``, if given, in the same table.

    ``coefficients[d]`` evaluates the degree-d coefficient a_d(t); the last
    row entries are ``a_{m-j+1}(t) xi^{m-j+1} <xi>^{j-m}``, each monomial
    one table column.  Root values come from companion eigenvalues.
    """

    order: int
    coefficients: Mapping[int, Callable[[Array], Array]]
    separable: SeparablePart | None = None

    def __post_init__(self):
        missing = [d for d in range(1, self.order + 1)
                   if d not in self.coefficients]
        if missing:
            raise ConfigurationError(
                f"missing principal coefficient degree(s) {missing}",
                field="principal")

    @property
    def width(self) -> int:
        return self.order if self.separable is None else self.separable.width

    @staticmethod
    def from_coefficient_sets(sets: Mapping[int, HomogeneousCoefficientSet]
                              ) -> "PolynomialPrincipal":
        coeffs = {}
        for degree, cset in sets.items():
            if cset.dimension != 1:
                raise UnsupportedError("companion assembly is one-dimensional")
            coeffs[degree] = coefficient(cset, (degree,))
        return PolynomialPrincipal(order=max(sets), coefficients=coeffs)

    def _tables(self, t: Array, xi: Array) -> tuple[Array, Array]:
        """G (T, m, m), entry j - 1's coefficient in column j - 1, and the
        monomials F (m, K)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        br = bracket(xi)
        m = self.order
        monomials = np.empty((m, xi.size))
        g = np.zeros((t.size, m, m))
        for j in range(1, m + 1):
            d = m - j + 1
            monomials[j - 1] = xi ** d * br ** (j - m)
            g[:, j - 1, j - 1] = np.real(np.asarray(
                self.coefficients[d](t), dtype=complex))
        return g, monomials

    def roots(self, t: Array, xi: Array) -> Array:
        """Sorted companion eigenvalues (T, m, K) at the times ``t``."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        rows = table_rows([self._tables(t, xi)])(slice(None))
        mats = companion_matrix(np.moveaxis(rows, 1, 0), bracket(xi))
        return np.swapaxes(np.sort(np.real(np.linalg.eigvals(mats)),
                                   axis=-1), 1, 2)

    def row_provider(self, t: Array, xi: Array) -> Callable[[Index], Array]:
        """Last rows (T, width, K) at the times ``t[index]``, as
        :func:`weakhyp.reduction.table_rows` reads them; ``steady`` marks
        the neighbouring times where every coefficient's bits are equal."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        parts = [self._tables(t, xi)]
        if self.separable is not None:
            parts.append(self.separable.tables(t, xi))
        return table_rows(parts)


def principal_rows_per_time(reg: RegularisedRoots, t: Array, xi: Array
                            ) -> Array:
    """Last rows (T, m, K) of the regularised roots by the per-time path
    that the one table replaced: the separated root values, then
    :func:`characteristic_polynomial`, then :func:`companion_row`."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    br = bracket(xi)
    pos, neg = reg.direction_table(np.atleast_1d(t), [(1.0,), (-1.0,)])
    profile = np.where(xi >= 0, pos.T[:, :, None], neg.T[:, :, None])
    lam = profile * np.abs(xi) + separating_shift(reg.order, reg.omega, br)
    sig = characteristic_polynomial(np.swapaxes(lam, 1, 2))  # (T, K, m+1)
    rows = np.empty_like(lam)
    for h, entry in enumerate(companion_row(sig, br)):
        rows[:, h] = entry
    return rows


def separable_rows_per_entry(separable: SeparablePart, t: Array, xi: Array
                             ) -> Array:
    """Last rows (T, width, K), complex, of the separable entries summed one
    product of time values and factor at a time, as the separable part's
    own provider built them before the one table."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    block = np.zeros((separable.width, t.size, xi.size), complex)
    for column, values, factor in separable.entries:
        block[column] += np.asarray(values(t), dtype=complex)[:, None] \
            * factor(xi)
    return block.transpose(1, 0, 2)


def constant_entries(system: CompanionSystem, xi: Array, t_grid: Array
                     ) -> Array:
    """(nt, K): whether entry k's last rows, principal plus lower, and its
    forcing values are equal at every stage time that step i of the
    integrator reads, the quarter points of its step-doubling steps
    included, compared entry by entry.  The per-entry pass that the
    integrator's per-member ``steady`` steps replaced."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float)
    nt = t_grid.size - 1
    h = float(t_grid[1] - t_grid[0])
    # stage times as indices on the quarter-step lattice t_0 + q h / 4
    doubled = 4 * np.arange(0, nt, max(1, nt // 100))
    lattice = np.union1d(np.arange(0, 4 * nt + 1, 2),
                         np.concatenate([doubled + 1, doubled + 3]))
    stage_times = t_grid[0] + 0.25 * h * lattice
    rows = system.principal.row_provider(stage_times, xi)(slice(None))
    same = (rows[1:] == rows[:-1]).all(axis=1)  # (intervals, K)
    starts = np.searchsorted(lattice, 4 * np.arange(nt + 1))
    return np.array([same[starts[i]:starts[i + 1]].all(axis=0)
                     for i in range(nt)]).reshape(nt, xi.size)


def _staged_stepper(system: CompanionSystem, xi: Array, stage_times: Array
                    ) -> Callable[[int, int, float, Array], Array]:
    """``step(k, dk, dt, v)``: one RK4 step of length dt from the state v
    whose stages read the rows and forcing at ``stage_times[k]``,
    ``[k + dk]`` and ``[k + 2 dk]``, with the integrator's arithmetic for
    one member."""
    m = system.order
    rows = system.principal.row_provider(stage_times, xi)(slice(None))
    force = rows[:, m] if system.width > m else None
    rows = rows[:, :m]
    ibr = 1j * bracket(xi)

    def rhs(k: int, state: Array) -> Array:
        out = np.empty_like(state)
        out[:-1] = ibr * state[1:]
        last = (rows[k] * state).sum(axis=0)
        if force is not None:
            last = last + force[k]
        out[-1] = 1j * last
        return out

    def step(k: int, dk: int, dt: float, v: Array) -> Array:
        k1 = rhs(k, v)
        k2 = rhs(k + dk, v + 0.5 * dt * k1)
        k3 = rhs(k + dk, v + 0.5 * dt * k2)
        k4 = rhs(k + 2 * dk, v + dt * k3)
        return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def staged_rk4(system: CompanionSystem, xi: Array, t_grid: Array) -> Array:
    """States (nt + 1, m, K) of fixed-step RK4 for D_t V = (A + B) V + F,
    one step at a time, each stage reading the rows and forcing at its own
    time, with the integrator's arithmetic for one member."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float)
    nt = t_grid.size - 1
    h = float(t_grid[1] - t_grid[0])
    # stage time k is the half step t_0 + k h / 2, as the integrator forms it
    step = _staged_stepper(system, xi,
                           t_grid[0] + 0.25 * h * np.arange(0, 4 * nt + 1, 2))
    states = [system.V0(xi).astype(complex)]
    for i in range(nt):
        states.append(step(2 * i, 1, h, states[-1]))
    return np.array(states)


def staged_doubling_max(system: CompanionSystem, xi: Array, t_grid: Array
                        ) -> float:
    """The integrator's step-doubling estimate with every step staged: the
    largest max |full - half| / max |full| over every ``max(1, nt //
    100)``-th step, where half is the step taken as two half steps."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float)
    nt = t_grid.size - 1
    h = float(t_grid[1] - t_grid[0])
    # stage time q is the quarter step t_0 + q h / 4
    step = _staged_stepper(system, xi,
                           t_grid[0] + 0.25 * h * np.arange(4 * nt + 1))
    v, worst = system.V0(xi).astype(complex), 0.0
    for i in range(nt):
        full = step(4 * i, 2, h, v)
        if i % max(1, nt // 100) == 0:
            half = step(4 * i + 2, 1, 0.5 * h, step(4 * i, 1, 0.5 * h, v))
            worst = max(worst, float(np.abs(full - half).max()
                                     / (np.abs(full).max() or 1.0)))
        v = full
    return worst


def estimate_norm_svd(rows: Callable[[Index], Array], index: Array,
                      br: Array, limit: float = math.inf) -> float:
    """Largest spectral norm of A + B at the times ``index`` selects, from
    the singular values of every entry: the stability gate before its
    Frobenius screen.  ``limit`` is not read; it lets this stand in for the
    screened gate."""
    mats = companion_matrix(np.moveaxis(rows(index), 1, 0).astype(complex),
                            br)
    return float(np.linalg.svd(mats, compute_uv=False)[..., 0].max())


def fitted_growth_rate(times: Array, energies: Array) -> float | None:
    """Least-squares slope of log E(t) over the times where E > 1e-300, or
    None with fewer than two such times."""
    positive = energies > 1e-300
    if np.count_nonzero(positive) < 2:
        return None
    slope, _, _ = linear_fit(times[positive], np.log(energies[positive]))
    return float(slope)


def max_relative_drift(energies: Array) -> float:
    """Largest |E(t) - E(0)| / E(0) of one frequency's energies (absolute
    when E(0) <= 0)."""
    e0 = float(energies[0])
    if e0 <= 0.0:
        return float(np.max(np.abs(energies)))
    return float(np.max(np.abs(energies - e0)) / e0)


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


def verify_per_tau(poly: PolynomialMatrix, t: float, xi: float) -> float:
    """What ``PolynomialMatrix.verify`` returns, one tau at a time: each
    residual matrix from a product and a 2-norm of its own, raising at the
    first tau over the tolerance."""
    a = np.asarray(poly.a_eval(t, xi))
    mats, coeffs = _faddeev(a)
    worst = 0.0
    norm_a = float(np.linalg.norm(a, 2))
    for tau in range(poly.size + 1):
        adjugate = np.zeros((poly.size, poly.size), dtype=complex)
        for k in range(poly.size):
            adjugate += mats[poly.size - 1 - k] * tau ** k
        left = adjugate @ (tau * np.eye(poly.size) - a)
        delta = np.polyval(coeffs, tau)
        scale = max(1.0, (1.0 + abs(tau) + norm_a) ** poly.size)
        residual = float(np.linalg.norm(
            left - delta * np.eye(poly.size), 2)) / scale
        if residual > reduction._ADJUGATE_TOL:
            raise NumericalError(
                f"adjugate identity residual {residual:.3e} at tau={tau} "
                f"(t={t}, xi={xi})")
        worst = max(worst, residual)
    return worst


def first_non_real_time(system: FirstOrderSystem, t_samples: Array
                        ) -> float | None:
    """The first of ``t_samples`` at which ``system.check_hyperbolic``
    fails, or None, checked one sample at a time: each sample's
    eigenvalues from a call of their own."""
    for t in np.atleast_1d(t_samples):
        eig = np.linalg.eigvals(np.asarray(system.a1(float(t)), dtype=float))
        scale = max(1.0, float(np.max(np.abs(eig))))
        if float(np.max(np.abs(eig.imag))) > reduction._REAL_TOL * scale:
            return float(t)
    return None


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
    imaginary part, each uniform on [-1, 1]^m."""
    rng = random.Random(seed)

    def part(m: int) -> Array:
        return 2.0 * np.array([rng.random() for _ in range(m)]) - 1.0

    rows = []
    violations = 0
    for index in range(count):
        m = rng.randint(1, max_order)
        mu = np.sort([rng.uniform(-bound, bound) for _ in range(m)])
        for i in range(1, m):
            mu[i] = max(mu[i], mu[i - 1] + spacing)
        vectors = np.array([part(m) + 1j * part(m)
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


#: the batched table itself, for the oracle that tests patch in for it
_direction_table = RegularisedRoots.direction_table


def table_per_direction(reg: RegularisedRoots, t: Array,
                        directions: Sequence[Sequence[float]]) -> Array:
    """What ``RegularisedRoots.direction_table`` returns, one direction at a
    time: each row from a table of that direction alone."""
    return np.array([_direction_table(reg, t, [d])[0] for d in directions])


def table_per_coefficient(reg: RegularisedRoots, t: Array,
                          directions: Sequence[Sequence[float]]) -> Array:
    """What ``RegularisedRoots.direction_table`` returns, with each
    coefficient profile convolved by a ``Convolution`` of its own and the
    convolutions contracted with the features in feature order."""
    kernel = scale_mollifier(reg.mollifier, reg.omega)
    values = np.array([[np.real(convolve_profile(c, kernel)(t)) for c in row]
                       for row in reg.base.coefficients])
    units = np.array([_unit_direction(d) for d in directions])
    g = reg.base.features(units)[:, :, None, None]
    table = g[:, 0] * values[:, 0]
    for k in range(1, values.shape[1]):
        table = table + g[:, k] * values[:, k]
    return table


def sigma_per_row(table: Array, directions: Sequence[tuple[float, ...]]
                  ) -> dict[tuple[float, ...], Array]:
    """What ``recovery.symmetric_functions`` returns, one direction at a
    time: each direction's symmetric functions from its own row alone."""
    out = {}
    for xi, vals in zip(directions, table):
        vals = vals * float(np.linalg.norm(xi))
        out[xi] = characteristic_polynomial(np.moveaxis(vals, 0, -1))
    return out
