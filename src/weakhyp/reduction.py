"""Companion (Sylvester) reduction of scalar problems and block reduction of
first-order systems.

Per frequency the scalar m-th order equation becomes ``D_t V = (A + B)V + F``
with the companion matrix A carrying the weight <xi> on its superdiagonal and
the principal symbols in its last row, so its eigenvalues are exactly the
regularised characteristic roots.  Every last-row entry, of A, of B and F,
is separable, a time table times a frequency table, and the solver reads a
system's rows from one such table (:func:`table_rows`).  An m x m
first-order system is reduced to m identical companion blocks through the
adjugate of (tau I - A), computed by the Faddeev-LeVerrier recursion.

This module owns the companion form: every characteristic polynomial
(:func:`characteristic_polynomial`), companion last row
(:func:`companion_row`) and companion matrix (:func:`companion_matrix`) in
the package comes from here, for the round trip, the symmetrisers and the
block reduction; the solver's table holds the polynomial's coefficients as
forms in (phi, <xi>), phi(xi) = g(xi/|xi|) |xi| the family's line factor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigurationError, HyperbolicityError,
                     InvalidParameterError, NumericalError, UnsupportedError)
from .roots import RegularisedRoots, bracket, dt_power, separating_shift

Array = np.ndarray
#: an index into a time array: a slice or an integer array
Index = slice | Array


def characteristic_polynomial(roots: Sequence[float] | Array) -> Array:
    """Descending coefficients of prod_j (tau - roots_j); leading entry 1.

    The returned array is ``[1, sigma_1, ..., sigma_m]`` so that the product
    equals ``tau^m + sum_h sigma_h tau^(m-h)``.  Vectorised over leading axes
    of ``roots``.
    """
    roots = np.asarray(roots)
    if roots.ndim == 0:
        roots = roots[None]
    m = roots.shape[-1]
    # built with the coefficients along the first axis, so that each update
    # runs over whole batches rather than over the m + 1 coefficients
    coeffs = np.zeros((m + 1,) + roots.shape[:-1], dtype=roots.dtype)
    coeffs[0] = 1
    for i in range(m):
        coeffs[1:i + 2] -= roots[..., i] * coeffs[:i + 1]
    return np.moveaxis(coeffs, 0, -1)


def companion_row(coeffs: Array, weight: Array | float = 1.0) -> list[Array]:
    """The m entries of the last row of the companion matrices of the monic
    polynomials ``tau^m + sum_h c_h tau^(m-h)`` with ``weight`` on the
    superdiagonal: entry h is ``-c_(m-h) weight^(h+1-m)``.

    ``coeffs`` (..., m + 1) are descending, ``[1, c_1, ..., c_m]``; the
    leading 1 is not read.  Each entry has the leading shape, against which
    ``weight`` broadcasts, so the caller stacks the entries along the axis
    its layout needs.  Each power takes its exponent as a Python int, so a
    stack of weights gives each item the bits it gets as a stack of one; a
    float weight takes the C library's ``pow``, which can round otherwise
    than numpy's vectorised power.
    """
    m = coeffs.shape[-1] - 1
    return [coeffs[..., m - h] * -weight ** (h + 1 - m) for h in range(m)]


def companion_matrix(row: Sequence[Array], weight: Array | float = 1.0
                     ) -> Array:
    """Companion matrices (..., m, m) with ``weight`` on the superdiagonal
    and the m entries of ``row`` (a list, or an array with the row axis
    first) in the last row.

    With the row of :func:`companion_row` at the same weight, the
    eigenvalues are the polynomial's roots.  ``weight`` broadcasts against
    the leading shape of the entries.
    """
    m = len(row)
    mat = np.zeros(np.shape(row[0]) + (m, m), dtype=np.result_type(*row))
    for i in range(m - 1):
        mat[..., i, i + 1] = weight
    for h, entry in enumerate(row):
        mat[..., m - 1, h] = entry
    return mat


# -- last-row tables -------------------------------------------------------------


def table_rows(parts: Sequence[tuple[Array, Array]]
               ) -> Callable[[Index], Array]:
    """One reader of the last rows ``sum_n G[index, :, n] F[n]`` of
    ``parts``, pairs of a real time table G (T, width, n) and a frequency
    table F (n, K), stacked once.  A read takes an index into the T times
    (a slice or an integer array) and is one ``einsum`` (no BLAS), a
    complex F read as its real and imaginary parts, so a row's bits depend
    on its time alone.  The reader carries the rows' ``dtype``, F's, and
    ``steady`` (T - 1,): true at q only when G's rows at q and q + 1 are
    bitwise equal, so that the last rows are equal at every frequency."""
    width = max(g.shape[1] for g, _ in parts)
    g = np.concatenate([np.pad(g, ((0, 0), (0, width - g.shape[1]), (0, 0)))
                        for g, _ in parts], axis=2)
    f = np.concatenate([f for _, f in parts])
    flat = f.view(float)  # (n, 2K) for a complex F: re, im interleaved

    def rows(index: Index) -> Array:
        return np.einsum("twn,nk->twk", g[index], flat).view(f.dtype)

    bits = g.reshape(len(g), -1).view(np.int64)
    rows.steady = (bits[1:] == bits[:-1]).all(axis=1)
    rows.dtype = f.dtype
    return rows


# -- lower order and forcing -------------------------------------------------------


@dataclass(frozen=True)
class LowerTerm:
    """One regularised lower-order coefficient b_{nu,j}(t), |nu| < j."""

    nu: int
    j: int
    coefficient: Callable[[Array], Array]

    def __post_init__(self):
        if not 0 <= self.nu < self.j:
            raise InvalidParameterError(
                f"lower-order term needs 0 <= nu < j, got nu={self.nu}, j={self.j}")


@dataclass
class LowerOrderPart:
    """The lower-order terms of an m-th order problem, the zero-block B."""

    order: int
    terms: tuple[LowerTerm, ...]

    def __post_init__(self):
        for term in self.terms:
            if term.j > self.order:
                raise InvalidParameterError(
                    f"lower-order time order {term.j} exceeds equation order")

    def entries(self, regularise: Callable) -> list[tuple]:
        """The terms' separable entries, the coefficients mapped through
        ``regularise``: b_{nu,j}(t) xi^nu <xi>^(1-j) in column m - j."""
        return [(self.order - term.j, regularise(term.coefficient),
                 lambda xi, nu=term.nu, j=term.j:
                 xi ** nu * bracket(xi) ** (1 - j)) for term in self.terms]


@dataclass
class SeparablePart:
    """Last-row entries (column, time_values, factor): the lower-order
    symbols in columns below m and, in column m, the forcing f(t) f_hat(xi),
    the entry of the unit component that makes a forced system homogeneous,
    D_t (V, 1) = [[A + B, F], [0, 0]] (V, 1)."""

    width: int
    entries: tuple[tuple, ...]

    def __post_init__(self):
        for column, _, _ in self.entries:
            if not 0 <= column < self.width:
                raise InvalidParameterError(
                    f"entry column {column} outside [0, {self.width})")

    def tables(self, t: Array, xi: Array) -> tuple[Array, Array]:
        """The :func:`table_rows` tables G (T, width, n) and F (n, K): each
        entry's time values in its column, the real part against its factor
        and an imaginary part, if any, against i times its factor.  F is
        real unless an entry's values or factor are complex-typed."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        columns, factors, dtypes = [], [], [float]
        for column, values, factor in self.entries:
            values, factor = np.asarray(values(t)), np.asarray(factor(xi))
            dtypes += values.dtype, factor.dtype
            columns.append((column, values.real))
            factors.append(factor)
            if values.imag.any():
                columns.append((column, values.imag))
                factors.append(1j * factor)
        g = np.zeros((t.size, self.width, len(columns)))
        for n, (column, values) in enumerate(columns):
            g[:, column, n] = values
        return g, np.array(factors, np.result_type(*dtypes)).reshape(
            len(factors), xi.size)


# -- principal part ----------------------------------------------------------------


def _principal_tables(c: Array, phi: Array, shift: Array, xi: Array
                      ) -> tuple[Array, Array]:
    """The tables G (T, m, m + 1) and F (m + 1, K) of the last rows whose
    roots are ``c_j(t) phi(xi) + shift_j <xi>``, from the convolved
    coefficients c_j (m, T) and the line factor phi (K,).  sigma_k is a form
    of degree k in (phi, <xi>), so entry h, -sigma_(m-h) <xi>^(h+1-m), is
    sum_a G_(h,a)(t) F_a(xi) with F_a = phi^a <xi>^(1-a), a = 0..m."""
    m, size = c.shape
    # coeffs[k, a] of phi^a <xi>^(k-a) in sigma_k, as characteristic_polynomial
    coeffs = np.zeros((m + 1, m + 1, size))
    coeffs[0, 0] = 1.0
    for j in range(m):
        prev = coeffs[:j + 1].copy()
        coeffs[1:j + 2] -= shift[j] * prev
        coeffs[1:j + 2, 1:] -= c[j] * prev[:, :-1]
    return -np.transpose(coeffs[m:0:-1], (2, 0, 1)), np.array(
        [phi ** a * bracket(xi) ** (1 - a) for a in range(m + 1)])


@dataclass
class RootValuePrincipal:
    """The last rows of a regularised system: the principal symbols of the
    regularised roots, with the separating shift exactly, so the companion
    eigenvalues are the separated roots by construction, and the entries
    of ``separable``, if given, in the same table."""

    regularised: RegularisedRoots
    separable: SeparablePart | None = None

    @property
    def order(self) -> int:
        return self.regularised.order

    @property
    def width(self) -> int:
        return self.order if self.separable is None else self.separable.width

    def _line(self, t: Array, xi: Array) -> tuple[Array, Array]:
        """The coefficients c_j (m, T), convolved as one stack, and the line
        factor phi(xi) = g(xi/|xi|) |xi| (K,) of the family's one feature g,
        with xi = 0 in the direction +1: root j is c_j(t) phi(xi)."""
        c = np.real(self.regularised.convolved()(np.atleast_1d(t)))
        sign = np.where(xi >= 0, 1.0, -1.0)[:, None]
        return c, self.regularised.base.features(sign)[:, 0] * np.abs(xi)

    def roots(self, t: Array, xi: Array) -> Array:
        """The separated root values (T, m, K)."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        c, phi = self._line(t, xi)
        return c.T[:, :, None] * phi + separating_shift(
            self.order, self.regularised.omega, bracket(xi))

    def row_provider(self, t: Array, xi: Array) -> Callable[[Index], Array]:
        """The last rows (T, width, K) at the times ``t[index]``, read from
        one :func:`table_rows` table of the convolved coefficients and the
        line factor, and of the separable entries, so the caller's index
        sets the block size.  ``steady`` holds where a mollified
        piecewise-constant coefficient is constant."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        shift = separating_shift(self.order, self.regularised.omega, 1.0)
        parts = [_principal_tables(*self._line(t, xi), shift[:, 0], xi)]
        if self.separable is not None:
            parts.append(self.separable.tables(t, xi))
        return table_rows(parts)


# -- companion system ---------------------------------------------------------------


@dataclass
class InitialData:
    """Transformed data; V0 entries are <xi>^(m-k) ghat_{k-1}(xi)."""

    ghat: tuple[Callable[[Array], Array], ...]

    def v0(self, xi: Array) -> Array:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        br = bracket(xi)
        m = len(self.ghat)
        out = np.empty((m, xi.size), dtype=complex)
        for k in range(1, m + 1):
            out[k - 1] = br ** (m - k) * np.asarray(self.ghat[k - 1](xi),
                                                    dtype=complex)
        return out


@dataclass
class CompanionSystem:
    """Per-frequency first-order data: D_t V = (A + B) V + F, V(0) = V0;
    the principal part's one table gives the last rows of A + B and, at
    width m + 1, F in column m."""

    order: int
    principal: RootValuePrincipal
    data: InitialData | None = None

    @property
    def width(self) -> int:
        return self.principal.width

    def V0(self, xi: Array) -> Array:
        """Initial state (order, K) at the frequencies ``xi`` (K,)."""
        if self.data is None:
            return np.zeros((self.order, np.size(xi)), dtype=complex)
        return self.data.v0(xi)


def build_companion(principal: RootValuePrincipal,
                    data: InitialData | None = None) -> CompanionSystem:
    """Assemble the companion system; validates sizes against the order."""
    m = principal.order
    if principal.width not in (m, m + 1):
        raise ConfigurationError(
            f"separable part has width {principal.width}, not {m} or {m + 1}",
            field="separable")
    if data is not None and len(data.ghat) != m:
        raise ConfigurationError(
            f"need {m} initial data entries, got {len(data.ghat)}",
            field="data")
    return CompanionSystem(order=m, principal=principal, data=data)


# -- adjugate (cofactor) matrices ----------------------------------------------------

#: largest scaled residual of the adjugate identity that verify accepts
_ADJUGATE_TOL = 1e-9


def _faddeev(a: Array) -> tuple[list[Array], Array]:
    """Adjugate coefficient matrices and characteristic coefficients of A.

    Returns matrices N_0..N_{m-1} with adj(tau I - A) = sum_k N_k tau^{m-1-k}
    and the descending coefficients [1, c_1, ..., c_m] of det(tau I - A).
    """
    m = a.shape[0]
    eye = np.eye(m, dtype=a.dtype)
    mats = [eye.astype(complex)]
    coeffs = np.empty(m + 1, dtype=complex)
    coeffs[0] = 1.0
    current = eye.astype(complex)
    for k in range(1, m + 1):
        work = a @ current
        coeffs[k] = -np.trace(work) / k
        current = work + coeffs[k] * np.eye(m)
        if k < m:
            mats.append(current)
    return mats, coeffs


@dataclass
class PolynomialMatrix:
    """The adjugate L(tau) = adj(tau I - A(t, xi)), a matrix of
    tau-polynomials of degree at most m - 1 with (t, xi)-dependent
    coefficients: ``L(tau) = sum_k N_{m-1-k} tau^k`` with the matrices N_k of
    :func:`_faddeev`.
    """

    size: int
    a_eval: Callable[[float, float], Array]

    def verify(self, t: float, xi: float) -> float:
        """Largest residual of L(tau)(tau I - A) = delta(tau) I at the m + 1
        samples tau = 0..m, each scaled by ``(1 + tau + ||A||)^m``; raises
        :class:`NumericalError` at the first tau whose residual exceeds the
        tolerance.

        The samples are stacked: one product forms every residual matrix
        and one batched 2-norm measures them all.
        """
        a = np.asarray(self.a_eval(t, xi))
        mats, coeffs = _faddeev(a)
        m = self.size
        norm_a = float(np.linalg.norm(a, 2))
        taus = np.arange(m + 1)
        eye = np.eye(m)
        adjugate = np.zeros((m + 1, m, m), dtype=complex)
        for k in range(m):
            adjugate += mats[m - 1 - k] * (taus ** k)[:, None, None]
        left = adjugate @ (taus[:, None, None] * eye - a)
        delta = np.polyval(coeffs, taus)
        norms = np.linalg.norm(left - delta[:, None, None] * eye, 2,
                               axis=(1, 2))
        worst = 0.0
        for tau, norm in enumerate(norms.tolist()):
            residual = norm / max(1.0, (1.0 + tau + norm_a) ** m)
            if residual > _ADJUGATE_TOL:
                raise NumericalError(
                    f"adjugate identity residual {residual:.3e} at tau={tau} "
                    f"(t={t}, xi={xi})")
            worst = max(worst, residual)
        return worst


def cofactor_matrix(a_eval: Callable[[float, float], Array],
                    size: int) -> PolynomialMatrix:
    """Adjugate of (tau I - A(t, xi)) as a polynomial matrix in tau."""
    if size > 4:
        raise UnsupportedError("adjugate reduction is capped at order 4")
    return PolynomialMatrix(size=size, a_eval=a_eval)


# -- first-order systems and block reduction ------------------------------------------

#: end of the time interval [0, T] every first-order system is posed on
_HORIZON = 1.0
#: time step of the finite differences that carry D_t onto the coefficients
_FD_STEP = 1e-3
#: largest imaginary part of an eigenvalue of a1, relative to the largest
#: modulus (or 1), that still counts as real
_REAL_TOL = 1e-9

@dataclass
class FirstOrderSystem:
    """D_t u = A(t, D_x) u + B(t) u, u(0) = g0, in one space dimension.

    ``a1`` evaluates the first-order symbol matrix: A(t, xi) = a1(t) * xi.
    ``b`` is the regularised zero-order matrix (smooth in t).
    """

    order: int
    a1: Callable[[float], Array]
    b: Callable[[float], Array] | None = None
    data: tuple[Callable[[Array], Array], ...] | None = None

    def a_symbol(self, t: float, xi: float) -> Array:
        return np.asarray(self.a1(t), dtype=float) * xi

    def check_hyperbolic(self, t_samples: Array) -> None:
        """Raise :class:`HyperbolicityError` at the first sample time where
        a1 has an eigenvalue that is not real; the eigenvalues of every
        sample come from one stacked call."""
        times = [float(t) for t in np.atleast_1d(t_samples)]
        eig = np.linalg.eigvals(np.array(
            [np.asarray(self.a1(t), dtype=float) for t in times]))
        scale = np.maximum(1.0, np.abs(eig).max(axis=1))
        bad = np.abs(eig.imag).max(axis=1) > _REAL_TOL * scale
        if bad.any():
            raise HyperbolicityError(f"system matrix has non-real eigenvalue "
                                     f"at t={times[np.argmax(bad)]:g}")


@dataclass
class BlockSylvesterSystem:
    """m identical companion blocks from delta = det(tau I - A), plus the
    transformed lower-order matrix and data."""

    system: FirstOrderSystem

    @property
    def block_count(self) -> int:
        return self.system.order

    def _adjugate(self, t: float, xi: float) -> tuple[list[Array], Array]:
        return _faddeev(self.system.a_symbol(t, xi))

    def delta_coefficients(self, t: float, xi: float) -> Array:
        return self._adjugate(t, xi)[1]

    def block(self, t: float, xi: float) -> Array:
        """The companion block of delta with <xi> on the superdiagonal; real
        when its last row is, since the eigenvalues of a real matrix stored
        as complex come out with other bits."""
        br = float(bracket(xi))
        row = np.array(companion_row(self.delta_coefficients(t, xi), br))
        if not row.imag.any():
            row = row.real
        return companion_matrix(row, br)

    def full_principal(self, t: float, xi: float) -> Array:
        return np.kron(np.eye(self.block_count), self.block(t, xi))

    def block_eigenvalues(self, t: float, xi: float) -> Array:
        return np.sort(np.real(np.linalg.eigvals(self.block(t, xi))))

    def _tau_weights(self, t: float, xi: float) -> Array:
        """W_q: coefficient of D_t^q u on the right of the reduced equation.

        Applying L(t, D_t, xi) to (D_t - A - B)u leaves delta(D_t)u plus the
        Leibniz spill-over of D_t powers landing on the coefficients:
        delta(D_t)u = sum_q W_q D_t^q u with
        W_q = sum_{i>=1} C(q+i, i) N~_{q+i} (D_t^i A)
            + sum_{i>=0} C(q+i, i) N~_{q+i} (D_t^i B).
        """
        m = self.system.order
        mats, _ = self._adjugate(t, xi)
        # ascending adjugate coefficients: N~_q multiplies tau^q
        ascending = [mats[m - 1 - q] for q in range(m)]
        weights = np.zeros((m, m, m), dtype=complex)  # (q, m, m)
        h = _FD_STEP
        for q in range(m):
            acc = np.zeros((m, m), dtype=complex)
            for i in range(0, m - q):
                p = q + i
                binom = math.comb(p, i)
                if i >= 1:
                    da = dt_power(
                        lambda k: self.system.a_symbol(t + k * h, xi), i, h)
                    acc += binom * ascending[p] @ da
                if self.system.b is not None:
                    db = dt_power(lambda k: self.system.b(t + k * h), i, h)
                    acc += binom * ascending[p] @ db
            weights[q] = acc
        return weights

    def lower_matrix(self, t: float, xi: float) -> Array:
        """The m^2 x m^2 lower-order matrix entering D_t U - A U + L U = 0."""
        m = self.system.order
        br = float(bracket(xi))
        weights = self._tau_weights(t, xi)
        out = np.zeros((m * m, m * m), dtype=complex)
        for p in range(m):
            row = p * m + (m - 1)
            for q in range(m):
                for p2 in range(m):
                    col = p2 * m + q
                    out[row, col] = -weights[q][p, p2] * br ** (q + 1 - m)
        return out

    def transformed_data(self, xi: float) -> Array:
        """U(0) entries D_t^q <D_x>^(m-1-q) u_p(0) via the system recursion."""
        m = self.system.order
        br = float(bracket(xi))
        xi_arr = np.array([xi])
        if self.system.data is None:
            y = [np.zeros(m, dtype=complex)]
        else:
            y = [np.array([np.asarray(g(xi_arr), dtype=complex).ravel()[0]
                           for g in self.system.data])]
        h = _FD_STEP

        def rhs_matrix(order: int) -> Array:
            total = dt_power(lambda k: self.system.a_symbol(k * h, xi),
                             order, h)
            if self.system.b is not None:
                total = total + dt_power(lambda k: self.system.b(k * h),
                                         order, h)
            return total

        for q in range(1, m):
            total = np.zeros(m, dtype=complex)
            for i in range(q):
                total += math.comb(q - 1, i) * rhs_matrix(i) @ y[q - 1 - i]
            y.append(total)
        out = np.zeros(m * m, dtype=complex)
        for p in range(m):
            for q in range(m):
                out[p * m + q] = br ** (m - 1 - q) * y[q][p]
        return out


def to_block_sylvester(system: FirstOrderSystem) -> BlockSylvesterSystem:
    """Reduce an m x m first-order system to m identical companion blocks.

    The block eigenvalues coincide with the eigenvalues of A(t, xi) because
    both are the roots of delta(t, tau, xi).
    """
    system.check_hyperbolic(np.linspace(0.0, _HORIZON, 17))
    return BlockSylvesterSystem(system=system)


def random_hyperbolic_system(rng: random.Random,
                             size: int) -> FirstOrderSystem:
    """Well-conditioned random constant-coefficient hyperbolic system with a
    random zero-order term, on the time interval [0, 1].

    It draws from ``rng`` the eigenvalues (uniform on [-2, 2], sorted, then
    pushed apart to gaps of at least 0.3), the basis entries row by row
    (the identity plus 0.3 times standard normals, redrawn until the basis
    has condition number at most 20) and last the zero-order term's entries
    (0.3 times standard normals).
    """
    spacing = 0.3
    eigs = sorted(rng.uniform(-2.0, 2.0) for _ in range(size))
    for i in range(1, size):
        eigs[i] = max(eigs[i], eigs[i - 1] + spacing)

    def normals() -> Array:
        return np.array([rng.gauss(0.0, 1.0) for _ in range(size * size)]
                        ).reshape(size, size)

    basis = np.eye(size) + 0.3 * normals()
    while np.linalg.cond(basis) > 20.0:
        basis = np.eye(size) + 0.3 * normals()
    a1 = basis @ np.diag(eigs) @ np.linalg.inv(basis)
    b0 = 0.3 * normals()
    return FirstOrderSystem(order=size, a1=lambda t, _a=a1: _a,
                            b=lambda t, _b=b0: _b)
