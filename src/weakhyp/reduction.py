"""Companion (Sylvester) reduction of scalar problems and block reduction of
first-order systems.

Per frequency the scalar m-th order equation becomes ``D_t V = (A + B)V + F``
with the companion matrix A carrying the weight <xi> on its superdiagonal and
the principal symbols in its last row, so its eigenvalues are exactly the
regularised characteristic roots.  General m x m first-order systems are
reduced to m identical companion blocks through the adjugate of (tau I - A),
computed by the Faddeev-LeVerrier recursion.

This module owns the companion form: every characteristic polynomial
(:func:`characteristic_polynomial`), companion last row
(:func:`companion_row`) and companion matrix (:func:`companion_matrix`) in
the package comes from here, for the solver's row tables, the round trip,
the symmetrisers and the block reduction alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

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


# -- principal-part providers ---------------------------------------------------


class PrincipalPart(Protocol):
    """Root values and last-row symbols of the companion principal part.

    ``roots(t, xi)`` returns (T, m, K) for an array of T times.
    ``row_provider(t, xi)`` returns a function of an index into ``t`` (a
    slice or an integer array) that gives the last rows at those times as
    one (T, m, K) block, which depends on the index alone.  The function
    carries ``steady`` (T - 1,): true at q only when the rows at ``t[q]`` and
    ``t[q + 1]`` are bitwise equal at every frequency, read from the time
    profiles the rows come from, never from the rows.
    """

    order: int

    def roots(self, t: Array, xi: Array) -> Array: ...

    def row_provider(self, t: Array, xi: Array
                     ) -> Callable[[Index], Array]: ...


def _steady(columns: Array) -> Array:
    """(T - 1,): whether columns q and q + 1 of the float array ``columns``
    (n, T) are bitwise equal, so that -0.0 and 0.0 count as different."""
    bits = columns.view(np.int64)
    return (bits[:, 1:] == bits[:, :-1]).all(axis=0)


def _row_table(lam: Array, br: Array) -> Array:
    """Last rows (T, m, K), C-contiguous, from root values (T, m, K) and
    the weights <xi> = ``br`` (K,) in one vectorised call."""
    sig = characteristic_polynomial(np.swapaxes(lam, 1, 2))  # (T, K, m+1)
    rows = np.empty_like(lam)
    for h, entry in enumerate(companion_row(sig, br)):
        rows[:, h] = entry
    return rows


@dataclass
class RootValuePrincipal:
    """Principal symbols evaluated from regularised root values.

    Carries the separating shift exactly, so the companion eigenvalues are
    the separated regularised roots by construction; no polynomial identity
    in the frequency is needed.
    """

    regularised: RegularisedRoots

    @property
    def order(self) -> int:
        return self.regularised.order

    def _profiles(self, t: Array) -> Array:
        """Convolved root profiles (2, m, T) in the directions +1 and -1."""
        return self.regularised.direction_table(t, [(1.0,), (-1.0,)])

    def _root_table(self, xi: Array) -> Callable[[Array, Array], Array]:
        """The separated root values (T, m, K) as a function of the root
        profiles (m, T) in the directions +1 and -1; the factors that depend
        on ``xi`` alone are computed here, once."""
        sep = separating_shift(self.order, self.regularised.omega,
                               bracket(xi))
        upper = xi >= 0
        size = np.abs(xi)

        def table(pos: Array, neg: Array) -> Array:
            profile = np.where(upper, pos.T[:, :, None], neg.T[:, :, None])
            return profile * size + sep

        return table

    def roots(self, t: Array, xi: Array) -> Array:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return self._root_table(xi)(*self._profiles(t))

    def row_provider(self, t: Array, xi: Array) -> Callable[[Index], Array]:
        """Last rows (T, m, K) at the times ``t[index]``.

        The root profiles are convolved once for all of ``t``, and the
        factors that depend on ``xi`` alone are computed once.  ``steady``
        compares neighbouring profile columns bit for bit; every operation
        is elementwise in time, so equal columns give equal rows at every
        frequency, as where a mollified piecewise-constant coefficient is
        constant.  A block inside one such stretch is a read-only broadcast
        of one row, cached until a block of another stretch asks for one.
        Any other block is one vectorised characteristic-polynomial call
        over its (time, frequency) block, so the caller's index sets the
        block size.
        """
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        br = bracket(xi)
        table = self._root_table(xi)
        pos, neg = self._profiles(t)
        steady = _steady(pos) & _steady(neg)
        # each time's stretch of equal profile bits, numbered from 0
        stretch = np.concatenate([[0], np.cumsum(~steady)])
        cached: dict[int, Array] = {}

        def rows(index: Index) -> Array:
            label = stretch[index]
            if not label.size or (label != label[0]).any():
                return _row_table(table(pos[:, index], neg[:, index]), br)
            key = int(label[0])
            if key not in cached:
                cached.clear()
                cached[key] = _row_table(table(pos[:, index][:, :1],
                                               neg[:, index][:, :1]), br)
            return np.broadcast_to(cached[key],
                                   (label.size, self.order, xi.size))

        rows.steady = steady
        return rows


# -- lower order, forcing, data ----------------------------------------------------


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
    """Last-row symbols of the zero-block B: columns collect all b_{nu,j}."""

    order: int
    terms: tuple[LowerTerm, ...]

    def __post_init__(self):
        for term in self.terms:
            if term.j > self.order:
                raise InvalidParameterError(
                    f"lower-order time order {term.j} exceeds equation order")

    def row_provider(self, t: Array, xi: Array) -> Callable[[Index], Array]:
        """Last rows (T, m, K), complex, at the times ``t[index]``;
        ``steady`` compares the coefficients' bits at neighbouring times."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        br = bracket(xi)
        m = self.order
        per_term = []
        for term in self.terms:
            k = m - term.j + 1
            factor = xi ** term.nu * br ** (k - m)
            values = np.asarray(term.coefficient(t), dtype=complex)
            per_term.append((k - 1, values, factor))

        def rows(index: Index) -> Array:
            block = np.zeros((t[index].size, m, xi.size), dtype=complex)
            for col, values, factor in per_term:
                block[:, col] += values[index, None] * factor
            return block

        values = np.array([v for _, v, _ in per_term]).reshape(-1, t.size)
        rows.steady = _steady(np.concatenate([values.real, values.imag]))
        return rows


@dataclass
class ForcingPart:
    """Transformed forcing f_hat(t, xi), separable in time and frequency."""

    time_values: Callable[[Array], Array]
    xhat: Callable[[Array], Array]

    def values_provider(self, t: Array, xi: Array) -> Callable[[Index], Array]:
        """Forcing values (T, K) at the times ``t[index]``."""
        tv = np.asarray(self.time_values(np.asarray(t, float)), dtype=complex)
        xv = np.asarray(self.xhat(np.asarray(xi, float)), dtype=complex)

        def values(index: Index) -> Array:
            return tv[index, None] * xv

        return values


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


# -- companion system ---------------------------------------------------------------


@dataclass
class CompanionSystem:
    """Per-frequency first-order data: D_t V = (A + B) V + F, V(0) = V0."""

    order: int
    principal: PrincipalPart
    lower: LowerOrderPart | None = None
    forcing: ForcingPart | None = None
    data: InitialData | None = None

    def V0(self, xi: Array) -> Array:
        """Initial state (order, K) at the frequencies ``xi`` (K,)."""
        if self.data is None:
            return np.zeros((self.order, np.size(xi)), dtype=complex)
        return self.data.v0(xi)


def build_companion(principal: PrincipalPart,
                    lower: LowerOrderPart | None = None,
                    forcing: ForcingPart | None = None,
                    data: InitialData | None = None) -> CompanionSystem:
    """Assemble the companion system; validates sizes against the order."""
    m = principal.order
    if lower is not None and lower.order != m:
        raise ConfigurationError("lower-order block has mismatched order",
                                 field="lower")
    if data is not None and len(data.ghat) != m:
        raise ConfigurationError(
            f"need {m} initial data entries, got {len(data.ghat)}",
            field="data")
    return CompanionSystem(order=m, principal=principal, lower=lower,
                           forcing=forcing, data=data)


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
        """Residual of L(tau)(tau I - A) = delta(tau) I at m + 1 tau samples."""
        a = np.asarray(self.a_eval(t, xi))
        mats, coeffs = _faddeev(a)
        worst = 0.0
        norm_a = float(np.linalg.norm(a, 2))
        for tau in range(self.size + 1):
            adjugate = np.zeros((self.size, self.size), dtype=complex)
            for k in range(self.size):
                adjugate += mats[self.size - 1 - k] * tau ** k
            left = adjugate @ (tau * np.eye(self.size) - a)
            delta = np.polyval(coeffs, tau)
            scale = max(1.0, (1.0 + abs(tau) + norm_a) ** self.size)
            residual = float(np.linalg.norm(
                left - delta * np.eye(self.size), 2)) / scale
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
        for t in np.atleast_1d(t_samples):
            eig = np.linalg.eigvals(np.asarray(self.a1(float(t)), dtype=float))
            scale = max(1.0, float(np.max(np.abs(eig))))
            if float(np.max(np.abs(eig.imag))) > _REAL_TOL * scale:
                raise HyperbolicityError(
                    f"system matrix has non-real eigenvalue at t={float(t):g}")


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


def random_hyperbolic_system(rng: np.random.Generator,
                             size: int) -> FirstOrderSystem:
    """Well-conditioned random constant-coefficient hyperbolic system with a
    random zero-order term, on the time interval [0, 1]."""
    spacing = 0.3
    eigs = np.sort(rng.uniform(-2.0, 2.0, size))
    for i in range(1, size):
        eigs[i] = max(eigs[i], eigs[i - 1] + spacing)
    basis = np.eye(size) + 0.3 * rng.standard_normal((size, size))
    while np.linalg.cond(basis) > 20.0:
        basis = np.eye(size) + 0.3 * rng.standard_normal((size, size))
    a1 = basis @ np.diag(eigs) @ np.linalg.inv(basis)
    b0 = 0.3 * rng.standard_normal((size, size))
    return FirstOrderSystem(order=size, a1=lambda t, _a=a1: _a,
                            b=lambda t, _b=b0: _b)
