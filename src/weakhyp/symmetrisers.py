"""Symmetrisers of normalised companion matrices and their bound checks.

For sorted normalised roots mu_1 <= ... <= mu_m the rows of W hold the
monomial coefficients of prod_{j != i} (tau - mu_j), the left eigenvectors of
the companion matrix; S = W^T W is then symmetric, positive semi-definite,
intertwines S A = A^T S, and has det S = prod_{i<j} (mu_i - mu_j)^2, the
squared Vandermonde product that the separation lower bound feeds on.  The
companion matrices, with a unit superdiagonal, and the characteristic
polynomials come from :mod:`reduction`.

Everything here is vectorised over leading axes: ``mu`` of shape (..., m)
stacks root tuples of one order, every figure comes back with shape (...),
and each tuple's figures are bit-identical to the ones it gets alone.  A
1-d ``mu`` gives scalars.  Squares and powers go through ``np.float_power``,
which calls the C library's ``pow`` as Python's ``**`` on floats does; the
``**`` of an array squares by multiplication and rounds differently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError
from .reduction import (characteristic_polynomial, companion_matrix,
                        companion_row)

Array = np.ndarray


def _eigenvector_rows(mu: Array) -> Array:
    """W (..., m, m): row i holds, ascending in tau, the coefficients of
    prod_{j != i} (tau - mu_j), from one characteristic polynomial over the
    stacked "all roots but i" tuples."""
    m = mu.shape[-1]
    others = np.array([[j for j in range(m) if j != i] for i in range(m)],
                      dtype=int).reshape(m, m - 1)
    return np.ascontiguousarray(
        characteristic_polynomial(mu[..., others])[..., ::-1])


def vandermonde_product_squared(mu: Sequence[float] | Array) -> Array:
    """prod_{i<j} (mu_j - mu_i)^2 over the last axis, pairs in lexicographic
    order; the determinant's independent check."""
    mu = np.asarray(mu, dtype=float)
    prod = np.ones(mu.shape[:-1])
    for i, j in itertools.combinations(range(mu.shape[-1]), 2):
        prod = prod * np.float_power(mu[..., j] - mu[..., i], 2)
    return prod[()]


@dataclass(frozen=True)
class Symmetriser:
    """Symmetric PSD matrices with S A = A^T S for the companion matrices of
    the root tuples ``roots`` (..., m).

    ``matrix`` is (..., m, m); ``spacing`` (the smallest root gap, inf for
    one root) and ``det_value`` have the leading shape, scalars for one
    tuple.
    """

    matrix: Array
    roots: Array
    spacing: Array | float
    det_value: Array | float

    @property
    def order(self) -> int:
        return self.roots.shape[-1]

    def quadratic_form(self, v: Array) -> Array | float:
        """Re(v^* S v); ``v`` is (..., m) with leading axes that broadcast
        against the symmetriser's."""
        v = np.asarray(v)
        return np.real(np.conj(v)[..., None, :] @ self.matrix
                       @ v[..., :, None])[..., 0, 0][()]

    def intertwining_residual(self) -> Array | float:
        """Relative spectral norm of S A - A^T S for the normalised
        companion A, per tuple."""
        a = companion_matrix(companion_row(
            characteristic_polynomial(self.roots)))
        s = self.matrix
        num = np.linalg.norm(s @ a - np.swapaxes(a, -1, -2) @ s, 2,
                             axis=(-2, -1))
        den = np.maximum(np.linalg.norm(s, 2, axis=(-2, -1))
                         * np.linalg.norm(a, 2, axis=(-2, -1)), 1e-300)
        return (num / den)[()]


def build_symmetriser(mu: Sequence[float] | Array) -> Symmetriser:
    """Symmetrisers of the companion matrices with (sorted) eigenvalues mu.

    ``mu`` is one tuple (m,) or a stack (..., m) of tuples of one order; the
    whole stack is built in one pass of batched products and determinants.
    Coincident roots are legal and give a singular but still positive
    semi-definite matrix.  ``det_value`` is computed from the factor
    (det W)^2; the Gram structure keeps it accurate even when the plain LU
    determinant of S would drown in conditioning.
    """
    mu_arr = np.asarray(mu, dtype=float)
    if mu_arr.ndim < 1 or mu_arr.shape[-1] < 1:
        raise InvalidParameterError("need tuples of at least one root")
    if not np.all(np.isfinite(mu_arr)):
        raise InvalidParameterError("roots must be finite")
    rows = _eigenvector_rows(mu_arr)
    gram = np.swapaxes(rows, -1, -2) @ rows
    gram = 0.5 * (gram + np.swapaxes(gram, -1, -2))
    det_value = np.float_power(np.linalg.det(rows), 2)
    spacing = np.min(np.diff(mu_arr), axis=-1, initial=math.inf)
    return Symmetriser(matrix=gram, roots=mu_arr, spacing=spacing[()],
                       det_value=det_value[()])


# -- bound verification -----------------------------------------------------------


@dataclass(frozen=True)
class QuadraticBoundsReport:
    """Per-tuple figures of :func:`verify_quadratic_bounds`, shaped like the
    symmetriser's leading axes.  ``det_floor`` is nan where the separation
    floor does not apply; ``violations`` counts the broken bounds."""

    min_form: Array | float
    max_form: Array | float
    eigen_min: Array | float
    eigen_max: Array | float
    det_floor: Array | float
    violations: Array | int


def _self_dot(x: Array) -> Array:
    """x . x over the last axis, rounded as ``x.dot(x)`` rounds it for one
    vector, which is how np.linalg.norm sums a vector's squares: matmul's
    row-times-column case calls the same dot loop."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def verify_quadratic_bounds(s: Symmetriser, vectors: Array,
                            omega: float | None = None
                            ) -> QuadraticBoundsReport:
    """Sample the quadratic form and check the two-sided bound chain.

    ``vectors`` (..., trials, m) are complex sample directions the caller
    drew, one block of trials per tuple of ``s``; each is normalised here.
    Over them the form must stay within the extreme eigenvalues; the
    eigenvalue floor det S / lambda_max^(m-1) bounds it from below, and when
    the root spacing is at least ``omega`` so does the product floor
    omega^(m^2 - m).  Violations are counted, not raised.
    """
    vectors = np.asarray(vectors)
    if vectors.ndim < 2 or vectors.shape[-2] < 1:
        raise InvalidParameterError(
            "need trial vectors (..., trials, m) with at least one trial")
    m = s.order
    forms = []
    # one trial of every tuple at a time: the temporaries of a pass over all
    # trials at once raise the symmetriser audit's peak RSS by about 0.7 MB
    for v in np.moveaxis(vectors, -2, 0):
        norm = np.sqrt(_self_dot(v.real) + _self_dot(v.imag))
        forms.append(s.quadratic_form(v / norm[..., None]))
    min_form = np.min(forms, axis=0)
    max_form = np.max(forms, axis=0)
    eigen = np.linalg.eigvalsh(s.matrix)
    lam_min = eigen[..., 0]
    lam_max = eigen[..., -1]
    lower = s.det_value / np.float_power(np.maximum(lam_max, 1e-300), m - 1)
    violations = (min_form < lower - 1e-12).astype(int)
    violations += lam_min < -1e-12 * np.maximum(lam_max, 1.0)
    det_floor = np.full(np.shape(lam_max), math.nan)
    if omega is not None:
        applies = s.spacing >= omega
        det_floor[applies] = omega ** (m * m - m)
        violations += applies & (s.det_value < det_floor * (1.0 - 1e-12))
    return QuadraticBoundsReport(
        min_form=min_form[()], max_form=max_form[()], eigen_min=lam_min[()],
        eigen_max=lam_max[()], det_floor=det_floor[()],
        violations=violations[()])
