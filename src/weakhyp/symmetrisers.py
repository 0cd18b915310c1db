"""Symmetrisers of normalised companion matrices and their bound checks.

For sorted normalised roots mu_1 <= ... <= mu_m the rows of W hold the
monomial coefficients of prod_{j != i} (tau - mu_j), the left eigenvectors of
the companion matrix; S = W^T W is then symmetric, positive semi-definite,
intertwines S A = A^T S, and has det S = prod_{i<j} (mu_i - mu_j)^2, the
squared Vandermonde product that the separation lower bound feeds on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError
from .recovery import characteristic_polynomial
from .reduction import companion_matrix_from_coefficients

Array = np.ndarray


def normalised_companion(mu: Sequence[float]) -> Array:
    """Companion matrix (unit superdiagonal) with eigenvalues mu."""
    return np.real(companion_matrix_from_coefficients(
        characteristic_polynomial(np.asarray(mu, dtype=float))))


def eigenvector_rows(mu: Sequence[float]) -> Array:
    """Rows of left-eigenvector coefficients: W[i] holds, ascending in tau,
    the coefficients of prod_{j != i} (tau - mu_j)."""
    mu = np.asarray(mu, dtype=float)
    m = mu.size
    rows = np.empty((m, m))
    for i in range(m):
        others = np.delete(mu, i)
        descending = np.real(characteristic_polynomial(others)) \
            if others.size else np.array([1.0])
        rows[i] = descending[::-1]
    return rows


def vandermonde_product_squared(mu: Sequence[float]) -> float:
    """Brute-force prod_{i<j} (mu_j - mu_i)^2; determinant oracle."""
    mu = list(mu)
    prod = 1.0
    for i, j in itertools.combinations(range(len(mu)), 2):
        prod *= (mu[j] - mu[i]) ** 2
    return prod


@dataclass(frozen=True)
class Symmetriser:
    """Symmetric PSD matrix with S A = A^T S for the companion matrix of mu."""

    matrix: Array
    roots: tuple[float, ...]
    spacing: float
    det_value: float

    @property
    def order(self) -> int:
        return len(self.roots)

    def quadratic_form(self, v: Array) -> float:
        v = np.asarray(v)
        return float(np.real(np.conj(v) @ self.matrix @ v))

    def intertwining_residual(self) -> float:
        """Relative norm of S A - A^T S for the normalised companion."""
        a = normalised_companion(self.roots)
        s = self.matrix
        num = float(np.linalg.norm(s @ a - a.T @ s, 2))
        den = max(float(np.linalg.norm(s, 2)) * float(np.linalg.norm(a, 2)),
                  1e-300)
        return num / den


def build_symmetriser(mu: Sequence[float]) -> Symmetriser:
    """Symmetriser of the companion matrix with (sorted) eigenvalues mu.

    Coincident roots are legal and give a singular but still positive
    semi-definite matrix.  ``det_value`` is computed from the factor
    (det W)^2; the Gram structure keeps it accurate even when the plain LU
    determinant of S would drown in conditioning.
    """
    mu_arr = np.asarray(mu, dtype=float)
    if mu_arr.ndim != 1 or mu_arr.size < 1:
        raise InvalidParameterError("need a 1-d tuple of roots")
    if not np.all(np.isfinite(mu_arr)):
        raise InvalidParameterError("roots must be finite")
    rows = eigenvector_rows(mu_arr)
    gram = rows.T @ rows
    gram = 0.5 * (gram + gram.T)
    det_w = float(np.linalg.det(rows)) if mu_arr.size > 1 else 1.0
    spacing = float(np.min(np.diff(mu_arr))) if mu_arr.size > 1 else math.inf
    return Symmetriser(matrix=gram, roots=tuple(float(v) for v in mu_arr),
                       spacing=spacing, det_value=det_w ** 2)


# -- bound verification -----------------------------------------------------------


@dataclass(frozen=True)
class QuadraticBoundsReport:
    min_form: float
    max_form: float
    eigen_min: float
    eigen_max: float
    det_floor: float | None
    violations: tuple[str, ...]


def verify_quadratic_bounds(s: Symmetriser, trials: int,
                            rng: np.random.Generator | None = None,
                            omega: float | None = None) -> QuadraticBoundsReport:
    """Sample the quadratic form and check the two-sided bound chain.

    Over random complex unit vectors the form must stay within the extreme
    eigenvalues; the eigenvalue floor det S / lambda_max^(m-1) bounds it
    from below, and when the root spacing is at least ``omega`` so does the
    product floor omega^(m^2 - m).  Violations are reported, not raised.
    """
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    rng = rng or np.random.default_rng(0)
    m = s.order
    eigen = np.linalg.eigvalsh(s.matrix)
    violations: list[str] = []
    min_form = math.inf
    max_form = -math.inf
    for _ in range(trials):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v /= np.linalg.norm(v)
        q = s.quadratic_form(v)
        min_form = min(min_form, q)
        max_form = max(max_form, q)
    lam_min = float(eigen[0])
    lam_max = float(eigen[-1])
    lower = s.det_value / max(lam_max, 1e-300) ** (m - 1)
    if min_form < lower - 1e-12:
        violations.append(
            f"sampled form {min_form:.6e} below eigenvalue floor {lower:.6e}")
    if lam_min < -1e-12 * max(lam_max, 1.0):
        violations.append(f"negative eigenvalue {lam_min:.3e}")
    det_floor = None
    if omega is not None and s.spacing >= omega:
        det_floor = omega ** (m * m - m)
        if s.det_value < det_floor * (1.0 - 1e-12):
            violations.append(
                f"det {s.det_value:.6e} below separation floor {det_floor:.6e}")
    return QuadraticBoundsReport(
        min_form=min_form, max_form=max_form, eigen_min=lam_min,
        eigen_max=lam_max, det_floor=det_floor,
        violations=tuple(violations))

