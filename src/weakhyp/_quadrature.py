"""Vectorised Gauss-Legendre quadrature with per-point adaptive refinement.

All integrals in the package are over compact intervals with piecewise-smooth
integrands, so Gauss-Legendre panels with node doubling converge fast on the
smooth parts and the per-point convergence mask keeps the cost of the few
singular evaluation points contained.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureError

#: default absolute tolerance for convolution-type integrals
DEFAULT_TOL = 1e-10
#: tolerance of Fourier-type integrals, relative to the largest magnitude
OSCILLATORY_TOL = 1e-12
#: fewest nodes of a first panel, in either refinement
_MIN_NODES = 16


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def fixed_panel(fn: Callable[[np.ndarray], np.ndarray],
                lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Integrate ``fn`` over [lo, hi] with one n-point panel per interval.

    ``lo`` and ``hi`` are broadcast arrays of interval endpoints; ``fn`` must
    accept an array of sample points of shape ``lo.shape + (n,)``.  Intervals
    with ``hi <= lo`` contribute zero.  Exact for polynomial integrands of
    degree <= 2n - 1.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    nodes, weights = gauss_rule(n)
    half = 0.5 * np.clip(hi - lo, 0.0, None)
    mid = lo + half
    points = mid[..., None] + half[..., None] * nodes
    values = fn(points)
    return (values * weights).sum(axis=-1) * half


def _indexed_panel(fn, lo: np.ndarray, hi: np.ndarray, n: int,
                   idx: np.ndarray) -> np.ndarray:
    nodes, weights = gauss_rule(n)
    half = 0.5 * (hi - lo)
    points = (lo + half)[:, None] + half[:, None] * nodes
    return (fn(points, idx) * weights).sum(axis=-1) * half


def adaptive_panel(fn: Callable[..., np.ndarray],
                   lo: np.ndarray, hi: np.ndarray,
                   tol: float = DEFAULT_TOL, n_max: int = 16384,
                   context: str = "integral") -> np.ndarray:
    """Integrate ``fn`` over per-point intervals, doubling nodes to tolerance.

    ``fn(points, idx)`` receives sample points of shape ``(len(idx), n)``
    together with the flat indices ``idx`` of the intervals being refined, so
    integrands may depend on the evaluation point the interval belongs to.
    Runs n and 2n node panels until the absolute difference drops below
    ``tol`` point by point; converged points are dropped from subsequent
    refinements.  Raises :class:`QuadratureError` when ``n_max`` nodes are
    insufficient.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    lo, hi = np.broadcast_arrays(lo, hi)
    shape = lo.shape
    lo = lo.ravel()
    hi = hi.ravel()

    result = np.zeros(lo.shape, dtype=complex)
    pending = np.flatnonzero(hi > lo)
    if pending.size == 0:
        return result.real.reshape(shape)

    result[pending] = _indexed_panel(fn, lo[pending], hi[pending], _MIN_NODES,
                                     pending)
    n = 2 * _MIN_NODES
    while pending.size and n <= n_max:
        fine = _indexed_panel(fn, lo[pending], hi[pending], n, pending)
        err = np.abs(fine - result[pending])
        result[pending] = fine
        pending = pending[err > tol]
        n *= 2
    if pending.size:
        raise QuadratureError(
            f"{context}: {pending.size} point(s) did not converge to "
            f"abs tol {tol:g} with {n_max} nodes")
    out = result.reshape(shape)
    return out if np.iscomplexobj(out) and np.any(out.imag) else out.real


def oscillatory_panel(fn: Callable[[np.ndarray], np.ndarray],
                      lo: float, hi: float, xi: np.ndarray,
                      n_max: int = 1 << 16) -> np.ndarray:
    """Fourier-type integral of ``fn(s) * exp(-i*s*xi)`` over [lo, hi].

    Vectorised over the frequency array ``xi``; the node count starts at a
    value proportional to the number of oscillation periods per frequency and
    doubles per unconverged frequency until :data:`OSCILLATORY_TOL` (relative
    to the running magnitude scale, with an absolute floor) is met.
    """
    xi = np.asarray(xi, dtype=float)
    shape = xi.shape
    xi = xi.ravel()
    if hi <= lo:
        return np.zeros(shape, dtype=complex)
    length = hi - lo
    result = np.zeros(xi.shape, dtype=complex)

    def one_batch(freqs: np.ndarray, n: int) -> np.ndarray:
        nodes, weights = gauss_rule(n)
        s = 0.5 * (lo + hi) + 0.5 * length * nodes
        base = fn(s) * weights
        phase = np.exp(-1j * np.outer(freqs, s))
        return 0.5 * length * phase @ base

    # start each frequency at a node count proportional to its period count
    n_start = np.maximum(_MIN_NODES,
                         (0.75 * np.abs(xi) * length / np.pi + 8).astype(int))
    n_start = np.minimum(n_start, n_max // 4)
    pending = np.arange(xi.size)
    n_current = (2 ** np.ceil(np.log2(n_start))).astype(int)
    for n in np.unique(n_current):
        sel = np.flatnonzero(n_current == n)
        result[sel] = one_batch(xi[sel], int(n))
    scale = max(float(np.max(np.abs(result))), 1e-30)
    while pending.size:
        n_next = n_current[pending] * 2
        if np.any(n_next > n_max):
            bad = pending[n_next > n_max]
            raise QuadratureError(
                f"oscillatory integral: {bad.size} frequencies did not "
                f"converge with {n_max} nodes")
        fresh = np.empty(pending.size, dtype=complex)
        for n in np.unique(n_next):
            sel = n_next == n
            fresh[sel] = one_batch(xi[pending[sel]], int(n))
        err = np.abs(fresh - result[pending])
        result[pending] = fresh
        n_current[pending] = n_next
        pending = pending[err > OSCILLATORY_TOL * scale + 1e-300]
    return result.reshape(shape)
