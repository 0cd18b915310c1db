"""Vectorised Gauss-Legendre quadrature with per-point adaptive refinement.

All integrals in the package are over compact intervals with piecewise-smooth
integrands, so Gauss-Legendre panels with node doubling converge fast on the
smooth parts and the per-point convergence mask keeps the cost of the few
singular evaluation points contained.

The n-point rule comes from Newton iteration on the three-term Legendre
recurrence, O(n) memory and O(n^2) time, instead of the eigenvalues of a
dense n x n matrix; and the Fourier panels sum their rows with ``einsum``.
Neither calls BLAS or LAPACK, so a solve wakes none of their threads.
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


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    # (1 - x^2) P_n' = n (P_{n-1} - x P_n), without the cancellation of x^2 - 1
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    The nonnegative nodes are found by vectorised Newton iteration on the
    Legendre recurrence, started from Tricomi's guesses
    ``cos(pi (4k - 1) / (4n + 2))``; odd n has the node 0 exactly.  The
    weights are ``2 / ((1 - x^2) P_n'(x)^2)``.  Both are mirrored, so the
    nodes ascend and are exactly antisymmetric and the weights exactly
    symmetric.  Memory is O(n), time O(n^2).
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0
    # Newton converges from these guesses in at most five steps; a step at
    # the rounding level means the iterate before it had converged already
    for _ in range(10):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    half = n // 2
    return (np.concatenate((-x[:half], x[::-1])),
            np.concatenate((w[:half], w[::-1])))


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

    result[pending] = fixed_panel(lambda p: fn(p, pending), lo[pending],
                                  hi[pending], _MIN_NODES)
    n = 2 * _MIN_NODES
    while pending.size and n <= n_max:
        fine = fixed_panel(lambda p: fn(p, pending), lo[pending], hi[pending],
                           n)
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
        # phase blocks of 8192 entries (128 KiB), or one row if longer:
        # freeing a larger one from its own mapping raises malloc's mmap and
        # trim thresholds, and the heap then keeps what later stages free
        rows = max(1, 8192 // n)
        return 0.5 * length * np.concatenate([
            np.einsum("ij,j->i", np.exp(-1j * np.outer(freqs[k:k + rows], s)),
                      base) for k in range(0, freqs.size, rows)])

    # start each frequency at a node count proportional to its period count
    n_start = np.maximum(_MIN_NODES,
                         (0.75 * np.abs(xi) * length / np.pi + 8).astype(int))
    n_start = np.minimum(n_start, n_max // 4)
    pending = np.arange(xi.size)
    n_current = (2 ** np.ceil(np.log2(n_start))).astype(int)
    # the distinct node counts, ascending; np.unique would import numpy.ma
    for n in sorted(set(n_current.tolist())):
        sel = np.flatnonzero(n_current == n)
        result[sel] = one_batch(xi[sel], n)
    scale = max(float(np.max(np.abs(result))), 1e-30)
    while pending.size:
        n_next = n_current[pending] * 2
        if np.any(n_next > n_max):
            bad = pending[n_next > n_max]
            raise QuadratureError(
                f"oscillatory integral: {bad.size} frequencies did not "
                f"converge with {n_max} nodes")
        fresh = np.empty(pending.size, dtype=complex)
        for n in sorted(set(n_next.tolist())):
            sel = n_next == n
            fresh[sel] = one_batch(xi[pending[sel]], n)
        err = np.abs(fresh - result[pending])
        result[pending] = fresh
        n_current[pending] = n_next
        pending = pending[err > OSCILLATORY_TOL * scale + 1e-300]
    return result.reshape(shape)
