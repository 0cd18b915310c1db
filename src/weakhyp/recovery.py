"""Signed elementary symmetric functions and principal-coefficient recovery.

The characteristic polynomial of a regularised root system (built by
:func:`reduction.characteristic_polynomial`) has coefficients
``sigma_h = (-1)^h e_h(roots)``; evaluated along finitely many frequency
directions these pin down every homogeneous coefficient through a staircase
of small linear solves, one invertible block per monomial support set.  The
round trip closes the loop: recovered coefficients are turned back into a
polynomial whose companion eigenvalues must reproduce the regularised roots.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import (InvalidParameterError, PlanError, WeakHypError,
                     numerical_errors)
from .mollifiers import Mollifier
from .roots import (RegularisedRoots, RootFamily, bracket,
                    roots_from_linear_forms, separating_shift)
from .profiles import piecewise_constant_profile
from .reduction import (characteristic_polynomial, companion_matrix,
                        companion_row)

Array = np.ndarray


# -- direction plans --------------------------------------------------------------


def multi_indices(degree: int, dimension: int) -> list[tuple[int, ...]]:
    """All nu in N^dimension with |nu| = degree, lexicographically sorted."""
    if dimension == 1:
        return [(degree,)]
    out = []
    for head in range(degree + 1):
        for tail in multi_indices(degree - head, dimension - 1):
            out.append((head,) + tail)
    return sorted(out)


def _monomial(xi: Sequence[float], nu: tuple[int, ...]) -> float:
    return math.prod(x ** p for x, p in zip(xi, nu) if p)


@dataclass(frozen=True)
class SupportBlock:
    """One invertible solve: all indices sharing a monomial support set."""

    support: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    directions: tuple[tuple[float, ...], ...]
    matrix: np.ndarray
    condition: float


@dataclass(frozen=True)
class DirectionPlan:
    blocks: tuple[SupportBlock, ...]

    @property
    def directions(self) -> list[tuple[float, ...]]:
        return [d for b in self.blocks for d in b.directions]


def _candidate_rays(support: tuple[int, ...], dimension: int
                    ) -> list[tuple[float, ...]]:
    """Vectors with entries in {1, 2} on the support, proportional ones pruned."""
    rays: list[tuple[float, ...]] = []
    seen: set[tuple[float, ...]] = set()
    for combo in itertools.product((1.0, 2.0), repeat=len(support)):
        vec = [0.0] * dimension
        for c, v in zip(support, combo):
            vec[c] = v
        norm = math.sqrt(sum(v * v for v in vec))
        key = tuple(round(v / norm, 12) for v in vec)
        if key in seen:
            continue
        seen.add(key)
        rays.append(tuple(vec))
    return sorted(rays)


#: condition number of a block's direction matrix above which the plan
#: treats the block as singular
_COND_SINGULAR = 1e14


@lru_cache(maxsize=None)
def build_direction_plan(degree: int, dimension: int) -> DirectionPlan:
    """Directions and solve matrices for one homogeneity degree.

    Support sets are processed smallest first (single coordinates use the
    unit directions), so each block's right-hand side only involves already
    recovered coefficients.  For each block the candidate pool of {0,1,2}
    direction vectors is searched exhaustively for the best-conditioned
    square submatrix; the pools are tiny at desk scale.  Numerically
    singular blocks raise :class:`PlanError`; every block keeps its
    condition number, which the roundtrip summary lists.
    """
    if degree < 1:
        raise InvalidParameterError("degree must be >= 1")
    if dimension < 1:
        raise InvalidParameterError("dimension must be >= 1")
    all_nu = multi_indices(degree, dimension)
    supports = sorted({tuple(i for i, p in enumerate(nu) if p) for nu in all_nu},
                      key=lambda s: (len(s), s))
    blocks = []
    for support in supports:
        members = tuple(nu for nu in all_nu
                        if tuple(i for i, p in enumerate(nu) if p) == support)
        rays = _candidate_rays(support, dimension)
        k = len(members)
        if len(rays) < k:
            raise PlanError(
                f"support {support} of degree {degree}: only {len(rays)} "
                f"independent rays for {k} unknowns")
        best: tuple[float, tuple[int, ...]] | None = None
        for combo in itertools.combinations(range(len(rays)), k):
            mat = np.array([[_monomial(rays[r], nu) for nu in members]
                            for r in combo])
            cond = float(np.linalg.cond(mat))
            if best is None or cond < best[0]:
                best = (cond, combo)
        cond, combo = best
        if not math.isfinite(cond) or cond > _COND_SINGULAR:
            raise PlanError(
                f"support {support} of degree {degree}: no candidate "
                f"direction set is invertible (best condition {cond:.3e})")
        directions = tuple(rays[r] for r in combo)
        matrix = np.array([[_monomial(d, nu) for nu in members]
                           for d in directions])
        blocks.append(SupportBlock(support, members, directions, matrix, cond))
    return DirectionPlan(tuple(blocks))


# -- coefficient recovery -----------------------------------------------------------


def sigma_table(reg: RegularisedRoots, t: Array,
                directions: Sequence[tuple[float, ...]]
                ) -> dict[tuple[float, ...], Array]:
    """Signed symmetric functions ``[1, sigma_1, ..., sigma_m]`` (T, m + 1)
    of the pure regularised roots at the times ``t`` along each direction.

    The root profiles come from one :meth:`RegularisedRoots.direction_table`
    call, scaled by each direction's length, and one characteristic
    polynomial is taken over all directions together.
    """
    return symmetric_functions(reg.direction_table(t, directions),
                               directions)


def symmetric_functions(table: Array,
                        directions: Sequence[tuple[float, ...]]
                        ) -> dict[tuple[float, ...], Array]:
    """:func:`sigma_table` of a direction table that holds one row per
    direction, in order."""
    norms = np.array([np.linalg.norm(np.asarray(d, dtype=float))
                      for d in directions])
    sigma = characteristic_polynomial(
        np.swapaxes(table * norms[:, None, None], 1, 2))
    return dict(zip(directions, sigma))


@dataclass
class HomogeneousCoefficientSet:
    """Recovered coefficients of one homogeneity degree.

    Evaluation is exact at every requested time: the block matrices are
    time independent, so recovery at a batch of times is one factorised
    solve against stacked right-hand sides, with no interpolation step.
    """

    degree: int
    dimension: int
    roots: RegularisedRoots
    plan: DirectionPlan

    def evaluate(self, t: Array | float,
                 sigma: Mapping[tuple[float, ...], Array]
                 ) -> Mapping[tuple[int, ...], Array]:
        """Values of every coefficient of this degree at the given times.

        ``sigma`` is a :func:`sigma_table` at these times that holds at
        least the plan's directions.
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        values: dict[tuple[int, ...], Array] = {}
        for block in self.plan.blocks:
            rhs = np.empty((len(block.directions), t_arr.size))
            for r, xi in enumerate(block.directions):
                acc = -sigma[xi][:, self.degree]
                for nu, vals in values.items():
                    if all(nu[i] == 0 or i in block.support
                           for i in range(self.dimension)):
                        acc -= vals * _monomial(xi, nu)
                rhs[r] = acc
            sol = np.linalg.solve(block.matrix, rhs)
            for i, nu in enumerate(block.members):
                values[nu] = sol[i]
        return values

    def reconstruction_residual(self, t: Array) -> float:
        """Max relative defect of the polynomial reconstruction
        ``-sum_nu a_nu(t) xi^nu`` against sigma at the plan's directions."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        sigma = sigma_table(self.roots, t_arr, self.plan.directions)
        values = self.evaluate(t_arr, sigma)
        worst = 0.0
        for xi in self.plan.directions:
            target = sigma[xi][:, self.degree]
            got = -sum(vals * _monomial(xi, nu) for nu, vals in values.items())
            scale = max(float(np.max(np.abs(target))), 1.0)
            worst = max(worst, float(np.max(np.abs(got - target))) / scale)
        return worst


def recover_coefficients(reg: RegularisedRoots, degree: int, dimension: int
                         ) -> HomogeneousCoefficientSet:
    """Solve the direction-plan systems for one homogeneity degree.

    Works on the pure convolution part of the regularised roots: that part
    is exactly homogeneous of degree one, so its symmetric functions are the
    polynomial data the plan inverts.  The separating shift is not a
    polynomial symbol and is reattached exactly where systems are assembled.
    """
    if degree > reg.order:
        raise InvalidParameterError(
            f"degree {degree} exceeds the family order {reg.order}")
    plan = build_direction_plan(degree, dimension)
    return HomogeneousCoefficientSet(degree=degree, dimension=dimension,
                                     roots=reg, plan=plan)


# -- round trip ------------------------------------------------------------------


@dataclass(frozen=True)
class RoundTripReport:
    max_rel_error: float
    failures: tuple[str, ...]


def round_trip_check(family: RootFamily, mollifier: Mollifier,
                     omega: float, trials: int,
                     rng: random.Random | None = None) -> RoundTripReport:
    """Regularise at the scale ``omega``, recover, rebuild the polynomial,
    root-solve, compare.

    ``omega`` is the number omega(eps) itself: no eps enters the round trip.
    Each probe draws a random (t, xi) in the positive frequency orthant from
    ``rng`` (``random.Random(0)`` by default): t uniform on [0, horizon]
    first, then xi's components uniform on [0.3, 2.5], probe by probe.
    The family is tabulated once: one
    :meth:`RegularisedRoots.direction_table` at all probe times runs along
    every direction of every degree's plan and then along the probes' own
    directions.  The plan rows give the symmetric functions, from which each
    degree's recovered coefficients are evaluated in one batched solve, and
    the probe rows give the reference roots.  Each probe then rebuilds
    ``tau^m + sum sigma_hat_h tau^(m-h)``; one stacked call takes every
    probe's companion-matrix eigenvalues, and each probe compares its
    sorted roots, each with its separating shift, against the reference
    roots with theirs.  Failures are recorded, not raised: a failed batched
    evaluation fails every probe.  A direction
    plan with a singular block raises :class:`PlanError` before any probe;
    the condition numbers of the blocks stay on the plan
    (``SupportBlock.condition``), not in the report.
    """
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    rng = rng or random.Random(0)
    reg = RegularisedRoots(family, mollifier, omega)
    m, n = family.order, family.dimension
    sets = {j: recover_coefficients(reg, j, n) for j in range(1, m + 1)}
    draws = []
    for _ in range(trials):
        t = rng.uniform(0.0, family.horizon)
        draws.append((t, tuple(rng.uniform(0.3, 2.5) for _ in range(n))))
    t_all = np.array([t for t, _ in draws])
    xis = [xi for _, xi in draws]
    directions = list(dict.fromkeys(
        d for cset in sets.values() for d in cset.plan.directions))
    try:
        with numerical_errors():
            table = reg.direction_table(t_all, directions + xis)
            sigma = symmetric_functions(table[:len(directions)], directions)
            values = {h: sets[h].evaluate(t_all, sigma)
                      for h in range(1, m + 1)}
            # probe i's root profiles along its xi at its own t: (trials, m)
            table = table[len(directions):]
            index = np.arange(trials)
            norms = np.linalg.norm(np.array(xis), axis=1)
            shifts = separating_shift(m, omega, bracket(norms)).T
            references = table[index, :, index] * norms[:, None] + shifts
            # each probe's rebuilt polynomial, each coefficient summed in
            # scalar arithmetic over the monomials
            coeffs = np.ones((trials, m + 1))
            for i, xi in enumerate(xis):
                for h in range(1, m + 1):
                    coeffs[i, h] = -sum(vals[i] * _monomial(xi, nu)
                                        for nu, vals in values[h].items())
            eig = np.linalg.eigvals(companion_matrix(companion_row(coeffs)))
    except WeakHypError as exc:  # reported, not thrown
        failures = tuple(f"probe (t={t:.6g}, xi={xi}): {exc}"
                         for t, xi in draws)
        return RoundTripReport(0.0, failures=failures)
    worst = 0.0
    for shifted, reference in zip(np.sort(np.real(eig)) + shifts,
                                  references):
        ref_scale = max(1.0, float(np.max(np.abs(reference))))
        worst = max(worst, float(np.max(np.abs(shifted - reference)))
                    / ref_scale)
    return RoundTripReport(worst, failures=())


# -- random families ---------------------------------------------------------------


#: step between the coefficient levels of consecutive random roots
_ROOT_GAP = 0.8


def random_ordered_family(rng: random.Random, order: int,
                          dimension: int) -> RootFamily:
    """Random ordered bounded family from piecewise-constant linear forms
    on the time interval [0, 1].

    The coefficient profiles draw from ``rng`` root by root, and within a
    root component by component.  Each draws its number of breaks (1 to 3),
    the breaks (uniform on [0.1, 0.9], then sorted) and one value per piece
    (uniform on [0, 0.6*_ROOT_GAP] above root j's level j*_ROOT_GAP).

    Coefficients of consecutive roots increase componentwise by at least
    0.4*_ROOT_GAP, which orders the family on the closed positive orthant;
    probes and plans only sample there.  Linear-form symbols keep every
    symmetric function exactly polynomial, which is what makes the round
    trip exact.
    """
    coeff_profiles = []
    for j in range(1, order + 1):
        row = []
        for _ in range(dimension):
            n_breaks = rng.randint(1, 3)
            inner = sorted(rng.uniform(0.1, 0.9) for _ in range(n_breaks))
            vals = [j * _ROOT_GAP + rng.uniform(0.0, 0.6 * _ROOT_GAP)
                    for _ in range(n_breaks + 1)]
            row.append(piecewise_constant_profile([0.0, *inner, 1.0], vals,
                                                  (0.0, 1.0)))
        coeff_profiles.append(row)
    return roots_from_linear_forms(coeff_profiles)


@dataclass(frozen=True)
class RoundTripStudy:
    max_rel_error: float
    rows: tuple[tuple[int, int, float], ...]  # (order, dimension, rel_error)
    failures: tuple[str, ...]


def random_round_trip_study(n_families: int, mollifier: Mollifier,
                            omega: float, rng: random.Random,
                            max_order: int = 4, max_dimension: int = 3,
                            probes_per_family: int = 2) -> RoundTripStudy:
    """Round trips over random families sweeping orders and dimensions.

    Family i has order ``1 + i % max_order`` and dimension
    ``1 + (i // max_order) % max_dimension``.  One ``rng`` serves every
    draw: each family draws its profiles
    (:func:`random_ordered_family`) and then its probes
    (:func:`round_trip_check`) before the next family draws.
    """
    rows: list[tuple[int, int, float]] = []
    failures: list[str] = []
    worst = 0.0
    for i in range(n_families):
        order = 1 + i % max_order
        dimension = 1 + (i // max_order) % max_dimension
        family = random_ordered_family(rng, order, dimension)
        report = round_trip_check(family, mollifier, omega,
                                  trials=probes_per_family, rng=rng)
        rows.append((order, dimension, report.max_rel_error))
        failures.extend(report.failures)
        worst = max(worst, report.max_rel_error)
    return RoundTripStudy(worst, tuple(rows), tuple(failures))
