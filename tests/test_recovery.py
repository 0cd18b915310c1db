import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhyp import recovery
from weakhyp.errors import InvalidParameterError, NumericalError
from weakhyp.mollifiers import friedrichs_mollifier
from weakhyp.profiles import constant_profile
from weakhyp.recovery import (HomogeneousCoefficientSet,
                              build_direction_plan, random_ordered_family,
                              random_round_trip_study, recover_coefficients,
                              round_trip_check)
from weakhyp.reduction import characteristic_polynomial
from weakhyp.roots import (RegularisedRoots, RootFamily, constant_roots,
                           linear_scale, wave_speed_roots)
from weakhyp.profiles import heaviside_profile

from oracles import (coefficient, evaluate, pure_root, sigma_hat,
                     sigma_per_row, table_per_coefficient,
                     table_per_direction)


@pytest.fixture(scope="module")
def phi():
    return friedrichs_mollifier()


# -- symmetric functions ---------------------------------------------------------


def sigma(roots, h):
    """sigma_h = (-1)^h e_h(roots), read off the characteristic polynomial."""
    roots = np.asarray(roots)
    m = roots.shape[-1] if roots.ndim else 1
    if not 0 <= h <= m:
        raise InvalidParameterError(f"level {h} outside 0..{m}")
    coeffs = characteristic_polynomial(roots)[..., h]
    return float(coeffs) if coeffs.ndim == 0 else coeffs


def test_sigma_examples():
    assert sigma([1.0, 2.0, 3.0], 1) == pytest.approx(-6.0)
    assert sigma([1.0, 2.0, 3.0], 2) == pytest.approx(11.0)
    assert sigma([1.0, 2.0, 3.0], 3) == pytest.approx(-6.0)
    assert sigma([1.0, 2.0], 0) == 1.0


def test_sigma_out_of_range():
    with pytest.raises(InvalidParameterError):
        sigma([1.0, 2.0], 3)
    with pytest.raises(InvalidParameterError):
        sigma([1.0, 2.0], -1)


def test_characteristic_polynomial_examples():
    assert np.allclose(characteristic_polynomial([1.0, 2.0, 3.0]),
                       [1.0, -6.0, 11.0, -6.0])
    assert np.allclose(characteristic_polynomial([0.0, 0.0, 0.0]),
                       [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(characteristic_polynomial([-1.0, 1.0]),
                       [1.0, 0.0, -1.0])


def test_characteristic_polynomial_batch_matches_scalar_recursion():
    # each batch entry gets exactly the arithmetic of c_j -= r_i c_(j-1)
    roots = np.random.default_rng(4).standard_normal((5, 7, 3))
    batch = characteristic_polynomial(roots)
    assert batch.shape == (5, 7, 4)
    for idx in np.ndindex(5, 7):
        coeffs = [1.0, 0.0, 0.0, 0.0]
        for i, r in enumerate(roots[idx].tolist()):
            for j in range(i + 1, 0, -1):
                coeffs[j] = coeffs[j] - r * coeffs[j - 1]
        assert batch[idx].tolist() == coeffs


def sigma_brute_force(roots, h):
    """Direct subset enumeration; test oracle for :func:`sigma`."""
    roots = list(roots)
    if not 0 <= h <= len(roots):
        raise InvalidParameterError(f"level {h} outside 0..{len(roots)}")
    if h == 0:
        return 1.0
    total = 0.0
    for combo in itertools.combinations(roots, h):
        total += math.prod(combo)
    return (-1.0) ** h * total


@given(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_sigma_matches_brute_force(roots):
    for h in range(len(roots) + 1):
        fast = sigma(np.array(roots), h)
        slow = sigma_brute_force(roots, h)
        assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))


# -- direction plans --------------------------------------------------------------


@pytest.mark.parametrize("degree,dimension",
                         [(j, n) for j in range(1, 5) for n in range(1, 4)])
def test_plans_are_well_conditioned(degree, dimension):
    plan = build_direction_plan(degree, dimension)
    members = [nu for b in plan.blocks for nu in b.members]
    # every multi-index of the degree appears exactly once
    assert len(members) == len(set(members))
    total = sum(1 for _ in itertools.product(*[range(degree + 1)] * dimension)
                )  # coarse upper bound sanity only
    for block in plan.blocks:
        assert block.condition < 1e6
        assert block.matrix.shape[0] == len(block.members)


def test_unit_support_blocks_use_coordinate_directions():
    plan = build_direction_plan(3, 3)
    unit_blocks = [b for b in plan.blocks if len(b.support) == 1]
    for block in unit_blocks:
        (direction,) = block.directions
        assert sum(1 for v in direction if v != 0.0) == 1


# -- recovery ---------------------------------------------------------------------


def test_wave_coefficient_recovery(phi):
    reg = RegularisedRoots(constant_roots([-1.0, 1.0]), phi, 0.05)
    cs = recover_coefficients(reg, 2, 1)
    value = float(coefficient(cs, (2,))(0.4))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_anisotropic_recovery_matches_single_solve_oracle(phi):
    # roots -/+ sqrt(xi1^2 + 4 xi2^2): coefficients (1, 4, 0)
    def features(d):
        return np.sqrt(d[:, 0] ** 2 + 4.0 * d[:, 1] ** 2)[:, None]

    fam = RootFamily(order=2, dimension=2,
                     coefficients=((constant_profile(-1.0, (-2.0, 3.0)),),
                                   (constant_profile(1.0, (-2.0, 3.0)),)),
                     features=features, bound=2.0, horizon=1.0)
    reg = RegularisedRoots(fam, phi, 0.05)
    cs = recover_coefficients(reg, 2, 2)
    got = {nu: float(v[0]) for nu, v in evaluate(cs, 0.3).items()}

    # oracle: one 3x3 solve over directions (1,0), (0,1), (1,1)
    directions = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    members = [(2, 0), (0, 2), (1, 1)]
    mat = np.array([[d[0] ** nu[0] * d[1] ** nu[1] for nu in members]
                    for d in directions])
    rhs = []
    for d in directions:
        lam = np.array([float(pure_root(reg, j, 0.3, d)) for j in (1, 2)])
        rhs.append(-sigma(lam, 2))
    oracle = dict(zip(members, np.linalg.solve(mat, rhs)))
    for nu in members:
        assert got[nu] == pytest.approx(oracle[nu], abs=1e-10)
    assert got[(2, 0)] == pytest.approx(1.0, abs=1e-10)
    assert got[(0, 2)] == pytest.approx(4.0, abs=1e-10)
    assert got[(1, 1)] == pytest.approx(0.0, abs=1e-10)


def test_linear_root_recovery_exact(phi):
    b = (2.0, -1.0, 0.5)

    fam = RootFamily(order=1, dimension=3,
                     coefficients=(tuple(constant_profile(v, (-2.0, 3.0))
                                         for v in b),),
                     features=lambda d: d, bound=3.0, horizon=1.0)
    reg = RegularisedRoots(fam, phi, 0.05)
    cs = recover_coefficients(reg, 1, 3)
    got = evaluate(cs, 0.5)
    assert float(got[(1, 0, 0)][0]) == pytest.approx(2.0, abs=1e-12)
    assert float(got[(0, 1, 0)][0]) == pytest.approx(-1.0, abs=1e-12)
    assert float(got[(0, 0, 1)][0]) == pytest.approx(0.5, abs=1e-12)


def test_reconstruction_residual_small_on_plan(phi):
    fam = random_ordered_family(random.Random(3), 3, 2)
    reg = RegularisedRoots(fam, phi, 0.05)
    cs = recover_coefficients(reg, 3, 2)
    assert cs.reconstruction_residual(np.linspace(0.0, 1.0, 7)) <= 1e-9


def test_polynomial_reproduction_at_random_directions(phi):
    rng = random.Random(8)
    fam = random_ordered_family(rng, 2, 3)
    reg = RegularisedRoots(fam, phi, 0.05)
    cs = recover_coefficients(reg, 2, 3)
    t = np.array([0.37])
    for _ in range(50):
        xi = tuple(rng.uniform(0.2, 2.0) for _ in range(3))
        lam = np.array([float(pure_root(reg, j, 0.37, xi)) for j in (1, 2)])
        target = sigma(lam, 2)
        got = sigma_hat(cs, 0.37, xi)
        assert abs(got - target) <= 1e-9 * max(1.0, abs(target))


def test_recovered_coefficients_converge_with_roots(phi):
    # continuous speed: roots converge uniformly, so must the coefficients
    from weakhyp.profiles import hoelder_profile
    speed = hoelder_profile(0.5, 0.5, 1.0, 1.0, (0.0, 1.0))
    fam = wave_speed_roots(speed)
    t = np.linspace(0.0, 1.0, 65)
    reference = np.real(speed.density(t))  # recovered degree-2 value is a(t)
    sups = []
    for eps in (0.2, 0.1, 0.05):
        reg = RegularisedRoots(fam, phi, linear_scale()(eps))
        cs = recover_coefficients(reg, 2, 1)
        vals = np.asarray(coefficient(cs, (2,))(t), dtype=float)
        sups.append(float(np.max(np.abs(vals - reference))))
    assert sups[0] > sups[1] > sups[2]


# -- round trips --------------------------------------------------------------------


def test_round_trip_constant_distinct_roots(phi):
    fam = constant_roots([-1.0, 0.5, 2.0])
    report = round_trip_check(fam, phi, 0.05, trials=4,
                              rng=random.Random(0))
    assert not report.failures
    assert report.max_rel_error <= 1e-10


def test_round_trip_zero_roots_exact(phi):
    fam = constant_roots([0.0, 0.0, 0.0])
    report = round_trip_check(fam, phi, 0.05, trials=3,
                              rng=random.Random(1))
    assert report.max_rel_error <= 1e-12


def test_round_trip_rejects_zero_trials(phi):
    with pytest.raises(InvalidParameterError):
        round_trip_check(constant_roots([0.0]), phi, 0.05, trials=0)


def test_round_trip_probes_keep_the_draw_order(phi, monkeypatch):
    # the family is tabulated once, at the probe times, along the plan
    # directions and then along the probe directions, in draw order
    seen = []
    table = RegularisedRoots.direction_table

    def spy(self, t, directions):
        seen.append((list(t), list(directions)))
        return table(self, t, directions)

    monkeypatch.setattr(RegularisedRoots, "direction_table", spy)
    fam = constant_roots([-1.0, 0.5, 2.0], dimension=2)
    report = round_trip_check(fam, phi, 0.05, trials=5,
                              rng=random.Random(4))
    fresh = random.Random(4)
    expected = []
    for _ in range(5):  # t, then xi, probe by probe
        t = fresh.uniform(0.0, fam.horizon)
        expected.append((t, tuple(fresh.uniform(0.3, 2.5) for _ in range(2))))
    assert len(seen) == 1
    times, directions = seen[0]
    assert times == [t for t, _ in expected]
    assert directions[-5:] == [xi for _, xi in expected]
    assert not report.failures


def test_round_trip_failed_evaluation_fails_every_probe(phi, monkeypatch):
    def broken(self, t, sigma):
        raise NumericalError("singular block")

    monkeypatch.setattr(HomogeneousCoefficientSet, "evaluate", broken)
    report = round_trip_check(constant_roots([-1.0, 2.0]), phi, 0.05,
                              trials=4, rng=random.Random(0))
    assert len(report.failures) == 4
    assert all("singular block" in f for f in report.failures)


def test_random_round_trip_study_small(phi):
    study = random_round_trip_study(12, phi, 0.05,
                                    random.Random(21))
    assert not study.failures
    assert study.max_rel_error <= 1e-8
    orders = {m for m, _, _ in study.rows}
    assert orders == {1, 2, 3, 4}


@pytest.mark.parametrize("seed", [1, 5, 7, 21])
def test_random_round_trip_error_is_rounding(phi, seed):
    # each probe's reference comes from its exact direction: recovery is
    # exact for linear-form families, so only rounding is left
    study = random_round_trip_study(12, phi, 0.05,
                                    random.Random(seed))
    assert not study.failures
    assert study.max_rel_error <= 1e-12


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_round_trip_check_equals_per_root_oracle(phi, order, dimension,
                                                 seed):
    # the one table per family against each direction's roots from a table
    # of that direction alone, and its symmetric functions from them alone
    family = random_ordered_family(random.Random(seed), order, dimension)
    report = round_trip_check(family, phi, 0.05, trials=3,
                              rng=random.Random(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RegularisedRoots, "direction_table",
                      table_per_direction)
        patch.setattr(recovery, "symmetric_functions", sigma_per_row)
        oracle = round_trip_check(family, phi, 0.05, trials=3,
                                  rng=random.Random(seed))
    assert report == oracle
    assert not report.failures


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_round_trip_tables_equal_the_per_coefficient_oracle(phi, seed):
    # the audit's families, drawn as its study draws them: the stacked
    # convolution gives each table the bits of one convolution per
    # coefficient, and so the study its figures
    rng = random.Random(seed)
    for i in range(12):
        order, dimension = 1 + i % 4, 1 + (i // 4) % 3
        reg = RegularisedRoots(random_ordered_family(rng, order, dimension),
                               phi, 0.05)
        t = np.array([rng.uniform(0.0, 1.0) for _ in range(4)] + [0.0, 1.0])
        directions = [d for h in range(1, order + 1)
                      for d in build_direction_plan(h, dimension).directions]
        directions += [tuple(rng.uniform(0.3, 2.5) for _ in range(dimension))
                       for _ in range(2)]
        table = reg.direction_table(t, directions)
        oracle = table_per_coefficient(reg, t, directions)
        assert np.array_equal(table.view(np.int64), oracle.view(np.int64))
    study = random_round_trip_study(12, phi, 0.05, random.Random(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RegularisedRoots, "direction_table",
                      table_per_coefficient)
        oracle = random_round_trip_study(12, phi, 0.05, random.Random(seed))
    assert study == oracle
    assert not study.failures
