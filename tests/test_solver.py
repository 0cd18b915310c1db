import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from weakhyp.errors import (ConfigurationError, DivergenceError,
                            InvalidParameterError, StabilityError,
                            WeakHypError)
from weakhyp.mollifiers import (convolve_profile, friedrichs_mollifier,
                                scale_mollifier)
from weakhyp.profiles import (Piece, RoughProfile, box_profile, bump_profile,
                              constant_profile, heaviside_profile,
                              piecewise_constant_profile, point_mass_profile,
                              polynomial_piece_profile, zero_profile)
from weakhyp.reduction import (InitialData, LowerOrderPart, LowerTerm,
                               RootValuePrincipal, SeparablePart,
                               build_companion, table_rows)
from weakhyp.roots import (bracket, constant_roots, dt_power, linear_scale,
                           roots_from_time_profiles, wave_speed_roots)
from weakhyp import solver
from weakhyp.solver import (FrequencyGrid, VeryWeakProblem, auto_box_length,
                            build_regularised_system, dalembert_reference,
                            energy_trace, integrate_companion, solve_single,
                            solve_very_weak, transport_reference)

from oracles import (PolynomialPrincipal, constant_entries, estimate_norm_svd,
                     max_relative_drift, staged_doubling_max, staged_rk4,
                     symmetriser_figures, trapezoid)


def solve_frequency(system, xi, epsilon, t_grid, every=1):
    """Amplitude trace V(t) at one frequency on every ``every``-th step of
    ``t_grid``, shape (m, n), as the batch of one; the member's failure is
    raised."""
    result, = integrate_companion([system], np.array([float(xi)]),
                                  np.asarray(t_grid, dtype=float), [epsilon],
                                  tracked_indices=(0,),
                                  trace_steps=range(0, len(t_grid), every))
    if isinstance(result, WeakHypError):
        raise result
    return result.traces[:, 0, :]


def _wave_principal(separable=None):
    return PolynomialPrincipal(
        order=2, coefficients={1: lambda t: np.zeros(np.shape(t)),
                               2: lambda t: np.ones(np.shape(t))},
        separable=separable)


def _lower_part(m, *terms):
    """The separable part of the lower-order ``terms`` alone, as given."""
    return SeparablePart(m, tuple(LowerOrderPart(m, terms).entries(
        lambda c: c)))


def _unit_data(m):
    return InitialData(tuple(
        (lambda xi: np.ones(np.shape(xi), dtype=complex)) if k == 0
        else (lambda xi: np.zeros(np.shape(xi), dtype=complex))
        for k in range(m)))


# -- grid --------------------------------------------------------------------------


def test_grid_requires_power_of_two():
    with pytest.raises(ConfigurationError):
        FrequencyGrid(100, 6.0)


def test_grid_requires_a_positive_finite_box():
    for box in (0.0, -4.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            FrequencyGrid(64, box)


def test_grid_fit_check():
    grid = FrequencyGrid(64, 4.0)
    with pytest.raises(ConfigurationError):
        grid.check_fit(1.0, 1.0, 1.0)


def test_grid_positions_of_grid_frequencies():
    grid = FrequencyGrid(64, 5.0)
    assert np.array_equal(grid.positions(grid.frequencies[::3]),
                          np.arange(0, 64, 3))
    with pytest.raises(InvalidParameterError):
        grid.positions(np.array([0.5]))


def test_grid_transform_round_trip():
    grid = FrequencyGrid(64, 5.0)
    u = np.cos(2.0 * np.pi * grid.x_nodes / 5.0) + 0.3
    back = grid.synthesise(grid.analyse(u))
    assert np.max(np.abs(back - u)) < 1e-12


# -- per-frequency integration --------------------------------------------------------


def test_zero_data_zero_forcing_stays_zero():
    system = build_companion(_wave_principal())
    trace = solve_frequency(system, 2.0, 1.0, np.linspace(0.0, 1.0, 65))
    assert np.all(trace == 0.0)


def test_scalar_exponential_modulus():
    principal = PolynomialPrincipal(
        order=1, coefficients={1: lambda t: np.ones(np.shape(t))})
    system = build_companion(principal, data=_unit_data(1))
    t_grid = np.linspace(0.0, 1.0, 1001)
    trace = solve_frequency(system, 2.0, 1.0, t_grid)
    assert abs(abs(trace[0, -1]) - 1.0) <= 1e-10
    assert abs(trace[0, -1] - np.exp(2j)) <= 1e-10


def test_wave_first_component_closed_form():
    system = build_companion(_wave_principal(), data=_unit_data(2))
    xi = 3.0
    t_grid = np.linspace(0.0, 1.0, 2001)
    trace = solve_frequency(system, xi, 1.0, t_grid)
    br = np.sqrt(1.0 + xi * xi)
    expected = br * np.cos(xi * t_grid)
    assert np.max(np.abs(trace[0] - expected)) <= 1e-8


def test_stability_budget_refusal():
    system = build_companion(_wave_principal(), data=_unit_data(2))
    with pytest.raises(StabilityError) as info:
        solve_frequency(system, 200.0, 1.0, np.linspace(0.0, 1.0, 17))
    assert info.value.required_steps > 16


def test_ill_formed_output_or_trace_steps_are_refused():
    # each step names one column, so a repeated step would leave one empty;
    # tracked columns without trace steps would be kept nowhere
    system = build_companion(_wave_principal(), data=_unit_data(2))
    t_grid = np.linspace(0.0, 1.0, 17)
    for steps in (dict(output_steps=(4, 4)), dict(trace_steps=(0, 8, 8)),
                  dict(tracked_indices=(0,))):
        with pytest.raises(InvalidParameterError):
            integrate_companion([system], np.array([2.0]), t_grid, **steps)


def test_superposition_linearity():
    xi = 4.0
    t_grid = np.linspace(0.0, 1.0, 801)

    def run(g0_val, f_val):
        data = InitialData((
            lambda x: g0_val * np.ones(np.shape(x), dtype=complex),
            lambda x: np.zeros(np.shape(x), dtype=complex)))
        forcing = None
        if f_val:
            forcing = SeparablePart(3, ((
                2, lambda t: f_val * np.ones(np.shape(t)),
                lambda x: np.ones(np.shape(x), dtype=complex)),))
        system = build_companion(_wave_principal(forcing), data)
        return solve_frequency(system, xi, 1.0, t_grid)

    combined = run(1.0, 0.5)
    parts = run(1.0, 0.0) + run(0.0, 0.5)
    scale = np.max(np.abs(combined))
    assert np.max(np.abs(combined - parts)) <= 1e-10 * scale


def _spiked_wave(spike_time, weight=1e7):
    # a needle in the lower-order coefficient, between stability samples
    from weakhyp.mollifiers import convolve_profile, scale_mollifier
    spike = convolve_profile(point_mass_profile(spike_time, weight=weight),
                             scale_mollifier(friedrichs_mollifier(), 0.05))
    return build_companion(
        _wave_principal(_lower_part(2, LowerTerm(0, 1, spike))), _unit_data(2))


def test_divergence_reported_with_location():
    system = _spiked_wave(0.19)
    with pytest.raises((DivergenceError, StabilityError)):
        solve_frequency(system, 2.0, 0.5, np.linspace(0.0, 1.0, 257))


def test_divergence_after_the_last_periodic_check_is_reported():
    # the spike overflows the state after step 192, the last multiple of 64;
    # only the check after the final step sees it
    system = _spiked_wave(0.95)
    with pytest.raises(DivergenceError):
        solve_frequency(system, 2.0, 0.5, np.linspace(0.0, 1.0, 257))


# -- energy -------------------------------------------------------------------------


def test_energy_conserved_for_constant_coefficients():
    system = build_companion(_wave_principal(), data=_unit_data(2))
    t_grid = np.linspace(0.0, 1.0, 2049)
    xi = 5.0
    trace = solve_frequency(system, xi, 1.0, t_grid, every=16)
    energy = energy_trace(system, trace[:, None], t_grid[::16], [xi])
    assert energy.energies.shape == (1, trace.shape[1])
    assert max_relative_drift(energy.energies[0]) <= 1e-8


def test_energy_trace_equals_per_time_symmetrisers():
    principal = PolynomialPrincipal(
        order=2, coefficients={1: lambda t: 0.3 * np.asarray(t),
                               2: lambda t: 1.0 + 0.5 * np.sin(
                                   3.0 * np.asarray(t))})
    system = build_companion(principal, data=_unit_data(2))
    t_grid = np.linspace(0.0, 1.0, 1025)
    xis = (4.0, -2.5)
    traces = np.stack([solve_frequency(system, xi, 1.0, t_grid, every=8)
                       for xi in xis], axis=1)
    energy = energy_trace(system, traces, t_grid[::8], xis)
    assert energy.energies.shape == traces.shape[1:]
    for k, xi in enumerate(xis):
        br = float(bracket(np.array(xi)))
        lam = principal.roots(energy.times, np.array([xi]))[:, :, 0]
        for row in range(traces.shape[2]):
            s = symmetriser_figures(np.sort(lam[row]) / br, np.ones((1, 2)),
                                    None)["matrix"]
            v = traces[:, k, row]
            assert energy.energies[k, row] \
                == float(np.real(np.conj(v) @ s @ v))


def test_energy_pure_forcing_bounded_by_quadrature_oracle():
    forcing = SeparablePart(3, ((
        2, lambda t: np.sin(np.pi * np.asarray(t)),
        lambda x: np.ones(np.shape(x), dtype=complex)),))
    system = build_companion(_wave_principal(forcing))
    t_grid = np.linspace(0.0, 1.0, 2049)
    xi = 3.0
    trace = solve_frequency(system, xi, 1.0, t_grid, every=8)
    energy = energy_trace(system, trace[:, None], t_grid[::8], [xi])
    # oracle: sqrt(E)' <= |S^(1/2) F|, so E(T) <= (int |S^(1/2) F| dt)^2
    from weakhyp.symmetrisers import build_symmetriser
    br = np.sqrt(1.0 + xi * xi)
    fine = np.linspace(0.0, 1.0, 4001)
    norms = []
    roots = system.principal.roots(fine, np.array([xi]))[:, :, 0]
    for t, lam in zip(fine, roots):
        sym = build_symmetriser(np.sort(lam) / br)
        f_vec = np.array([0.0, np.sin(np.pi * t)], dtype=complex)
        norms.append(np.sqrt(np.real(np.conj(f_vec) @ sym.matrix @ f_vec)))
    bound = float(trapezoid(np.asarray(norms), fine)) ** 2
    assert float(np.max(energy.energies)) <= bound * (1.0 + 1e-6)


# -- residual check -----------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    relative_l2: float
    interior_steps: tuple[int, int]
    note: str


def residual_check(u_dense, t_grid, grid, system):
    """Independent check that a gridded solution solves the regularised PDE.

    Time derivatives are 4th-order finite differences on interior nodes,
    space derivatives are spectral; the coefficients come from the same
    symbol providers the integrator used, but no ODE machinery is shared.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    u_dense = np.asarray(u_dense)
    m = system.order
    nt = t_grid.size - 1
    h = float(t_grid[1] - t_grid[0])
    halo = 3  # widest stencil reaches 3 steps either side
    if nt + 1 <= 2 * halo + 1:
        raise InvalidParameterError("grid too coarse for the residual stencil")
    uhat = grid.analyse(u_dense)
    xi = grid.frequencies
    br = bracket(xi)

    def shifted(k):
        return uhat[halo + k:nt + 1 - halo + k]

    t_interior = t_grid[halo:nt + 1 - halo]
    residual = dt_power(shifted, m, h)
    scale = float(np.linalg.norm(residual))
    rows = system.principal.row_provider(t_interior, xi)(slice(None))
    for j in range(1, m + 1):
        term = rows[:, m - j] * br ** (j - 1) * dt_power(shifted, m - j, h)
        residual = residual - term
        scale = max(scale, float(np.linalg.norm(term)))
    if system.width > m:
        force = rows[:, m]
        residual = residual - force
        scale = max(scale, float(np.linalg.norm(force)))
    rel = float(np.linalg.norm(residual)) / max(scale, 1e-300)
    return ResidualReport(relative_l2=rel,
                          interior_steps=(halo, nt - halo),
                          note="interior nodes only; 3-step halo excluded")


def _dense_wave_solution(grid, t_grid):
    system = build_companion(
        _wave_principal(),
        data=InitialData((
            lambda xi: bump_profile(0.0, 1.0).fourier_transform(xi),
            lambda xi: np.zeros(np.shape(xi), dtype=complex))))
    result, = integrate_companion([system], grid.frequencies, t_grid,
                                  output_steps=tuple(range(t_grid.size)))
    br = np.sqrt(1.0 + grid.frequencies ** 2)
    u_dense = grid.synthesise(result.first_component * br ** (-1))
    return u_dense, system


def test_residual_manufactured_plane_wave():
    grid = FrequencyGrid(64, 8.0)
    t_grid = np.linspace(0.0, 1.0, 257)
    xi0 = grid.frequencies[3]
    u = np.exp(1j * (xi0 * grid.x_nodes[None, :] - xi0 * t_grid[:, None]))
    system = build_companion(_wave_principal())
    report = residual_check(u, t_grid, grid, system)
    assert report.relative_l2 <= 1e-6


def test_residual_solver_output_and_noise_detector():
    grid = FrequencyGrid(64, 6.2)
    t_grid = np.linspace(0.0, 1.0, 513)
    u_dense, system = _dense_wave_solution(grid, t_grid)
    report = residual_check(u_dense, t_grid, grid, system)
    assert report.relative_l2 <= 1e-4
    rng = np.random.default_rng(0)
    noisy = u_dense * (1.0 + 0.1 * rng.standard_normal(u_dense.shape))
    noisy_report = residual_check(noisy, t_grid, grid, system)
    assert noisy_report.relative_l2 > 1e-2


# -- pipeline ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wave_problem():
    g0 = bump_profile(0.0, 1.0)
    return VeryWeakProblem(
        family=constant_roots([-1.0, 1.0]),
        data=(g0, zero_profile()),
        grid=FrequencyGrid(128, auto_box_length(1.0, 1.2, 1.0, 1.0)),
        time_steps=384, horizon=1.0, omega=linear_scale(),
        output_times=(0.0, 1.0), tracked_frequencies=(2.0, 8.0))


def test_problem_snaps_its_schedule(wave_problem):
    # 384 steps on [0, 1]: 0.3 lies nearest step 115 and 0.001 step 0; the
    # grid frequencies are 2 pi n / 6.4, so 2.0 and 2.1 both snap to n = 2
    problem = replace(wave_problem, output_times=(0.3, 0.0, 0.001, 0.3),
                      tracked_frequencies=(2.0, 8.0, 2.1))
    xi = problem.grid.frequencies
    assert problem.output_times == (problem.time_grid[115], 0.0)
    assert np.array_equal(problem.output_steps, [115, 0])
    assert problem.tracked_frequencies == (xi[2], xi[8])
    assert np.array_equal(problem.tracked_indices, [2, 8])
    # the snapped schedule is a fixed point
    assert replace(problem).output_times == problem.output_times
    assert replace(problem).tracked_frequencies == problem.tracked_frequencies


def test_pipeline_matches_dalembert(wave_problem):
    rec = solve_single(wave_problem, 2.0 ** -18)
    x = wave_problem.grid.x_nodes
    ref = dalembert_reference(bump_profile(0.0, 1.0), 1.0, 1.0, x)
    assert np.max(np.abs(rec.u[1] - ref)) <= 1e-4
    # the separating shift breaks exact transform symmetry at size ~omega,
    # so the reality check is asserted in the vanishing-separation regime
    tiny = solve_single(wave_problem, 2.0 ** -40)
    assert tiny.imag_fraction <= 1e-8


def test_pipeline_transport_reference():
    from weakhyp.roots import transport_roots
    g0 = bump_profile(0.0, 1.0)
    problem = VeryWeakProblem(
        family=transport_roots(1.0), data=(g0,),
        grid=FrequencyGrid(128, auto_box_length(1.0, 1.2, 1.0, 1.0)),
        time_steps=384, horizon=1.0, omega=linear_scale(),
        output_times=(1.0,))
    rec = solve_single(problem, 2.0 ** -24)
    ref = transport_reference(g0, 1.0, 1.0, problem.grid.x_nodes)
    assert np.max(np.abs(rec.u[0] - ref)) <= 1e-6


def test_zero_problem_is_identically_zero(wave_problem):
    problem = VeryWeakProblem(
        family=wave_problem.family,
        data=(zero_profile(), zero_profile()),
        grid=wave_problem.grid, time_steps=384, horizon=1.0,
        omega=linear_scale(), output_times=(0.0, 1.0))
    net = solve_very_weak(problem, (0.5, 0.25, 0.125))
    for e in net.epsilons:
        assert np.all(net.record(e).u == 0.0)


def test_sweep_validation(wave_problem):
    with pytest.raises(InvalidParameterError):
        solve_very_weak(wave_problem, (0.5, 0.25))
    with pytest.raises(InvalidParameterError):
        solve_very_weak(wave_problem, (0.25, 0.5, 0.125))
    with pytest.raises(InvalidParameterError):
        solve_very_weak(wave_problem, (1.5, 0.5, 0.25))


def test_stage_errors_attach_to_their_epsilon():
    g0 = bump_profile(0.0, 1.0)
    # box fits only once the separation speed has shrunk
    problem = VeryWeakProblem(
        family=constant_roots([-1.0, 1.0]), data=(g0, zero_profile()),
        grid=FrequencyGrid(64, 6.2), time_steps=256, horizon=1.0,
        omega=linear_scale(), output_times=(1.0,))
    net = solve_very_weak(problem, (0.9, 0.45, 0.225, 0.1125))
    assert not net.record(0.9).ok
    assert "box" in net.record(0.9).error
    assert net.record(0.1125).ok
    assert net.ok_epsilons() == (0.225, 0.1125) or \
        net.ok_epsilons() == (0.45, 0.225, 0.1125)


def test_grid_convergence_fourth_order(wave_problem):
    g0 = bump_profile(0.0, 1.0)
    errs = []
    for nt in (288, 576):
        problem = VeryWeakProblem(
            family=constant_roots([-1.0, 1.0]), data=(g0, zero_profile()),
            grid=FrequencyGrid(256, 6.2), time_steps=nt, horizon=1.0,
            omega=linear_scale(), output_times=(1.0,))
        rec = solve_single(problem, 2.0 ** -40)
        ref = dalembert_reference(g0, 1.0, 1.0, problem.grid.x_nodes)
        errs.append(float(np.max(np.abs(rec.u[0] - ref))))
    assert errs[0] / errs[1] >= 8.0


def smooth_bump_profile(center, radius, amplitude=1.0):
    """C-infinity bump ``amplitude * exp(1 - 1/(1 - u^2))``; its transform
    decays faster than any power, unlike the polynomial bump."""
    if radius <= 0:
        raise InvalidParameterError("bump radius must be positive")

    def fn(x):
        u = (x - center) / radius
        out = np.zeros(np.shape(u))
        inside = np.abs(u) < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out

    return RoughProfile(
        (Piece(center - radius, center + radius, fn, degree=None),),
        (), (center - radius, center + radius))


def test_spectral_accuracy_super_polynomial():
    g0 = smooth_bump_profile(0.0, 1.0)
    errors = []
    for points in (32, 64, 128):
        grid = FrequencyGrid(points, 6.0)
        ghat = g0.fourier_transform(grid.frequencies)
        u0 = grid.synthesise(ghat)
        target = np.real(g0.density(grid.x_nodes))
        errors.append(float(np.max(np.abs(u0 - target))))
    gains = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert gains[0] > 1.0
    assert gains[1] > gains[0]


def test_frequency_subset_does_not_change_bits():
    speed = heaviside_profile(0.5, 1.0, 2.0, (0.0, 1.0))
    problem = VeryWeakProblem(
        family=wave_speed_roots(speed),
        data=(bump_profile(0.0, 1.0), zero_profile()),
        grid=FrequencyGrid(64, 6.2), time_steps=320, horizon=1.0,
        omega=linear_scale())
    system, _ = build_regularised_system(problem, 0.125)
    xi = problem.grid.frequencies
    t_grid = np.linspace(0.0, 1.0, 321)
    full, = integrate_companion([system], xi, t_grid, output_steps=(160, 320))
    part, = integrate_companion([system], xi[::3], t_grid,
                                output_steps=(160, 320))
    assert np.array_equal(part.first_component, full.first_component[:, ::3])
    assert np.array_equal(part.final_state, full.final_state[:, ::3])


def _heaviside_problem(**options):
    speed = heaviside_profile(0.5, 1.0, 2.0, (0.0, 1.0))
    return VeryWeakProblem(
        family=wave_speed_roots(speed),
        data=(bump_profile(0.0, 1.0), zero_profile()),
        grid=FrequencyGrid(32, auto_box_length(1.0, 2.5, 1.0, 1.0)),
        time_steps=256, horizon=1.0, omega=linear_scale(), **options)


def _lower_problem(**options):
    # the lower-order coefficient jumps at t = 0.3, where the principal part
    # is constant
    return _heaviside_problem(
        lower_terms=LowerOrderPart(2, (LowerTerm(0, 1, heaviside_profile(
            0.3, 0.5, -0.5, (0.0, 1.0))),)), **options)


def _lower_forced_problem(**options):
    return _lower_problem(
        forcing=(bump_profile(0.5, 0.3), bump_profile(0.0, 1.0)), **options)


def test_constant_edge_of_a_root_profile_stays_steady():
    # the heaviside speed is constant from its jump to its support's end,
    # where its extension over the pad continues it: on the quarter-step
    # lattice of 1005 steps the principal rows vary only within omega plus
    # one step h of the jump at t = 0.5
    problem = _heaviside_problem()
    t = np.linspace(0.0, 1.0, 4 * 1005 + 1)
    h = 1.0 / 1005
    for epsilon in (0.25, 0.0625):
        system, reg = build_regularised_system(problem, epsilon)
        steady = system.principal.row_provider(
            t, problem.grid.frequencies).steady
        q = np.flatnonzero(~steady)
        assert q.size
        assert np.abs(t[q] - 0.5).max() <= reg.omega + h
        assert np.abs(t[q + 1] - 0.5).max() <= reg.omega + h


def test_lower_terms_and_forcing_are_continued_past_the_interval():
    # a constant lower-order coefficient and forcing time profile on [0, 1]
    # read their constants at t = 0 and t = T once mollified, bitwise equal
    # to their value inside; uncontinued, they would read half of it there
    problem = _heaviside_problem(
        lower_terms=LowerOrderPart(2, (LowerTerm(0, 1, constant_profile(
            0.5, (0.0, 1.0))),)),
        forcing=(constant_profile(-2.0, (0.0, 1.0)), bump_profile(0.0, 1.0)))
    t = np.array([0.0, 0.5, 1.0])
    for epsilon in (0.25, 0.0625):
        system = build_regularised_system(problem, epsilon)[0]
        # the lower-order entry in column m - j = 1, the forcing in column m
        separable = system.principal.separable
        (low, coefficient, _), (top, time_values, _) = separable.entries
        assert (low, top) == (1, 2)
        for profile, value in ((coefficient, 0.5), (time_values, -2.0)):
            values = np.asarray(profile(t))
            assert math.isclose(values[1], value, rel_tol=1e-12)
            assert np.array_equal(values, np.full(3, values[1]))
        xi = problem.grid.frequencies
        assert table_rows([separable.tables(t, xi)]).steady.all()


def test_profiles_inside_the_interval_are_left_as_given():
    # a box forcing on [0.4, 0.6] and a linear lower-order coefficient on
    # [0.2, 0.7] are zero at t = 0 and t = T, so the continuation adds
    # nothing: once mollified they are bitwise the uncontinued
    # mollification, and read 0 at both ends and the box at 0.2 and 0.8
    box = box_profile(0.5, 0.1)
    line = polynomial_piece_profile((1.0, 2.0), 0.2, 0.7)
    problem = _heaviside_problem(
        lower_terms=LowerOrderPart(2, (LowerTerm(0, 1, line),)),
        forcing=(box, bump_profile(0.0, 1.0)))
    t = np.linspace(0.0, 1.0, 101)
    for epsilon in (0.0625, 0.03125):
        system, reg = build_regularised_system(problem, epsilon)
        phi_w = scale_mollifier(friedrichs_mollifier(), reg.omega)
        (_, coefficient, _), (_, time_values, _) = \
            system.principal.separable.entries
        for given, mollified, zeros in (
                (box, time_values, [0, 20, 80, 100]),
                (line, coefficient, [0, 100])):
            values = np.asarray(mollified(t))
            assert np.array_equal(
                values, np.asarray(convolve_profile(given, phi_w)(t)))
            assert not values[zeros].any()


def _assert_same_result(batched, solo):
    assert np.array_equal(batched.first_component, solo.first_component)
    assert np.array_equal(batched.final_state, solo.final_state)
    assert np.array_equal(batched.traces, solo.traces)
    assert batched.step_doubling_max == solo.step_doubling_max


def test_row_block_size_does_not_change_bits(monkeypatch):
    problem = _lower_forced_problem()
    xi = problem.grid.frequencies
    t_grid = np.linspace(0.0, 1.0, 257)
    # the reads of each member's one provider (the principal rows with the
    # lower-order and forcing entries): a block of staged steps reads
    # several lattice points, a jump's entry one
    blocks = []
    reader = solver._stretch_reader
    staged = _count_staged_steps(monkeypatch)

    def counted(provider):
        read = reader(provider)

        def call(lo, hi):
            blocks.append((lo, hi))
            return read(lo, hi)
        return call

    monkeypatch.setattr(solver, "_stretch_reader", counted)
    # a batch of one, then of two epsilons: at 1/4 and 1/2 the forcing's
    # layer covers [0, 1], so every step is staged; at 1/8 and 1/16 forced
    # members jump between their staged steps, and blocks restart after
    # each jump
    for epsilons in ((0.25,), (0.25, 0.5), (0.125,), (0.125, 0.0625)):
        systems = [build_regularised_system(problem, e)[0] for e in epsilons]
        assert systems[0].width == systems[0].order + 1

        def run(steps):
            # a budget of ``steps`` steps of one member's complex rows, the
            # forcing their last column, at two stage times: a block holds
            # steps // movers steps, at least one, of the members that move
            monkeypatch.setattr(solver, "_ROW_BLOCK_BYTES", 2 * xi.size
                                * (16 * systems[0].order + 16) * steps)
            blocks.clear()
            staged.clear()
            results = integrate_companion(systems, xi, t_grid, epsilons,
                                          tracked_indices=(1, 5),
                                          output_steps=(100, 256),
                                          trace_steps=range(0, 257, 5))
            reads = [(lo, hi) for lo, hi in blocks if lo < hi]
            if epsilons[0] == 0.25:
                # every member moves on every step
                assert staged == [(i, len(systems)) for i in range(256)]
                block_steps = max(1, steps // len(systems))
                assert len(reads) == len(blocks) \
                    == len(systems) * -(-256 // block_steps)
            else:
                assert staged and len(reads) < len(blocks)
                if steps == 1:
                    assert len(reads) == sum(n for _, n in staged)
            return results

        # all 256 steps in one block
        whole = run(256 * len(systems))
        # one step per block, then blocks of 3 steps (of 6 where one member
        # moves alone), which straddle the step-doubling steps (every
        # second step)
        for steps in (1, 3 * len(systems)):
            for blocked, reference in zip(run(steps), whole):
                _assert_same_result(blocked, reference)


def test_constant_stretches_keep_each_entrys_bits(monkeypatch):
    # unforced, so entries step by the RK4 step matrix where their rows are
    # constant; the layers of width 2 omega around the jump differ per
    # epsilon, so the members' constant stretches differ in length
    problem = _heaviside_problem()
    epsilons = (0.25, 0.125, 0.0625, 0.03125)
    systems = [build_regularised_system(problem, e)[0] for e in epsilons]
    xi = problem.grid.frequencies
    t_grid = np.linspace(0.0, 1.0, 257)
    options = dict(tracked_indices=(0, 1, 5), output_steps=(100, 256),
                   trace_steps=range(0, 257, 5))

    def run(members, frequencies):
        return integrate_companion([systems[e] for e in members],
                                   frequencies, t_grid,
                                   [epsilons[e] for e in members], **options)

    batched = run(range(4), xi)
    for e in range(4):
        solo, = run([e], xi)
        _assert_same_result(batched[e], solo)
    # block lengths depend on the number of frequencies, bits do not; the
    # tracked indices now name other frequencies, so they are not compared
    for full, part in zip(batched, run(range(4), xi[::3])):
        assert np.array_equal(part.first_component,
                              full.first_component[:, ::3])
        assert np.array_equal(part.final_state, full.final_state[:, ::3])
    # budgets of one and of 3 steps of the whole batch's real order-2 rows
    # at two stage times: blocks of that many steps where every member
    # moves, longer where fewer do, straddling the step-doubling steps
    # (every second step)
    for steps in (1, 3):
        monkeypatch.setattr(solver, "_ROW_BLOCK_BYTES",
                            2 * 8 * len(systems) * 2 * xi.size * steps)
        for blocked, reference in zip(run(range(4), xi), batched):
            _assert_same_result(blocked, reference)


def _agrees_with_staged_rk4(problem, epsilon, exact):
    system = build_regularised_system(problem, epsilon)[0]
    xi = problem.grid.frequencies
    t_grid = np.linspace(0.0, 1.0, problem.time_steps + 1)
    steps = (problem.time_steps // 2, problem.time_steps)
    # a staged run is checked at every step; elsewhere jumps must cross
    # between the trace steps
    samples = range(0, t_grid.size, 1 if exact else 3)
    result, = integrate_companion([system], xi, t_grid, [epsilon],
                                  tracked_indices=range(xi.size),
                                  output_steps=steps,
                                  trace_steps=samples)
    states = staged_rk4(system, xi, t_grid)
    got = (np.moveaxis(result.traces, -1, 0), result.final_state,
           result.first_component)
    want = (states[samples], states[-1], states[list(steps), 0])
    for a, b in zip(got, want):
        if exact:
            assert np.array_equal(a, b)
        else:
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(states))


def test_step_matrices_agree_with_staged_rk4_on_constant_roots():
    # constant roots: every step of every entry takes the step matrix
    problem = replace(_heaviside_problem(), family=constant_roots([-1.0, 2.0]))
    _agrees_with_staged_rk4(problem, 0.0625, exact=False)


def test_step_matrices_agree_with_staged_rk4_across_a_jump():
    _agrees_with_staged_rk4(_heaviside_problem(), 0.0625, exact=False)


def test_step_matrices_agree_with_staged_rk4_with_lower_order_terms():
    _agrees_with_staged_rk4(_lower_problem(), 0.0625, exact=False)


def test_forced_problems_take_the_staged_steps_bit_for_bit(monkeypatch):
    # at epsilon 1/4 the forcing's layer covers [0, 1], so every step is
    # staged and no jump crosses any
    staged = _count_staged_steps(monkeypatch)
    _agrees_with_staged_rk4(_lower_forced_problem(), 0.25, exact=True)
    assert staged == [(i, 1) for i in range(256)]


def test_step_map_steps_are_constant_at_every_entry(monkeypatch):
    # the steps on which the integrator gives a member the step map are
    # those over which its provider reports ``steady``; each must be
    # constant at every entry by the per-entry oracle, and on the heaviside
    # problem, where only xi = 0 is constant inside the layer, the two sets
    # are equal
    reported = []  # (stage times, steady) of each provider the run builds

    def spy(self, t, frequencies, provider=RootValuePrincipal.row_provider):
        rows = provider(self, t, frequencies)
        reported.append((t, rows.steady))
        return rows

    monkeypatch.setattr(RootValuePrincipal, "row_provider", spy)
    speed = piecewise_constant_profile([0.0, 0.3, 0.35, 1.0],
                                       [1.0, 25.0, 1.0], (0.0, 1.0))
    spiked = replace(_heaviside_problem(), family=wave_speed_roots(speed),
                     grid=FrequencyGrid(32, auto_box_length(1.0, 5.5, 1.0,
                                                            1.0)))
    t_grid = np.linspace(0.0, 1.0, 257)
    h = t_grid[1]
    for problem, equal in ((_heaviside_problem(), True), (spiked, False),
                           (_lower_problem(), False),
                           (_lower_forced_problem(), False)):
        xi = problem.grid.frequencies
        for epsilon in (0.125, 0.03125):
            system = build_regularised_system(problem, epsilon)[0]
            reported.clear()
            integrate_companion([system], xi, t_grid, [epsilon])
            (t, steady), = reported
            # step i reads the stage times from t_i to t_(i+1), which sit at
            # the quarter-step lattice points 4i to 4(i+1)
            lattice = np.rint(t / (0.25 * h)).astype(int)
            starts = np.searchsorted(lattice, 4 * np.arange(t_grid.size))
            steps = np.array([steady[a:b].all()
                              for a, b in zip(starts[:-1], starts[1:])])
            entries = constant_entries(system, xi, t_grid).all(axis=1)
            assert steps.any() and not steps.all()
            assert not (steps & ~entries).any()
            if equal:
                assert np.array_equal(steps, entries)


def _spy_row_reads(monkeypatch) -> list:
    """Wrap the row provider: each provider built appends (its stage
    times, its ``steady``, the slices read from it)."""
    built = []

    def spy(self, t, frequencies, provider=RootValuePrincipal.row_provider):
        rows, reads = provider(self, t, frequencies), []
        built.append((t, rows.steady, reads))

        @functools.wraps(rows)  # carries the provider's ``steady``
        def read(index):
            if isinstance(index, slice):
                reads.append((index.start, index.stop))
            return rows(index)
        return read

    monkeypatch.setattr(RootValuePrincipal, "row_provider", spy)
    return built


def _constant_steps(t, steady, nt):
    """Whether ``steady`` holds over every lattice interval of each step of
    [0, 1] in nt steps, for stage times ``t`` on its quarter-step lattice,
    and the lattice position of each step's start."""
    starts = np.searchsorted(np.rint(4 * nt * t), 4 * np.arange(nt + 1))
    return np.array([steady[a:b].all()
                     for a, b in zip(starts[:-1], starts[1:])]), starts


def _stretches(constant):
    """The maximal runs [a, b) of true steps."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], constant, [0]])))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def _count_staged_steps(monkeypatch) -> list:
    """Wrap the staged kernel: each staged step appends (step, members)."""
    staged = []
    kernel = solver._staged_step

    def counted(stage, i, doubled, h, ibr, state):
        staged.append((i, state.shape[0]))
        return kernel(stage, i, doubled, h, ibr, state)

    monkeypatch.setattr(solver, "_staged_step", counted)
    return staged


def test_staged_steps_and_row_reads_follow_the_layers(monkeypatch):
    # the staged kernel runs on exactly the steps where some member's rows
    # vary, for those members; on a constant stretch a member's principal
    # rows are read once, at the stretch's entry, and never inside it
    staged = _count_staged_steps(monkeypatch)
    built = _spy_row_reads(monkeypatch)
    epsilons = (0.25, 0.125, 0.0625, 0.03125)
    t_grid = np.linspace(0.0, 1.0, 257)

    def run(problem):
        staged.clear()
        built.clear()
        systems = [build_regularised_system(problem, e)[0] for e in epsilons]
        results = integrate_companion(systems, problem.grid.frequencies,
                                      t_grid, epsilons, tracked_indices=(1, 5),
                                      output_steps=(100, 256),
                                      trace_steps=range(0, 257, 5))
        assert not any(isinstance(r, WeakHypError) for r in results)
        return results

    run(_heaviside_problem())
    assert len(built) == len(epsilons)
    varying = []
    for t, steady, reads in built:
        constant, starts = _constant_steps(t, steady, 256)
        varying.append(~constant)
        stretches = _stretches(constant)
        for a, b in stretches:
            assert not [r for r in reads
                        if r[0] < starts[b] and r[1] > starts[a] + 1]
        assert [r for r in reads if r[1] - r[0] == 1] \
            == [(starts[a], starts[a] + 1) for a, _ in stretches]
    varying = np.array(varying)
    busy = np.flatnonzero(varying.any(axis=0))
    assert 0 < busy.size < 256
    assert staged == list(zip(busy.tolist(),
                              varying.sum(axis=0)[busy].tolist()))
    # constant roots: every member crosses the whole grid in jumps, and the
    # step-doubling check still runs on the step map
    results = run(replace(_heaviside_problem(),
                          family=constant_roots([-1.0, 2.0])))
    assert not staged
    assert all(r.step_doubling_max > 0.0 for r in results)


def test_forced_members_read_each_steady_stretch_once(monkeypatch):
    # a forced member takes the staged step where its forcing varies; a part
    # whose rows are steady over a whole block, as the principal part
    # between its layers, is read at one lattice point, once per steady
    # stretch, and no read of several points lies inside one stretch
    built = _spy_row_reads(monkeypatch)
    problem = _lower_forced_problem()
    epsilons = (0.125, 0.0625)
    systems = [build_regularised_system(problem, e)[0] for e in epsilons]
    results = integrate_companion(systems, problem.grid.frequencies,
                                  np.linspace(0.0, 1.0, 257), epsilons)
    assert not any(isinstance(r, WeakHypError) for r in results)
    assert len(built) == len(epsilons)  # one provider per member
    for t, steady, reads in built:
        stretch = np.concatenate([[0], np.cumsum(~steady)])
        assert all(stretch[a] != stretch[b - 1] for a, b in reads if b - a > 1)
        single = [stretch[a] for a, b in reads if b - a == 1]
        assert 0 < len(single) == len(set(single)) < len(reads)


def test_real_entries_read_real_rows():
    # the lower-order coefficient and its factor are real, so the rows are;
    # read as complex rows, through the same factor cast to complex, they
    # give the integrator's outputs the same bits.  A forcing's space
    # factor is complex-typed, so a forced problem's rows are complex
    problem = _lower_problem(output_times=(0.5, 1.0),
                             tracked_frequencies=(2.0, 5.0))
    epsilons = (0.25, 0.125, 0.0625)
    real = [build_regularised_system(problem, e)[0] for e in epsilons]

    def complex_rows(system):
        separable = system.principal.separable
        entries = tuple((column, values,
                         lambda xi, f=factor: f(xi).astype(complex))
                        for column, values, factor in separable.entries)
        return replace(system, principal=replace(
            system.principal, separable=replace(separable, entries=entries)))

    xi, t_grid = problem.grid.frequencies, problem.time_grid
    forced = build_regularised_system(_lower_forced_problem(), 0.25)[0]
    assert forced.principal.row_provider(t_grid, xi).dtype == complex
    results = []
    for systems, dtype in ((real, float), ([complex_rows(s) for s in real],
                                           complex)):
        assert all(s.principal.row_provider(t_grid, xi).dtype == dtype
                   for s in systems)
        results.append(solver._integrate(
            problem, [(s, None) for s in systems], epsilons))
    for got, want in zip(*results):
        for name in ("first_component", "final_state", "traces"):
            assert getattr(got, name).tobytes() \
                == getattr(want, name).tobytes()
        assert got.step_doubling_max == want.step_doubling_max


def _spiked_problem(**options):
    speed = piecewise_constant_profile([0.0, 0.3, 0.35, 1.0],
                                       [1.0, 25.0, 1.0], (0.0, 1.0))
    return replace(_heaviside_problem(**options),
                   family=wave_speed_roots(speed),
                   grid=FrequencyGrid(32, auto_box_length(1.0, 5.5, 1.0, 1.0)))


@pytest.mark.parametrize("nt", [1000, 1005])
@pytest.mark.parametrize("make, epsilon", [
    (_heaviside_problem, 0.25), (_heaviside_problem, 0.0625),
    (_spiked_problem, 0.0625), (_spiked_problem, 0.022),
    (_lower_problem, 0.0625), (_lower_forced_problem, 0.0625)])
def test_jumps_agree_with_staged_rk4_at_their_boundaries(monkeypatch, make,
                                                          epsilon, nt):
    # nt // 100 = 10 steps from one step-doubling step to the next, so a jump
    # crosses up to 9 steps (1005 is not a multiple of 10); stretches shorter
    # than that come from the spike's two close layers at epsilon 0.022.
    # Output and trace steps, which end jumps early, sit at the first,
    # second, last and past-the-last step of each long stretch; the output
    # steps also on a step-doubling step inside it and between two, and the
    # trace steps every 37 steps, so that jumps still cross between them
    problem = make()
    system = build_regularised_system(problem, epsilon)[0]
    xi = problem.grid.frequencies
    t_grid = np.linspace(0.0, 1.0, nt + 1)
    built = _spy_row_reads(monkeypatch)
    integrate_companion([system], xi, t_grid, [epsilon])
    constant = np.logical_and.reduce(
        [_constant_steps(t, steady, nt)[0] for t, steady, _ in built])
    stretches = [(a, b) for a, b in _stretches(constant) if b - a > 20]
    assert stretches
    ends = [{a, a + 1, b - 1, b} for a, b in stretches]
    steps = sorted({nt}.union(*ends, *({10 * (a // 10 + 1),
                                        10 * (a // 10 + 1) + 4}
                                       for a, _ in stretches)))
    samples = sorted(set(range(0, nt + 1, 37)).union(*ends))
    tracked = (0, 3, 7, 20)
    result, = integrate_companion([system], xi, t_grid, [epsilon],
                                  tracked_indices=tracked, output_steps=steps,
                                  trace_steps=samples)
    states = staged_rk4(system, xi, t_grid)
    for got, want in ((result.first_component, states[steps, 0]),
                      (np.moveaxis(result.traces, -1, 0),
                       states[samples][:, :, list(tracked)]),
                      (result.final_state, states[-1])):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(states))
    assert math.isclose(result.step_doubling_max,
                        staged_doubling_max(system, xi, t_grid), rel_tol=1e-3)


def _assert_same_record(batched, solo):
    assert batched.ok and solo.ok
    for name in ("u", "uhat", "traces"):
        assert np.array_equal(getattr(batched, name), getattr(solo, name))
    assert batched.step_doubling_max == solo.step_doubling_max


def _order_three_problem(**options):
    # a zero root between two heaviside roots that jump at t = 0.5
    roots = (heaviside_profile(0.5, -1.0, -2.0, (0.0, 1.0)),
             constant_profile(0.0, (0.0, 1.0)),
             heaviside_profile(0.5, 1.0, 2.0, (0.0, 1.0)))
    return VeryWeakProblem(
        family=roots_from_time_profiles(roots),
        data=(bump_profile(0.0, 1.0), zero_profile(), bump_profile(0.0, 0.5)),
        grid=FrequencyGrid(64, auto_box_length(1.0, 2.5, 1.0, 1.0)),
        time_steps=256, horizon=1.0, omega=linear_scale(), **options)


def test_sweep_records_equal_solo_runs():
    for make in (_lower_forced_problem, _order_three_problem):
        problem = make(output_times=(0.5, 1.0),
                       tracked_frequencies=(2.0, 5.0))
        net = solve_very_weak(problem, (0.25, 0.125, 0.0625))
        for e in net.epsilons:
            assert net.record(e).traces.shape \
                == (problem.order, 2, problem.trace_steps.size)
            _assert_same_record(net.record(e), solve_single(problem, e))


def test_stability_reject_leaves_the_other_epsilons_unchanged():
    # the largest epsilon's separation makes ||A + B|| largest; 96 steps
    # hold the budget for the other two only
    problem = VeryWeakProblem(
        family=constant_roots([-1.0, 1.0]),
        data=(bump_profile(0.0, 1.0), zero_profile()),
        grid=FrequencyGrid(64, auto_box_length(1.0, 2.8, 1.0, 1.0)),
        time_steps=96, horizon=1.0, omega=linear_scale(),
        output_times=(1.0,), tracked_frequencies=(2.0,))
    net = solve_very_weak(problem, (0.9, 0.3, 0.1))
    assert net.record(0.9).error.startswith("StabilityError")
    assert "epsilon 0.9" in net.record(0.9).error
    with pytest.raises(StabilityError) as info:
        solve_single(problem, 0.9)
    assert info.value.epsilon == 0.9
    assert info.value.required_steps > 96
    for e in (0.3, 0.1):
        _assert_same_record(net.record(e), solve_single(problem, e))


def _counted_svd(monkeypatch) -> list:
    """Count the calls of numpy's SVD from here on."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _gate_cases():
    """(systems, frequencies, time grid, epsilons) of batches on which the
    Frobenius screen does not clear every member."""
    yield ([build_companion(_wave_principal(), data=_unit_data(2))],
           np.array([200.0]), np.linspace(0.0, 1.0, 17), [1.0])
    problem = VeryWeakProblem(
        family=constant_roots([-1.0, 1.0]),
        data=(bump_profile(0.0, 1.0), zero_profile()),
        grid=FrequencyGrid(64, auto_box_length(1.0, 2.8, 1.0, 1.0)),
        time_steps=96, horizon=1.0, omega=linear_scale(),
        output_times=(1.0,), tracked_frequencies=(2.0,))
    yield ([build_regularised_system(problem, e)[0] for e in (0.9, 0.3, 0.1)],
           problem.grid.frequencies, problem.time_grid, [0.9, 0.3, 0.1])
    # complex rows; at 50 steps the screen flags all three members and the
    # SVD rejects two, at 62 it flags the first only and the SVD passes it
    for steps in (50, 62):
        problem = replace(_lower_problem(), time_steps=steps)
        epsilons = [0.5, 0.25, 0.125]
        yield ([build_regularised_system(problem, e)[0] for e in epsilons],
               problem.grid.frequencies, problem.time_grid, epsilons)


def test_stability_screen_decides_as_the_full_svd(monkeypatch):
    # the full SVD of every sampled entry is the oracle
    for systems, xi, t_grid, epsilons in _gate_cases():
        with monkeypatch.context() as patch:
            calls = _counted_svd(patch)
            screened = integrate_companion(systems, xi, t_grid, epsilons,
                                           tracked_indices=(0,),
                                           trace_steps=range(t_grid.size))
        assert calls, "the screen cleared every member"
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_estimate_norm", estimate_norm_svd)
            full = integrate_companion(systems, xi, t_grid, epsilons,
                                       tracked_indices=(0,),
                                       trace_steps=range(t_grid.size))
        for new, old in zip(screened, full):
            assert type(new) is type(old)
            if isinstance(old, StabilityError):
                assert str(new) == str(old)
                assert new.required_steps == old.required_steps
                assert new.required_step == old.required_step
            else:
                _assert_same_result(new, old)


def test_benchmark_shaped_solve_makes_no_svd_call(monkeypatch):
    # the heaviside wave speed 1 -> 4 on 512 points, with the steps of the
    # benchmark's solve and of its sweep: every entry clears the screen
    speed = heaviside_profile(0.5, 1.0, 4.0, (0.0, 1.0))
    problem = VeryWeakProblem(
        family=wave_speed_roots(speed),
        data=(bump_profile(0.0, 1.0), zero_profile()),
        grid=FrequencyGrid(512, auto_box_length(1.0, 4.0, 1.0, 1.0)),
        time_steps=1792, horizon=1.0, omega=linear_scale())
    systems = [build_regularised_system(problem, e)[0]
               for e in (0.25, 0.125, 0.0625, 0.03125)]
    gate = solver._estimate_norm
    read = []

    def gate_only(rows, index, br, limit):
        # stop each member after its gate, so that nothing is stepped
        read.append(gate(rows, index, br, limit) / limit)
        raise WeakHypError("gate only")

    calls = _counted_svd(monkeypatch)
    monkeypatch.setattr(solver, "_estimate_norm", gate_only)
    for steps in (1792, 2048):
        grid = np.linspace(0.0, 1.0, steps + 1)
        integrate_companion(systems, problem.grid.frequencies, grid)
    assert len(read) == 8 and max(read) < 1.0
    assert not calls


def test_stability_screen_sends_a_limit_entry_to_the_svd(monkeypatch):
    system = build_companion(_wave_principal(), data=_unit_data(2))
    xi = np.array([3.0, 200.0])
    br = bracket(xi)
    rows = system.principal.row_provider(np.linspace(0.0, 1.0, 9), xi)
    index = np.arange(9)
    # the wave's companion matrix [[0, <xi>], [xi^2 / <xi>, 0]]
    screen = math.hypot(br[1], 200.0 ** 2 / br[1])
    exact = estimate_norm_svd(rows, index, br)
    calls = _counted_svd(monkeypatch)
    # a limit within rounding of the screen, on either side, gets the SVD
    for limit in (screen * (1.0 - 1e-12), screen * (1.0 + 1e-12)):
        assert solver._estimate_norm(rows, index, br, limit) == exact
    assert len(calls) == 2
    # a limit well clear of every screen returns the largest screen
    assert math.isclose(solver._estimate_norm(rows, index, br,
                                              screen * (1.0 + 1e-6)),
                        screen, rel_tol=1e-14)
    assert len(calls) == 2


def test_divergent_member_leaves_the_batch():
    # only the middle member's needle is tall enough to overflow the state
    systems = [_spiked_wave(0.19, weight) for weight in (1.0, 1e7, 0.5)]
    epsilons = (0.5, 0.25, 0.125)
    xi = np.array([1.0, 2.0, 3.0])
    t_grid = np.linspace(0.0, 1.0, 257)
    options = dict(tracked_indices=(1,), output_steps=(128, 256),
                   trace_steps=range(0, 257, 16))
    batched = integrate_companion(systems, xi, t_grid, epsilons, **options)
    assert isinstance(batched[1], DivergenceError)
    assert batched[1].epsilon == 0.25 and batched[1].xi in xi
    for member in (0, 2):
        solo, = integrate_companion([systems[member]], xi, t_grid,
                                    [epsilons[member]], **options)
        _assert_same_result(batched[member], solo)


def _overflowing_wave(scale, growth=25.0):
    """A wave whose rows are finite and constant and whose state grows like
    exp(growth t) from data of size ``scale``: from 1e300 it overflows late
    in the run, with no coefficient the stability gate could see."""
    growing = LowerTerm(0, 1, lambda t: np.full(np.shape(t), -1j * growth))
    data = InitialData(
        (lambda xi: np.full(np.shape(xi), scale, dtype=complex),
         lambda xi: np.zeros(np.shape(xi), dtype=complex)))
    return build_companion(_wave_principal(_lower_part(2, growing)), data)


def test_divergence_inside_a_jump_stops_only_its_member(monkeypatch):
    # every step of every member is constant, so the middle member's state
    # overflows inside a jump and is caught at the jump's end
    staged = _count_staged_steps(monkeypatch)
    systems = [_overflowing_wave(scale) for scale in (1.0, 1e300, 0.5)]
    epsilons = (0.5, 0.25, 0.125)
    xi = np.array([1.0, 2.0, 3.0])
    t_grid = np.linspace(0.0, 1.0, 1001)
    options = dict(tracked_indices=(1,), output_steps=(500, 1000),
                   trace_steps=range(0, 1001, 125))
    batched = integrate_companion(systems, xi, t_grid, epsilons, **options)
    assert not staged
    assert isinstance(batched[1], DivergenceError)
    assert batched[1].epsilon == 0.25 and batched[1].xi in xi
    for member in (0, 2):
        solo, = integrate_companion([systems[member]], xi, t_grid,
                                    [epsilons[member]], **options)
        assert np.isfinite(solo.final_state).all()
        _assert_same_result(batched[member], solo)


def test_rk4_stage_times_give_fourth_order_in_time():
    # D_t V = (1 + t) xi V, V(0) = 1, so V(1) = exp(1.5 i xi); a coefficient
    # read at the wrong stage times degrades the step to first order
    principal = PolynomialPrincipal(
        order=1, coefficients={1: lambda t: 1.0 + np.asarray(t)})
    system = build_companion(principal, data=_unit_data(1))
    xi = 3.0
    errors = []
    for nt in (64, 128, 256):
        trace = solve_frequency(system, xi, 1.0, np.linspace(0.0, 1.0, nt + 1))
        errors.append(abs(trace[0, -1] - np.exp(1.5j * xi)))
    assert errors[0] / errors[1] >= 14.0
    assert errors[1] / errors[2] >= 14.0


def test_bug_inside_principal_propagates(wave_problem, monkeypatch):
    def broken(self, t_grid, xi):
        raise TypeError("broken principal")

    monkeypatch.setattr(RootValuePrincipal, "row_provider", broken)
    with pytest.raises(TypeError, match="broken principal"):
        solve_very_weak(wave_problem, (0.125, 0.0625, 0.03125))


def test_linalg_error_becomes_numerical_stage_failure(wave_problem,
                                                      monkeypatch):
    def singular(self, t_grid, xi):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(RootValuePrincipal, "row_provider", singular)
    net = solve_very_weak(wave_problem, (0.125, 0.0625, 0.03125))
    for e in net.epsilons:
        assert net.record(e).error.startswith("NumericalError")


# Run in a fresh process with OPENBLAS_NUM_THREADS=2, so that numpy starts one
# BLAS helper even though weakhyp asks for none when the caller sets nothing:
# it reads the context switches of every thread but the main one (the helper)
# before and after a CLI run.  A parked helper makes none; any BLAS call that
# hands it work wakes it, however short the work.
_THREAD_PROBE = r"""
import json, os, sys, time

def helper_switches():
    switches = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == os.getpid():
            continue
        try:
            with open(f"/proc/self/task/{tid}/status") as handle:
                fields = dict(line.split(":", 1) for line in handle)
        except FileNotFoundError:
            continue
        switches[tid] = (int(fields["voluntary_ctxt_switches"])
                         + int(fields["nonvoluntary_ctxt_switches"]))
    return switches

from weakhyp.cli import main
time.sleep(0.5)  # the helpers spin for a while after numpy's import
before = helper_switches()
status = main(sys.argv[1:]) if before else None
gained = sum(n - before.get(tid, 0) for tid, n in helper_switches().items())
print(json.dumps({"helpers": len(before), "status": status,
                  "switches": gained}))
"""


def _helper_switches_of_run(tmp_path, subcommand, sweep):
    """The probe's result for one CLI run of the wave config over ``sweep``;
    skips where the probe cannot see a helper thread."""
    if not Path("/proc/self/task").is_dir():
        pytest.skip("needs /proc/self/task")
    config = {
        "problem": {"order": 2, "horizon": 1.0},
        "roots": {"preset": "heaviside", "jump": 0.5, "low": 1.0,
                  "high": 4.0},
        "data": [{"preset": "bump", "radius": 1.0}, {"preset": "zero"}],
        "regularisation": {"scale": "linear", "epsilon_sweep": sweep},
        "grid": {"points": 256, "time_steps": 1024},
    }
    path = tmp_path / f"{subcommand}.json"
    path.write_text(json.dumps(config))
    probe = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, subcommand, "--config",
         str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    assert probe.returncode == 0, probe.stderr
    result = json.loads(probe.stdout.splitlines()[-1])
    if not result["helpers"]:
        pytest.skip("numpy started no helper thread")
    return result


def test_solve_wakes_no_blas_thread(tmp_path):
    # runs are single-threaded: no BLAS or LAPACK call on the solve path may
    # wake a helper thread, which then busy-waits for a tenth of a second
    result = _helper_switches_of_run(tmp_path, "solve", [0.25, 0.125, 0.0625])
    assert result["status"] == 0
    assert result["switches"] == 0


def test_sweep_wakes_no_blas_thread(tmp_path):
    # nor does the sweep's, with its moderateness and convergence fits
    result = _helper_switches_of_run(tmp_path, "sweep",
                                     [0.25, 0.125, 0.0625, 0.03125])
    assert result["status"] == 0
    assert result["switches"] == 0
