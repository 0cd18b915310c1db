import functools
import json
import math
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from weakhyp.errors import (ConfigurationError, DivergenceError,
                            InvalidParameterError, StabilityError,
                            WeakHypError)
from weakhyp.mollifiers import friedrichs_mollifier
from weakhyp.profiles import (Piece, RoughProfile, bump_profile,
                              heaviside_profile, piecewise_constant_profile,
                              point_mass_profile, zero_profile)
from weakhyp.reduction import (ForcingPart, InitialData, LowerOrderPart,
                               LowerTerm, RootValuePrincipal, build_companion)
from weakhyp.roots import (bracket, constant_roots, dt_power, linear_scale,
                           wave_speed_roots)
from weakhyp import solver
from weakhyp.solver import (FrequencyGrid, VeryWeakProblem, auto_box_length,
                            build_regularised_system, dalembert_reference,
                            energy_trace, integrate_companion, solve_single,
                            solve_very_weak, transport_reference)

from oracles import (PolynomialPrincipal, constant_entries,
                     max_relative_drift, staged_rk4, symmetriser_figures,
                     trapezoid)


def solve_frequency(system, xi, epsilon, t_grid):
    """Full amplitude trace V(t) at one frequency, shape (m, len(t_grid)),
    as the batch of one; the member's failure is raised."""
    result, = integrate_companion([system], np.array([float(xi)]),
                                  np.asarray(t_grid, dtype=float), [epsilon],
                                  tracked_indices=(0,))
    if isinstance(result, WeakHypError):
        raise result
    return result.traces[:, 0, :]


def _wave_principal():
    return PolynomialPrincipal(
        order=2, coefficients={1: lambda t: np.zeros(np.shape(t)),
                               2: lambda t: np.ones(np.shape(t))})


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


def test_superposition_linearity():
    xi = 4.0
    t_grid = np.linspace(0.0, 1.0, 801)

    def run(g0_val, f_val):
        data = InitialData((
            lambda x: g0_val * np.ones(np.shape(x), dtype=complex),
            lambda x: np.zeros(np.shape(x), dtype=complex)))
        forcing = None
        if f_val:
            forcing = ForcingPart(
                time_values=lambda t: f_val * np.ones(np.shape(t)),
                xhat=lambda x: np.ones(np.shape(x), dtype=complex))
        system = build_companion(_wave_principal(), forcing=forcing,
                                 data=data)
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
    lower = LowerOrderPart(order=2, terms=(LowerTerm(0, 1, spike),))
    return build_companion(_wave_principal(), lower=lower,
                           data=_unit_data(2))


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
    trace = solve_frequency(system, xi, 1.0, t_grid)
    energy = energy_trace(system, trace, t_grid, xi, sample_stride=16)
    assert max_relative_drift(energy) <= 1e-8


def test_energy_trace_equals_per_time_symmetrisers():
    principal = PolynomialPrincipal(
        order=2, coefficients={1: lambda t: 0.3 * np.asarray(t),
                               2: lambda t: 1.0 + 0.5 * np.sin(
                                   3.0 * np.asarray(t))})
    system = build_companion(principal, data=_unit_data(2))
    t_grid = np.linspace(0.0, 1.0, 1025)
    xi = 4.0
    trace = solve_frequency(system, xi, 1.0, t_grid)
    energy = energy_trace(system, trace, t_grid, xi, sample_stride=8)
    br = float(bracket(np.array(xi)))
    lam = principal.roots(energy.times, np.array([xi]))[:, :, 0]
    for row, i in enumerate(range(0, t_grid.size, 8)):
        s = symmetriser_figures(np.sort(lam[row]) / br, np.ones((1, 2)),
                                None)["matrix"]
        v = trace[:, i]
        assert energy.energies[row] == float(np.real(np.conj(v) @ s @ v))


def test_energy_pure_forcing_bounded_by_quadrature_oracle():
    forcing = ForcingPart(
        time_values=lambda t: np.sin(np.pi * np.asarray(t)),
        xhat=lambda x: np.ones(np.shape(x), dtype=complex))
    system = build_companion(_wave_principal(), forcing=forcing)
    t_grid = np.linspace(0.0, 1.0, 2049)
    xi = 3.0
    trace = solve_frequency(system, xi, 1.0, t_grid)
    energy = energy_trace(system, trace, t_grid, xi, sample_stride=8)
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
    providers = [system.principal.row_provider(t_interior, xi)]
    if system.lower is not None:
        providers.append(system.lower.row_provider(t_interior, xi))
    for provider in providers:
        rows = provider(slice(None))
        for j in range(1, m + 1):
            term = rows[:, m - j] * br ** (j - 1) * dt_power(shifted, m - j, h)
            residual = residual - term
            scale = max(scale, float(np.linalg.norm(term)))
    if system.forcing is not None:
        force = system.forcing.values_provider(t_interior, xi)(slice(None))
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


def _assert_same_result(batched, solo):
    assert np.array_equal(batched.first_component, solo.first_component)
    assert np.array_equal(batched.final_state, solo.final_state)
    assert np.array_equal(batched.traces, solo.traces)
    assert batched.step_doubling_max == solo.step_doubling_max


def test_row_block_size_does_not_change_bits(monkeypatch):
    problem = _lower_forced_problem()
    xi = problem.grid.frequencies
    t_grid = np.linspace(0.0, 1.0, 257)
    # the blocks the integrator reads, one lower-order row call each
    blocks = []
    provider = LowerOrderPart.row_provider

    def counted(self, t, frequencies):
        rows = provider(self, t, frequencies)

        @functools.wraps(rows)  # carries the provider's ``steady``
        def call(index):
            if isinstance(index, slice):
                blocks.append(index)
            return rows(index)
        return call

    monkeypatch.setattr(LowerOrderPart, "row_provider", counted)
    # a batch of one, then of two epsilons
    for epsilons in ((0.125,), (0.125, 0.0625)):
        systems = [build_regularised_system(problem, e)[0] for e in epsilons]
        assert systems[0].lower is not None \
            and systems[0].forcing is not None

        def run(steps):
            # a budget of ``steps`` steps of the whole batch's complex rows
            # and forcing values at two stage times
            monkeypatch.setattr(solver, "_ROW_BLOCK_BYTES", 2 * len(systems)
                                * xi.size * (16 * systems[0].order + 16)
                                * steps)
            blocks.clear()
            results = integrate_companion(systems, xi, t_grid, epsilons,
                                          tracked_indices=(1, 5),
                                          output_steps=(100, 256))
            assert len(blocks) == len(systems) * -(-256 // steps)
            return results

        # all 256 steps in one block
        whole = run(256)
        # one step per block, then 3-step blocks, which straddle the
        # step-doubling steps (every second step)
        for steps in (1, 3):
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
    options = dict(tracked_indices=(0, 1, 5), output_steps=(100, 256))

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
    # one step per block, then 3-step blocks, which straddle the
    # step-doubling steps (every second step); the budget counts the
    # batch's real order-2 rows at two stage times
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
    result, = integrate_companion([system], xi, t_grid, [epsilon],
                                  tracked_indices=range(xi.size),
                                  output_steps=steps)
    states = staged_rk4(system, xi, t_grid)
    got = (np.moveaxis(result.traces, -1, 0), result.final_state,
           result.first_component)
    want = (states, states[-1], states[list(steps), 0])
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


def test_forced_problems_take_the_staged_steps_bit_for_bit():
    _agrees_with_staged_rk4(_lower_forced_problem(), 0.0625, exact=True)


def test_step_map_steps_are_constant_at_every_entry(monkeypatch):
    # the steps on which the integrator gives a member the step map are
    # those over which its providers report ``steady``; each must be
    # constant at every entry by the per-entry oracle, and on the heaviside
    # problem, where only xi = 0 is constant inside the layer, the two sets
    # are equal
    reported = []  # (stage times, steady) of each provider the run builds
    for cls in (RootValuePrincipal, LowerOrderPart):
        def spy(self, t, frequencies, provider=cls.row_provider):
            rows = provider(self, t, frequencies)
            reported.append((t, rows.steady))
            return rows
        monkeypatch.setattr(cls, "row_provider", spy)
    speed = piecewise_constant_profile([0.0, 0.3, 0.35, 1.0],
                                       [1.0, 25.0, 1.0], (0.0, 1.0))
    spiked = replace(_heaviside_problem(), family=wave_speed_roots(speed),
                     grid=FrequencyGrid(32, auto_box_length(1.0, 5.5, 1.0,
                                                            1.0)))
    t_grid = np.linspace(0.0, 1.0, 257)
    h = t_grid[1]
    for problem, equal in ((_heaviside_problem(), True), (spiked, False),
                           (_lower_problem(), False)):
        xi = problem.grid.frequencies
        for epsilon in (0.125, 0.03125):
            system = build_regularised_system(problem, epsilon)[0]
            reported.clear()
            integrate_companion([system], xi, t_grid, [epsilon])
            steady = np.logical_and.reduce([s for _, s in reported])
            # step i reads the stage times from t_i to t_(i+1), which sit at
            # the quarter-step lattice points 4i to 4(i+1)
            lattice = np.rint(reported[0][0] / (0.25 * h)).astype(int)
            starts = np.searchsorted(lattice, 4 * np.arange(t_grid.size))
            steps = np.array([steady[a:b].all()
                              for a, b in zip(starts[:-1], starts[1:])])
            entries = constant_entries(system, xi, t_grid).all(axis=1)
            assert steps.any() and not steps.all()
            assert not (steps & ~entries).any()
            if equal:
                assert np.array_equal(steps, entries)


def _assert_same_record(batched, solo):
    assert batched.ok and solo.ok
    for name in ("u", "uhat", "traces"):
        assert np.array_equal(getattr(batched, name), getattr(solo, name))
    assert batched.step_doubling_max == solo.step_doubling_max


def test_sweep_records_equal_solo_runs():
    problem = _lower_forced_problem(output_times=(0.5, 1.0),
                                    tracked_frequencies=(2.0, 5.0))
    net = solve_very_weak(problem, (0.25, 0.125, 0.0625))
    for e in net.epsilons:
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


def test_divergent_member_leaves_the_batch():
    # only the middle member's needle is tall enough to overflow the state
    systems = [_spiked_wave(0.19, weight) for weight in (1.0, 1e7, 0.5)]
    epsilons = (0.5, 0.25, 0.125)
    xi = np.array([1.0, 2.0, 3.0])
    t_grid = np.linspace(0.0, 1.0, 257)
    options = dict(tracked_indices=(1,), output_steps=(128, 256))
    batched = integrate_companion(systems, xi, t_grid, epsilons, **options)
    assert isinstance(batched[1], DivergenceError)
    assert batched[1].epsilon == 0.25 and batched[1].xi in xi
    for member in (0, 2):
        solo, = integrate_companion([systems[member]], xi, t_grid,
                                    [epsilons[member]], **options)
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


# Run in a fresh process: it reads the CPU clock ticks of every thread but the
# main one (the BLAS helpers numpy starts) before and after a CLI run.
_THREAD_PROBE = r"""
import json, os, sys, time

def helper_ticks():
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == os.getpid():
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue
        ticks[tid] = int(fields[11]) + int(fields[12])  # utime + stime
    return ticks

from weakhyp.cli import main
time.sleep(0.5)  # the helpers spin for a while after numpy's import
before = helper_ticks()
status = main(sys.argv[1:]) if before else None
gained = sum(t - before.get(tid, 0) for tid, t in helper_ticks().items())
print(json.dumps({"helpers": len(before), "status": status, "ticks": gained}))
"""


def test_solve_wakes_no_blas_thread(tmp_path):
    # runs are single-threaded: no BLAS or LAPACK call on the solve path may
    # wake a helper thread, which then busy-waits for a tenth of a second
    if not Path("/proc/self/task").is_dir():
        pytest.skip("needs /proc/self/task")
    config = {
        "problem": {"order": 2, "horizon": 1.0},
        "roots": {"preset": "heaviside", "jump": 0.5, "low": 1.0,
                  "high": 4.0},
        "data": [{"preset": "bump", "radius": 1.0}, {"preset": "zero"}],
        "regularisation": {"scale": "linear",
                           "epsilon_sweep": [0.25, 0.125, 0.0625]},
        "grid": {"points": 256, "time_steps": 1024},
    }
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(config))
    probe = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, "solve", "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr
    result = json.loads(probe.stdout.splitlines()[-1])
    if not result["helpers"]:
        pytest.skip("numpy started no helper thread")
    assert result["status"] == 0
    assert result["ticks"] <= 2
