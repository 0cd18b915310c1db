"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from weakhyp.analysis import linear_fit
from weakhyp.analysis import convergence_study, fit_moderateness
from weakhyp.errors import WeakHypError
from weakhyp.mollifiers import (GevreyCutoffMollifier, friedrichs_mollifier,
                                vanishing_moment_mollifier)
from weakhyp.profiles import (bump_profile, heaviside_profile,
                              hoelder_profile, point_mass_profile,
                              zero_profile, constant_profile)
from weakhyp.recovery import (random_round_trip_study, recover_coefficients,
                              sigma_table)
from weakhyp.reduction import (cofactor_matrix, random_hyperbolic_system,
                               to_block_sylvester)
from weakhyp.roots import (RegularisedRoots, RootFamily, constant_roots,
                           linear_scale, logarithmic_scale, transport_roots,
                           wave_speed_roots)
from weakhyp.solver import (FrequencyGrid, VeryWeakProblem, auto_box_length,
                            build_regularised_system, dalembert_reference,
                            energy_trace, integrate_companion, solve_single,
                            solve_very_weak, transport_reference)
from weakhyp.symmetrisers import (build_symmetriser,
                                  vandermonde_product_squared,
                                  verify_quadratic_bounds)

from oracles import (fitted_growth_rate, fourier_approximation_rate,
                     max_relative_drift)


def _report(criterion: str, passed: bool, detail: str) -> None:
    mark = "PASS" if passed else "FAIL"
    print(f"[{mark}] {criterion}: {detail}")


def test_criterion_01_round_trip_random_families():
    phi = friedrichs_mollifier()
    started = time.perf_counter()
    study = random_round_trip_study(100, phi, 0.05,
                                    random.Random(20240801),
                                    max_order=4, max_dimension=3,
                                    probes_per_family=2)
    elapsed = time.perf_counter() - started
    ok = study.max_rel_error <= 1e-8 and elapsed <= 10.0 \
        and not study.failures
    _report("criterion 01 root->coefficient->root round trip", ok,
            f"max_rel_error={study.max_rel_error:.3e} (<=1e-8), "
            f"runtime={elapsed:.2f}s (<=10s), families=100")
    assert study.max_rel_error <= 1e-8
    assert elapsed <= 10.0
    assert not study.failures


def test_criterion_02_anisotropic_recovery_exact():
    phi = friedrichs_mollifier()

    def features(d):
        return np.sqrt(d[:, 0] ** 2 + 4.0 * d[:, 1] ** 2)[:, None]

    fam = RootFamily(order=2, dimension=2,
                     coefficients=((constant_profile(-1.0, (-2.0, 3.0)),),
                                   (constant_profile(1.0, (-2.0, 3.0)),)),
                     features=features, bound=2.0, horizon=1.0)
    reg = RegularisedRoots(fam, phi, 0.05)
    cs = recover_coefficients(reg, 2, 2)
    t = np.array([0.4])
    sigma = sigma_table(reg, t, cs.plan.directions)
    got = {nu: float(v[0]) for nu, v in cs.evaluate(t, sigma).items()}
    expected = {(2, 0): 1.0, (0, 2): 4.0, (1, 1): 0.0}
    worst = max(abs(got[nu] - expected[nu]) for nu in expected)
    ok = worst <= 1e-10
    _report("criterion 02 anisotropic recovery (1, 4, 0)", ok,
            f"worst coefficient error={worst:.3e} (<=1e-10)")
    assert worst <= 1e-10


def test_criterion_03_symmetriser_identities():
    rng = np.random.default_rng(7)
    spacing = 0.05
    worst_inter = 0.0
    worst_det = 0.0
    worst_floor = 0.0
    det_floor_ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        mu = np.sort(rng.uniform(-3.0, 3.0, m))
        for i in range(1, m):
            mu[i] = max(mu[i], mu[i - 1] + spacing)
        sym = build_symmetriser(mu)
        worst_inter = max(worst_inter, sym.intertwining_residual())
        vdm = vandermonde_product_squared(mu)
        if vdm > 0.0:
            worst_det = max(worst_det, abs(sym.det_value - vdm) / vdm)
        eig = np.linalg.eigvalsh(sym.matrix)
        worst_floor = min(worst_floor, eig[0] / max(eig[-1], 1e-300))
        if m > 1 and sym.det_value < spacing ** (m * m - m) * (1 - 1e-12):
            det_floor_ok = False
    ok = worst_inter <= 1e-10 and worst_det <= 1e-6 \
        and worst_floor >= -1e-12 and det_floor_ok
    _report("criterion 03 symmetriser identities (1000 tuples)", ok,
            f"intertwining={worst_inter:.3e} (<=1e-10), "
            f"det_rel={worst_det:.3e} (<=1e-6), "
            f"psd_floor={worst_floor:.3e} (>=-1e-12), "
            f"det>=omega^(m^2-m): {det_floor_ok}")
    assert worst_inter <= 1e-10
    assert worst_det <= 1e-6
    assert worst_floor >= -1e-12
    assert det_floor_ok


def _energy_traces(problem, epsilon):
    """The energy traces (times, energies) of the tracked frequencies at
    one epsilon, sampled on every 8th step."""
    system = build_regularised_system(problem, epsilon)[0]
    samples = range(0, problem.time_steps + 1, 8)
    result, = integrate_companion(
        [system], problem.grid.frequencies, problem.time_grid, [epsilon],
        tracked_indices=problem.tracked_indices, trace_steps=samples)
    if isinstance(result, WeakHypError):
        raise result
    trace = energy_trace(system, result.traces, problem.time_grid[samples],
                         problem.tracked_frequencies)
    return [(trace.times, energies) for energies in trace.energies]


def test_criterion_04_energy_conservation_and_growth_rate():
    g0 = bump_profile(0.0, 1.0)
    problem = VeryWeakProblem(
        family=constant_roots([-1.0, 1.0]), data=(g0, zero_profile()),
        grid=FrequencyGrid(128, auto_box_length(1.0, 1.1, 1.0, 1.0)),
        time_steps=4096, horizon=1.0, omega=linear_scale(),
        output_times=(1.0,), tracked_frequencies=(2.0, 8.0, 16.0))
    worst_drift = max(max_relative_drift(energies)
                      for _, energies in _energy_traces(problem, 2.0 ** -30))
    conservation_ok = worst_drift <= 1e-8

    # rough coefficients: fitted growth rate against the separation scale
    speed = heaviside_profile(0.5, 1.0, 4.0, (0.0, 1.0))
    fam = wave_speed_roots(speed)
    omegas = (0.2, 0.1, 0.05, 0.025)
    rates = []
    for omega in omegas:
        prob = VeryWeakProblem(
            family=fam, data=(g0, zero_profile()),
            grid=FrequencyGrid(128, auto_box_length(1.0, 2.5, 1.0, 1.0)),
            time_steps=2048, horizon=1.0, omega=linear_scale(),
            output_times=(1.0,),
            tracked_frequencies=(4.0, 8.0, 16.0, 24.0))
        best = 0.0
        # linear scale: omega(eps) = eps
        for times, energies in _energy_traces(prob, omega):
            rate = fitted_growth_rate(times, energies)
            if rate is not None:
                best = max(best, rate)
        rates.append(max(best, 1e-12))
    p_fit, _, _ = linear_fit(np.log(1.0 / np.asarray(omegas)),
                             np.log(np.asarray(rates)))
    budget = 1.0 + 2 * 2 - 2 + 0.5  # N + m^2 - m + 0.5 with N = 1, m = 2
    rate_ok = p_fit <= budget
    ok = conservation_ok and rate_ok
    _report("criterion 04 energy conservation and growth scaling", ok,
            f"max_drift={worst_drift:.3e} (<=1e-8), "
            f"fitted p={p_fit:.3f} (<= {budget})")
    assert conservation_ok
    assert rate_ok


def test_criterion_05_classical_agreement_and_rk4_order():
    g0 = bump_profile(0.0, 1.0)
    wave_problem = VeryWeakProblem(
        family=constant_roots([-1.0, 1.0]), data=(g0, zero_profile()),
        grid=FrequencyGrid(1024, auto_box_length(1.0, 1.1, 1.0, 1.0)),
        time_steps=2048, horizon=1.0, omega=linear_scale(),
        output_times=(1.0,))
    rec = solve_single(wave_problem, 2.0 ** -18)
    ref = dalembert_reference(g0, 1.0, 1.0, wave_problem.grid.x_nodes)
    wave_err = float(np.max(np.abs(rec.u[0] - ref)))

    transport_problem = VeryWeakProblem(
        family=transport_roots(1.0), data=(g0,),
        grid=FrequencyGrid(256, auto_box_length(1.0, 1.1, 1.0, 1.0)),
        time_steps=512, horizon=1.0, omega=linear_scale(),
        output_times=(1.0,))
    rec_t = solve_single(transport_problem, 2.0 ** -24)
    ref_t = transport_reference(g0, 1.0, 1.0, transport_problem.grid.x_nodes)
    transport_err = float(np.max(np.abs(rec_t.u[0] - ref_t)))

    errs = []
    for nt in (288, 576):
        prob = VeryWeakProblem(
            family=constant_roots([-1.0, 1.0]), data=(g0, zero_profile()),
            grid=FrequencyGrid(256, 6.2), time_steps=nt, horizon=1.0,
            omega=linear_scale(), output_times=(1.0,))
        r = solve_single(prob, 2.0 ** -40)
        errs.append(float(np.max(np.abs(
            r.u[0] - dalembert_reference(g0, 1.0, 1.0, prob.grid.x_nodes)))))
    order_ratio = errs[0] / errs[1]

    ok = wave_err <= 1e-4 and transport_err <= 1e-6 and order_ratio >= 8.0
    _report("criterion 05 classical agreement", ok,
            f"dalembert_linf={wave_err:.3e} (<=1e-4), "
            f"transport_linf={transport_err:.3e} (<=1e-6), "
            f"rk4 halving ratio={order_ratio:.1f} (>=8)")
    assert wave_err <= 1e-4
    assert transport_err <= 1e-6
    assert order_ratio >= 8.0


def test_criterion_06_moderateness_of_delta_datum_net():
    speed = heaviside_profile(0.5, 1.0, 4.0, (0.0, 1.0))
    problem = VeryWeakProblem(
        family=wave_speed_roots(speed),
        data=(point_mass_profile(0.0), zero_profile()),
        grid=FrequencyGrid(256, auto_box_length(0.2, 3.6, 1.0, 1.0)),
        time_steps=1024, horizon=1.0,
        omega=logarithmic_scale(1, 2),
        output_times=(0.0, 0.5, 1.0))
    sweep = [2.0 ** -k for k in range(3, 10)]
    net = solve_very_weak(problem, sweep)
    failures = [e for e in sweep if not net.record(e).ok]
    report = fit_moderateness(net, s=2.0)
    ok = not failures and np.isfinite(report.n_hat) \
        and report.r_squared >= 0.95 and report.envelope_ok \
        and report.envelope_c > 0.0
    _report("criterion 06 moderateness of the delta-datum net", ok,
            f"N_hat={report.n_hat:.4f} (finite), "
            f"R2={report.r_squared:.4f} (>=0.95), "
            f"envelope c={report.envelope_c:.4f} (>0)")
    assert not failures
    assert np.isfinite(report.n_hat)
    assert report.r_squared >= 0.95
    assert report.envelope_ok and report.envelope_c > 0.0


def test_criterion_07_net_convergence():
    g0 = bump_profile(0.0, 1.0)
    speed = heaviside_profile(0.5, 1.0, 4.0, (0.0, 1.0))
    problem = VeryWeakProblem(
        family=wave_speed_roots(speed), data=(g0, zero_profile()),
        grid=FrequencyGrid(256, auto_box_length(1.0, 2.5, 1.0, 1.0)),
        time_steps=1024, horizon=1.0, omega=linear_scale(),
        output_times=(0.5, 1.0))
    sweep = [2.0 ** -k for k in range(2, 8)]
    net = solve_very_weak(problem, sweep)
    conv = convergence_study(net, seminorm="fourier_proxy", nu=1.0, s=2.0)
    distances = [d for _, _, d in conv.pairwise]
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    proxy_ok = decreasing and conv.mean_ratio is not None \
        and conv.mean_ratio <= 0.9

    a_prof = hoelder_profile(0.5, 0.5, 1.0, 1.0, (0.0, 1.0))
    hoelder_problem = VeryWeakProblem(
        family=wave_speed_roots(a_prof), data=(g0, zero_profile()),
        grid=FrequencyGrid(256, auto_box_length(1.0, 1.7, 1.0, 1.0)),
        time_steps=1024, horizon=1.0, omega=linear_scale(),
        output_times=(1.0,))
    sweep_h = [2.0 ** -k for k in range(2, 6)]
    net_h = solve_very_weak(hoelder_problem, sweep_h)
    reference = solve_single(hoelder_problem, sweep_h[-1] / 8.0)
    conv_h = convergence_study(net_h, reference=np.real(reference.u),
                               seminorm="sup")
    ref_errs = [err for _, err in conv_h.reference_errors]
    hoelder_ok = all(a > b for a, b in zip(ref_errs, ref_errs[1:]))

    ok = proxy_ok and hoelder_ok
    _report("criterion 07 very-weak net convergence", ok,
            f"proxy ratios mean={conv.mean_ratio:.3f} (<=0.9, decreasing), "
            f"hoelder reference errors strictly decreasing: {hoelder_ok}")
    assert proxy_ok
    assert hoelder_ok


def test_criterion_08_block_sylvester_reduction():
    rng = random.Random(99)
    worst_cof = 0.0
    worst_eig = 0.0
    for index in range(50):
        size = 2 + index % 2
        system = random_hyperbolic_system(rng, size)
        block_form = to_block_sylvester(system)
        poly = cofactor_matrix(system.a_symbol, size)
        for xi in (1.0, 5.0):
            worst_cof = max(worst_cof, poly.verify(0.3, xi))
            eig = block_form.block_eigenvalues(0.3, xi)
            direct = np.sort(np.linalg.eigvals(
                system.a_symbol(0.3, xi)).real)
            scale = max(1.0, float(np.max(np.abs(direct))))
            worst_eig = max(worst_eig,
                            float(np.max(np.abs(eig - direct))) / scale)
    ok = worst_cof <= 1e-9 and worst_eig <= 1e-9
    _report("criterion 08 block reduction (50 random systems)", ok,
            f"cofactor residual={worst_cof:.3e} (<=1e-9), "
            f"block eigenvalue error={worst_eig:.3e} (<=1e-9)")
    assert worst_cof <= 1e-9
    assert worst_eig <= 1e-9


def test_criterion_09_mollifier_approximation_rate():
    g = GevreyCutoffMollifier(vanishing_moment_mollifier(2), 0.05)
    omegas = tuple(float(w) for w in np.geomspace(0.01, 0.1, 8))
    fit = fourier_approximation_rate(
        point_mass_profile(0.0), g, q=2, s=2.0,
        xi_grid=np.linspace(0.0, 100.0, 401), omegas=omegas)
    ok = fit.q_hat >= 1.8
    _report("criterion 09 mollifier approximation rate", ok,
            f"fitted order={fit.q_hat:.3f} (>=1.8, q=2 kernel, "
            f"one-decade sweep)")
    assert fit.q_hat >= 1.8


def test_criterion_10_determinism_across_jobs(tmp_path):
    raw = {
        "problem": {"order": 2, "horizon": 1.0},
        "roots": {"preset": "heaviside", "jump": 0.5, "low": 1.0,
                  "high": 4.0},
        "data": [{"preset": "bump", "radius": 1.0}, {"preset": "zero"}],
        "regularisation": {"scale": "linear",
                           "epsilon_sweep": [0.25, 0.125, 0.0625]},
        "grid": {"points": 128, "time_steps": 512,
                 "output_times": [0.0, 1.0],
                 "tracked_frequencies": [4.0, 8.0]},
        "run": {"seed": 42},
    }
    cfg = tmp_path / "det.json"
    cfg.write_text(json.dumps(raw))
    outputs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"out{jobs}"
        result = subprocess.run(
            [sys.executable, "-m", "weakhyp.cli", "solve",
             "--config", str(cfg), "--out", str(out), "--jobs", jobs],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outputs.append(out)
    identical = True
    for name in ("solution.csv", "spectrum.csv", "energy.csv"):
        identical = identical and (
            (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes())
    _report("criterion 10 determinism across --jobs", identical,
            "CSV outputs byte-identical for jobs in {1, 4}")
    assert identical
