"""Drivers behind the CLI subcommands: build, run, measure, emit tables.

:func:`run_experiment` decides the ``summary.json`` frame for every
subcommand.  It writes the header (``subcommand``, ``config_hash``,
``artifact_version``, ``seed``), runs the subcommand's body from
:data:`DRIVERS`, then appends the tail (``runtime_seconds``, ``complete``,
``checks``, ``checks_passed``).  A body fills only its own summary keys and
tables and returns whether every stage completed.  Tables and summaries,
apart from ``runtime_seconds``, are byte-stable under re-runs with the same
seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .analysis import (convergence_study, fit_moderateness,
                       gevrey_fourier_check, uniformity_spot_check)
from .config import (ExperimentConfig, build_profile, build_root_family,
                     build_scale, config_hash)
from .errors import ConfigurationError
from .mollifiers import friedrichs_mollifier
from .recovery import build_direction_plan, random_round_trip_study
from .reduction import cofactor_matrix, random_hyperbolic_system, \
    to_block_sylvester
from .reports import write_csv, write_json
from .roots import constant_scale
from .solver import (FrequencyGrid, LowerTermSpec, SolutionNet,
                     VeryWeakProblem, auto_box_length, dalembert_reference,
                     data_support_radius, energy_trace, solve_single,
                     solve_very_weak, transport_reference)
from .symmetrisers import (build_symmetriser, vandermonde_product_squared,
                           verify_quadratic_bounds)

Array = np.ndarray
Tables = dict[str, tuple[tuple, list]]


@dataclass
class ExperimentRecord:
    summary: dict
    tables: Tables = field(default_factory=dict)

    def write(self, out_dir: str | Path, echo: str) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.echo").write_text(echo, encoding="utf-8")
        for name, (header, rows) in self.tables.items():
            write_csv(out / f"{name}.csv", header, rows)
        write_json(out / "summary.json", self.summary)


def _apply_checks(summary: dict, checks: dict) -> None:
    """Compare summary metrics against configured ceilings."""
    results = []
    ok = True
    metrics = summary.get("metrics", {})
    for name, ceiling in checks.items():
        value = metrics.get(name)
        passed = value is not None and float(value) <= float(ceiling)
        ok = ok and passed
        results.append({"metric": name, "value": value,
                        "ceiling": float(ceiling), "passed": passed})
    summary["checks"] = results
    summary["checks_passed"] = ok


def run_experiment(subcommand: str, cfg: ExperimentConfig,
                   seed: int) -> ExperimentRecord:
    """Run one subcommand's body inside the shared summary frame."""
    started = time.perf_counter()
    record = ExperimentRecord({"subcommand": subcommand,
                               "config_hash": config_hash(cfg),
                               "artifact_version": __version__,
                               "seed": seed})
    complete = DRIVERS[subcommand](cfg, seed, record.summary, record.tables)
    record.summary["runtime_seconds"] = time.perf_counter() - started
    record.summary["complete"] = complete
    _apply_checks(record.summary, cfg.section("checks"))
    return record


def build_problem(cfg: ExperimentConfig, jobs: int = 1) -> VeryWeakProblem:
    """The solver problem a config describes.

    ``jobs`` is accepted for callers that still pass a worker count; runs
    are single-threaded, so it changes nothing.
    """
    raw = cfg.raw
    horizon = cfg.horizon
    family = build_root_family(raw["roots"], horizon)
    scale = build_scale(cfg.section("regularisation"), cfg.order)
    data_specs = raw.get("data", [])
    if len(data_specs) != cfg.order:
        raise ConfigurationError(
            f"data must list {cfg.order} entries", field="data")
    data = tuple(build_profile(spec, f"data[{i}]")
                 for i, spec in enumerate(data_specs))
    lower = tuple(
        LowerTermSpec(int(spec["nu"]), int(spec["j"]),
                      build_profile(spec["profile"],
                                    f"lower_terms[{i}].profile",
                                    (0.0, horizon)))
        for i, spec in enumerate(raw.get("lower_terms", [])))
    forcing = None
    if raw.get("forcing"):
        forcing = (build_profile(raw["forcing"]["time"], "forcing.time",
                                 (0.0, horizon)),
                   build_profile(raw["forcing"]["space"], "forcing.space"))
    grid_cfg = cfg.section("grid")
    eps_max = max(cfg.epsilon_sweep)
    speed = family.bound + cfg.order * scale(eps_max)
    box = grid_cfg.get("box_length")
    if box is None:
        box = auto_box_length(data_support_radius(data, forcing), speed,
                              horizon,
                              margin=float(grid_cfg.get("margin", 1.0)))
    grid = FrequencyGrid(int(grid_cfg.get("points", 256)), float(box))
    output_times = tuple(float(t) for t in grid_cfg.get(
        "output_times", (0.0, 0.5 * horizon, horizon)))
    tracked = tuple(float(x) for x in grid_cfg.get(
        "tracked_frequencies", (2.0, 8.0)))
    return VeryWeakProblem(
        family=family, data=data, grid=grid,
        time_steps=int(grid_cfg.get("time_steps", 1024)),
        horizon=horizon, lower_terms=lower, forcing=forcing, omega=scale,
        output_times=output_times, tracked_frequencies=tracked)


def _reference_values(cfg: ExperimentConfig, problem: VeryWeakProblem
                      ) -> tuple[Array | None, str]:
    ref = cfg.section("reference")
    kind = ref.get("kind", "none")
    if kind in ("none", None):
        return None, "none"
    x = problem.grid.x_nodes
    if kind == "dalembert":
        speed = float(ref.get("speed", problem.family.bound))
        rows = [dalembert_reference(problem.data[0], speed, t, x)
                for t in problem.output_times]
        return np.array(rows), kind
    if kind == "transport":
        speed = float(ref.get("speed", problem.family.bound))
        rows = [transport_reference(problem.data[0], speed, t, x)
                for t in problem.output_times]
        return np.array(rows), kind
    if kind == "fine_epsilon":
        divisor = float(ref.get("divisor", 8.0))
        eps_ref = min(cfg.epsilon_sweep) / divisor
        rec = solve_single(problem, eps_ref)
        return np.real(rec.u), kind
    raise ConfigurationError(f"unknown reference kind '{kind}'",
                             field="reference.kind")


def _net_tables(net: SolutionNet, problem: VeryWeakProblem,
                tables: Tables) -> None:
    x = problem.grid.x_nodes
    xi = problem.grid.frequencies
    sol_rows = []
    spec_rows = []
    for e in net.ok_epsilons():
        rec = net.record(e)
        for row, t in enumerate(rec.output_times):
            for k in range(x.size):
                sol_rows.append((e, t, float(x[k]),
                                 float(rec.u[row, k].real),
                                 float(rec.u[row, k].imag)))
            for k in range(xi.size):
                spec_rows.append((e, t, float(xi[k]),
                                  float(abs(rec.uhat[row, k]))))
    tables["solution"] = (("epsilon", "time", "x", "re_u", "im_u"), sol_rows)
    tables["spectrum"] = (("epsilon", "time", "xi", "abs_uhat"), spec_rows)
    energy_rows = []
    for e in net.ok_epsilons():
        rec = net.record(e)
        if rec.traces is None or not rec.tracked_xi:
            continue
        stride = max(1, (rec.trace_times.size - 1) // 64)
        for i, xi_val in enumerate(rec.tracked_xi):
            trace = energy_trace(rec.system, rec.traces[:, i, :],
                                 rec.trace_times, xi_val, e,
                                 sample_stride=stride)
            for t, en in zip(trace.times, trace.energies):
                energy_rows.append((e, xi_val, float(t), float(en)))
    tables["energy"] = (("epsilon", "xi", "time", "energy"), energy_rows)


def _solve_net(cfg: ExperimentConfig, summary: dict, detailed: bool
               ) -> tuple[VeryWeakProblem, SolutionNet]:
    """Solve the config's epsilon sweep and list each epsilon's outcome.

    Every solved epsilon reports its omega and step-doubling estimate;
    ``detailed`` adds its sup norm, imaginary fraction and recovery
    residuals.
    """
    problem = build_problem(cfg)
    sweep = cfg.epsilon_sweep
    net = solve_very_weak(problem, sweep)
    entries = []
    for e in sweep:
        rec = net.record(e)
        entry = {"epsilon": e, "ok": rec.ok}
        if not rec.ok:
            entry["error"] = rec.error
        elif detailed:
            entry.update({
                "omega": rec.omega,
                "sup_norm": rec.sup_norm(),
                "imag_fraction": rec.metadata.get("imag_fraction"),
                "step_doubling_max": rec.metadata.get("step_doubling_max"),
                "recovery_residuals": {
                    str(k): v for k, v in
                    rec.metadata.get("recovery_residuals", {}).items()},
            })
        else:
            entry.update(omega=rec.omega, step_doubling_max=rec.metadata.get(
                "step_doubling_max"))
        entries.append(entry)
    summary.update(epsilon_sweep=list(sweep), per_epsilon=entries, metrics={})
    return problem, net


def run_solve(cfg: ExperimentConfig, seed: int, summary: dict,
              tables: Tables) -> bool:
    """Full very-weak pipeline over the sweep, with reference comparison."""
    problem, net = _solve_net(cfg, summary, detailed=True)
    reference, ref_kind = _reference_values(cfg, problem)
    _net_tables(net, problem, tables)
    if reference is not None:
        ref_rows = [[e, float(np.max(np.abs(net.record(e).u - reference)))]
                    for e in net.ok_epsilons()]
        summary["reference"] = {"kind": ref_kind, "errors": ref_rows}
        if ref_rows:
            summary["metrics"][f"{ref_kind}_linf_error"] = ref_rows[-1][1]
        tables["reference"] = (("epsilon", "linf_error"), ref_rows)
    return all(entry["ok"] for entry in summary["per_epsilon"])


def run_sweep(cfg: ExperimentConfig, seed: int, summary: dict,
              tables: Tables) -> bool:
    """Moderateness and convergence study over the sweep."""
    problem, net = _solve_net(cfg, summary, detailed=False)
    analysis_cfg = cfg.section("analysis")
    s = cfg.gevrey_s
    nu = float(analysis_cfg.get("nu", 1.0))
    seminorm = analysis_cfg.get("seminorm", "fourier_proxy")
    summary["failed_epsilons"] = [
        {"epsilon": entry["epsilon"], "error": entry["error"]}
        for entry in summary["per_epsilon"] if not entry["ok"]]

    mod = fit_moderateness(net, s=s)
    summary["moderateness"] = {
        "n_hat": mod.n_hat, "r_squared": mod.r_squared,
        "n_hat_drop_largest": mod.n_hat_drop_largest,
        "span_decades": mod.span_decades,
        "trivially_moderate": mod.trivially_moderate,
        "envelope_prefactor": mod.envelope_prefactor,
        "envelope_c": mod.envelope_c,
        "envelope_ok": mod.envelope_ok,
    }
    summary["metrics"]["moderateness_r_squared_deficit"] = \
        max(0.0, 1.0 - mod.r_squared)
    tables["moderateness"] = (
        ("epsilon", "sup_norm"), [list(r) for r in mod.sup_table])

    reference, ref_kind = _reference_values(cfg, problem)
    conv = convergence_study(net, reference=reference, seminorm=seminorm,
                             nu=nu, s=s,
                             require_ratio_two=bool(
                                 analysis_cfg.get("require_ratio_two", True)))
    summary["convergence"] = {
        "seminorm": conv.seminorm,
        "mean_ratio": conv.mean_ratio,
        "non_cauchy": conv.non_cauchy,
        "limit_epsilon": conv.limit_epsilon,
    }
    if conv.mean_ratio is not None:
        summary["metrics"]["convergence_mean_ratio"] = conv.mean_ratio
    tables["convergence"] = (
        ("epsilon_coarse", "epsilon_fine", "distance"),
        [list(r) for r in conv.pairwise])
    if conv.reference_errors is not None:
        tables["reference"] = (
            ("epsilon", "error"), [list(r) for r in conv.reference_errors])
        summary["reference"] = {
            "kind": ref_kind,
            "errors": [list(r) for r in conv.reference_errors],
            "strictly_decreasing": all(
                a[1] > b[1] for a, b in zip(conv.reference_errors,
                                            conv.reference_errors[1:])),
        }
    # transform envelope of the finest solved record
    finest = net.record(net.ok_epsilons()[-1]) if net.ok_epsilons() else None
    if finest is not None:
        fit = gevrey_fourier_check(np.max(np.abs(finest.uhat), axis=0),
                                   problem.grid.frequencies, s)
        summary["gevrey_fit"] = {
            "decay_delta": fit.decay_delta, "decay_ok": fit.decay_ok,
            "growth_nu": fit.growth_nu, "zero": fit.zero,
        }
    # classical-consistency hypotheses cannot be verified symbolically: the
    # config asserts uniformity and the artifact spot-checks a constant
    if cfg.raw.get("roots", {}).get("uniformity_asserted"):
        c_value = uniformity_spot_check(
            problem.family, np.linspace(0.0, problem.horizon, 33),
            [(1.0,), (-1.0,)])
        summary["uniformity"] = {"asserted": True,
                                 "sampled_constant": c_value}
    return not summary["failed_epsilons"]


def run_roundtrip(cfg: ExperimentConfig, seed: int, summary: dict,
                  tables: Tables) -> bool:
    """Coefficient-recovery audit over random root families."""
    started = time.perf_counter()
    section = cfg.section("roundtrip")
    max_order = int(section.get("max_order", 4))
    max_dimension = int(section.get("max_dimension", 3))
    study = random_round_trip_study(
        n_families=int(section.get("families", 100)),
        mollifier=friedrichs_mollifier(),
        omega=constant_scale(float(section.get("omega", 0.05))),
        rng=np.random.default_rng(seed),
        max_order=max_order,
        max_dimension=max_dimension,
        probes_per_family=int(section.get("trials_per_family", 2)),
        epsilon=float(section.get("epsilon", 0.5)))
    runtime = time.perf_counter() - started
    # the direction plans behind the recoveries, for reproducibility
    plans = {}
    for degree in range(1, max_order + 1):
        for dim in range(1, max_dimension + 1):
            plan = build_direction_plan(degree, dim)
            plans[f"degree_{degree}_dim_{dim}"] = [
                {"support": list(block.support),
                 "directions": [list(d) for d in block.directions],
                 "condition": block.condition}
                for block in plan.blocks]
    summary.update({
        "families": len(study.rows),
        "max_rel_error": study.max_rel_error,
        "failures": list(study.failures),
        "direction_plans": plans,
        "metrics": {"roundtrip_max_rel_error": study.max_rel_error,
                    "roundtrip_runtime_seconds": runtime},
    })
    tables["roundtrip"] = (
        ("family", "order", "dimension", "rel_error"),
        [(i, m, n, err) for i, (m, n, err) in enumerate(study.rows)])
    return not study.failures


def run_symmetriser(cfg: ExperimentConfig, seed: int, summary: dict,
                    tables: Tables) -> bool:
    """Symmetriser identity and bound audit over random root tuples."""
    section = cfg.section("symmetriser")
    count = int(section.get("count", 1000))
    max_order = int(section.get("max_order", 4))
    spacing = float(section.get("spacing", 0.05))
    bound = float(section.get("bound", 3.0))
    form_trials = int(section.get("form_trials", 16))
    rng = np.random.default_rng(seed)
    rows = []
    worst_intertwine = 0.0
    worst_det = 0.0
    worst_eigen = 0.0
    floor_failures = 0
    for index in range(count):
        m = int(rng.integers(1, max_order + 1))
        mu = np.sort(rng.uniform(-bound, bound, m))
        for i in range(1, m):
            mu[i] = max(mu[i], mu[i - 1] + spacing)
        sym = build_symmetriser(mu)
        inter = sym.intertwining_residual()
        vdm = vandermonde_product_squared(mu)
        det_err = abs(sym.det_value - vdm) / vdm if vdm > 0 else 0.0
        report = verify_quadratic_bounds(sym, form_trials, rng, omega=spacing)
        eig_floor = report.eigen_min / max(report.eigen_max, 1e-300)
        worst_intertwine = max(worst_intertwine, inter)
        worst_det = max(worst_det, det_err)
        worst_eigen = min(worst_eigen, eig_floor)
        floor_failures += len(report.violations)
        rows.append((index, m, float(np.min(np.diff(mu)) if m > 1 else 0.0),
                     inter, det_err, eig_floor, sym.det_value, vdm))
    summary.update({
        "count": count,
        "worst_intertwining": worst_intertwine,
        "worst_det_rel_error": worst_det,
        "worst_eigen_floor": worst_eigen,
        "bound_violations": floor_failures,
        "metrics": {
            "symmetriser_worst_intertwining": worst_intertwine,
            "symmetriser_worst_det_rel_error": worst_det,
            "symmetriser_eigen_floor_deficit": max(0.0, -worst_eigen - 1e-12),
            "symmetriser_bound_violations": float(floor_failures),
        },
    })
    tables["symmetriser"] = (
        ("index", "order", "spacing", "intertwining_residual",
         "det_rel_error", "eigen_floor", "det_value", "vandermonde_squared"),
        rows)
    return True


def run_reduce(cfg: ExperimentConfig, seed: int, summary: dict,
               tables: Tables) -> bool:
    """Block-reduction audit: adjugate identity and block eigenvalues."""
    section = cfg.section("reduce")
    count = int(section.get("count", 50))
    sizes = [int(s) for s in section.get("sizes", (2, 3))]
    freqs = [float(x) for x in section.get("frequencies", (1.0, 5.0))]
    t_sample = float(section.get("t_sample", 0.3))
    rng = np.random.default_rng(seed)
    rows = []
    worst_cof = 0.0
    worst_eig = 0.0
    for index in range(count):
        size = sizes[index % len(sizes)]
        system = random_hyperbolic_system(rng, size)
        block_form = to_block_sylvester(system)
        poly = cofactor_matrix(system.a_symbol, size)
        for xi in freqs:
            cof_res = poly.verify(t_sample, xi)
            block_eigs = block_form.block_eigenvalues(t_sample, xi)
            direct = np.sort(np.real(np.linalg.eigvals(
                system.a_symbol(t_sample, xi))))
            scale = max(1.0, float(np.max(np.abs(direct))))
            eig_err = float(np.max(np.abs(block_eigs - direct))) / scale
            worst_cof = max(worst_cof, cof_res)
            worst_eig = max(worst_eig, eig_err)
            rows.append((index, size, xi, cof_res, eig_err))
    summary.update({
        "count": count,
        "worst_cofactor_residual": worst_cof,
        "worst_block_eigen_error": worst_eig,
        "metrics": {
            "reduce_worst_cofactor_residual": worst_cof,
            "reduce_worst_block_eigen_error": worst_eig,
        },
    })
    tables["reduce"] = (
        ("index", "size", "xi", "cofactor_residual", "block_eigen_error"),
        rows)
    return True


DRIVERS: dict[str, Callable[[ExperimentConfig, int, dict, Tables], bool]] = {
    "solve": run_solve,
    "sweep": run_sweep,
    "roundtrip": run_roundtrip,
    "symmetriser": run_symmetriser,
    "reduce": run_reduce,
}
