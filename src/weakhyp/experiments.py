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

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import __version__
from .analysis import (check_halving, check_seminorm, convergence_study,
                       fit_moderateness, gevrey_fourier_check)
from .config import (ExperimentConfig, build_profile, build_root_family,
                     build_scale, config_field, config_hash, integer,
                     positive_integer, real, reals, require)
from .errors import ConfigurationError
from .mollifiers import friedrichs_mollifier
from .recovery import build_direction_plan, random_round_trip_study
from .reduction import (LowerOrderPart, LowerTerm, cofactor_matrix,
                        random_hyperbolic_system, to_block_sylvester)
from .reports import RowSource, write_csv, write_json
from .roots import speed_bound
from .solver import (CONE_MARGIN, FrequencyGrid, SolutionNet,
                     VeryWeakProblem, auto_box_length, dalembert_reference,
                     data_support_radius, energy_trace, solve_single,
                     solve_very_weak, transport_reference)
from .symmetrisers import (build_symmetriser, vandermonde_product_squared,
                           verify_quadratic_bounds)

Array = np.ndarray
#: table name -> (header, rows); rows are a list or a sized
#: :class:`RowSource`
Tables = dict[str, tuple[tuple, Sequence | RowSource]]

#: the time at which the ``reduce`` audit samples each system; the systems
#: of :func:`random_hyperbolic_system` have constant coefficients, so no
#: output depends on it
_REDUCE_TIME = 0.3


@dataclass
class ExperimentRecord:
    summary: dict
    tables: Tables

    def write(self, out_dir: str | Path, echo: str) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.echo").write_text(echo, encoding="utf-8")
        for name, (header, rows) in self.tables.items():
            write_csv(out / f"{name}.csv", header, rows)
        write_json(out / "summary.json", self.summary)


def _apply_checks(summary: dict, ceilings: dict[str, float]) -> None:
    """Compare summary metrics against configured ceilings."""
    results = []
    ok = True
    metrics = summary.get("metrics", {})
    for name, ceiling in ceilings.items():
        value = metrics.get(name)
        passed = value is not None and float(value) <= ceiling
        ok = ok and passed
        results.append({"metric": name, "value": value,
                        "ceiling": ceiling, "passed": passed})
    summary["checks"] = results
    summary["checks_passed"] = ok


def run_experiment(subcommand: str, cfg: ExperimentConfig,
                   seed: int) -> ExperimentRecord:
    """Run one subcommand's body inside the shared summary frame."""
    ceilings = {name: cfg.number(f"checks.{name}", 0.0, float)
                for name in cfg.section("checks")}
    started = time.perf_counter()
    record = ExperimentRecord({"subcommand": subcommand,
                               "config_hash": config_hash(cfg),
                               "artifact_version": __version__,
                               "seed": seed}, {})
    complete = DRIVERS[subcommand](cfg, seed, record.summary, record.tables)
    record.summary["runtime_seconds"] = time.perf_counter() - started
    record.summary["complete"] = complete
    _apply_checks(record.summary, ceilings)
    return record


def build_problem(cfg: ExperimentConfig, jobs: int = 1) -> VeryWeakProblem:
    """The solver problem a config describes.

    This is the one reader of ``roots``, ``data``, ``lower_terms``,
    ``forcing``, the ``regularisation`` scale and ``grid``: it states their
    defaults and checks their values, and a malformed one raises a
    :class:`ConfigurationError` naming its field.  ``jobs`` is accepted for
    callers that still pass a worker count; runs are single-threaded, so it
    changes nothing.
    """
    raw = cfg.raw
    order, horizon = cfg.order, cfg.horizon
    with config_field("roots"):
        family = build_root_family(require(raw, "roots", ""), horizon)
    if family.order != order:
        raise ConfigurationError(
            f"the roots have order {family.order}, not problem.order {order}",
            field="problem.order")
    scale = build_scale(cfg.section("regularisation"), order)
    data_specs = raw.get("data", [])
    if len(data_specs) != order:
        raise ConfigurationError(
            f"data must list {order} entries (one per derivative order)",
            field="data")
    data = tuple(build_profile(spec, f"data[{i}]")
                 for i, spec in enumerate(data_specs))
    terms = []
    for i, spec in enumerate(raw.get("lower_terms", [])):
        path = f"lower_terms[{i}]"
        profile = build_profile(require(spec, "profile", path),
                                f"{path}.profile", (0.0, horizon))
        with config_field(path):
            nu, j = (integer(require(spec, key, path), f"{path}.{key}")
                     for key in ("nu", "j"))
            terms.append(LowerTerm(nu, j, profile))
    with config_field("lower_terms"):
        lower = LowerOrderPart(order, tuple(terms)) if terms else None
    forcing = raw.get("forcing")
    if forcing is not None:
        forcing = (build_profile(require(forcing, "time", "forcing"),
                                 "forcing.time", (0.0, horizon)),
                   build_profile(require(forcing, "space", "forcing"),
                                 "forcing.space"))
    grid_cfg = cfg.section("grid")
    steps = positive_integer(grid_cfg.get("time_steps", 1024),
                             "grid.time_steps")
    margin = real(grid_cfg.get("margin", 1.0), "grid.margin")
    if not margin >= CONE_MARGIN:
        raise ConfigurationError(
            f"grid.margin must be a number >= {CONE_MARGIN:g}, the clearance "
            "every solve checks between the causal cone and the box edge",
            field="grid.margin")
    box = grid_cfg.get("box_length")  # absent or null: sized from the cone
    if box is None:
        speed = speed_bound(family, scale(max(cfg.epsilon_sweep)))
        box = auto_box_length(data_support_radius(data, forcing), speed,
                              horizon, margin)
    grid = FrequencyGrid(integer(grid_cfg.get("points", 256), "grid.points"),
                         real(box, "grid.box_length"))
    output_times = reals(grid_cfg.get(
        "output_times", (0.0, 0.5 * horizon, horizon)), "grid.output_times")
    if not output_times:
        raise ConfigurationError("grid.output_times must list at least one "
                                 "time", field="grid.output_times")
    for i, t in enumerate(output_times):
        if not 0.0 <= t <= horizon:
            raise ConfigurationError(
                f"grid.output_times[{i}] = {t:g} lies outside [0, "
                f"{horizon:g}], the solved horizon",
                field=f"grid.output_times[{i}]")
    tracked = reals(grid_cfg.get("tracked_frequencies", (2.0, 8.0)),
                    "grid.tracked_frequencies")
    return VeryWeakProblem(
        family=family, data=data, grid=grid, time_steps=steps, omega=scale,
        horizon=horizon, lower_terms=lower, forcing=forcing,
        output_times=output_times, tracked_frequencies=tracked)


def _reference(cfg: ExperimentConfig, problem: VeryWeakProblem
               ) -> tuple[str, Callable[[], Array | None]]:
    """Read the ``reference`` section: its kind, and the function that
    computes the reference values at the problem's output times, where the
    solution is written.  The drivers read it before they solve, so that a
    malformed reference is a config error."""
    ref = cfg.section("reference")
    kind = ref.get("kind", "none")
    if kind in ("none", None):
        return "none", lambda: None
    if kind in ("dalembert", "transport"):
        exact = dalembert_reference if kind == "dalembert" \
            else transport_reference
        speed = cfg.number("reference.speed", problem.family.bound, float)
        return kind, lambda: np.array([
            exact(problem.data[0], speed, t, problem.grid.x_nodes)
            for t in problem.output_times])
    if kind == "fine_epsilon":
        divisor = cfg.number("reference.divisor", 8.0, float)
        if not divisor >= 1.0:
            raise ConfigurationError(
                "reference.divisor must be >= 1, so that the reference "
                "epsilon is no coarser than the sweep",
                field="reference.divisor")
        eps_ref = min(cfg.epsilon_sweep) / divisor
        return kind, lambda: np.real(solve_single(problem, eps_ref).u)
    raise ConfigurationError(f"unknown reference kind '{kind}'",
                             field="reference.kind")


def _net_tables(net: SolutionNet, problem: VeryWeakProblem,
                tables: Tables) -> None:
    """The solution, spectrum and energy tables of the solved epsilons, as
    row sources that make each row, of Python floats, as it is written."""
    ok = net.ok_epsilons()
    times = problem.output_times
    x = problem.grid.x_nodes.tolist()
    xi = problem.grid.frequencies.tolist()

    def solution() -> Iterator[tuple]:
        for e in ok:
            u = net.record(e).u
            for t, re_u, im_u in zip(times, u.real.tolist(), u.imag.tolist()):
                for row in zip(x, re_u, im_u):
                    yield (e, t) + row

    def spectrum() -> Iterator[tuple]:
        for e in ok:
            # Python's complex abs, as numpy's scalar abs: the vectorised
            # np.abs may round the last bit differently
            for t, uhat in zip(times, net.record(e).uhat.tolist()):
                for row in zip(xi, map(abs, uhat)):
                    yield (e, t) + row

    cells = len(ok) * len(times)
    tables["solution"] = (("epsilon", "time", "x", "re_u", "im_u"),
                          RowSource(cells * len(x), solution))
    tables["spectrum"] = (("epsilon", "time", "xi", "abs_uhat"),
                          RowSource(cells * len(xi), spectrum))
    samples = problem.time_grid[problem.trace_steps]
    tracked = problem.tracked_frequencies
    traces = [(e, energy_trace(net.record(e).system, net.record(e).traces,
                               samples, tracked))
              for e in ok] if tracked else []

    def energy() -> Iterator[tuple]:
        for e, trace in traces:
            for xi_val, energies in zip(tracked, trace.energies.tolist()):
                for t, en in zip(trace.times.tolist(), energies):
                    yield e, xi_val, t, en

    tables["energy"] = (("epsilon", "xi", "time", "energy"),
                        RowSource(len(traces) * len(tracked) * samples.size,
                                  energy))


def _solve_net(problem: VeryWeakProblem, sweep: tuple[float, ...],
               summary: dict) -> SolutionNet:
    """Solve the epsilon sweep and list each epsilon's outcome: its error,
    or its omega, sup norm, imaginary fraction, step-doubling estimate and
    recovery residuals."""
    net = solve_very_weak(problem, sweep)
    entries = []
    for e in sweep:
        rec = net.record(e)
        entry = {"epsilon": e, "ok": rec.ok}
        if not rec.ok:
            entry["error"] = rec.error
        else:
            entry.update({
                "omega": rec.omega,
                "sup_norm": rec.sup_norm(),
                "imag_fraction": rec.imag_fraction,
                "step_doubling_max": rec.step_doubling_max,
                "recovery_residuals": {
                    str(k): v for k, v in rec.recovery_residuals.items()},
            })
        entries.append(entry)
    summary.update(epsilon_sweep=list(sweep), per_epsilon=entries, metrics={})
    return net


def run_solve(cfg: ExperimentConfig, seed: int, summary: dict,
              tables: Tables) -> bool:
    """Full very-weak pipeline over the sweep, with reference comparison."""
    problem = build_problem(cfg)
    ref_kind, ref_values = _reference(cfg, problem)
    net = _solve_net(problem, cfg.epsilon_sweep, summary)
    reference = ref_values()
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
    problem = build_problem(cfg)
    ref_kind, ref_values = _reference(cfg, problem)
    analysis_cfg = cfg.section("analysis")
    s = cfg.number("problem.gevrey_s", 2.0, float)
    if not s > 0.0:
        raise ConfigurationError(f"problem.gevrey_s must be > 0, got {s:g}",
                                 field="problem.gevrey_s")
    nu = cfg.number("analysis.nu", 1.0, float)
    seminorm = analysis_cfg.get("seminorm", "fourier_proxy")
    with config_field("analysis.seminorm"):
        check_seminorm(seminorm)
    require_ratio_two = analysis_cfg.get("require_ratio_two", True)
    if not isinstance(require_ratio_two, bool):
        raise ConfigurationError(
            "'analysis.require_ratio_two' must be true or false, got "
            f"{require_ratio_two!r}", field="analysis.require_ratio_two")
    if require_ratio_two:
        # the convergence study checks the solved epsilons the same way
        with config_field("regularisation.epsilon_sweep"):
            check_halving(cfg.epsilon_sweep)
    net = _solve_net(problem, cfg.epsilon_sweep, summary)
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

    conv = convergence_study(net, reference=ref_values(),
                             seminorm=seminorm, nu=nu, s=s,
                             require_ratio_two=require_ratio_two)
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
    return not summary["failed_epsilons"]


def run_roundtrip(cfg: ExperimentConfig, seed: int, summary: dict,
                  tables: Tables) -> bool:
    """Coefficient-recovery audit over random root families."""
    n_families = cfg.count("roundtrip.families", 100)
    max_order = cfg.count("roundtrip.max_order", 4)
    max_dimension = cfg.count("roundtrip.max_dimension", 3)
    probes = cfg.count("roundtrip.trials_per_family", 2)
    omega = cfg.number("roundtrip.omega", 0.05, float)
    if not 0.0 < omega <= 1.0:
        raise ConfigurationError(
            f"roundtrip.omega must lie in (0, 1], got {omega:g}",
            field="roundtrip.omega")
    study = random_round_trip_study(
        n_families=n_families, mollifier=friedrichs_mollifier(),
        omega=omega, rng=random.Random(seed), max_order=max_order,
        max_dimension=max_dimension, probes_per_family=probes)
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
        "metrics": {"roundtrip_max_rel_error": study.max_rel_error},
    })
    tables["roundtrip"] = (
        ("family", "order", "dimension", "rel_error"),
        [(i, m, n, err) for i, (m, n, err) in enumerate(study.rows)])
    return not study.failures


def run_symmetriser(cfg: ExperimentConfig, seed: int, summary: dict,
                    tables: Tables) -> bool:
    """Symmetriser identity and bound audit over random root tuples.

    Each tuple draws its order, its roots and then its form-trial vectors,
    in that order; the tuples of each order are then built, intertwined and
    bounded in one batched pass.  A trial vector's real and imaginary parts
    are uniform on [-1, 1]^m: the bounds hold for every vector, so a cube
    serves.  Each tuple takes its trial entries as one list of ``random()``
    draws, and each order maps its draws onto the cube in one numpy step.
    """
    count = cfg.count("symmetriser.count", 1000)
    max_order = cfg.count("symmetriser.max_order", 4)
    spacing = cfg.number("symmetriser.spacing", 0.05, float)
    bound = cfg.number("symmetriser.bound", 3.0, float)
    form_trials = cfg.count("symmetriser.form_trials", 16)
    rng = random.Random(seed)
    orders = []
    # per order, in draw order: the roots (m,) and the trial-vector draws
    # (2 * form_trials * m,), each trial's m real parts and then its m
    # imaginary parts
    drawn: dict[int, tuple[list[list[float]], list[Array]]] = {}
    for _ in range(count):
        m = rng.randint(1, max_order)
        mu = sorted(rng.uniform(-bound, bound) for _ in range(m))
        for i in range(1, m):
            mu[i] = max(mu[i], mu[i - 1] + spacing)
        roots, uniforms = drawn.setdefault(m, ([], []))
        roots.append(mu)
        uniforms.append(np.array(
            [rng.random() for _ in range(2 * form_trials * m)]))
        orders.append(m)
    columns = np.zeros((6, count))
    violations = 0
    for m, (roots, uniforms) in sorted(drawn.items()):
        n = len(roots)
        mu = np.array(roots)
        cube = 2.0 * np.array(uniforms).reshape(n, form_trials, 2, m) - 1.0
        vectors = cube[:, :, 0] + 1j * cube[:, :, 1]
        sym = build_symmetriser(mu)
        vdm = vandermonde_product_squared(mu)
        det_err = np.divide(np.abs(sym.det_value - vdm), vdm,
                            out=np.zeros(n), where=vdm > 0)
        report = verify_quadratic_bounds(sym, vectors, omega=spacing)
        columns[:, np.array(orders) == m] = (
            sym.spacing if m > 1 else np.zeros(n), sym.intertwining_residual(),
            det_err, report.eigen_min / np.maximum(report.eigen_max, 1e-300),
            sym.det_value, vdm)
        violations += int(np.sum(report.violations))
    inter, det_err, eig_floor = columns[1:4]
    worst_intertwine = float(np.max(inter, initial=0.0))
    worst_det = float(np.max(det_err, initial=0.0))
    worst_eigen = float(np.min(eig_floor, initial=0.0))
    summary.update({
        "count": count,
        "worst_intertwining": worst_intertwine,
        "worst_det_rel_error": worst_det,
        "worst_eigen_floor": worst_eigen,
        "bound_violations": violations,
        "metrics": {
            "symmetriser_worst_intertwining": worst_intertwine,
            "symmetriser_worst_det_rel_error": worst_det,
            "symmetriser_eigen_floor_deficit": max(0.0, -worst_eigen - 1e-12),
            "symmetriser_bound_violations": float(violations),
        },
    })
    tables["symmetriser"] = (
        ("index", "order", "spacing", "intertwining_residual",
         "det_rel_error", "eigen_floor", "det_value", "vandermonde_squared"),
        list(zip(range(count), orders, *(c.tolist() for c in columns))))
    return True


def run_reduce(cfg: ExperimentConfig, seed: int, summary: dict,
               tables: Tables) -> bool:
    """Block-reduction audit: adjugate identity and block eigenvalues."""
    section = cfg.section("reduce")
    count = cfg.count("reduce.count", 50)
    with config_field("reduce.sizes"):
        sizes = [positive_integer(s, f"reduce.sizes[{i}]")
                 for i, s in enumerate(section.get("sizes", (2, 3)))]
    if not sizes:
        raise ConfigurationError("'reduce.sizes' must list at least one size",
                                 field="reduce.sizes")
    freqs = reals(section.get("frequencies", (1.0, 5.0)),
                  "reduce.frequencies")
    rng = random.Random(seed)
    rows = []
    worst_cof = 0.0
    worst_eig = 0.0
    for index in range(count):
        size = sizes[index % len(sizes)]
        system = random_hyperbolic_system(rng, size)
        block_form = to_block_sylvester(system)
        poly = cofactor_matrix(system.a_symbol, size)
        for xi in freqs:
            cof_res = poly.verify(_REDUCE_TIME, xi)
            block_eigs = block_form.block_eigenvalues(_REDUCE_TIME, xi)
            direct = np.sort(np.real(np.linalg.eigvals(
                system.a_symbol(_REDUCE_TIME, xi))))
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
