"""Traced run of one weakhyp CLI invocation, and the per-layer metrics.

Usage: python3 perfbench/tracer.py SPANS_FILE <weakhyp arguments...>

Runs ``weakhyp.cli.main`` in this process after wrapping the public calls of
each module at the names the program looks them up by: a name bound by
``from .x import y`` is patched in the importing module, a method on its
class.  Every call becomes a span (id, parent, name, start, end, error,
info) kept in memory and written to SPANS_FILE when the invocation ends.
Wrappers re-raise every exception unchanged, because ``solve_very_weak``
turns any exception into a per-epsilon stage failure.

``layer_metrics`` turns the spans of one workload pass into the per-layer
metrics; it imports nothing from weakhyp.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Iterable

Span = tuple  # (id, parent, name, start, end, error, info)

TOP_LEVEL = ("tracer.import", "cli.main", "tracer.write")


class Tracer:
    """Records spans from any thread; worker-thread spans with no open span
    of their own are children of the main thread's innermost open span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             info: Callable[[tuple, Any], dict] | None = None,
             cpu: bool = False) -> Callable:
        """``fn`` recorded as span ``name``.  ``info(args, result)`` adds
        amounts on success; ``cpu`` adds the process CPU time spent."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else 0)
            span_id = next(tracer._ids)
            stack.append(span_id)
            error = ""
            extra = None
            cpu0 = time.process_time() if cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                if cpu:
                    extra = dict(extra or {}, cpu=time.process_time() - cpu0)
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end,
                                     error, extra))

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append((next(self._ids), 0, name, start, end, "", None))

    def write(self, path: str) -> None:
        start = time.perf_counter()
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(_encode(span))
            handle.write(_encode((next(self._ids), 0, "tracer.write", start,
                                  time.perf_counter(), "", None)))


def _encode(span: Span) -> str:
    sid, parent, name, start, end, error, info = span
    extra = json.dumps(info) if info else ""
    return f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\t{error}\t{extra}\n"


def read_spans(path: str) -> list[Span]:
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            sid, parent, name, start, end, error, extra = \
                line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, float(start),
                          float(end), error, json.loads(extra) if extra
                          else None))
    return spans


# -- what is wrapped ----------------------------------------------------------


def _points(args: tuple, result: Any) -> dict:
    import numpy as np
    return {"points": int(np.size(args[1]))}


def _freq_steps(args: tuple, result: Any) -> dict:
    import numpy as np
    return {"freq_steps": int(np.size(args[1])) * (int(np.size(args[2])) - 1)}


def _written(args: tuple, result: Any) -> dict:
    rows = len(args[2]) if len(args) > 2 else 0
    return {"bytes": os.path.getsize(args[0]), "rows": rows}


def install(tracer: Tracer) -> None:
    """Patch weakhyp in place so that each layer's calls record spans."""
    from weakhyp import (cli, experiments, mollifiers, profiles, reduction,
                         roots, solver, symmetrisers)

    def patch(owner: Any, attr: str, name: str, **kw: Any) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    patch(profiles.RoughProfile, "fourier_transform", "profiles.transform")
    patch(mollifiers.Convolution, "__call__", "mollifiers.convolve",
          info=_points)
    patch(mollifiers, "fixed_panel", "mollifiers.fixed_panel")
    patch(mollifiers, "adaptive_panel", "mollifiers.adaptive_panel")
    patch(mollifiers.GevreyCutoffMollifier, "fourier_transform",
          "mollifiers.gevrey_transform")
    patch(roots.RegularisedRoots, "direction_table", "roots.direction_table")
    patch(roots.RegularisedRoots, "convolved", "roots.convolved")
    patch(roots, "convolve_profile", "roots.convolve_profile")
    patch(reduction, "characteristic_polynomial", "recovery.charpoly")
    patch(symmetrisers, "characteristic_polynomial", "recovery.charpoly")
    patch(experiments, "random_round_trip_study", "recovery.roundtrip")
    patch(solver, "recover_coefficients", "recovery.recover")

    row_provider = reduction.RootValuePrincipal.row_provider

    @functools.wraps(row_provider)
    def traced_row_provider(self, t_grid, xi):
        return tracer.wrap("reduction.row", row_provider(self, t_grid, xi))

    reduction.RootValuePrincipal.row_provider = traced_row_provider
    patch(experiments, "cofactor_matrix", "reduction.audit")
    patch(experiments, "to_block_sylvester", "reduction.audit")
    patch(reduction.PolynomialMatrix, "verify", "reduction.audit")
    patch(reduction.BlockSylvesterSystem, "block_eigenvalues",
          "reduction.audit")
    patch(solver, "build_symmetriser", "symmetrisers.build")
    patch(experiments, "build_symmetriser", "symmetrisers.build")
    patch(experiments, "verify_quadratic_bounds", "symmetrisers.bounds")
    patch(solver, "integrate_companion", "solver.integrate",
          info=_freq_steps, cpu=True)
    patch(solver, "_estimate_norm", "solver.stability")
    patch(solver, "build_regularised_system", "solver.build")
    patch(solver.FrequencyGrid, "synthesise", "solver.synthesise")
    patch(experiments, "energy_trace", "solver.energy")
    patch(solver, "solve_single", "solver.solve_single")
    patch(experiments, "fit_moderateness", "analysis.moderateness")
    patch(experiments, "convergence_study", "analysis.convergence")
    patch(experiments, "gevrey_fourier_check", "analysis.gevrey")
    patch(cli, "load_config", "config.load")
    patch(experiments, "build_problem", "experiments.build_problem")
    patch(experiments, "solve_single", "experiments.reference")
    patch(experiments, "_net_tables", "experiments.tables")
    patch(experiments, "write_csv", "reports.write", info=_written)
    patch(experiments, "write_json", "reports.write", info=_written)
    patch(cli, "write_json", "reports.write", info=_written)


# -- per-layer metrics --------------------------------------------------------

# metric -> unit; the traced run reports every one of them, 0 where the
# workload does not reach the layer
LAYER_UNITS = {
    "profiles.transform_s": "s",
    "mollifiers.convolve_s": "s",
    "mollifiers.convolve_calls": "count",
    "mollifiers.convolve_points": "count",
    "mollifiers.fixed_panel_calls": "count",
    "mollifiers.adaptive_panel_calls": "count",
    "mollifiers.gevrey_transform_s": "s",
    "roots.direction_table_s": "s",
    "roots.direction_table_calls": "count",
    "roots.conv_cache_hit_ratio": "ratio",
    "recovery.charpoly_calls": "count",
    "recovery.charpoly_s": "s",
    "recovery.roundtrip_s": "s",
    "recovery.recover_s": "s",
    "reduction.row_calls": "count",
    "reduction.row_s": "s",
    "reduction.audit_s": "s",
    "symmetrisers.build_calls": "count",
    "symmetrisers.build_s": "s",
    "symmetrisers.bounds_s": "s",
    "solver.integrate_s": "s",
    "solver.integrate_cpu_s": "s",
    "solver.freq_steps": "count",
    "solver.freq_steps_per_s": "1/s",
    "solver.stability_s": "s",
    "solver.stability_rejects": "count",
    "solver.build_s": "s",
    "solver.synthesise_s": "s",
    "solver.energy_s": "s",
    "solver.energy_calls": "count",
    "solver.eps_solve_s": "s",
    "analysis.moderateness_s": "s",
    "analysis.convergence_s": "s",
    "analysis.gevrey_s": "s",
    "config.load_s": "s",
    "experiments.build_problem_s": "s",
    "experiments.reference_s": "s",
    "experiments.tables_s": "s",
    "reports.write_s": "s",
    "reports.bytes": "bytes",
    "reports.rows": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

# span names whose total time is reported as "<name>_s"
TIMED = ("profiles.transform", "mollifiers.convolve",
         "mollifiers.gevrey_transform", "roots.direction_table",
         "recovery.charpoly", "recovery.roundtrip", "recovery.recover",
         "reduction.row", "reduction.audit", "symmetrisers.build",
         "symmetrisers.bounds", "solver.stability", "solver.build",
         "solver.synthesise", "solver.energy", "analysis.moderateness",
         "analysis.convergence", "analysis.gevrey", "config.load",
         "experiments.build_problem", "experiments.reference",
         "experiments.tables", "reports.write")
# span names whose call count is reported as "<name>_calls"
COUNTED = ("mollifiers.convolve", "mollifiers.fixed_panel",
           "mollifiers.adaptive_panel", "roots.direction_table",
           "recovery.charpoly", "reduction.row", "symmetrisers.build",
           "solver.energy")


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from spans whose ids are unique in the list."""
    by_id = {s[0]: s for s in spans}

    def outermost(span: Span) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == span[2]:
                return False
            parent = by_id.get(parent[1])
        return True

    time_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    amounts: dict[str, float] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        sid, parent, name, start, end, error, info = span
        calls[name] = calls.get(name, 0) + 1
        children.setdefault(parent, []).append((start, end))
        if outermost(span):
            time_of[name] = time_of.get(name, 0.0) + (end - start)
        for key, value in (info or {}).items():
            amounts[f"{name}.{key}"] = amounts.get(f"{name}.{key}", 0.0) \
                + value
        if error == "StabilityError" and name == "solver.integrate":
            amounts["solver.stability_rejects"] = \
                amounts.get("solver.stability_rejects", 0.0) + 1

    m: dict[str, float] = {}
    for name in TIMED:
        m[f"{name}_s"] = time_of.get(name, 0.0)
    for name in COUNTED:
        m[f"{name}_calls"] = float(calls.get(name, 0))
    m["mollifiers.convolve_points"] = amounts.get(
        "mollifiers.convolve.points", 0.0)
    convolved = calls.get("roots.convolved", 0)
    m["roots.conv_cache_hit_ratio"] = \
        1.0 - calls.get("roots.convolve_profile", 0) / convolved \
        if convolved else 0.0
    integrate = [s for s in spans if s[2] == "solver.integrate"]
    m["solver.integrate_s"] = sum((
        (s[4] - s[3]) - _union_length(children.get(s[0], ()))
        for s in integrate), 0.0)
    m["solver.integrate_cpu_s"] = amounts.get("solver.integrate.cpu", 0.0)
    m["solver.freq_steps"] = amounts.get("solver.integrate.freq_steps", 0.0)
    integrate_time = time_of.get("solver.integrate", 0.0)
    m["solver.freq_steps_per_s"] = \
        m["solver.freq_steps"] / integrate_time if integrate_time else 0.0
    m["solver.stability_rejects"] = amounts.get("solver.stability_rejects",
                                                0.0)
    eps_times = [s[4] - s[3] for s in spans if s[2] == "solver.solve_single"]
    m["solver.eps_solve_s"] = statistics.median(eps_times) \
        if eps_times else 0.0
    m["reports.bytes"] = amounts.get("reports.write.bytes", 0.0)
    m["reports.rows"] = amounts.get("reports.write.rows", 0.0)
    m["top_level_s"] = sum(time_of.get(name, 0.0) for name in TOP_LEVEL)
    return m


def pass_metrics(span_files: list[str]) -> dict[str, float]:
    """``layer_metrics`` over the span files of one pass's invocations."""
    spans: list[Span] = []
    offset = 0
    for path in span_files:
        part = read_spans(path)
        spans.extend((sid + offset, parent + offset if parent else 0,
                      *rest) for sid, parent, *rest in part)
        offset += max((s[0] for s in part), default=0)
    return layer_metrics(spans)


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    from weakhyp import cli
    install(tracer)
    tracer.record("tracer.import", start, time.perf_counter())
    main_fn = tracer.wrap("cli.main", cli.main)
    try:
        return main_fn(cli_args)
    finally:
        tracer.write(spans_file)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
