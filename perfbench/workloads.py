"""Seeded workload definitions and their output checks.

A workload is a list of CLI invocations, run in order as fresh processes.
Every input is generated here from the benchmark seed; the program sees only
the JSON configs written to the run directory.  Checks test properties of
the outputs, not golden bytes, so last-bit drift from a reordered reduction
does not fail them.  No check reads ``runtime_seconds``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# The jump of the heaviside wave speed is drawn from a narrow window around
# mid-horizon: the accuracy figures depend on its position, and a wide window
# would let the seed alone move them by more than a regression bound.
JUMP_WINDOW = (0.47, 0.53)

# solve_wide: at K=512 the stability budget needs at most 1588 steps (at
# eps=0.25) for any jump in JUMP_WINDOW; 1792 keeps a 12 % margin.
WIDE_POINTS = 512
WIDE_STEPS = 1792

ROUNDTRIP_TOL = 1e-8
INTERTWINING_TOL = 1e-10
DET_TOL = 1e-6
COFACTOR_TOL = 1e-9
BLOCK_EIGEN_TOL = 1e-9


@dataclass
class Outcome:
    """What the check of one invocation found."""

    ok: bool
    attempted: int
    failed: int
    figures: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass
class Invocation:
    """One ``weakhyp`` CLI call: its argument list and its output check."""

    subcommand: str
    config: Path
    out: Path
    args: list[str]
    operations: int
    check: Callable[[Path], Outcome]

    def argv(self) -> list[str]:
        return [self.subcommand, "--config", str(self.config),
                "--out", str(self.out), *self.args]

    def evaluate(self, returncode: int) -> Outcome:
        """Check the outputs; a failed invocation fails all its operations."""
        try:
            outcome = self.check(self.out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome = Outcome(False, self.operations, self.operations,
                              problems=[f"unreadable output: {exc!r}"])
        if returncode != 0:
            outcome.ok = False
            outcome.problems.append(f"exit status {returncode}")
        if not outcome.ok:
            outcome.failed = self.operations
        outcome.attempted = self.operations
        return outcome


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _require(problems: list[str], condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def _wave_config(jump: float, points: int, steps: int, sweep: list[float],
                 output_times: list[float], checks: dict) -> dict:
    return {
        "problem": {"order": 2, "horizon": 1.0, "gevrey_s": 2.0},
        "roots": {"preset": "heaviside", "jump": jump, "low": 1.0,
                  "high": 4.0},
        "data": [{"preset": "bump", "radius": 1.0}, {"preset": "zero"}],
        "regularisation": {"scale": "linear", "epsilon_sweep": sweep},
        "grid": {"points": points, "time_steps": steps,
                 "output_times": output_times},
        "checks": checks,
        "run": {"seed": 7},
    }


def _write(path: Path, raw: dict) -> Path:
    path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return path


def jump_for(seed: int) -> float:
    return round(random.Random(seed).uniform(*JUMP_WINDOW), 6)


# -- sweep_heaviside ----------------------------------------------------------

SWEEP = [0.25, 0.125, 0.0625, 0.03125]


def _check_sweep(out: Path) -> Outcome:
    s = _summary(out)
    problems: list[str] = []
    failed_eps = s.get("failed_epsilons", [])
    _require(problems, not failed_eps, f"failed epsilons {failed_eps}")
    ratio = s.get("metrics", {}).get("convergence_mean_ratio")
    _require(problems, ratio is not None and ratio <= 0.9,
             f"convergence_mean_ratio {ratio} > 0.9")
    ref = s.get("reference", {})
    _require(problems, ref.get("strictly_decreasing") is True,
             "reference errors not strictly decreasing")
    _require(problems, s.get("convergence", {}).get("non_cauchy") is False,
             "net flagged non-Cauchy")
    errors = ref.get("errors", [])
    _require(problems, len(errors) == len(SWEEP),
             f"{len(errors)} reference errors for {len(SWEEP)} epsilons")
    figures = {}
    if errors and errors[-1][0] == SWEEP[-1]:
        figures["ref_linf_error"] = float(errors[-1][1])
    else:
        problems.append("no reference error at the finest epsilon")
    # the sweep's epsilons plus the fine_epsilon reference solve
    failed = len(failed_eps)
    return Outcome(not problems, len(SWEEP) + 1, failed, figures, problems)


def sweep_heaviside(seed: int, work: Path) -> list[Invocation]:
    raw = _wave_config(jump_for(seed), 512, 2048, SWEEP, [0.5, 1.0],
                       {"convergence_mean_ratio": 0.9})
    raw["reference"] = {"kind": "fine_epsilon", "divisor": 8.0}
    raw["analysis"] = {"seminorm": "fourier_proxy", "nu": 1.0}
    cfg = _write(work / "sweep.json", raw)
    return [Invocation("sweep", cfg, work / "sweep", ["--jobs", "1"],
                       len(SWEEP) + 1, _check_sweep)]


# -- solve_wide ---------------------------------------------------------------

WIDE_SWEEP = [0.25, 0.125, 0.0625]
WIDE_TIMES = [0.0, 0.5, 1.0]
WIDE_TRACKED = [2.0, 8.0, 32.0]


def _check_wide(out: Path) -> Outcome:
    s = _summary(out)
    problems: list[str] = []
    entries = s.get("per_epsilon", [])
    _require(problems, [e.get("epsilon") for e in entries] == WIDE_SWEEP,
             "per_epsilon does not list the sweep")
    failed = sum(1 for e in entries if not e.get("ok"))
    _require(problems, failed == 0, f"{failed} epsilons failed")
    doubling = []
    for e in entries:
        if not e.get("ok"):
            continue
        sup = e.get("sup_norm")
        _require(problems, isinstance(sup, float) and math.isfinite(sup),
                 f"sup_norm {sup!r} at eps={e['epsilon']}")
        doubling.append(float(e.get("step_doubling_max")))
    _require(problems, all(math.isfinite(d) for d in doubling),
             "non-finite step-doubling estimate")
    n_eps, n_times = len(WIDE_SWEEP), len(WIDE_TIMES)
    stride = max(1, WIDE_STEPS // 64)
    samples = len(range(0, WIDE_STEPS + 1, stride))
    expected = {"solution": n_eps * n_times * WIDE_POINTS,
                "spectrum": n_eps * n_times * WIDE_POINTS,
                "energy": n_eps * len(WIDE_TRACKED) * samples}
    for name, rows in expected.items():
        got = len(_csv_rows(out / f"{name}.csv"))
        _require(problems, got == rows, f"{name}.csv has {got} rows, "
                                        f"expected {rows}")
    figures = {"step_doubling_max": max(doubling)} if doubling else {}
    return Outcome(not problems, n_eps, failed, figures, problems)


def solve_wide(seed: int, work: Path) -> list[Invocation]:
    raw = _wave_config(jump_for(seed), WIDE_POINTS, WIDE_STEPS, WIDE_SWEEP,
                       WIDE_TIMES, {})
    raw["grid"]["tracked_frequencies"] = WIDE_TRACKED
    cfg = _write(work / "solve.json", raw)
    return [Invocation("solve", cfg, work / "solve", ["--jobs", "2"],
                       len(WIDE_SWEEP), _check_wide)]


# -- audit --------------------------------------------------------------------

ROUNDTRIP_FAMILIES = 100
SYMMETRISER_COUNT = 1000
REDUCE_COUNT = 50


def _check_roundtrip(out: Path) -> Outcome:
    s = _summary(out)
    problems: list[str] = []
    worst = float(s["max_rel_error"])
    failures = s.get("failures", [])
    _require(problems, worst <= ROUNDTRIP_TOL,
             f"round-trip error {worst} > {ROUNDTRIP_TOL}")
    _require(problems, not failures, f"{len(failures)} round-trip failures")
    rows = _csv_rows(out / "roundtrip.csv")
    _require(problems, len(rows) == ROUNDTRIP_FAMILIES,
             f"{len(rows)} families, expected {ROUNDTRIP_FAMILIES}")
    failed = sum(1 for r in rows if not float(r["rel_error"]) <= ROUNDTRIP_TOL)
    return Outcome(not problems, ROUNDTRIP_FAMILIES, failed,
                   {"roundtrip_max_rel_error": worst}, problems)


def _check_symmetriser(out: Path) -> Outcome:
    s = _summary(out)
    problems: list[str] = []
    _require(problems, s["worst_intertwining"] <= INTERTWINING_TOL,
             f"intertwining {s['worst_intertwining']} > {INTERTWINING_TOL}")
    _require(problems, s["worst_det_rel_error"] <= DET_TOL,
             f"det error {s['worst_det_rel_error']} > {DET_TOL}")
    _require(problems, s["bound_violations"] == 0,
             f"{s['bound_violations']} quadratic bound violations")
    rows = _csv_rows(out / "symmetriser.csv")
    _require(problems, len(rows) == SYMMETRISER_COUNT,
             f"{len(rows)} tuples, expected {SYMMETRISER_COUNT}")
    failed = sum(1 for r in rows
                 if not (float(r["intertwining_residual"]) <= INTERTWINING_TOL
                         and float(r["det_rel_error"]) <= DET_TOL))
    return Outcome(not problems, SYMMETRISER_COUNT, failed, {}, problems)


def _check_reduce(out: Path) -> Outcome:
    s = _summary(out)
    problems: list[str] = []
    _require(problems, s["worst_cofactor_residual"] <= COFACTOR_TOL,
             f"cofactor residual {s['worst_cofactor_residual']}")
    _require(problems, s["worst_block_eigen_error"] <= BLOCK_EIGEN_TOL,
             f"block eigenvalue error {s['worst_block_eigen_error']}")
    rows = _csv_rows(out / "reduce.csv")
    bad = {r["index"] for r in rows
           if not (float(r["cofactor_residual"]) <= COFACTOR_TOL
                   and float(r["block_eigen_error"]) <= BLOCK_EIGEN_TOL)}
    _require(problems, len({r["index"] for r in rows}) == REDUCE_COUNT,
             f"reduce.csv does not cover {REDUCE_COUNT} systems")
    return Outcome(not problems, REDUCE_COUNT, len(bad), {}, problems)


def audit(seed: int, work: Path) -> list[Invocation]:
    # one config per subcommand: a shared config would carry checks on
    # metrics a subcommand does not produce, and those fail the run
    base = {"problem": {"order": 2},
            "regularisation": {"epsilon_sweep": [0.5]}, "run": {"seed": 0}}
    roundtrip = dict(base, roundtrip={
        "families": ROUNDTRIP_FAMILIES, "max_order": 4, "max_dimension": 3,
        "omega": 0.05}, checks={"roundtrip_max_rel_error": ROUNDTRIP_TOL})
    symmetriser = dict(base, symmetriser={"count": SYMMETRISER_COUNT},
                       checks={"symmetriser_worst_intertwining":
                               INTERTWINING_TOL,
                               "symmetriser_worst_det_rel_error": DET_TOL,
                               "symmetriser_bound_violations": 0.0})
    reduce = dict(base, reduce={"count": REDUCE_COUNT},
                  checks={"reduce_worst_cofactor_residual": COFACTOR_TOL,
                          "reduce_worst_block_eigen_error": BLOCK_EIGEN_TOL})
    seed_args = ["--seed", str(seed)]
    return [
        Invocation("roundtrip", _write(work / "roundtrip.json", roundtrip),
                   work / "roundtrip", seed_args, ROUNDTRIP_FAMILIES,
                   _check_roundtrip),
        Invocation("symmetriser",
                   _write(work / "symmetriser.json", symmetriser),
                   work / "symmetriser", seed_args, SYMMETRISER_COUNT,
                   _check_symmetriser),
        Invocation("reduce", _write(work / "reduce.json", reduce),
                   work / "reduce", seed_args, REDUCE_COUNT, _check_reduce),
    ]


WORKLOADS: dict[str, Callable[[int, Path], list[Invocation]]] = {
    "sweep_heaviside": sweep_heaviside,
    "solve_wide": solve_wide,
    "audit": audit,
}

# which summary figure is each workload's accuracy figure
ACCURACY_FIGURE = {
    "sweep_heaviside": "ref_linf_error",
    "solve_wide": "step_doubling_max",
    "audit": "roundtrip_max_rel_error",
}
