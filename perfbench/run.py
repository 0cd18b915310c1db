"""weakhyp benchmark: seeded CLI workloads, checked outputs, one JSON result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload pass runs the ``weakhyp`` CLI as a user does, one fresh
process per invocation, in a closed loop (one invocation at a time).  Passes
repeat until ``--seconds`` is used up, at least ``MIN_PASSES`` times, and the
metrics are medians over passes.

``--trace 0`` reports the end-to-end metrics.  Each pass is preceded by
``SETUP_PROBES`` set-up probes (fresh processes that import the CLI, load
the configs and build the problems).

``--trace 1`` alternates an untraced pass with a traced one, in which every
invocation runs ``perfbench/tracer.py`` instead of the CLI, and reports the
per-layer metrics.  The traced outputs must equal the untraced ones.

The last line of standard output is the JSON result; the exit status is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import ACCURACY_FIGURE, WORKLOADS, Outcome

MIN_PASSES = 3
SETUP_PROBES = 2
HERE = Path(__file__).resolve().parent

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
    "accuracy_digits": "digits",
}


@dataclass
class Child:
    """Wall, CPU and peak RSS of one finished child process."""

    returncode: int
    wall: float
    cpu: float
    rss_mb: float


def run_child(argv: list[str], env: dict, log: Path) -> Child:
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=handle,
                                stderr=subprocess.STDOUT)
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be a
        # high-water mark over every earlier child
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


class Pass:
    """One run of every invocation of a workload, in order."""

    def __init__(self, children: list[Child], outcomes: list[Outcome]):
        self.wall = sum(c.wall for c in children)
        self.cpu = sum(c.cpu for c in children)
        self.rss_mb = max(c.rss_mb for c in children)
        self.outcomes = outcomes


class Bench:
    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.work = root / ".perfbench" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.invocations = WORKLOADS[workload](seed, self.work)
        self.workload = workload
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = f"{src}{os.pathsep}{old}" if old else src
        self.problems: list[str] = []

    def _spawn(self, argv: list[str], log: str) -> Child:
        return run_child([sys.executable, *argv], self.env, self.work / log)

    def setup_probe(self) -> float:
        items = [f"{inv.subcommand}={inv.config}" for inv in self.invocations]
        child = self._spawn([str(HERE / "setup_probe.py"), *items],
                            "setup.log")
        if child.returncode != 0:
            self.problems.append(f"set-up probe exit {child.returncode}")
        return child.wall

    def run_pass(self, traced: bool = False) -> Pass:
        children, outcomes = [], []
        for i, inv in enumerate(self.invocations):
            shutil.rmtree(inv.out, ignore_errors=True)
            if traced:
                argv = [str(HERE / "tracer.py"), str(self.spans_file(i)),
                        *inv.argv()]
            else:
                argv = ["-m", "weakhyp.cli", *inv.argv()]
            child = self._spawn(argv, f"{inv.subcommand}.log")
            outcome = inv.evaluate(child.returncode)
            self.problems += [f"{inv.subcommand}: {p}"
                              for p in outcome.problems]
            children.append(child)
            outcomes.append(outcome)
        return Pass(children, outcomes)

    def spans_file(self, index: int) -> Path:
        return self.work / f"spans_{index}.tsv"

    def summaries(self) -> list[dict | None]:
        """Each invocation's summary.json without its run-time fields."""
        paths = [inv.out / "summary.json" for inv in self.invocations]
        return [_without_runtime(json.loads(p.read_text(encoding="utf-8")))
                if p.is_file() else None for p in paths]


def _without_runtime(value):
    """A summary without its run-time fields, which differ between runs."""
    if isinstance(value, dict):
        return {k: _without_runtime(v) for k, v in value.items()
                if "runtime" not in k}
    if isinstance(value, list):
        return [_without_runtime(v) for v in value
                if not (isinstance(v, dict)
                        and "runtime" in str(v.get("metric", "")))]
    return value


def _loop(seconds: float, step, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then until the next call
    would overrun ``seconds``."""
    start = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed * (done + 1) / done > seconds:
            return


def _counts(passes: list[Pass]) -> tuple[int, int]:
    attempted = sum(o.attempted for p in passes for o in p.outcomes)
    failed = sum(o.failed for p in passes for o in p.outcomes)
    return attempted, failed


def _accuracy(bench: Bench, passes: list[Pass]) -> tuple[str, float]:
    """The workload's accuracy figure, which must repeat in every pass."""
    figure = ACCURACY_FIGURE[bench.workload]
    values = {o.figures[figure] for p in passes for o in p.outcomes
              if figure in o.figures}
    if len(values) != 1:
        bench.problems.append(f"{figure} not reported once and identically: "
                              f"{sorted(values)}")
        return figure, float("nan")
    return figure, values.pop()


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[Pass]]:
    passes: list[Pass] = []
    setups: list[float] = []

    def step() -> None:
        setups.extend(bench.setup_probe() for _ in range(SETUP_PROBES))
        passes.append(bench.run_pass())

    _loop(seconds, step, MIN_PASSES)
    attempted, failed = _counts(passes)
    figure, value = _accuracy(bench, passes)
    print(f"accuracy figure: {figure} = {value!r}")
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "setup_s": statistics.median(setups),
        "ok_frac": 1.0 - failed / attempted,
        "accuracy_digits": -math.log10(value) if value > 0 else float("nan"),
    }
    print(f"samples: {len(passes)} passes, {len(setups)} set-up probes; "
          f"pass walls {[round(p.wall, 3) for p in passes]}")
    return metrics, passes


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list[Pass]]:
    passes: list[Pass] = []
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []

    def step() -> None:
        plain = bench.run_pass()
        expected = bench.summaries()
        traced_pass = bench.run_pass(traced=True)
        if bench.summaries() != expected:
            bench.problems.append("traced summary.json differs from the "
                                  "untraced one")
        passes.extend((plain, traced_pass))
        untraced.append(plain.wall)
        traced.append(traced_pass.wall)
        layers.append(tracer.pass_metrics(
            [str(bench.spans_file(i)) for i in range(len(bench.invocations))]))
        layers[-1]["trace.coverage"] = \
            layers[-1].pop("top_level_s") / traced_pass.wall

    _loop(seconds, step, 1)
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["trace.overhead_s"] = \
        statistics.median(traced) - statistics.median(untraced)
    print(f"samples: {len(layers)} traced and {len(untraced)} untraced passes")
    return metrics, passes


def self_check(root: Path, trace: bool, metrics: dict) -> list[str]:
    """Every metric BENCHMARK.json names is emitted, with its unit."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if declared == emitted:
        return []
    return [f"metrics and units differ from BENCHMARK.json: declared "
            f"{sorted(declared.items())}, emitted {sorted(emitted.items())}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "weakhyp" / "cli.py").is_file():
        print(f"no weakhyp sources under {root / 'src'}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        print(f"{var}={os.environ.get(var, '(unset)')}")
    measure = per_layer if args.trace else end_to_end
    values, passes = measure(bench, args.seconds)
    units = tracer.LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {name: (value, units.get(name, "")) for name, value in
               values.items()}
    problems = list(dict.fromkeys(bench.problems))
    problems += self_check(root, bool(args.trace), metrics)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted, failed = _counts(passes)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
