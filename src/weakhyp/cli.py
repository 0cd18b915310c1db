"""Command-line entry point.

Usage: ``weakhyp <subcommand> --config cfg.json [--out DIR] [--jobs K]
[--seed N]`` with subcommands ``solve``, ``roundtrip``, ``symmetriser``,
``sweep`` and ``reduce``.  Exit status 0 only when every check declared in
the config passed and all stages completed; 1 when a stage failed or a check
did not pass; 2 for a malformed config, which is reported with its field
before any stage runs and writes no outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import config_echo, config_hash, load_config
from .errors import ConfigurationError, WeakHypError
from .experiments import DRIVERS, run_experiment
from .reports import write_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakhyp",
        description="Numerical laboratory for weakly hyperbolic problems "
                    "with rough time-dependent coefficients")
    parser.add_argument("subcommand", choices=sorted(DRIVERS))
    parser.add_argument("--config", required=True,
                        help="path to the JSON experiment configuration")
    parser.add_argument("--out", default="out",
                        help="output directory (created if missing)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; runs are "
                             "single-threaded and outputs are identical for "
                             "every value")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.subcommand)
        seed = args.seed if args.seed is not None else cfg.seed
        record = run_experiment(args.subcommand, cfg, seed)
    except ConfigurationError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"config error: {exc}{field}", file=sys.stderr)
        return 2
    except WeakHypError as exc:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.echo").write_text(config_echo(cfg), encoding="utf-8")
        write_json(out / "summary.json", {
            "subcommand": args.subcommand,
            "config_hash": config_hash(cfg),
            "complete": False,
            "error": f"{type(exc).__name__}: {exc}",
        })
        print(f"stage failure: {exc}", file=sys.stderr)
        return 1
    record.write(args.out, config_echo(cfg))
    summary = record.summary
    for entry in summary["checks"]:
        mark = "pass" if entry["passed"] else "FAIL"
        print(f"[{mark}] {entry['metric']} = {entry['value']} "
              f"(ceiling {entry['ceiling']})")
    if not summary["complete"]:
        print("run incomplete: see summary.json", file=sys.stderr)
    return 0 if summary["complete"] and summary["checks_passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
