"""Set-up cost every weakhyp invocation pays, as one fresh process.

Usage: python3 perfbench/setup_probe.py SUBCOMMAND=CONFIG [...]

Imports the CLI, loads each config and, for the solver subcommands, builds
the problem, then exits.
"""

import sys

import weakhyp.cli  # noqa: F401  (the import is part of the set-up cost)
from weakhyp.config import load_config
from weakhyp.experiments import build_problem

SOLVER_SUBCOMMANDS = ("solve", "sweep")


def main(argv: list[str]) -> int:
    for item in argv:
        subcommand, path = item.split("=", 1)
        cfg = load_config(path)
        if subcommand in SOLVER_SUBCOMMANDS:
            build_problem(cfg, 1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
