"""Command-line entry point.

Subcommands: run (execute named experiments), list (experiments and
presets), validate (check a scenario file), emit (re-emit a stored result
CSV as a plot script).  Exit codes: 0 success, 1 input error,
2 non-convergence.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (
    EXPERIMENTS,
    DEFAULT_PRESET,
    ExperimentResult,
    check_scenario,
    csv_to_rows,
    emit,
    run_experiments,
)
from .presets import PRESETS
from .queueing import NonConvergenceError
from .scenario import Scenario, ScenarioError, apply_overrides, load_scenario, scenario_from_preset

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NONCONVERGENCE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="femtonet",
        description="Two-tier femtocell/macrocell network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run named experiments")
    run_p.add_argument("experiments", nargs="+", metavar="experiment",
                       help="experiment names (see `femtonet list`); fig4-throughput "
                            "and fig4-outage share one sweep when their inputs match, "
                            "as in library calls")
    run_p.add_argument("--scenario", help="scenario file to load")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--trials", type=int, default=None)
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a scenario key")
    run_p.add_argument("--format", choices=("csv", "plot-script", "both"),
                       default="csv")

    sub.add_parser("list", help="list experiments and presets")

    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("path")

    emit_p = sub.add_parser("emit", help="re-emit a result CSV as a plot script")
    emit_p.add_argument("csv_path")
    emit_p.add_argument("--out", default=".")
    return parser


def _scenario(args, name: str) -> Scenario:
    """The scenario an experiment runs on: the --scenario file or the
    experiment's default preset, with --set applied, then --seed and
    --trials as two more assignments, so the flags win."""
    if args.scenario:
        scenario = load_scenario(args.scenario)
    else:
        scenario = scenario_from_preset(DEFAULT_PRESET.get(name, ""))
    flags = [f"{key} = {value}" for key, value in (("seed", args.seed), ("trials", args.trials))
             if value is not None]
    return apply_overrides(scenario, [*args.overrides, *flags])


def _cmd_run(args) -> int:
    try:
        results = run_experiments({name: _scenario(args, name)
                                   for name in args.experiments})
    except (ScenarioError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE

    formats = ("csv", "plot-script") if args.format == "both" else (args.format,)
    for result in results:
        for fmt in formats:
            if not _write(result, fmt, args.out):
                return EXIT_INPUT_ERROR
    return EXIT_OK


def _write(result: ExperimentResult, fmt: str, out_dir) -> bool:
    """Emit one format and print the written paths; False on an OS error."""
    try:
        paths = emit(result, fmt, out_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    for path in paths:
        print(path)
    return True


def _cmd_list() -> int:
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}  (default preset: {DEFAULT_PRESET[name]})")
    print("presets:")
    for name in sorted(PRESETS):
        print(f"  {name}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.path)
    except ScenarioError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        check_scenario(scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"ok: scenario {scenario.name!r} "
          f"(seed {scenario.seed}, trials {scenario['trials']})")
    return EXIT_OK


def _cmd_emit(args) -> int:
    try:
        with open(args.csv_path, encoding="utf-8") as fh:
            rows = csv_to_rows(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if not rows:
        print("error: empty result", file=sys.stderr)
        return EXIT_INPUT_ERROR
    name = os.path.splitext(os.path.basename(args.csv_path))[0]
    result = ExperimentResult(name, rows[0][0], rows[0][6], rows=rows)
    return EXIT_OK if _write(result, "plot-script", args.out) else EXIT_INPUT_ERROR


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "emit":
        return _cmd_emit(args)
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
