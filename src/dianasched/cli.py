"""Command line entry point: run, sweep and compare experiments."""

from __future__ import annotations

import argparse
import sys

from .core import JobStatus
from .engine import SimulationError, run_scenario
from .report import (SWEEP_AXES, CompareError, compare, read_summaries,
                     run_sweep, write_run)
from .scenario import ScenarioError, parse_scenario


def _load_scenario(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dianasched",
        description="Deterministic grid meta-scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario, emit jobs.csv/summary.csv")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--seed", type=int, required=True)
    run_p.add_argument("--out", required=True)

    sweep_p = sub.add_parser("sweep", help="run a one-axis parameter sweep")
    sweep_p.add_argument("--scenario", required=True)
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated axis values")
    sweep_p.add_argument("--seed", type=int, required=True)
    sweep_p.add_argument("--out", required=True)

    cmp_p = sub.add_parser("compare", help="compare summary.csv files")
    cmp_p.add_argument("summaries", nargs="+")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            result = run_scenario(_load_scenario(args.scenario), args.seed)
            paths = write_run(result, args.out)
            print(f"completed {result.count(JobStatus.COMPLETED)}/"
                  f"{len(result.jobs)} jobs, {result.messages} messages")
            print(f"wrote {paths['jobs']} and {paths['summary']}")
        elif args.command == "sweep":
            values = [v for v in args.values.split(",") if v]
            if not values:
                raise ScenarioError("--values must list at least one value")
            run_sweep(_load_scenario(args.scenario), args.axis, values,
                      args.seed, args.out)
            print(f"wrote {len(values)} sweep point(s) to {args.out}/summary.csv")
        elif args.command == "compare":
            print(compare(read_summaries(args.summaries)), end="")
    except (ScenarioError, SimulationError, CompareError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
