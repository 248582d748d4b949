"""Command-line entry point: one subcommand per experiment scenario.

Exit codes: 0 on success, 2 on configuration errors, 3 when the request is
outside what this build can compute (e.g. the grid reference on a large
network).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import CapabilityError, ConfigurationError
from .experiments import SCENARIOS, ExperimentConfig, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manetopt",
        description="Superposition-code power allocation experiments",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_json(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["out_dir"] = args.out
        if config.scenario != args.scenario:
            raise ConfigurationError(
                f"config declares scenario {config.scenario!r}, "
                f"subcommand was {args.scenario!r}"
            )
        if overrides:
            config = dataclasses.replace(config, **overrides)
        run_scenario(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
