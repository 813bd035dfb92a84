"""Command-line entry point.

Exit codes: 0 on success, 2 for configuration problems, 3 for runtime
failures, such as a malformed trace. `validate` builds the same `Scenario`
as `run`, so it exits as `run` would before the first event.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import SIM_END, ScenarioConfig, dump_defaults, load_config
from .engine import us_to_s
from .errors import ConfigError
from .metrics import write_outputs
from .scenario import Scenario, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcellsim",
        description="Trace-driven cellular network simulator for vehicular scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write metrics")
    run.add_argument("--config", required=True, type=Path)
    run.add_argument("--out", required=True, type=Path)
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--until", default=None, metavar="SECONDS", help="override sim_end_s")
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run this many consecutive seeds, each into out/seed-<n>/",
    )

    validate = sub.add_parser("validate", help="check a config and its trace, and exit")
    validate.add_argument("--config", required=True, type=Path)

    sub.add_parser("dump-defaults", help="print a fully resolved default config")
    return parser


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    """Apply --seed and --until, and check --jobs; bad values raise ConfigError."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.until is not None:
        config = dataclasses.replace(config, sim_end_us=SIM_END.convert(args.until, "--until: "))
    return config


def _run_one(config: ScenarioConfig, out_dir: Path) -> str:
    report = run_scenario(config)
    write_outputs(report, out_dir)
    delivered = sum(v.delivered_bits for v in report.vehicles.values())
    return (
        f"seed {config.seed}: {len(report.vehicles)} vehicles, "
        f"{delivered} bits delivered, {report.events_processed} events, "
        f"{us_to_s(config.sim_end_us):.3f} s simulated -> {out_dir}"
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "dump-defaults":
        sys.stdout.write(dump_defaults())
        return EXIT_OK

    try:
        config = load_config(args.config)
        if args.command == "validate":
            Scenario(config)  # the whole set-up of a run, trace included
            print(f"{args.config}: OK")
            return EXIT_OK
        config = _apply_overrides(config, args)
        if args.jobs == 1:
            print(_run_one(config, args.out))
        else:
            seeds = [config.seed + i for i in range(args.jobs)]
            jobs = [
                (dataclasses.replace(config, seed=s), args.out / f"seed-{s}")
                for s in seeds
            ]
            workers = min(args.jobs, os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for line in pool.map(_run_one, *zip(*jobs)):
                    print(line)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
