"""Command-line interface for the experiment pipeline.

Subcommands run the pipeline up to a stage (``prompt``, ``generate``,
``embed``, ``train``, ``eval``), end to end (``run``), over a config-declared
grid (``sweep``), or aggregate finished runs (``report``).
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import COST_MODES, ConfigError, parse_config
from .orchestrator import OrchestrationError, report_cli, run_experiment, run_sweep

_STAGE_COMMANDS = {
    "prompt": "prompts",
    "generate": "images",
    "embed": "embeddings",
    "train": "training",
    "eval": "evaluation",
    "run": None,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config file (YAML)")
    parser.add_argument("--out", help="override the config's output_dir")
    parser.add_argument("--seed", type=int, help="run a single seed instead of the configured list")
    parser.add_argument(
        "--offline", action="store_true",
        help="forbid remote calls; only stub/fixture providers may run",
    )
    parser.add_argument(
        "--cost-mode", choices=COST_MODES, dest="cost_mode",
        help="override how per-image cost is accounted",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="t2ifuse",
        description="Text classification with generated-image augmentation.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, stage in _STAGE_COMMANDS.items():
        help_text = "run all pipeline stages" if stage is None else f"run stages up to {stage}"
        p = sub.add_parser(command, help=help_text)
        _add_common(p)

    p = sub.add_parser("sweep", help="run the config's sweep grid, one cell per combination")
    _add_common(p)

    p = sub.add_parser("report", help="consolidate finished run directories")
    p.add_argument("run_dirs", nargs="+", help="run directories to aggregate")
    p.add_argument("--out", help="write consolidated output here as well")
    return parser


def _config_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.out:
        overrides["output_dir"] = args.out
    if args.seed is not None:
        overrides["seeds"] = [args.seed]
    if args.offline:
        overrides["offline"] = True
    if args.cost_mode:
        overrides["cost_mode"] = args.cost_mode
    return overrides


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )

    try:
        if args.command == "report":
            text = report_cli(args.run_dirs, out_dir=args.out)
            print(text, end="")
            return 0

        config = parse_config(args.config, overrides=_config_overrides(args))
        if args.command == "sweep":
            result = run_sweep(config)
            if result.table:
                print(result.table, end="")
            failed = [c for c in result.cells if c.status != "done"]
            for cell in failed:
                print(f"cell {cell.axes} failed: {cell.error}", file=sys.stderr)
            return 1 if failed else 0

        manifest, report = run_experiment(config, until_stage=_STAGE_COMMANDS[args.command])
        done = [s for s in manifest.stages if manifest.stages[s].status == "done"]
        print(f"{config.experiment_id}: stages done: {', '.join(done)}")
        if report is not None:
            print(f"accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f}")
        return 0
    except (ConfigError, OrchestrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
