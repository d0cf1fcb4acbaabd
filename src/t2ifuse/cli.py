"""Command-line interface for the experiment pipeline.

Subcommands run the pipeline up to a stage (``prompt``, ``generate``,
``embed``, ``train``, ``eval``), end to end (``run``), over a config-declared
grid (``sweep``), or aggregate finished runs (``report``). A stage that fails
prints the failure its run's manifest recorded and exits 2; ``--verbose``
also prints the traceback.
"""

from __future__ import annotations

import argparse
import logging
import sys
import traceback
from pathlib import Path

from .config import COST_MODES, ConfigError, parse_config
from .orchestrator import STAGES, ManifestError, RunManifest, run_experiment
from .providers import OrchestrationError
from .sweep import report_cli, run_sweep


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

    for stage in STAGES:
        _add_common(sub.add_parser(stage.command, help=f"run stages up to {stage.name}"))
    _add_common(sub.add_parser("run", help="run all pipeline stages"))

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


def _failed_stage(run_dir: Path, exc: Exception) -> str | None:
    """The stage whose failure the run's manifest records as ``exc``, if any."""
    try:
        manifest = RunManifest.load(run_dir)
    except (OSError, ManifestError):  # no manifest to read: not a stage's failure
        return None
    reason = f"{type(exc).__name__}: {exc}"
    return next((name for name, stage in manifest.stages.items()
                 if stage.status == "failed" and stage.reason == reason), None)


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

        try:
            until_stage = next((stage.name for stage in STAGES if stage.command == args.command), None)
            manifest, report = run_experiment(config, until_stage=until_stage)
        except Exception as exc:
            stage = _failed_stage(Path(config.output_dir), exc)
            if stage is None:
                raise
            if args.verbose:
                traceback.print_exc()
            print(f"error: stage {stage} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        done = [s for s in manifest.stages if manifest.stages[s].status == "done"]
        print(f"{config.experiment_id}: stages done: {', '.join(done)}")
        reused = [s for s in done if manifest.stages[s].reused_from]
        if reused:
            print(f"stages reused: {', '.join(reused)}")
        if report is not None:
            print(f"accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f}")
        return 0
    except (ConfigError, OrchestrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
