"""Sweeps and reports: the runs over a grid of axis values, and the tables
over finished runs.

``run_sweep`` runs one experiment per cell of the grid, each in its own
directory under ``<output_dir>/cells``, and writes one table over the cells
that finished; ``report_cli`` renders one table over finished run directories.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Sequence

from .axes import AXES, axis_problem, value_name
from .config import PIPELINE_SET, ConfigError, ExperimentConfig, parse_config_data, without_fields
from .evaluation import EvalReport, render_records, render_report
from .orchestrator import ManifestError, RunManifest, headline_report, run_experiment
from .providers import OrchestrationError, ProviderRegistry
from .storage import atomic_write_text, sha256_hex

logger = logging.getLogger(__name__)


class SweepError(OrchestrationError):
    pass


@dataclass
class SweepCell:
    axes: dict[str, str]
    output_dir: str
    status: str
    error: str | None = None


@dataclass
class SweepResult:
    cells: list[SweepCell]
    table: str | None
    records: list[dict]


# Longest file name, in bytes, that common file systems accept (NAME_MAX).
_MAX_NAME_BYTES = 255


def _cell_id(axis_names: Sequence[str], combo: Sequence) -> str:
    """A cell's name, which is also its directory name: its axis settings,
    or, when they are too long for one file name, a readable prefix of them
    plus a sha256 of the whole, so cells that share the prefix stay apart."""
    cell_id = "-".join(f"{name}={value_name(value)}" for name, value in zip(axis_names, combo))
    if len(cell_id) <= _MAX_NAME_BYTES:  # ASCII, as value_name percent-encodes the rest
        return cell_id
    suffix = "~" + sha256_hex(cell_id.encode("ascii"))[:16]
    return cell_id[: _MAX_NAME_BYTES - len(suffix)] + suffix


def _cell_config(base_config: ExperimentConfig, settings: dict) -> ExperimentConfig:
    """``base_config`` with the axes set to ``settings``, checked by the same
    walk as a parsed config: a value the config file would reject raises
    :class:`ConfigError` naming its field."""
    config = base_config
    for name, value in settings.items():
        try:
            config = AXES[name].set_to(config, value)
        except ValueError as exc:
            raise ConfigError([f"sweep.axes.{name}: {value!r}: {exc}"]) from exc
    return parse_config_data(without_fields(config.to_dict(), ("sweep_axes", *PIPELINE_SET)))


def run_sweep(
    base_config: ExperimentConfig,
    axes: dict[str, Sequence] | None = None,
    registry: ProviderRegistry | None = None,
) -> SweepResult:
    """One experiment per cell of the axis grid; cells are independent and
    individually resumable, and failures don't block other cells."""
    axes = dict(axes if axes is not None else base_config.sweep_axes)
    if not axes:
        raise SweepError("sweep needs at least one axis")
    problems = [p for p in (axis_problem(name, values) for name, values in axes.items()) if p]
    if problems:
        raise SweepError("; ".join(problems))
    registry = registry if registry is not None else ProviderRegistry()
    axis_names = list(axes)
    sweep_dir = Path(base_config.output_dir)
    sweep_dir.mkdir(parents=True, exist_ok=True)

    cells: list[SweepCell] = []
    runs: list[tuple[str, dict, EvalReport]] = []
    for combo in itertools.product(*(axes[name] for name in axis_names)):
        cell_id = _cell_id(axis_names, combo)
        cell_dir = str(sweep_dir / "cells" / cell_id)
        status, error = "done", None
        try:
            cell_config = _cell_config(base_config, dict(zip(axis_names, combo)))
            cell_config = dataclasses.replace(
                cell_config,
                experiment_id=f"{base_config.experiment_id}/{cell_id}",
                output_dir=cell_dir,
                cache_dir=str(base_config.resolved_cache_dir()),
            )
            manifest, report = run_experiment(cell_config, registry)
            runs.append((cell_id, manifest.descriptor, report))
        except Exception as exc:
            logger.warning("sweep cell %s failed: %s", cell_id, exc)
            status, error = "failed", f"{type(exc).__name__}: {exc}"
        cells.append(SweepCell(axes={name: str(v) for name, v in zip(axis_names, combo)},
                               output_dir=cell_dir, status=status, error=error))

    table = None
    records: list[dict] = []
    if runs:
        table, records = _combined_table(runs, axis_names, base_config.experiment_id)
        atomic_write_text(sweep_dir / "combined_table.txt", table)
        atomic_write_text(sweep_dir / "combined_records.jsonl", render_records(records))

    atomic_write_text(
        sweep_dir / "sweep_summary.json",
        json.dumps(
            {
                "axes": {k: [str(v) for v in vs] for k, vs in axes.items()},
                "cells": [dataclasses.asdict(c) for c in cells],
            },
            sort_keys=True,
            indent=2,
        ),
    )
    return SweepResult(cells=cells, table=table, records=records)


def _combined_table(
    runs: Sequence[tuple[str | Path, dict, EvalReport]],
    axis_names: Sequence[str],
    experiment_id: str = "experiment",
) -> tuple[str, list[dict]]:
    """One table over ``(name, descriptor, report)`` runs, keyed by their
    descriptor values on ``axis_names``. No run is dropped: when the axes
    leave two runs on one key (or there are none), the name becomes one last
    axis, ``run``."""
    axis_names = list(axis_names)
    keys = [tuple(str(descriptor.get(a)) for a in axis_names) for _, descriptor, _ in runs]
    if not axis_names or len(set(keys)) < len(keys):
        axis_names.append("run")
        keys = [key + (str(name),) for key, (name, _, _) in zip(keys, runs)]
    cells = {key: report for key, (_, _, report) in zip(keys, runs)}
    return render_report(cells, axis_names, experiment_id=experiment_id)


def report_cli(run_dirs: Sequence[str | Path], out_dir: str | Path | None = None) -> str:
    """Aggregate finished runs into consolidated tables and cost totals.

    Corrupt or unfinished run directories are reported and skipped. Each run
    shows its first configured seed. Several runs form one table over the
    sweep axes on which their descriptors differ; a single run is rendered
    over ``method``, as its evaluation stage rendered its ``report.txt``.
    """
    runs: list[tuple[Path, dict, EvalReport]] = []
    problems, attention_files = [], []
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        try:
            manifest = RunManifest.load(run_dir)
        except (OSError, ManifestError) as exc:
            problems.append(f"{run_dir}: unreadable manifest ({type(exc).__name__})")
            continue
        if manifest.stages["evaluation"].status != "done":
            problems.append(f"{run_dir}: evaluation not finished")
            continue
        report = headline_report(run_dir)
        if report is None:
            problems.append(f"{run_dir}: no evaluation artifacts")
            continue
        runs.append((run_dir, manifest.descriptor, report))
        if "attention.tsv" in manifest.stages["evaluation"].artifacts:  # a file it does not list is no output
            attention_files.append(str(run_dir / "attention.tsv"))

    lines = []
    if problems:
        lines.append("skipped runs:")
        lines.extend(f"  {p}" for p in problems)
        lines.append("")

    if runs:
        varying = ["method"] if len(runs) == 1 else [
            a for a in AXES if len({str(d.get(a)) for _, d, _ in runs}) > 1]
        table, _ = _combined_table(runs, varying)
        lines.append(table.rstrip())

        total = Decimal(0)
        image_count = 0
        for _, _, report in runs:
            if report.cost_summary:
                total += Decimal(report.cost_summary["total_cost_usd"])
                image_count += int(report.cost_summary["images"])
        lines.append("")
        lines.append(f"generated images: {image_count}, total cost: ${total}")
        if attention_files:
            lines.append("attention heatmaps:")
            lines.extend(f"  {p}" for p in attention_files)

    text = "\n".join(lines) + "\n"
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out_dir / "consolidated.txt", text)
    return text
