"""Classification metrics, confusion matrices, bootstrap dispersion, report tables."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .axes import AXES, LAYOUT_AXES
from .corpus import LabelSpace
from .storage import from_fields


class EvaluationError(ValueError):
    pass


@dataclass
class PredictionSet:
    sample_ids: list[str]
    y_true: np.ndarray
    y_pred: np.ndarray
    logits: np.ndarray  # (n, C)
    label_space: LabelSpace

    def __post_init__(self):
        self.y_true = np.asarray(self.y_true, dtype=np.int64)
        self.y_pred = np.asarray(self.y_pred, dtype=np.int64)
        self.logits = np.asarray(self.logits)
        n = len(self.sample_ids)
        if n == 0:
            raise EvaluationError("empty prediction set")
        if len(set(self.sample_ids)) != n:
            raise EvaluationError("sample ids must be unique")
        c = len(self.label_space)
        if self.y_true.shape != (n,) or self.y_pred.shape != (n,):
            raise EvaluationError("label arrays must match sample count")
        if self.logits.shape != (n, c):
            raise EvaluationError(f"logits must be ({n}, {c}), got {self.logits.shape}")
        for arr in (self.y_true, self.y_pred):
            if arr.min() < 0 or arr.max() >= c:
                raise EvaluationError("label index out of range")

    @classmethod
    def from_logits(cls, sample_ids, y_true, logits, label_space) -> "PredictionSet":
        # np.argmax resolves ties toward the lowest class index.
        logits = np.asarray(logits)
        return cls(
            sample_ids=list(sample_ids),
            y_true=np.asarray(y_true),
            y_pred=np.argmax(logits, axis=1),
            logits=logits,
            label_space=label_space,
        )

    @property
    def num_classes(self) -> int:
        return len(self.label_space)


@dataclass
class PerClassStats:
    name: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    accuracy: float
    macro_f1: float
    per_class: list[PerClassStats]
    confusion: np.ndarray  # (C, C) counts, entry (i, j) = true i predicted j
    confusion_normalized: np.ndarray  # rows divided by row sums; zero-support rows stay 0
    zero_support_classes: list[str] = field(default_factory=list)
    bootstrap_std: float | None = None
    clip_cos_mean: float | None = None
    clip_cos_std: float | None = None
    clip_score_mean: float | None = None
    clip_score_std: float | None = None
    cost_summary: dict | None = None

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["confusion"] = self.confusion.tolist()
        data["confusion_normalized"] = self.confusion_normalized.tolist()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EvalReport":
        return from_fields(
            cls, data, per_class=[from_fields(PerClassStats, s) for s in data["per_class"]],
            confusion=np.asarray(data["confusion"], dtype=np.int64),
            confusion_normalized=np.asarray(data["confusion_normalized"], dtype=np.float64))


def _confusion(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> np.ndarray:
    """Counts[true class, predicted class], from one ``np.bincount``."""
    flat = np.bincount(y_true * num_classes + y_pred, minlength=num_classes * num_classes)
    return flat.astype(np.int64, copy=False).reshape(num_classes, num_classes)


def confusion_matrix(preds: PredictionSet) -> np.ndarray:
    return _confusion(preds.y_true, preds.y_pred, preds.num_classes)


def _counts_metrics(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int):
    """Accuracy, per-class (precision, recall, f1, support), macro-F1.

    Zero-denominator cases use the 0/0 -> 0 convention; macro-F1 averages over
    every class in the label space, including zero-support classes.
    """
    n = y_true.shape[0]
    counts = _confusion(y_true, y_pred, num_classes)
    hits = np.diagonal(counts)
    accuracy = float(hits.sum() / n)
    precisions = np.zeros(num_classes)
    recalls = np.zeros(num_classes)
    f1s = np.zeros(num_classes)
    supports = np.zeros(num_classes, dtype=np.int64)
    false_positives = (counts.sum(axis=0) - hits).tolist()
    false_negatives = (counts.sum(axis=1) - hits).tolist()
    for c, (tp, fp, fn) in enumerate(zip(hits.tolist(), false_positives, false_negatives)):
        supports[c] = tp + fn
        precisions[c] = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        recalls[c] = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        denom = precisions[c] + recalls[c]
        f1s[c] = 2.0 * precisions[c] * recalls[c] / denom if denom > 0 else 0.0
    macro_f1 = float(f1s.mean())
    return accuracy, precisions, recalls, f1s, supports, macro_f1


def compute_metrics(preds: PredictionSet) -> EvalReport:
    accuracy, precisions, recalls, f1s, supports, macro_f1 = _counts_metrics(
        preds.y_true, preds.y_pred, preds.num_classes
    )
    confusion = confusion_matrix(preds)
    row_sums = confusion.sum(axis=1, keepdims=True)
    normalized = np.divide(
        confusion,
        row_sums,
        out=np.zeros_like(confusion, dtype=np.float64),
        where=row_sums > 0,
    )
    zero_support = [
        preds.label_space.name_of(c)
        for c in range(preds.num_classes)
        if supports[c] == 0
    ]
    per_class = [
        PerClassStats(
            name=preds.label_space.name_of(c),
            precision=float(precisions[c]),
            recall=float(recalls[c]),
            f1=float(f1s[c]),
            support=int(supports[c]),
        )
        for c in range(preds.num_classes)
    ]
    return EvalReport(
        accuracy=accuracy,
        macro_f1=macro_f1,
        per_class=per_class,
        confusion=confusion,
        confusion_normalized=normalized,
        zero_support_classes=zero_support,
    )


BOOTSTRAP_METRICS = ("accuracy", "macro_f1")


def bootstrap_std(
    preds: PredictionSet,
    metric: str = "macro_f1",
    resamples: int = 200,
    seed: int = 0,
) -> float:
    """Std of the metric over seeded with-replacement resamples.

    The prediction set is put in canonical (id-sorted) order before sampling,
    so the result does not depend on input ordering. Each resample draws
    ``rng.integers(0, n, size=n)`` from ``np.random.default_rng(seed)``.
    """
    if resamples < 2:
        raise EvaluationError("resamples must be >= 2")
    if metric not in BOOTSTRAP_METRICS:
        raise EvaluationError(f"unknown metric {metric!r}")
    order = np.argsort(np.asarray(preds.sample_ids))
    y_true = preds.y_true[order]
    y_pred = preds.y_pred[order]
    n = y_true.shape[0]
    rng = np.random.default_rng(seed)
    values = np.empty(resamples)
    for i in range(resamples):
        idx = rng.integers(0, n, size=n)
        acc, _, _, _, _, mf1 = _counts_metrics(y_true[idx], y_pred[idx], preds.num_classes)
        values[i] = acc if metric == "accuracy" else mf1
    return float(np.std(values))


def clip_score_stats(scores: Iterable[float]) -> tuple[float, float]:
    """Mean and population std of ``scores``."""
    arr = np.asarray([float(s) for s in scores], dtype=np.float64)
    if not arr.size:
        raise EvaluationError("no scores to aggregate")
    return float(arr.mean()), float(arr.std())


# --- report rendering -------------------------------------------------------

def table_layout(axis_names: Sequence[str], keys: Iterable[Sequence[str]]) -> tuple[str, tuple[str, ...]]:
    """The layout for the cells ``keys`` (values in ``axis_names`` order), and
    the axis order its cell keys use.

    The paper's tables get their own layouts: backend x strategy, mechanism
    (alone, or with one other axis as columns) and method x dataset, each
    only when the cells fill its grid. Any other set of axes or cells gets
    ``axis_table``: one column per axis and one row per cell.
    """
    names, cells = set(axis_names), {tuple(key) for key in keys}
    if math.prod(len({key[i] for key in cells}) for i in range(len(names))) == len(cells):
        if "mechanism" in names and len(names) <= 2:
            return "fusion_table", ("mechanism", *(a for a in axis_names if a != "mechanism"))
        for layout, axes in LAYOUT_AXES.items():
            if names == set(axes):
                return layout, axes
    return "axis_table", tuple(axis_names)


def _axis_sort_key(axis: str, value: str):
    known = AXES[axis].order if axis in AXES else ()
    if value in known:
        return (0, known.index(value), value)
    # Numeric axis values (steps, learning rates) sort numerically.
    try:
        return (1, float(value), value)
    except ValueError:
        return (2, 0.0, value)


def _fmt_pct(value: float, best: bool) -> str:
    text = f"{value * 100:.2f}"
    return text + ("*" if best else "")


def _render_rows(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


# Grid layout -> one (header format, metric) pair per column under each value
# of its second axis.
_GRID_COLUMNS = {
    "main_table": (("{}:acc", "accuracy"), ("{}:ma-f1", "macro_f1")),
    "fusion_table": (("ma-f1@{}", "macro_f1"),),
}

_RECORD_METRICS = ("accuracy", "macro_f1", "bootstrap_std", "clip_cos_mean", "clip_cos_std",
                   "clip_score_mean", "clip_score_std")


def render_report(
    reports: Mapping[tuple[str, ...], EvalReport],
    axis_names: Sequence[str],
    experiment_id: str = "experiment",
) -> tuple[str, list[dict]]:
    """Render experiment cells as an aligned text table plus machine records.

    ``reports`` maps each cell's values on ``axis_names`` to its report. The
    cells decide the layout, through :func:`table_layout`, and the axis order
    of the table and its records. A full method x dataset grid draws one row
    per method and Acc/Ma-F1 columns per dataset; a full mechanism x other
    axis grid draws one row per mechanism and a Ma-F1 column per value of the
    other axis. Any other cells get one row each, and a full backend x
    strategy grid adds the semantic-consistency columns. Best values per
    column are flagged with ``*``; machine records keep full precision.
    """
    if not reports:
        raise EvaluationError("no report cells")
    for key in reports:
        if len(key) != len(axis_names):
            raise EvaluationError(f"cell key {key!r} does not match axes {tuple(axis_names)!r}")
    layout, axes = table_layout(axis_names, reports)
    positions = [list(axis_names).index(a) for a in axes]
    reports = {tuple(key[i] for i in positions): report for key, report in reports.items()}
    cells = sorted(reports, key=lambda k: tuple(_axis_sort_key(axes[i], k[i]) for i in range(len(axes))))
    records = [
        {"experiment_id": experiment_id, "axes": dict(zip(axes, key)), "metric": metric, "value": value}
        for key in cells
        for metric in _RECORD_METRICS
        if (value := getattr(reports[key], metric)) is not None
    ]

    grid = _GRID_COLUMNS.get(layout) if len(axes) == 2 else None
    if grid:  # the first axis gives the rows, each value of the second its columns
        row_values, col_values = (list(dict.fromkeys(key[i] for key in cells)) for i in (0, 1))
        columns = [(fmt.format(c), c, metric) for c in col_values for fmt, metric in grid]
        best = [max(getattr(reports[(r, c)], metric) for r in row_values) for _, c, metric in columns]
        headers = [axes[0]] + [header for header, _, _ in columns]
        rows = [
            [r] + [_fmt_pct(v := getattr(reports[(r, c)], metric), v == top)
                   for (_, c, metric), top in zip(columns, best)]
            for r in row_values
        ]
    else:
        with_clip = layout == "t2i_prompt_table"
        headers = [*axes, "acc", "ma-f1"] + (["clip-cos", "clip-score"] if with_clip else [])
        best_f1 = max(reports[c].macro_f1 for c in cells)
        rows = []
        for c in cells:
            rep = reports[c]
            pm = f" (±{rep.bootstrap_std * 100:.2f})" if rep.bootstrap_std is not None else ""
            row = [*c, _fmt_pct(rep.accuracy, False), _fmt_pct(rep.macro_f1, rep.macro_f1 == best_f1) + pm]
            if with_clip:
                row += ["-" if v is None else f"{v:.2f}" for v in (rep.clip_cos_mean, rep.clip_score_mean)]
            rows.append(row)
    return _render_rows(headers, rows), records


def render_records(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
