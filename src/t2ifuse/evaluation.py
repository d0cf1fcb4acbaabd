"""Classification metrics, confusion matrices, bootstrap dispersion, report tables."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import LabelSpace
from .fusion import MECHANISMS
from .generation import _PRESETS as GENERATION_PRESETS
from .prompting import STRATEGIES


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
        return cls(
            accuracy=data["accuracy"],
            macro_f1=data["macro_f1"],
            per_class=[PerClassStats(**s) for s in data["per_class"]],
            confusion=np.asarray(data["confusion"], dtype=np.int64),
            confusion_normalized=np.asarray(data["confusion_normalized"], dtype=np.float64),
            zero_support_classes=list(data.get("zero_support_classes", [])),
            bootstrap_std=data.get("bootstrap_std"),
            clip_cos_mean=data.get("clip_cos_mean"),
            clip_cos_std=data.get("clip_cos_std"),
            clip_score_mean=data.get("clip_score_mean"),
            clip_score_std=data.get("clip_score_std"),
            cost_summary=data.get("cost_summary"),
        )


def confusion_matrix(preds: PredictionSet) -> np.ndarray:
    c = preds.num_classes
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (preds.y_true, preds.y_pred), 1)
    return counts


def _counts_metrics(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int):
    """Accuracy, per-class (precision, recall, f1, support), macro-F1.

    Zero-denominator cases use the 0/0 -> 0 convention; macro-F1 averages over
    every class in the label space, including zero-support classes.
    """
    n = y_true.shape[0]
    accuracy = float((y_true == y_pred).sum() / n)
    precisions = np.zeros(num_classes)
    recalls = np.zeros(num_classes)
    f1s = np.zeros(num_classes)
    supports = np.zeros(num_classes, dtype=np.int64)
    for c in range(num_classes):
        tp = int(((y_true == c) & (y_pred == c)).sum())
        fp = int(((y_true != c) & (y_pred == c)).sum())
        fn = int(((y_true == c) & (y_pred != c)).sum())
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
    if metric not in ("accuracy", "macro_f1"):
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


def clip_score_stats(scored: Iterable) -> tuple[float, float]:
    """Mean and population std over scores given as floats or (record, score)
    pairs."""
    values = []
    for item in scored:
        if isinstance(item, (tuple, list)):
            values.append(float(item[1]))
        else:
            values.append(float(item))
    if not values:
        raise EvaluationError("no scores to aggregate")
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


# --- report rendering -------------------------------------------------------

LAYOUT_AXES = {
    "main_table": ("method", "dataset"),
    "t2i_prompt_table": ("backend", "strategy"),
    "fusion_table": ("mechanism",),
}

# Mirrors config.METHODS, which this module cannot import: config imports
# training, and training imports this module.
_METHOD_ORDER = (
    "text_only",
    "textual_expansion",
    "knowledge_retrieval",
    "gen_image",
    "gen_image_fast",
    "oracle_image",
)

_AXIS_ORDERS = {
    "method": _METHOD_ORDER,
    "backend": tuple(dict.fromkeys(p[0] for p in GENERATION_PRESETS.values())) + ("stub",),
    "strategy": STRATEGIES,
    "mechanism": MECHANISMS,
}


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
        for layout in ("t2i_prompt_table", "main_table"):
            if names == set(LAYOUT_AXES[layout]):
                return layout, LAYOUT_AXES[layout]
    return "axis_table", tuple(axis_names)


def _axis_sort_key(axis: str, value: str):
    known = _AXIS_ORDERS.get(axis, ())
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


def render_report(
    reports: Mapping[tuple[str, ...], EvalReport],
    layout: str,
    experiment_id: str = "experiment",
    axis_names: Sequence[str] | None = None,
) -> tuple[str, list[dict]]:
    """Render experiment cells as an aligned text table plus machine records.

    ``reports`` maps axis-value tuples to reports. ``layout`` is one of
    ``main_table`` (method rows x per-dataset Acc/Ma-F1 columns),
    ``t2i_prompt_table`` (backend x strategy rows with Ma-F1 and semantic
    consistency columns), ``fusion_table`` (mechanism rows, optional second
    axis as columns), or ``axis_table`` (one row per cell, one column per
    axis). The two-axis grid layouts need every cell of their grid. Best
    values per column are flagged with ``*``; machine records keep full
    precision.
    """
    if not reports:
        raise EvaluationError("no report cells")
    if layout == "fusion_table" and all(len(k) == 2 for k in reports):
        # mechanism grid with a second axis (e.g. learning rate) as columns
        second = axis_names[-1] if axis_names else "variant"
        axes: tuple[str, ...] = ("mechanism", second)
    elif layout in LAYOUT_AXES:
        axes = LAYOUT_AXES[layout]
    elif layout == "axis_table":
        if not axis_names:
            raise EvaluationError("axis_table layout needs axis_names")
        axes = tuple(axis_names)
    else:
        raise EvaluationError(f"unknown layout {layout!r}")
    for key in reports:
        if len(key) != len(axes):
            raise EvaluationError(
                f"cell key {key!r} does not match axes {axes!r}"
            )
    # The grid spanned by observed axis values must be fully populated.
    observed = [sorted({key[i] for key in reports}, key=lambda v: _axis_sort_key(axes[i], v)) for i in range(len(axes))]
    if len(axes) == 2 and layout != "axis_table":
        for a in observed[0]:
            for b in observed[1]:
                if (a, b) not in reports:
                    raise EvaluationError(f"missing cell for axes ({a!r}, {b!r})")

    cells = sorted(reports, key=lambda k: tuple(_axis_sort_key(axes[i], k[i]) for i in range(len(axes))))
    records: list[dict] = []
    for key in cells:
        report = reports[key]
        axes_map = {axes[i]: key[i] for i in range(len(axes))}
        metric_values = {
            "accuracy": report.accuracy,
            "macro_f1": report.macro_f1,
        }
        for name, value in (
            ("bootstrap_std", report.bootstrap_std),
            ("clip_cos_mean", report.clip_cos_mean),
            ("clip_cos_std", report.clip_cos_std),
            ("clip_score_mean", report.clip_score_mean),
            ("clip_score_std", report.clip_score_std),
        ):
            if value is not None:
                metric_values[name] = value
        for metric, value in metric_values.items():
            records.append(
                {
                    "experiment_id": experiment_id,
                    "axes": axes_map,
                    "metric": metric,
                    "value": value,
                }
            )

    if layout == "main_table":
        methods, datasets = observed
        headers = ["method"]
        for ds in datasets:
            headers += [f"{ds}:acc", f"{ds}:ma-f1"]
        best_acc = {ds: max(reports[(m, ds)].accuracy for m in methods) for ds in datasets}
        best_f1 = {ds: max(reports[(m, ds)].macro_f1 for m in methods) for ds in datasets}
        rows = []
        for m in methods:
            row = [m]
            for ds in datasets:
                rep = reports[(m, ds)]
                row.append(_fmt_pct(rep.accuracy, rep.accuracy == best_acc[ds]))
                row.append(_fmt_pct(rep.macro_f1, rep.macro_f1 == best_f1[ds]))
            rows.append(row)
        table = _render_rows(headers, rows)
    elif layout == "fusion_table" and len(axes) == 2:
        # mechanism rows x second-axis columns (e.g. a learning-rate grid)
        mechanisms = observed[0]
        cols = observed[1]
        headers = ["mechanism"] + [f"ma-f1@{c}" for c in cols]
        best = {c: max(reports[(m, c)].macro_f1 for m in mechanisms) for c in cols}
        rows = []
        for m in mechanisms:
            row = [m]
            for c in cols:
                rep = reports[(m, c)]
                row.append(_fmt_pct(rep.macro_f1, rep.macro_f1 == best[c]))
            rows.append(row)
        table = _render_rows(headers, rows)
    else:
        # one row per cell: t2i_prompt_table (plus semantic-consistency
        # columns), single-axis fusion_table, and axis_table over any axes
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
        table = _render_rows(headers, rows)

    return table, records


def render_records(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def parse_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]
