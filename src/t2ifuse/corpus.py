"""Dataset ingestion, label spaces, deterministic stratified splits, and
truncation to leading whitespace tokens."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .storage import atomic_write_bytes, jsonl_bytes

SPLIT_NAMES = ("train", "validation", "test")
DATASET_FORMATS = ("delimited_rows", "record_lines")


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class LabelSpace:
    """Ordered class names; indices are positions in first-appearance order."""

    class_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.class_names) < 2:
            raise DatasetError("label space needs at least 2 classes")
        if len(set(self.class_names)) != len(self.class_names):
            raise DatasetError("class names must be unique")

    def __len__(self) -> int:
        return len(self.class_names)

    def name_of(self, index: int) -> str:
        return self.class_names[index]


@dataclass
class TextSample:
    id: str
    text: str
    label: int
    split: str | None = None

    def __post_init__(self):
        if not self.text.strip():
            raise DatasetError(f"sample {self.id!r}: empty text")
        if self.label < 0:
            raise DatasetError(f"sample {self.id!r}: negative label index")
        if self.split is not None and self.split not in SPLIT_NAMES:
            raise DatasetError(f"sample {self.id!r}: unknown split {self.split!r}")


def _rows_from_csv(path: Path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"text", "label"} <= set(reader.fieldnames):
            raise DatasetError(f"{path}: header must name 'text' and 'label' columns")
        for row_no, row in enumerate(reader, start=2):  # header is line 1
            yield row_no, row


def rows_from_jsonl(path: Path):
    """Each (line number, object) of a record-per-line file, blank lines
    skipped; a line that is not an object is a :class:`DatasetError`."""
    with open(path, "r", encoding="utf-8") as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}: row {row_no}: invalid record ({exc})") from None
            if not isinstance(record, dict):
                raise DatasetError(f"{path}: row {row_no}: record is not an object")
            yield row_no, record


def row_text(path: Path, row_no: int, row: dict) -> str:
    """The ``text`` of a row, or a :class:`DatasetError` naming its file and row."""
    text = row.get("text")
    if text is None or not str(text).strip():
        raise DatasetError(f"{path}: row {row_no}: missing or empty 'text'")
    return str(text)


def load_dataset(path: str | Path, format: str = "delimited_rows") -> tuple[list[TextSample], LabelSpace]:
    """Load samples and derive the label space in first-appearance order.

    ``delimited_rows`` is a CSV file with a header naming ``text`` and
    ``label`` columns; ``record_lines`` is one JSON object per line with
    ``text``/``label`` keys. An optional ``id`` field is honored, otherwise
    row-based ids are assigned.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    if format == "delimited_rows":
        rows = _rows_from_csv(path)
    elif format == "record_lines":
        rows = rows_from_jsonl(path)
    else:
        raise DatasetError(f"unknown dataset format {format!r}")

    samples: list[TextSample] = []
    label_order: list[str] = []
    seen_ids: set[str] = set()
    for row_no, row in rows:
        text = row_text(path, row_no, row)
        label = row.get("label")
        if label is None or str(label) == "":
            raise DatasetError(f"{path}: row {row_no}: missing 'label'")
        label_name = str(label)
        if label_name not in label_order:
            label_order.append(label_name)
        sample_id = str(row.get("id") or f"row{row_no}")
        if sample_id in seen_ids:
            raise DatasetError(f"{path}: row {row_no}: duplicate id {sample_id!r}")
        seen_ids.add(sample_id)
        samples.append(TextSample(id=sample_id, text=text, label=label_order.index(label_name)))

    if not samples:
        raise DatasetError(f"{path}: empty dataset")
    return samples, LabelSpace(tuple(label_order))


def _largest_remainder(total: int, fractions: Sequence[float]) -> list[int]:
    ideals = [total * f for f in fractions]
    counts = [math.floor(v) for v in ideals]
    remainders = [v - c for v, c in zip(ideals, counts)]
    for _ in range(total - sum(counts)):
        # ties broken by split order (train, validation, test)
        best = max(range(len(fractions)), key=lambda i: (remainders[i], -i))
        counts[best] += 1
        remainders[best] = -1.0
    return counts


def split_fractions_problem(fractions: Sequence[float], name: str = "fractions") -> str | None:
    """Why ``fractions``, named ``name``, are not (train, validation, test)
    shares in [0, 1] that sum to 1; ``None`` when they are."""
    if len(fractions) != len(SPLIT_NAMES):
        return f"{name} must be (train, validation, test)"
    if not all(0 <= f <= 1 for f in fractions):
        return f"{name} must lie in [0, 1]"
    if abs(sum(fractions) - 1.0) > 1e-9:
        return f"{name} must sum to 1, got {sum(fractions)!r}"


def make_splits(
    samples: Sequence[TextSample],
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> dict[str, list[TextSample]]:
    """Deterministic stratified partition into train/validation/test.

    The partition is exact (disjoint, union = input) and per-class counts stay
    within one sample of exact proportionality. Identical inputs and seed give
    an identical assignment.
    """
    problem = split_fractions_problem(fractions)
    if problem:
        raise DatasetError(problem)
    if not samples:
        raise DatasetError("cannot split an empty dataset")

    by_class: dict[int, list[TextSample]] = {}
    for s in samples:
        by_class.setdefault(s.label, []).append(s)
    class_ids = sorted(by_class)

    global_counts = _largest_remainder(len(samples), fractions)
    floors = {
        c: [math.floor(len(by_class[c]) * f) for f in fractions] for c in class_ids
    }
    deficits = [
        global_counts[i] - sum(floors[c][i] for c in class_ids) for i in range(3)
    ]
    # Distribute per-class leftovers into splits still below their global
    # quota, preferring the split with the largest fractional remainder. This
    # keeps every class count at floor or floor+1 (within ±1 of proportional)
    # while the split totals land exactly on the global sizes.
    counts: dict[int, list[int]] = {}
    for c in class_ids:
        n_c = len(by_class[c])
        counts[c] = list(floors[c])
        leftovers = n_c - sum(floors[c])
        for _ in range(leftovers):
            candidates = [i for i in range(3) if deficits[i] > 0]
            best = max(candidates, key=lambda i: (n_c * fractions[i] - floors[c][i], -i))
            counts[c][best] += 1
            deficits[best] -= 1

    rng = np.random.default_rng(seed)
    result: dict[str, list[TextSample]] = {name: [] for name in SPLIT_NAMES}
    for c in class_ids:
        members = list(by_class[c])
        order = rng.permutation(len(members))
        shuffled = [members[i] for i in order]
        offset = 0
        for split_name, k in zip(SPLIT_NAMES, counts[c]):
            for s in shuffled[offset : offset + k]:
                s.split = split_name
                result[split_name].append(s)
            offset += k

    for name in SPLIT_NAMES:
        if not result[name]:
            raise DatasetError(
                f"dataset too small to populate the {name!r} split with fractions {fractions}"
            )
    return result


def split_assignments(samples: Sequence[TextSample]) -> bytes:
    """Each sample's (id, split) as JSONL, in ``samples`` order: a record, not
    an input, as ``make_splits`` gives the same split again from the same inputs."""
    unassigned = [s.id for s in samples if s.split is None]
    if unassigned:
        raise DatasetError(f"samples without split assignment: {unassigned[:5]}")
    return jsonl_bytes({"id": s.id, "split": s.split} for s in samples)


def write_split_assignments(samples: Sequence[TextSample], path: str | Path) -> None:
    atomic_write_bytes(Path(path), split_assignments(samples))


def truncate_text(text: str, max_tokens: int) -> str:
    """Keep at most ``max_tokens`` leading whitespace tokens, joined by single
    spaces; texts under the limit pass through unchanged, so the operation is
    idempotent."""
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    tokens = text.split()
    if len(tokens) <= max_tokens:
        return text
    return " ".join(tokens[:max_tokens])
