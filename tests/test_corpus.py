import csv
import json
import re

import numpy as np
import pytest

from t2ifuse.corpus import (
    DatasetError,
    LabelSpace,
    TextSample,
    load_dataset,
    make_splits,
    truncate_text,
    write_split_assignments,
)
from t2ifuse.storage import read_jsonl


def test_load_smallest_valid_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("text,label\ngood stuff,pos\nbad stuff,neg\n")
    samples, space = load_dataset(path, "delimited_rows")
    assert len(samples) == 2
    assert space.class_names == ("pos", "neg")
    assert [s.label for s in samples] == [0, 1]


def test_load_record_lines(tmp_path):
    path = tmp_path / "tiny.jsonl"
    lines = [
        {"text": "a cheerful parade", "label": "joy"},
        {"text": "a gloomy basement", "label": "fear"},
        {"text": "confetti everywhere", "label": "joy"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in lines))
    samples, space = load_dataset(path, "record_lines")
    assert space.class_names == ("joy", "fear")
    assert [s.label for s in samples] == [0, 1, 0]


def test_missing_label_names_the_row(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("text,label\nfine,pos\noops,\n")
    with pytest.raises(DatasetError, match="row 3"):
        load_dataset(path, "delimited_rows")


def test_unknown_format_and_empty_dataset(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("text,label\n")
    with pytest.raises(DatasetError, match="unknown dataset format"):
        load_dataset(path, "parquet")
    with pytest.raises(DatasetError, match="empty dataset"):
        load_dataset(path, "delimited_rows")


@pytest.mark.parametrize("name, content, message", [
    ("no_label.csv", "text,category\nfine,pos\n", "header must name 'text' and 'label' columns"),
    ("array.jsonl", '{"text": "fine", "label": "pos"}\n["text", "label"]\n', "row 2: record is not an object"),
    ("blank.csv", "text,label\nfine,pos\n   ,neg\n", "row 3: missing or empty 'text'"),
    ("repeat.jsonl", '{"id": "a", "text": "one", "label": "pos"}\n{"id": "a", "text": "two", "label": "neg"}\n',
     "row 2: duplicate id 'a'"),
])
def test_a_malformed_dataset_names_what_is_wrong(tmp_path, name, content, message):
    path = tmp_path / name
    path.write_text(content)
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_dataset(path, "delimited_rows" if name.endswith(".csv") else "record_lines")


def test_blank_record_lines_are_skipped_and_keep_their_row_numbers(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text('\n{"text": "one", "label": "pos"}\n  \n{"text": "two", "label": "neg"}\n')
    samples, space = load_dataset(path, "record_lines")
    assert [(s.id, s.text) for s in samples] == [("row2", "one"), ("row4", "two")]
    assert space.class_names == ("pos", "neg")


def test_thousand_row_fixture_matches_line_scan_oracle(tmp_path):
    rng = np.random.default_rng(11)
    labels = ["one", "two", "three"]
    path = tmp_path / "big.csv"
    expected = {name: 0 for name in labels}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        for i in range(1000):
            name = labels[rng.integers(0, 3)]
            expected[name] += 1
            writer.writerow([f"sample text {i}", name])
    samples, space = load_dataset(path, "delimited_rows")

    # independent oracle: re-scan the raw file and tally label column
    oracle = {name: 0 for name in labels}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            oracle[line.rsplit(",", 1)[1].strip()] += 1

    assert len(samples) == 1000
    counts = {space.name_of(c): sum(1 for s in samples if s.label == c) for c in range(3)}
    assert counts == oracle == expected


def test_label_space_round_trip():
    space = LabelSpace(("a", "b", "c"))
    assert [space.name_of(i) for i in range(len(space))] == ["a", "b", "c"]
    with pytest.raises(DatasetError):
        LabelSpace(("only",))
    with pytest.raises(DatasetError):
        LabelSpace(("dup", "dup"))


def _balanced_samples(n_per_class, classes=2):
    samples = []
    for c in range(classes):
        for i in range(n_per_class):
            samples.append(TextSample(id=f"c{c}s{i}", text=f"text {c} {i}", label=c))
    return samples


def test_split_sizes_ten_samples():
    samples = _balanced_samples(5, classes=2)
    splits = make_splits(samples, (0.8, 0.1, 0.1), seed=7)
    assert (len(splits["train"]), len(splits["validation"]), len(splits["test"])) == (8, 1, 1)


def test_split_determinism_and_exact_partition():
    samples_a = _balanced_samples(20, classes=3)
    samples_b = _balanced_samples(20, classes=3)
    splits_a = make_splits(samples_a, (0.6, 0.2, 0.2), seed=42)
    splits_b = make_splits(samples_b, (0.6, 0.2, 0.2), seed=42)
    for name in ("train", "validation", "test"):
        assert [s.id for s in splits_a[name]] == [s.id for s in splits_b[name]]
    all_ids = sorted(s.id for split in splits_a.values() for s in split)
    assert all_ids == sorted(s.id for s in samples_a)


def test_split_stratification_within_one():
    samples = _balanced_samples(50, classes=2)
    splits = make_splits(samples, (0.5, 0.25, 0.25), seed=3)
    sizes = {k: len(v) for k, v in splits.items()}
    assert sizes == {"train": 50, "validation": 25, "test": 25}
    for name, frac in zip(("train", "validation", "test"), (0.5, 0.25, 0.25)):
        for c in (0, 1):
            count = sum(1 for s in splits[name] if s.label == c)
            assert abs(count - 50 * frac) <= 1


def test_split_errors():
    samples = _balanced_samples(5)
    with pytest.raises(DatasetError, match="sum to 1"):
        make_splits(samples, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(DatasetError, match="too small"):
        make_splits(_balanced_samples(1), (0.34, 0.33, 0.33), seed=0)


def test_split_assignment_round_trip(tmp_path):
    samples = _balanced_samples(10)
    make_splits(samples, seed=5)
    path = tmp_path / "splits.jsonl"
    write_split_assignments(samples, path)
    fresh = _balanced_samples(10)
    make_splits(fresh, seed=5)  # the file records what the split gives again
    assert list(read_jsonl(path)) == [{"id": s.id, "split": s.split} for s in fresh]
    assert {s.split for s in fresh} == {"train", "validation", "test"}


def test_truncate_under_limit_unchanged():
    assert truncate_text("three token text", 256) == "three token text"
    assert truncate_text("", 5) == ""


def test_truncate_to_max_tokens():
    text = " ".join(f"w{i}" for i in range(300))
    out = truncate_text(text, 256)
    assert out.split() == text.split()[:256]


def test_truncate_joins_kept_tokens_with_one_space():
    assert truncate_text("a\tb  c\nd", 2) == "a b"
    assert truncate_text(" a\tb \n", 2) == " a\tb \n"  # under the limit: unchanged, whitespace and all


def test_truncate_idempotent_and_monotone():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        text = " ".join(f"t{rng.integers(0, 9)}" for _ in range(n))
        once = truncate_text(text, 10)
        assert truncate_text(once, 10) == once
        assert len(once.split()) <= len(text.split())
    with pytest.raises(ValueError):
        truncate_text("x", 0)
