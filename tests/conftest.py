"""Shared fixtures: fixture datasets, packs, and offline providers."""

from __future__ import annotations

import csv
import json
import os

import numpy as np
import pytest

from t2ifuse import orchestrator
from t2ifuse.corpus import LabelSpace, TextSample
from t2ifuse.embedding import EmbeddingCache
from t2ifuse.fusion import FeaturePack
from t2ifuse.storage import read_jsonl


COFFEE_REVIEW = (
    "This new coffee machine is absolutely fantastic! It brews a perfect cup "
    "every time, is super easy to clean, and its sleek black design looks "
    "stunning on my kitchen counter. Definitely a 5-star product."
)


@pytest.fixture
def coffee_sample() -> TextSample:
    return TextSample(id="amz-001", text=COFFEE_REVIEW, label=0)


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "reviews.csv"
    rows = [
        ("r1", "great coffee machine works perfectly", "pos"),
        ("r2", "terrible blender broke after a week", "neg"),
        ("r3", "lovely red vacuum cleaner with strong suction", "pos"),
        ("r4", "awful headphones with crackling audio", "neg"),
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "label"])
        writer.writerows(rows)
    return path


def random_pack(rng: np.random.Generator, n_text=3, n_image=4, text_dim=6, image_dim=5) -> FeaturePack:
    text_tokens = rng.standard_normal((n_text, text_dim))
    image_tokens = rng.standard_normal((n_image, image_dim))
    return FeaturePack(
        text_tokens=text_tokens,
        image_tokens=image_tokens,
        text_pooled=text_tokens.mean(axis=0),
        image_pooled=image_tokens.mean(axis=0),
    )


def _open_segments() -> set[str]:
    """The segment files this process holds a descriptor on."""
    paths = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            path = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if path.endswith(".seg"):
            paths.add(path)
    return paths


@pytest.fixture(autouse=True)
def no_segment_left_open():
    """Fail a test that leaves a segment descriptor open: a cache it built
    and kept alive without closing it. Skipped where ``/proc`` is absent."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = _open_segments()
    yield
    leaked = _open_segments() - before
    assert not leaked, f"segment files left open: {sorted(leaked)}"


def _assert_same(kept, parsed, where: str) -> None:
    """``kept == parsed``, with the same type at every level."""
    assert type(kept) is type(parsed), f"{where}: {type(kept).__name__} is not {type(parsed).__name__}"
    if isinstance(kept, dict):
        assert kept.keys() == parsed.keys(), where
        for key in kept:
            _assert_same(kept[key], parsed[key], f"{where}[{key!r}]")
    elif isinstance(kept, list):
        assert len(kept) == len(parsed), where
        for i, (a, b) in enumerate(zip(kept, parsed)):
            _assert_same(a, b, f"{where}[{i}]")
    else:
        assert kept == parsed, where


# A fresh read of each kept artifact, by its own parser, for the check below.
_FRESH_READS = {
    "prompts.jsonl": lambda path: list(read_jsonl(path)),
    "images.jsonl": lambda path: list(read_jsonl(path)),
    "labels.json": lambda path: LabelSpace(tuple(json.loads(path.read_text(encoding="utf-8"))["class_names"])),
}


@pytest.fixture(autouse=True)
def kept_values_match_the_file(monkeypatch):
    """Whenever a run hands a stage the value it kept for an artifact
    instead of reading the file, read the file too and require the same
    value, of the same types: lists where the file has arrays, no row that
    an earlier reader changed, and the class names ``labels.json`` holds.
    (The features a run keeps are checked against a fresh read in
    ``test_orchestrator.py``.)"""
    load = orchestrator._load

    def load_and_check_a_kept_value(run_dir, name, kept, caches):
        entry = kept.get(name)
        value = load(run_dir, name, kept, caches)
        if entry is not None and entry[1] is value and name in _FRESH_READS:
            _assert_same(value, _FRESH_READS[name](run_dir / name), name)
        return value

    monkeypatch.setattr(orchestrator, "_load", load_and_check_a_kept_value)


@pytest.fixture
def emb_cache(tmp_path):
    """An embedding cache under ``tmp_path / "emb"``, closed after the test."""
    cache = EmbeddingCache(tmp_path / "emb")
    yield cache
    cache.close()


@pytest.fixture
def pack_factory():
    return random_pack
