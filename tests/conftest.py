"""Shared fixtures: fixture datasets, packs, and offline providers."""

from __future__ import annotations

import csv
import os

import numpy as np
import pytest

from t2ifuse.corpus import TextSample
from t2ifuse.embedding import EmbeddingCache, FeaturePack


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


@pytest.fixture
def emb_cache(tmp_path):
    """An embedding cache under ``tmp_path / "emb"``, closed after the test."""
    cache = EmbeddingCache(tmp_path / "emb")
    yield cache
    cache.close()


@pytest.fixture
def pack_factory():
    return random_pack
