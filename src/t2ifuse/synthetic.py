"""Synthetic bimodal dataset: class signal split between text and image dims.

Each sample carries two latent bits and the class index is
``2*text_bit + image_bit`` over four balanced classes. The text spells out the
first bit exactly (lead word) and hints at the second: the hint word agrees
with the image bit with probability ``HINT_FIDELITY``, 0.55. So a text-only
model tops out near 55% accuracy, while a fused model can recover both bits
from curated image features. The ``noise`` variant replaces the image
features with pure noise: a well-behaved fusion head should then fall back
to the text cues and match the text-only model.

Noise words are unique per sample (a long-tail vocabulary), so memorizing
them on the train split cannot transfer to validation or test.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import write_oracle_features

TEXT_BIT_WORDS = ("granite", "velvet")
HINT_WORDS = ("crimson", "azure")
CLASS_NAMES = ("g0", "g1", "v0", "v1")  # 2*text_bit + image_bit
HINT_FIDELITY = 0.55  # the probability that the hint word agrees with the image bit


@dataclass(frozen=True)
class SyntheticDatasetPaths:
    dataset_csv: Path
    oracle_features: Path
    num_samples: int
    image_dim: int


def build_separability_fixture(
    out_dir: str | Path,
    *,
    samples_per_class: int = 400,
    image_dim: int = 16,
    image_mode: str = "signal",
    noise_scale: float = 0.1,
    seed: int = 0,
) -> SyntheticDatasetPaths:
    """Write the dataset CSV and the oracle image-feature file.

    ``image_mode="signal"`` encodes the image bit as one of two opposite
    template vectors plus small noise; ``"noise"`` replaces every image
    feature with a standard normal draw, destroying the image-borne bit
    entirely.
    """
    if image_mode not in ("signal", "noise"):
        raise ValueError(f"unknown image_mode {image_mode!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    templates = np.stack([np.ones(image_dim), -np.ones(image_dim)])
    rows = []
    features: dict[str, np.ndarray] = {}
    sample_no = 0
    for class_index in range(4):
        text_bit, image_bit = divmod(class_index, 2)
        for _ in range(samples_per_class):
            sample_no += 1
            sid = f"syn{sample_no:05d}"
            hint_bit = image_bit if rng.random() < HINT_FIDELITY else 1 - image_bit
            text = " ".join(
                [
                    TEXT_BIT_WORDS[text_bit],
                    HINT_WORDS[hint_bit],
                    f"x{sample_no:05d}",
                ]
            )
            if image_mode == "signal":
                vec = templates[image_bit] + noise_scale * rng.standard_normal(image_dim)
            else:
                vec = rng.standard_normal(image_dim)
            rows.append({"id": sid, "text": text, "label": CLASS_NAMES[class_index]})
            features[sid] = vec.astype(np.float32)

    # Interleave classes so stratified splitting sees a shuffled file.
    order = rng.permutation(len(rows))
    dataset_csv = out_dir / "dataset.csv"
    with open(dataset_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["id", "text", "label"])
        writer.writeheader()
        for i in order:
            writer.writerow(rows[i])

    oracle_path = out_dir / "oracle_features.jsonl"
    write_oracle_features(oracle_path, features)
    return SyntheticDatasetPaths(
        dataset_csv=dataset_csv,
        oracle_features=oracle_path,
        num_samples=len(rows),
        image_dim=image_dim,
    )
