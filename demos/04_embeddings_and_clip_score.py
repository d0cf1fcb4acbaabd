"""Embedding providers, the on-disk vector cache, and semantic scoring.

Run: python3 demos/04_embeddings_and_clip_score.py
"""

import tempfile
from pathlib import Path

import numpy as np

from t2ifuse.embedding import (
    EmbeddingCache,
    HashProjectionProvider,
    clip_score,
    cosine_similarity,
    embed_image,
    embed_text,
)
from t2ifuse.generation import ImageStore, StubImageBackend, preset_params
from t2ifuse.prompting import PromptSpec
from t2ifuse.generation import generate_image

with tempfile.TemporaryDirectory() as tmp:
    cache = EmbeddingCache(Path(tmp) / "cache" / "emb")
    provider = HashProjectionProvider("hash-32", 32)  # offline fixture encoder

    text = "a sleek black coffee machine on a kitchen counter"
    pooled, tokens = embed_text(text, provider, cache)
    print(f"text -> pooled dim {pooled.shape[0]}, {tokens.shape[0]} token vectors")

    again, _ = embed_text(text, provider, cache)
    print(f"cache round-trip bit-identical: {np.array_equal(pooled, again)}")
    print(f"provider calls so far: {provider.calls} (second read was a cache hit)\n")

    # generate a stub image and embed the bytes the store keeps for it
    store = ImageStore(Path(tmp) / "cache" / "images")
    spec = PromptSpec(sample_id="d1", strategy="direct", positive=text)
    record = generate_image(spec, preset_params("flux-schnell"), StubImageBackend("flux-schnell"), store)
    image_vec, image_tokens = embed_image(store.get(record.prompt_key), provider, cache)
    cache.close()  # releases the segment files of cache/emb/hash-32/
    store.close()  # ... and those of cache/images/data/ and cache/images/meta/
    print(f"image -> pooled dim {image_vec.shape[0]}, keyed by content hash {record.content_hash[:12]}...")

    cos = cosine_similarity(image_vec, pooled)
    score = clip_score(image_vec, pooled)
    print(f"\nsemantic consistency: cosine {cos:+.4f}, scaled score {score:.4f} (range [0, 2.5])")
    unit = np.zeros(32)
    unit[0] = 1.0
    print(f"identical vectors score  : {clip_score(unit, unit):.1f}")
    print(f"orthogonal vectors score : {clip_score(unit, np.roll(unit, 1)):.1f}")
    print(f"anti-parallel (clamped)  : {clip_score(unit, -unit):.1f}")
