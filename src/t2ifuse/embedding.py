"""Encoder providers, the embedding cache, and CLIP-style semantic scoring.

Providers are pluggable: remote HTTP encoders for real runs, deterministic
hash-projection fixtures for offline tests, and a curated-feature reader for
the oracle upper-bound configuration. Embeddings are cached per provider under
``cache/emb/<provider_id>/<key>.vec`` with a ``.meta`` provenance sibling and
returned as float32, so a cache round-trip is bit-identical.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .storage import ArtifactCache, CacheError, read_jsonl, sha256_hex, write_jsonl

# Weight of the rescaled-cosine semantic consistency score.
CLIP_SCORE_WEIGHT = 2.5


class ProviderError(RuntimeError):
    pass


class DimensionMismatchError(ProviderError):
    pass


class ZeroVectorError(ValueError):
    pass


@dataclass(frozen=True)
class EmbeddingVector:
    values: np.ndarray  # 1-D float vector
    provider_id: str
    normalized: bool = False

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 1:
            raise ValueError(f"embedding must be 1-D, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("embedding contains non-finite entries")
        if self.normalized and abs(float(np.linalg.norm(values)) - 1.0) > 1e-6:
            raise ValueError("vector marked normalized but |v| != 1")
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


@dataclass
class FeaturePack:
    """Per-sample encoder outputs consumed by the fusion heads."""

    text_tokens: np.ndarray  # (n_text, text_dim)
    image_tokens: np.ndarray  # (n_image, image_dim)
    text_pooled: np.ndarray  # (text_dim,)
    image_pooled: np.ndarray  # (image_dim,)

    def __post_init__(self):
        self.text_tokens = np.atleast_2d(np.asarray(self.text_tokens))
        self.image_tokens = np.atleast_2d(np.asarray(self.image_tokens))
        self.text_pooled = np.asarray(self.text_pooled).reshape(-1)
        self.image_pooled = np.asarray(self.image_pooled).reshape(-1)
        if self.text_tokens.shape[0] < 1 or self.image_tokens.shape[0] < 1:
            raise ValueError("token sequences must be non-empty")
        if self.text_tokens.shape[1] != self.text_pooled.shape[0]:
            raise ValueError("pooled text dim does not match token dim")
        if self.image_tokens.shape[1] != self.image_pooled.shape[0]:
            raise ValueError("pooled image dim does not match token dim")
        for arr in (self.text_tokens, self.image_tokens, self.text_pooled, self.image_pooled):
            if not np.isfinite(arr).all():
                raise ValueError("feature pack contains non-finite entries")


class TextEncoderProvider(Protocol):
    provider_id: str
    dim: int  # a remote provider learns it from its first response

    def encode_text(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Return (pooled (dim,), tokens (n, dim)); n >= 1."""
        ...


class ImageEncoderProvider(Protocol):
    provider_id: str
    dim: int

    def encode_image(self, data: bytes) -> tuple[np.ndarray, np.ndarray]: ...


def _hash_floats(tag: bytes, n: int) -> np.ndarray:
    """Deterministic pseudo-floats in [-1, 1]: sha256(tag || counter) expanded
    to n bytes, each byte mapped linearly from [0, 255]."""
    out = bytearray()
    counter = 0
    while len(out) < n:
        out += hashlib.sha256(tag + counter.to_bytes(4, "big")).digest()
        counter += 1
    raw = np.frombuffer(bytes(out[:n]), dtype=np.uint8)
    return (raw.astype(np.float32) / 255.0) * 2.0 - 1.0


class HashProjectionProvider:
    """Offline fixture encoder: hash-projection of the input to a fixed dim.

    Text is split on whitespace; each token embeds as
    ``_hash_floats(provider_id|token|<token>, dim)`` and the pooled vector is
    the token mean. Image bytes embed as a single token keyed by their sha256.
    """

    def __init__(self, provider_id: str, dim: int, max_tokens: int = 32):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.provider_id = provider_id
        self.dim = dim
        self.max_tokens = max_tokens
        self.calls = 0

    def _token_vector(self, token: str) -> np.ndarray:
        tag = f"{self.provider_id}|token|{token}".encode("utf-8")
        return _hash_floats(tag, self.dim)

    def encode_text(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        self.calls += 1
        tokens = text.split()[: self.max_tokens]
        if not tokens:
            raise ProviderError("cannot encode empty text")
        matrix = np.stack([self._token_vector(t) for t in tokens])
        return matrix.mean(axis=0), matrix

    def encode_image(self, data: bytes) -> tuple[np.ndarray, np.ndarray]:
        self.calls += 1
        tag = self.provider_id.encode("utf-8") + b"|image|" + hashlib.sha256(data).digest()
        vec = _hash_floats(tag, self.dim)
        return vec, vec[None, :]


class OracleFeatureProvider:
    """Curated image features read from a record-per-line file keyed by
    sample id; stands in for hand-picked reference images."""

    def __init__(self, path: str | Path, provider_id: str = "oracle"):
        self.provider_id = provider_id
        self.path = Path(path)
        self._table: dict[str, np.ndarray] = {}
        for record in read_jsonl(self.path):
            values = np.asarray(record["values"], dtype=np.float32)
            if values.shape != (int(record["dim"]),):
                raise ProviderError(
                    f"{path}: sample {record['sample_id']!r} dim mismatch"
                )
            self._table[str(record["sample_id"])] = values
        if not self._table:
            raise ProviderError(f"{path}: empty oracle feature file")
        dims = {v.shape[0] for v in self._table.values()}
        if len(dims) != 1:
            raise ProviderError(f"{path}: inconsistent dims {sorted(dims)}")
        self.dim = dims.pop()

    def features_for(self, sample_id: str) -> tuple[np.ndarray, np.ndarray]:
        if sample_id not in self._table:
            raise ProviderError(f"no oracle features for sample {sample_id!r}")
        vec = self._table[sample_id]
        return vec, vec[None, :]


def write_oracle_features(path: str | Path, features: dict[str, np.ndarray]) -> None:
    write_jsonl(
        Path(path),
        (
            {
                "sample_id": sid,
                "dim": int(np.asarray(vec).shape[0]),
                "values": [float(v) for v in np.asarray(vec)],
            }
            for sid, vec in features.items()
        ),
    )


# --- cache -----------------------------------------------------------------
# .vec payload: magic "EVC1" | uint32 dim | uint32 n_tokens |
#   float32 LE pooled values (dim) | float32 LE token rows (n_tokens * dim).

VEC_MAGIC = b"EVC1"


def encode_vec_payload(pooled: np.ndarray, tokens: np.ndarray) -> bytes:
    pooled = np.ascontiguousarray(pooled, dtype="<f4")
    tokens = np.ascontiguousarray(tokens, dtype="<f4")
    header = VEC_MAGIC + struct.pack("<II", pooled.shape[0], tokens.shape[0])
    return header + pooled.tobytes() + tokens.tobytes()


def decode_vec_payload(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Raises :class:`CacheError` unless ``data`` is exactly one payload."""
    if len(data) < 12 or data[:4] != VEC_MAGIC:
        raise CacheError("not an embedding payload")
    dim, n_tokens = struct.unpack_from("<II", data, 4)
    expected = 12 + 4 * dim * (1 + n_tokens)
    if len(data) != expected:
        raise CacheError(f"embedding payload has {len(data)} bytes, expected {expected}")
    offset = 12
    pooled = np.frombuffer(data, dtype="<f4", count=dim, offset=offset).copy()
    offset += dim * 4
    tokens = np.frombuffer(data, dtype="<f4", count=n_tokens * dim, offset=offset)
    return pooled, tokens.reshape(n_tokens, dim).copy()


class EmbeddingCache:
    """Per-provider embedding store under ``<root>/<provider_id>/``."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._per_provider: dict[str, ArtifactCache] = {}

    def _cache(self, provider_id: str) -> ArtifactCache:
        if provider_id not in self._per_provider:
            self._per_provider[provider_id] = ArtifactCache(
                self.root / provider_id, suffix=".vec", shard=False
            )
        return self._per_provider[provider_id]

    def get(self, provider_id: str, key: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The cached (pooled, tokens), or ``None`` on a miss. A corrupt entry
        is a miss too, and is invalidated so the next ``put`` rewrites it."""
        cache = self._cache(provider_id)
        if not cache.has(key):
            return None
        try:
            return decode_vec_payload(cache.get(key))
        except CacheError:
            cache.invalidate(key)
            return None

    def put(
        self,
        provider_id: str,
        key: str,
        pooled: np.ndarray,
        tokens: np.ndarray,
        meta: dict,
    ) -> None:
        self._cache(provider_id).put(key, encode_vec_payload(pooled, tokens), meta)


def _validate_provider_output(provider, pooled: np.ndarray, tokens: np.ndarray):
    pooled = np.asarray(pooled, dtype=np.float32).reshape(-1)
    tokens = np.atleast_2d(np.asarray(tokens, dtype=np.float32))
    if pooled.shape[0] != provider.dim:
        raise DimensionMismatchError(
            f"provider {provider.provider_id!r} declared dim {provider.dim} "
            f"but returned {pooled.shape[0]}"
        )
    if tokens.shape[0] < 1 or tokens.shape[1] != provider.dim:
        raise DimensionMismatchError(
            f"provider {provider.provider_id!r} returned token matrix {tokens.shape}"
        )
    return pooled, tokens


def embed_text(
    text: str,
    provider: TextEncoderProvider,
    cache: EmbeddingCache | None = None,
) -> tuple[EmbeddingVector, np.ndarray]:
    """Encode text, cache-keyed by (provider id, text hash).

    Returns the pooled vector and the token sequence (length >= 1; providers
    that only pool yield a single row).
    """
    if not text.strip():
        raise ProviderError("cannot embed empty text")
    key = sha256_hex(text.encode("utf-8"))
    if cache is not None:
        hit = cache.get(provider.provider_id, key)
        if hit is not None:
            pooled, tokens = hit
            return EmbeddingVector(pooled, provider.provider_id), tokens
    pooled, tokens = _validate_provider_output(provider, *provider.encode_text(text))
    if cache is not None:
        cache.put(
            provider.provider_id,
            key,
            pooled,
            tokens,
            {"provider_id": provider.provider_id, "kind": "text", "input_sha256": key},
        )
    return EmbeddingVector(pooled, provider.provider_id), tokens


def embed_image(
    image_ref: str | Path | bytes,
    provider: ImageEncoderProvider,
    cache: EmbeddingCache | None = None,
) -> tuple[EmbeddingVector, np.ndarray]:
    """Encode image bytes, given as such or as the path of a stored image,
    cache-keyed by (provider id, content hash)."""
    if isinstance(image_ref, bytes):
        data = image_ref
    else:
        path = Path(image_ref)
        if not path.exists():
            raise ProviderError(f"missing image artifact: {path}")
        data = path.read_bytes()
    key = sha256_hex(data)
    if cache is not None:
        hit = cache.get(provider.provider_id, key)
        if hit is not None:
            pooled, tokens = hit
            return EmbeddingVector(pooled, provider.provider_id), tokens
    pooled, tokens = _validate_provider_output(provider, *provider.encode_image(data))
    if cache is not None:
        cache.put(
            provider.provider_id,
            key,
            pooled,
            tokens,
            {"provider_id": provider.provider_id, "kind": "image", "content_sha256": key},
        )
    return EmbeddingVector(pooled, provider.provider_id), tokens


def _unit(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(values))
    if norm == 0.0:
        raise ZeroVectorError("cosine undefined for the zero vector")
    return values / norm


def cosine_similarity(a, b) -> float:
    a = a.values if isinstance(a, EmbeddingVector) else a
    b = b.values if isinstance(b, EmbeddingVector) else b
    ua, ub = _unit(a), _unit(b)
    if ua.shape != ub.shape:
        raise ValueError(f"dim mismatch {ua.shape} vs {ub.shape}")
    return float(np.dot(ua, ub))

def clip_score(image_vec, text_vec) -> float:
    """Semantic-consistency proxy: 2.5 * max(cosine, 0), range [0, 2.5].

    Inputs are normalized internally, so the score is symmetric and invariant
    to positive rescaling of either argument.
    """
    return CLIP_SCORE_WEIGHT * max(cosine_similarity(image_vec, text_vec), 0.0)
