"""Encoder providers, the embedding cache, and CLIP-style semantic scoring.

Providers are pluggable: remote HTTP encoders for real runs, deterministic
hash-projection fixtures for offline tests, and a curated-feature reader for
the oracle upper-bound configuration. Embeddings are cached per provider in
a :class:`storage.SegmentLog` under ``cache/emb/<provider_id>/``: each entry
is one checksummed record holding its float32 ``EVC1`` payload, so a cache
round-trip is bit-identical. An entry is durable after
:meth:`EmbeddingCache.sync`; a record torn by a crash is a miss, and
re-encoding it appends a fresh one. An image embeds under its content hash.
:func:`embed_all` looks each key up once, then encodes the misses through
:func:`generation.run_misses`: one batch call per chunk, else one call per
item on a pool of threads, each chunk put with one append. Given each
image's hash, a hit never reads the image. :func:`embed_text` and
:func:`embed_image` are one-item :func:`embed_all` calls.
"""

from __future__ import annotations

import hashlib
import struct
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Protocol

import numpy as np

from .generation import run_misses
from .storage import CacheError, SegmentLogs, read_jsonl, sha256_hex, write_jsonl

# Weight of the rescaled-cosine semantic consistency score.
CLIP_SCORE_WEIGHT = 2.5


class ProviderError(RuntimeError):
    pass


class DimensionMismatchError(ProviderError):
    pass


class ImageContentError(ProviderError):
    """A stored image's bytes do not hash to the content hash recorded for it."""


class ZeroVectorError(ValueError):
    pass


class TextEncoderProvider(Protocol):
    """A text encoder. An optional ``encode_texts(list[str]) -> list[(pooled,
    tokens)]`` gets one call per chunk of misses from :func:`embed_all`, in
    the calling thread; without it, ``encode_text`` is called once per miss,
    from several threads at once when ``workers`` allows (see
    :func:`generation.run_misses`)."""

    provider_id: str
    dim: int  # a remote provider learns it from its first response

    def encode_text(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Return (pooled (dim,), tokens (n, dim)); n >= 1."""
        ...


class ImageEncoderProvider(Protocol):
    """An image encoder; ``encode_images(list[bytes])`` is optional, as above."""

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
    Only a text's first ``max_tokens`` tokens embed. The batch methods hash
    each distinct token of a batch once; ``calls`` counts the items encoded.
    """

    max_tokens = 32

    def __init__(self, provider_id: str, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.provider_id = provider_id
        self.dim = dim
        self.calls = 0
        self._counters = [c.to_bytes(4, "big") for c in range(-(-dim // 32))]

    def _hash_rows(self, tags: list[bytes]) -> np.ndarray:
        """Row i is ``_hash_floats(tags[i], dim)``, all from one buffer."""
        digests = b"".join(hashlib.sha256(tag + c).digest() for tag in tags for c in self._counters)
        raw = np.frombuffer(digests, dtype=np.uint8).reshape(len(tags), -1)[:, : self.dim]
        return (raw.astype(np.float32) / 255.0) * 2.0 - 1.0

    def encode_texts(self, texts: list[str]) -> list[tuple[np.ndarray, np.ndarray]]:
        self.calls += len(texts)
        tokens = [text.split()[: self.max_tokens] for text in texts]
        if not all(tokens):
            raise ProviderError("cannot encode empty text")
        vocab = {token: i for i, token in enumerate(dict.fromkeys(t for ts in tokens for t in ts))}
        rows = self._hash_rows([f"{self.provider_id}|token|{t}".encode("utf-8") for t in vocab])
        by_length = defaultdict(list)  # texts of equal token count pool as one array
        for i, ts in enumerate(tokens):
            by_length[len(ts)].append(i)
        out: list = [None] * len(texts)
        for group in by_length.values():
            mats = rows[[[vocab[t] for t in tokens[i]] for i in group]]
            for i, matrix, pooled in zip(group, mats, mats.mean(axis=1)):
                out[i] = pooled, matrix
        return out

    def encode_images(self, images: list[bytes]) -> list[tuple[np.ndarray, np.ndarray]]:
        self.calls += len(images)
        prefix = self.provider_id.encode("utf-8") + b"|image|"
        rows = self._hash_rows([prefix + hashlib.sha256(data).digest() for data in images])
        return [(vec, vec[None, :]) for vec in rows]

    def encode_text(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        return self.encode_texts([text])[0]

    def encode_image(self, data: bytes) -> tuple[np.ndarray, np.ndarray]:
        return self.encode_images([data])[0]


class OracleFeatureProvider:
    """Curated image features read from a record-per-line file keyed by
    sample id; stands in for hand-picked reference images."""

    def __init__(self, path: str | Path):
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
# payload: magic "EVC1" | uint32 dim | uint32 n_tokens |
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
    """Per-provider, append-only embedding store: one :class:`storage.SegmentLog`
    under ``<root>/<provider_id>/``, whose record payloads are the ``EVC1``
    vector format. The log gives the layout, durability and recovery.

    Entries are write-once: :meth:`put_many` stores a batch with one append
    and skips every key already indexed; :meth:`get` reads one record. When
    segments disagree on a key, the record in the oldest segment wins. Each
    provider's log is indexed when the cache first uses it, and a miss never
    rescans: entries another process appends later are seen by the next
    cache opened on the root.
    ``run_experiment`` calls :meth:`sync` when a stage that ran returns,
    before it commits the manifest, so every entry a recorded artifact names
    is on disk before the manifest marks the stage done. A record that fails its crc
    is a miss; re-encoding appends a fresh record to this process's own
    segment, never after the torn one. :meth:`close` releases the file
    descriptors; the next use scans again.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._logs = SegmentLogs(self.root)

    def get(self, provider_id: str, key: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The cached (pooled, tokens), or ``None`` on a miss."""
        payload = self._logs[provider_id].find(key)
        return None if payload is None else decode_vec_payload(payload)

    def put_many(self, provider_id: str, entries: Iterable[tuple[str, np.ndarray, np.ndarray]]) -> None:
        """Put each ``(key, pooled, tokens)`` with one append; a key already
        stored, or earlier in ``entries``, is skipped."""
        self._logs[provider_id].append_many(
            ((key, encode_vec_payload(pooled, tokens)) for key, pooled, tokens in entries), once=True)

    def sync(self) -> None:
        """Make every entry put so far durable."""
        self._logs.sync()

    def close(self) -> None:
        """Close every segment; call it when no other thread uses the cache."""
        self._logs.close()


def _validate_provider_output(provider, pooled: np.ndarray, tokens: np.ndarray):
    """The output as float32 (pooled (dim,), tokens (n, dim)), its entries
    checked finite."""
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
    if not (np.isfinite(pooled).all() and np.isfinite(tokens).all()):
        raise ProviderError(f"provider {provider.provider_id!r} returned non-finite entries")
    return pooled, tokens


def text_key(text: str) -> str:
    """The cache key of ``text``; blank text raises :class:`ProviderError`."""
    if not text.strip():
        raise ProviderError("cannot embed empty text")
    return sha256_hex(text.encode("utf-8"))


def embed_text(text: str, provider: TextEncoderProvider,
               cache: EmbeddingCache | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Encode text, cache-keyed by (provider id, text hash): a one-item
    :func:`embed_all`.

    Returns the pooled vector and the token sequence (length >= 1; providers
    that only pool yield a single row).
    """
    key = text_key(text)
    return embed_all(provider, "text", {key: text}, cache, workers=1)[key]


def embed_image(data: bytes, provider: ImageEncoderProvider,
                cache: EmbeddingCache | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Encode image bytes, cache-keyed by (provider id, content hash): a
    one-item :func:`embed_all`."""
    key = sha256_hex(data)
    return embed_all(provider, "image", {key: data}, cache, workers=1)[key]


def embed_all(
    provider: TextEncoderProvider | ImageEncoderProvider,
    kind: str,
    items: dict,
    cache: EmbeddingCache | None,
    *,
    workers: int,
    read: Callable[[str, object], bytes] | None = None,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Key -> (pooled, tokens) for ``items``: cache key -> text (``kind``
    ``"text"``) or image bytes (``kind`` ``"image"``), or -> what
    ``read(key, item)`` reads them from, for misses only. A read that finds
    no record (:class:`storage.CacheError`) is an :class:`ImageContentError`.

    Each key is looked up in ``cache`` once, with one :meth:`EmbeddingCache.get`
    (with no cache, every key is a miss and nothing is put). The misses go through
    :func:`generation.run_misses`: one ``encode_<kind>s`` call per chunk, or
    without it one ``encode_<kind>`` call per item, on ``workers`` threads.
    A provider whose ``dim`` is ``None`` gets its first miss alone. Each
    output is validated, and each chunk's valid outputs are put with one
    append; a batch of the wrong length puts nothing.
    """
    found = {key: None if cache is None else cache.get(provider.provider_id, key) for key in items}
    misses = [key for key, hit in found.items() if hit is None]
    if not misses:
        return found
    encode_one = getattr(provider, f"encode_{kind}")
    encode_many = getattr(provider, f"encode_{kind}s", None)

    def load(key):
        if read is None:
            return items[key]
        try:
            return read(key, items[key])
        except CacheError as exc:
            raise ImageContentError(f"missing image artifact with sha256 {key}: {exc}") from exc

    def many(keys):
        outputs = encode_many([load(key) for key in keys])
        if len(outputs) != len(keys):
            raise ProviderError(f"provider {provider.provider_id!r} returned {len(outputs)} "
                                f"outputs for {len(keys)} inputs")
        return outputs

    def keep(pairs):
        found.update(pairs)
        if cache is not None:
            cache.put_many(provider.provider_id, ((key, *output) for key, output in pairs))

    def run(keys, threads):
        run_misses(keys, lambda key: encode_one(load(key)), None if encode_many is None else many,
                   lambda output: _validate_provider_output(provider, *output), keep, workers=threads)

    if provider.dim is None:
        run(misses[:1], 1)
        misses = misses[1:]
    run(misses, workers)
    return found


def _unit(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(values))
    if norm == 0.0:
        raise ZeroVectorError("cosine undefined for the zero vector")
    return values / norm


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    ua, ub = _unit(a), _unit(b)
    if ua.shape != ub.shape:
        raise ValueError(f"dim mismatch {ua.shape} vs {ub.shape}")
    return float(np.dot(ua, ub))


def clip_score(image_vec: np.ndarray, text_vec: np.ndarray) -> float:
    """Semantic-consistency proxy: 2.5 * max(cosine, 0), range [0, 2.5].

    Inputs are normalized internally, so the score is symmetric and invariant
    to positive rescaling of either argument.
    """
    return CLIP_SCORE_WEIGHT * max(cosine_similarity(image_vec, text_vec), 0.0)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a[i], b[i])`` for every row, bit for bit: a stacked matmul
    reduces each row as ``np.dot`` does (``einsum`` does not)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def clip_pairs(image_pooled: np.ndarray, text_pooled: np.ndarray) -> tuple[list[float], list[float]]:
    """Every row's :func:`cosine_similarity` and :func:`clip_score` of its
    pooled image and text features, bit-identical to calling them row by
    row, in one pass. As row by row, the first row holding a zero vector
    decides: a zero image gives ``([], [])`` (nothing to score), a zero text
    raises :class:`ZeroVectorError`. Differing dims give ``([], [])``."""
    if text_pooled.shape[1] != image_pooled.shape[1]:
        return [], []
    image = image_pooled.astype(np.float64)
    text = text_pooled.astype(np.float64)
    image_norm = np.sqrt(_row_dots(image, image))
    text_norm = np.sqrt(_row_dots(text, text))
    zero = np.flatnonzero((image_norm == 0.0) | (text_norm == 0.0))
    if zero.size:
        if not image[zero[0]].any():
            return [], []  # zero image features: no semantic consistency to score
        raise ZeroVectorError("cosine undefined for the zero vector")
    cosines = _row_dots(image / image_norm[:, None], text / text_norm[:, None]).tolist()
    return cosines, [CLIP_SCORE_WEIGHT * max(c, 0.0) for c in cosines]
