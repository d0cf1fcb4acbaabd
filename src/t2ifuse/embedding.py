"""Encoder providers, the embedding cache, and CLIP-style semantic scoring.

Providers are pluggable: remote HTTP encoders for real runs, deterministic
hash-projection fixtures for offline tests, and a curated-feature reader for
the oracle upper-bound configuration. Embeddings are cached per provider in
append-only segment files under ``cache/emb/<provider_id>/``: each entry is
one checksummed record holding its float32 ``EVC1`` payload, so a cache
round-trip is bit-identical. An entry is durable after
:meth:`EmbeddingCache.sync`; a record torn by a crash is a miss, and
re-encoding it appends a fresh one. :class:`EmbeddingCache` gives the layout.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .storage import CacheError, read_jsonl, sha256_hex, write_jsonl

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
# payload: magic "EVC1" | uint32 dim | uint32 n_tokens |
#   float32 LE pooled values (dim) | float32 LE token rows (n_tokens * dim).
# segment record: magic "ESG1" | sha256 of the key (32 bytes) |
#   uint32 LE payload length | uint32 LE crc32 of (digest, length, payload) | payload.

VEC_MAGIC = b"EVC1"
SEGMENT_MAGIC = b"ESG1"
SEGMENT_SUFFIX = ".seg"
_RECORD_HEADER = struct.Struct("<4s32sII")


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


def _record_crc(digest: bytes, length: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(digest + length.to_bytes(4, "little")))


class _ProviderLog:
    """The segments of one provider directory and an index over their records.

    ``_segments`` maps a segment's file name to ``[fd, bytes indexed]``;
    ``_index`` maps a key digest to its first record ``(fd, payload offset,
    length, crc)``, and ``_spares`` holds later records of the same key, used
    when the first one fails its crc.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self._lock = threading.Lock()
        self._segments: dict[str, list[int]] = {}
        self._index: dict[bytes, tuple[int, int, int, int]] = {}
        self._spares: dict[bytes, list[tuple[int, int, int, int]]] = {}
        self._own: list[int] | None = None  # the segment this process appends to
        self._unsynced: set[int] = set()
        with self._lock:
            self._refresh()

    def _refresh(self) -> None:
        """Index the records appended since the last scan; the caller holds
        the lock. A segment's scan stops at its first short or malformed
        record and resumes there next time, so a record that another process
        is still writing is picked up once it is complete."""
        try:
            names = sorted(n for n in os.listdir(self.directory) if n.endswith(SEGMENT_SUFFIX))
        except FileNotFoundError:
            return
        for name in names:
            segment = self._segments.get(name)
            if segment is None:
                fd = os.open(self.directory / name, os.O_RDONLY)
                segment = self._segments[name] = [fd, 0]
            fd, pos = segment
            size = os.fstat(fd).st_size
            while pos + _RECORD_HEADER.size <= size:
                header = os.pread(fd, _RECORD_HEADER.size, pos)
                if len(header) < _RECORD_HEADER.size:
                    break
                magic, digest, length, crc = _RECORD_HEADER.unpack(header)
                end = pos + _RECORD_HEADER.size + length
                if magic != SEGMENT_MAGIC or end > size:
                    break
                location = (fd, pos + _RECORD_HEADER.size, length, crc)
                if digest in self._index:
                    self._spares.setdefault(digest, []).append(location)
                else:
                    self._index[digest] = location
                pos = end
            segment[1] = pos

    def get(self, key: str) -> bytes | None:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        location = self._index.get(digest)
        if location is None:
            with self._lock:
                self._refresh()
                location = self._index.get(digest)
        while location is not None:
            fd, offset, length, crc = location
            payload = os.pread(fd, length, offset)
            if len(payload) == length and _record_crc(digest, length, payload) == crc:
                return payload
            with self._lock:  # corrupt: fall back to a later record of the key, if any
                spares = self._spares.get(digest)
                if self._index.get(digest) == location:
                    if spares:
                        self._index[digest] = spares.pop(0)
                    else:
                        del self._index[digest]
                location = self._index.get(digest)
        return None

    def put(self, key: str, payload: bytes) -> None:
        """Append one record unless the key is already indexed."""
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        length = len(payload)
        crc = _record_crc(digest, length, payload)
        record = _RECORD_HEADER.pack(SEGMENT_MAGIC, digest, length, crc) + payload
        with self._lock:
            if digest in self._index:
                return
            if self._own is None:
                # a segment of this process's own: no other writer ever appends to it
                self.directory.mkdir(parents=True, exist_ok=True)
                name = f"{time.time_ns():020d}-{os.getpid()}{SEGMENT_SUFFIX}"
                fd = os.open(
                    self.directory / name, os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL, 0o644
                )
                self._own = self._segments[name] = [fd, 0]
            fd, offset = self._own
            self._unsynced.add(fd)
            if os.write(fd, record) != len(record):
                self._own = None  # never append after a torn tail: the next put starts a new segment
                raise CacheError(f"short write to the embedding segment in {self.directory}")
            self._own[1] = offset + len(record)
            self._index[digest] = (fd, offset + _RECORD_HEADER.size, length, crc)

    def sync(self) -> None:
        with self._lock:
            for fd in self._unsynced:
                os.fsync(fd)
            self._unsynced.clear()

    def close(self) -> None:
        for fd, _ in self._segments.values():
            os.close(fd)


class EmbeddingCache:
    """Per-provider, append-only embedding store under ``<root>/<provider_id>/``.

    Layout: each provider directory holds segment files
    ``<creation time ns>-<pid>.seg``. A segment is a sequence of records,
    ``magic "ESG1" | sha256 of the key (32 bytes) | uint32 length | uint32
    crc32 | payload``; the crc covers the digest, the length and the payload,
    and the payload is the ``EVC1`` vector format. Other files in the
    directory are ignored.

    Writes: each process lazily creates a segment of its own (``O_EXCL``) and
    only ever appends to that one, with one ``os.write`` per record; threads
    share it under a lock, and a forked child starts afresh. Entries are
    write-once: a ``put`` of an indexed key is a no-op.

    Durability: an entry is durable after :meth:`sync`, which fsyncs each
    segment written since the last sync. The embeddings stage syncs before
    it writes ``features.jsonl``, so every entry a recorded artifact names
    is on disk before the manifest marks the stage done.

    Reads: the first use of a provider scans its segments header by header
    into a digest -> record index; a miss rescans only the bytes appended
    since, so entries written by other processes become visible. When
    segments disagree on a key, the record in the oldest segment wins.

    Recovery: a scan stops at a segment's first record that is short or has
    a bad magic, so a torn tail is a miss. A record that fails its crc on
    read is a miss too; re-encoding appends a fresh record to this
    process's own segment, never after the torn one.

    :meth:`close` releases the file descriptors; the next use scans again.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._logs: dict[str, _ProviderLog] = {}
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def _log(self, provider_id: str) -> _ProviderLog:
        if self._pid != os.getpid():  # a forked child: its own segment, fds and index
            self.close()
            self._lock, self._pid = threading.Lock(), os.getpid()
        log = self._logs.get(provider_id)
        if log is None:
            with self._lock:
                log = self._logs.get(provider_id)
                if log is None:
                    log = self._logs[provider_id] = _ProviderLog(self.root / provider_id)
        return log

    def get(self, provider_id: str, key: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The cached (pooled, tokens), or ``None`` on a miss."""
        payload = self._log(provider_id).get(key)
        return None if payload is None else decode_vec_payload(payload)

    def put(self, provider_id: str, key: str, pooled: np.ndarray, tokens: np.ndarray) -> None:
        self._log(provider_id).put(key, encode_vec_payload(pooled, tokens))

    def sync(self) -> None:
        """Make every entry put so far durable."""
        for log in list(self._logs.values()):
            log.sync()

    def close(self) -> None:
        """Close every segment; call it when no other thread uses the cache."""
        logs, self._logs = self._logs, {}
        for log in logs.values():
            log.close()


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
        cache.put(provider.provider_id, key, pooled, tokens)
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
        cache.put(provider.provider_id, key, pooled, tokens)
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
