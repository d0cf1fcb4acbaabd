"""Shared persistence helpers: hashing, atomic writes, JSONL records, artifact cache."""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Iterable, Iterator


class CacheError(RuntimeError):
    pass


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj: Any) -> str:
    """Key-order-independent JSON used for hashing configs and cache keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def stable_key(obj: Any) -> str:
    return sha256_hex(canonical_json(obj).encode("utf-8"))


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write via a temp file in the same directory + rename, so readers never
    observe partial content. The temp name is unique per process and thread,
    so concurrent writers of one path never share a temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(Path(path), text.encode("utf-8"))


def write_jsonl(path: Path, records: Iterable[dict]) -> None:
    lines = "".join(canonical_json(r) + "\n" for r in records)
    atomic_write_text(Path(path), lines)


def append_jsonl(path: Path, record: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(canonical_json(record) + "\n")


def read_jsonl(path: Path) -> Iterator[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


class ArtifactCache:
    """Content-addressed, write-once artifact store.

    Each entry is a payload file ``<root>/<first2-of-key>/<key><suffix>``
    plus a sibling ``.meta`` JSON record, each written atomically (temp file
    + rename). ``put`` writes both files of an incomplete entry and never
    overwrites a complete one, so a retry after a crash is idempotent. Its
    lock is a ``threading.Lock``: it serializes the threads of one process
    only. Writers in two processes can both complete one entry, and with a
    backend that is not byte-deterministic the entry may then pair one
    writer's payload with the other's ``.meta``.
    """

    def __init__(self, root: Path, suffix: str = ".bin"):
        self.root = Path(root)
        self.suffix = suffix
        self._write_lock = threading.Lock()

    def _payload_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.suffix}"

    def _meta_path(self, key: str) -> Path:
        return self._payload_path(key).with_suffix(".meta")

    def path_for(self, key: str) -> Path:
        return self._payload_path(key)

    def has(self, key: str) -> bool:
        return self._payload_path(key).exists() and self._meta_path(key).exists()

    def get(self, key: str) -> bytes:
        path = self._payload_path(key)
        if not path.exists():
            raise CacheError(f"cache miss for key {key}")
        return path.read_bytes()

    def get_meta(self, key: str) -> dict:
        path = self._meta_path(key)
        if not path.exists():
            raise CacheError(f"missing cache metadata for key {key}")
        return json.loads(path.read_text(encoding="utf-8"))

    def put(self, key: str, data: bytes, meta: dict) -> Path:
        with self._write_lock:
            payload, meta_path = self._payload_path(key), self._meta_path(key)
            # a crash between the two writes leaves a payload without .meta;
            # that payload is untrusted, so an incomplete entry gets both
            # files rewritten and they describe the same bytes
            if not (payload.exists() and meta_path.exists()):
                atomic_write_bytes(payload, data)
                atomic_write_text(meta_path, canonical_json(meta))
            return payload
