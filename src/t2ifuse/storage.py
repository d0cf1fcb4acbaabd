"""Shared persistence: hashing, atomic writes, JSONL records, and the segment
log that every cache keeps its records in.

A :class:`SegmentLog` is one directory of append-only segment files. Each
record is checksummed, and each segment has one writing process, so writers
never share a file and need no lock across processes. A log is indexed once,
when it is opened; a lookup reads that index and this process's own appends,
and a miss never rescans the directory; a hit is one read at the offset the
index gives. The embedding cache stores whole entries in one log per
provider; :class:`ArtifactCache` (images, chat responses) stores each entry
as a payload record in ``<root>/data/`` and a meta record in
``<root>/meta/``, so that a hit reads no payload bytes.

Every record a run persists (a manifest and its stage statuses, an
evaluation report, a prompt spec, an image record) is read back by one rule,
:func:`from_fields`: each key that names a field of the record's dataclass
sets that field, other keys are ignored, and a field without its key takes
its default. A field a later version adds, or a subclass, is therefore read
back without its reader naming it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import json.encoder
import os
import struct
import threading
import time
import weakref
import zlib
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence


class CacheError(RuntimeError):
    pass


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# One C encoder with the arguments json.dumps hands it, in place of a new
# encoder per call. It has no ``markers`` dict, which is not safe across
# threads and keeps a stale entry after an error, so circular input raises
# RecursionError, not ValueError.
_JSON_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
_C_ENCODE = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _JSON_ENCODER.default, json.encoder.encode_basestring, None, ":", ",", True, False, True)


def canonical_json(obj: Any) -> str:
    """Key-order-independent JSON used for hashing configs and cache keys,
    and for every compact sorted record written: the bytes of
    ``json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)``."""
    if _C_ENCODE is None:
        return _JSON_ENCODER.encode(obj)
    return _C_ENCODE(obj, 0)[0]


def stable_key(obj: Any) -> str:
    return sha256_hex(canonical_json(obj).encode("utf-8"))


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
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


def jsonl_bytes(records: Iterable[dict]) -> bytes:
    """``records`` as one canonical JSON line each."""
    return "".join(canonical_json(r) + "\n" for r in records).encode("utf-8")


def write_jsonl(path: Path, records: Iterable[dict]) -> None:
    atomic_write_bytes(Path(path), jsonl_bytes(records))


def _records(lines: Iterable[str]) -> Iterator[dict]:
    for line in lines:
        line = line.strip()
        if line:
            yield json.loads(line)


def read_jsonl(path: Path) -> Iterator[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        yield from _records(fh)


def iter_jsonl(data: bytes) -> Iterator[dict]:
    """The records of JSONL bytes, split into lines as :func:`read_jsonl`
    splits a file that holds them."""
    return _records(io.StringIO(data.decode("utf-8"), newline=None))


def from_fields(cls: type, data: Mapping, **converted):
    """The dataclass ``cls`` built from the keys of ``data`` that name its
    fields, with each ``converted`` value in place of its key's (the arrays,
    tuples and nested records a reader must build); other keys are ignored."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{**{key: value for key, value in data.items() if key in names}, **converted})


# --- segment log -------------------------------------------------------------
# segment record: magic "ESG1" | sha256 of the key (32 bytes) |
#   uint32 LE payload length | uint32 LE crc32 of (digest, length, payload) | payload.

SEGMENT_MAGIC = b"ESG1"
SEGMENT_SUFFIX = ".seg"
_RECORD_HEADER = struct.Struct("<4s32sII")


def _key_digest(key: str) -> bytes:
    return hashlib.sha256(key.encode("utf-8")).digest()


def _record_crc(digest: bytes, length: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(digest + length.to_bytes(4, "little")))


def _close_fds(fds: list[int]) -> None:
    for fd in fds:
        os.close(fd)
    fds.clear()


class SegmentLog:
    """The segments of one directory and an index over their records.

    Layout: segment files ``<creation time ns>-<pid>.seg``, each a sequence of
    records ``magic "ESG1" | sha256 of the key (32 bytes) | uint32 length |
    uint32 crc32 | payload``; the crc covers the digest, the length and the
    payload. Other files in the directory are ignored.

    Writes: each process lazily creates a segment of its own (``O_EXCL``) and
    only ever appends to that one, with one ``os.write`` per
    :meth:`append_many` call, however many records it holds; threads share
    it under a lock. A record is durable after :meth:`sync`, which fsyncs
    each segment written since the last sync.

    Reads: the log is indexed once, when it is opened: the segments are
    scanned header by header into a key digest -> records index, oldest
    segment first, then append order. After that the index grows only by
    this process's own appends, once their write has returned whole. A
    lookup reads the index and never rescans the directory, so a record that
    another process appends after the open is seen by the next log opened on
    the directory, not by this one. :meth:`find` reads a key's records one
    ``os.pread`` each, oldest first, and stops at the first it serves.

    Recovery: a scan stops at a segment's first record that is short or has
    a bad magic, so a torn tail is a miss; a torn write of several records
    may leave whole records before the tear, which a later scan indexes. A
    record that fails its crc on read is dropped from the index. A writer
    never appends after a torn record: after a failed or short write the
    next append starts a new segment.

    ``_index`` maps a key digest to its records' ``(fd, payload offset,
    length, crc)``. The descriptors are closed by :meth:`close`, or when the
    log is collected.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self._lock = threading.Lock()
        # held by this process's writers that check the index, then append
        self.write_lock = threading.Lock()
        self._fds: list[int] = []
        self._index: dict[bytes, tuple[tuple[int, int, int, int], ...]] = {}
        self._own: tuple[int, int] | None = None  # this process's segment: (fd, bytes written)
        self._unsynced: set[int] = set()
        self._finalizer = weakref.finalize(self, _close_fds, self._fds)
        self._scan()

    def _scan(self) -> None:
        """Index every whole record of the directory's segments."""
        try:
            names = sorted(n for n in os.listdir(self.directory) if n.endswith(SEGMENT_SUFFIX))
        except FileNotFoundError:
            return
        for name in names:
            fd = os.open(self.directory / name, os.O_RDONLY)
            self._fds.append(fd)
            size, pos = os.fstat(fd).st_size, 0
            while pos + _RECORD_HEADER.size <= size:
                header = os.pread(fd, _RECORD_HEADER.size, pos)
                if len(header) < _RECORD_HEADER.size:
                    break
                magic, digest, length, crc = _RECORD_HEADER.unpack(header)
                end = pos + _RECORD_HEADER.size + length
                if magic != SEGMENT_MAGIC or end > size:
                    break
                self._add(digest, (fd, pos + _RECORD_HEADER.size, length, crc))
                pos = end

    def _add(self, digest: bytes, location: tuple[int, int, int, int]) -> None:
        self._index[digest] = (*self._index.get(digest, ()), location)

    def find(self, key: str, accept: Callable[[bytes], bool] | None = None) -> bytes | None:
        """The payload of ``key``'s first intact record that ``accept``
        takes (any, by default), or ``None``. A record that fails its crc is
        a miss and leaves the index."""
        digest = _key_digest(key)
        for location in self._index.get(digest, ()):
            fd, offset, length, crc = location
            payload = os.pread(fd, length, offset)
            if len(payload) != length or _record_crc(digest, length, payload) != crc:
                with self._lock:  # corrupt: a miss, and never tried again
                    self._index[digest] = tuple(
                        r for r in self._index.get(digest, ()) if r != location
                    )
                continue
            if accept is None or accept(payload):
                return payload
        return None

    def crcs(self, key: str) -> set[int]:
        """The crc of each indexed record of ``key``: which records there are,
        without reading one."""
        return {crc for *_, crc in self._index.get(_key_digest(key), ())}

    def append_many(self, records: Iterable[tuple[str, bytes]], *, once: bool = False) -> list[int | None]:
        """Append a record per ``(key, payload)``, in order, with one
        ``os.write``; with ``once``, skip a key that is indexed or came
        earlier in ``records``. Returns each record's crc, ``None`` for a
        skipped one."""
        crcs: list[int | None] = []
        parts, added, seen, size = [], [], set(), 0
        with self._lock:
            for key, payload in records:
                digest = _key_digest(key)
                if once and (digest in seen or self._index.get(digest)):
                    crcs.append(None)
                    continue
                seen.add(digest)
                crc = _record_crc(digest, len(payload), payload)
                crcs.append(crc)
                parts += (_RECORD_HEADER.pack(SEGMENT_MAGIC, digest, len(payload), crc), payload)
                added.append((digest, size + _RECORD_HEADER.size, len(payload), crc))
                size += _RECORD_HEADER.size + len(payload)
            if not parts:
                return crcs
            fd, offset = self._own or self._create()
            # until the write is whole, no segment is this process's: after a
            # failed or short write, the next append starts a new one
            self._own = None
            self._unsynced.add(fd)
            if os.write(fd, b"".join(parts)) != size:
                raise CacheError(f"short write to the segment in {self.directory}")
            self._own = (fd, offset + size)
            for digest, start, length, crc in added:
                self._add(digest, (fd, offset + start, length, crc))
        return crcs

    def _create(self) -> tuple[int, int]:
        """A new segment of this process's own: no other writer ever appends to it."""
        self.directory.mkdir(parents=True, exist_ok=True)
        name = f"{time.time_ns():020d}-{os.getpid()}{SEGMENT_SUFFIX}"
        fd = os.open(self.directory / name, os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL, 0o644)
        self._fds.append(fd)
        return fd, 0

    def sync(self) -> None:
        with self._lock:
            for fd in self._unsynced:
                os.fsync(fd)
            self._unsynced.clear()

    def close(self) -> None:
        self._finalizer()


class SegmentLogs:
    """The segment logs under one root, one per subdirectory, each opened on
    first use. A forked child drops the logs it inherited and opens its own,
    so it never appends to its parent's segment."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self._logs: dict[str, SegmentLog] = {}
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def __getitem__(self, name: str) -> SegmentLog:
        if self._pid != os.getpid():  # a forked child: its own segments, fds, index and locks
            self.close()
            self._lock, self._pid = threading.Lock(), os.getpid()
        log = self._logs.get(name)
        if log is None:
            with self._lock:
                log = self._logs.get(name)
                if log is None:
                    log = self._logs[name] = SegmentLog(self.root / name)
        return log

    def sync(self, *names: str) -> None:
        """Fsync the named logs in that order (every log, by default); a log
        not opened has nothing to sync."""
        for name in names or list(self._logs):
            log = self._logs.get(name)
            if log is not None:
                log.sync()

    def close(self) -> None:
        """Close every log; call it when no other thread uses them."""
        logs, self._logs = self._logs, {}
        for log in logs.values():
            log.close()


# --- artifact cache ------------------------------------------------------------
# payload record, in <root>/data/: the payload's bytes.
# meta record, in <root>/meta/: sha256 of the payload (32 bytes) |
#   uint32 LE crc of its payload record | the meta as canonical JSON.

_META_HEADER = struct.Struct("<32sI")
_DATA, _META = "data", "meta"


class ArtifactCache:
    """Content-addressed, write-once artifact store.

    Each entry is two records of its key, each in a :class:`SegmentLog` of
    its own: a payload record in ``<root>/data/`` holding the bytes, and a
    meta record in ``<root>/meta/`` holding the payload's sha256, the crc of
    its payload record and the meta as canonical JSON. They are apart so
    that a hit never reads payload bytes, which for a real image are 1-2 MB.

    Lookups: an entry is the first intact meta record of its key (oldest
    segment first) whose payload record is indexed, matched by crc. So
    :meth:`lookup` (and :meth:`has` and :meth:`get_meta`, which wrap it)
    reads the data log's index, then the key's meta records one read each
    until one is served, and no payload. Each log is indexed when the cache first uses it, and a
    miss never rescans; records that another process appends later are seen
    by the next cache opened on the root. :meth:`get` returns the
    crc-checked payload of the key whose sha256 is the one given, by default
    the served meta's, so each writer of a lost race reads its own bytes.

    :meth:`put_many` appends the payload records of the keys without an
    entry, then their meta records, one write each; the threads of one
    process put one at a time. A payload without its meta record (a crash
    between the two appends), a torn record and a bad-crc record are misses,
    and the next put appends a fresh pair. Records are durable after
    :meth:`sync`, which fsyncs the payloads before the meta records that
    name them; ``run_experiment`` syncs each cache when a stage that ran
    returns, before the manifest commit lists its artifacts. Payload files
    and ``log/`` segments of older versions are ignored.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self._logs = SegmentLogs(self.root)

    def _meta_record(self, key: str) -> bytes | None:
        """The meta record served for ``key``: the first whose payload record
        is indexed. A key without a payload record reads no meta record."""
        payloads = self._logs[_DATA].crcs(key)
        if not payloads:
            return None
        return self._logs[_META].find(key, lambda record: _META_HEADER.unpack_from(record)[1] in payloads)

    def lookup(self, key: str) -> dict | None:
        """The meta of ``key``'s entry, or ``None`` on a miss."""
        record = self._meta_record(key)
        return None if record is None else json.loads(record[_META_HEADER.size:])

    def has(self, key: str) -> bool:
        return self.lookup(key) is not None

    def get(self, key: str, sha256: str | None = None) -> bytes:
        """The payload of ``key`` whose sha256 (hex) is ``sha256``, by default
        the one its meta names; :class:`CacheError` if no intact record is."""
        if sha256 is None:
            record = self._meta_record(key)
            if record is None:
                raise CacheError(f"cache miss for key {key}")
            digest, _ = _META_HEADER.unpack_from(record)
        else:
            digest = bytes.fromhex(sha256)
        payload = self._logs[_DATA].find(key, lambda data: hashlib.sha256(data).digest() == digest)
        if payload is None:
            raise CacheError(f"no intact record of key {key} has sha256 {digest.hex()}")
        return payload

    def get_meta(self, key: str) -> dict:
        if (meta := self.lookup(key)) is None:
            raise CacheError(f"missing cache metadata for key {key}")
        return meta

    def put(self, key: str, data: bytes, meta: dict) -> dict:
        """Store ``data`` and ``meta`` under ``key``; see :meth:`put_many`."""
        return self.put_many([(key, data, meta)])[0]

    def put_many(self, entries: Sequence[tuple[str, bytes, dict]]) -> list[dict]:
        """Store each ``(key, data, meta)`` unless its key has an entry, or
        came earlier in ``entries``: every payload record with one append,
        then every meta record with one. Returns each entry's meta as
        stored, an earlier writer's where there was one."""
        data_log, meta_log = self._logs[_DATA], self._logs[_META]
        first = {}  # key -> its first entry's (data, meta)
        for key, data, meta in entries:
            first.setdefault(key, (data, meta))
        with meta_log.write_lock:
            # a key without a payload record has no entry: no lookup
            stored = {key: self.lookup(key) if data_log.crcs(key) else None for key in first}
            fresh = [(key, data, meta) for key, (data, meta) in first.items() if stored[key] is None]
            crcs = data_log.append_many([(key, data) for key, data, _ in fresh])
            meta_log.append_many([
                (key, _META_HEADER.pack(hashlib.sha256(data).digest(), crc) + canonical_json(meta).encode("utf-8"))
                for (key, data, meta), crc in zip(fresh, crcs)
            ])
        stored.update((key, meta) for key, _, meta in fresh)
        return [stored[key] for key, _, _ in entries]

    def sync(self) -> None:
        """Make every entry put so far durable: payloads first, so a durable
        meta record never names a payload that is not."""
        self._logs.sync(_DATA, _META)

    def close(self) -> None:
        """Close the logs' segments; call it when no other thread uses the cache."""
        self._logs.close()
