"""Shared persistence: hashing, atomic writes, JSONL records, and the segment
log that every cache keeps its records in.

A :class:`SegmentLog` is one directory of append-only segment files. Each
record is checksummed, and each segment has one writing process, so writers
never share a file and need no lock across processes. The embedding cache
stores whole entries in it; :class:`ArtifactCache` (images, chat responses)
keeps each payload as a file of its own and stores the entry's meta record in
the log, stamped with the identity of that file.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import time
import weakref
import zlib
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


class CacheError(RuntimeError):
    pass


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj: Any) -> str:
    """Key-order-independent JSON used for hashing configs and cache keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def stable_key(obj: Any) -> str:
    return sha256_hex(canonical_json(obj).encode("utf-8"))


def atomic_write_bytes(path: str | Path, data: bytes, *,
                       mtime_ns: int | None = None) -> os.stat_result:
    """Write via a temp file in the same directory + rename, so readers never
    observe partial content. The temp name is unique per process and thread,
    so concurrent writers of one path never share a temp file. ``mtime_ns``,
    if given, becomes the file's modification time.

    Returns the file's stat, taken through the written descriptor after the
    rename: it describes these bytes even if another writer has replaced the
    path since.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        if mtime_ns is not None:
            os.utime(fh.fileno(), ns=(mtime_ns, mtime_ns))
        os.fsync(fh.fileno())
        os.replace(tmp, path)
        return os.fstat(fh.fileno())


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


# --- segment log -------------------------------------------------------------
# segment record: magic "ESG1" | sha256 of the key (32 bytes) |
#   uint32 LE payload length | uint32 LE crc32 of (digest, length, payload) | payload.

SEGMENT_MAGIC = b"ESG1"
SEGMENT_SUFFIX = ".seg"
_RECORD_HEADER = struct.Struct("<4s32sII")
_KEY_LOCKS = 64


def _record_crc(digest: bytes, length: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(digest + length.to_bytes(4, "little")))


def _close_segments(segments: dict[str, list[int]]) -> None:
    for fd, _ in segments.values():
        os.close(fd)
    segments.clear()


class SegmentLog:
    """The segments of one directory and an index over their records.

    Layout: segment files ``<creation time ns>-<pid>.seg``, each a sequence of
    records ``magic "ESG1" | sha256 of the key (32 bytes) | uint32 length |
    uint32 crc32 | payload``; the crc covers the digest, the length and the
    payload. Other files in the directory are ignored.

    Writes: each process lazily creates a segment of its own (``O_EXCL``) and
    only ever appends to that one, with one ``os.write`` per record; threads
    share it under a lock. A record is durable after :meth:`sync`, which
    fsyncs each segment written since the last sync.

    Reads: opening scans the segments header by header into a key digest ->
    records index, in order: oldest segment first, then append order. A
    lookup that finds no record it accepts indexes the bytes appended since
    the last scan and tries again, so records of other processes become
    visible.

    Recovery: a scan stops at a segment's first record that is short or has
    a bad magic, and resumes there next time, so a torn tail is a miss and a
    record another process is still writing is picked up once complete. A
    record that fails its crc on read is dropped from the index. A writer
    never appends after a torn record: after a short write the next append
    starts a new segment.

    ``_segments`` maps a segment's file name to ``[fd, bytes indexed]`` and
    ``_index`` a key digest to its records' ``(fd, payload offset, length,
    crc)``. The descriptors are closed by :meth:`close`, or when the log is
    collected.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._key_locks = [threading.Lock() for _ in range(_KEY_LOCKS)]
        self._segments: dict[str, list[int]] = {}
        self._index: dict[bytes, tuple[tuple[int, int, int, int], ...]] = {}
        self._own: list[int] | None = None  # the segment this process appends to
        self._unsynced: set[int] = set()
        self._finalizer = weakref.finalize(self, _close_segments, self._segments)
        with self._lock:
            self._refresh()

    def _refresh(self) -> None:
        """Index the records appended since the last scan; the caller holds the lock."""
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
                self._add(digest, (fd, pos + _RECORD_HEADER.size, length, crc))
                pos = end
            segment[1] = pos

    def _add(self, digest: bytes, location: tuple[int, int, int, int]) -> None:
        self._index[digest] = (*self._index.get(digest, ()), location)

    def find(self, key: str, accept: Callable[[bytes], bool] | None = None) -> bytes | None:
        """The payload of the first intact record of ``key`` that ``accept``
        takes (any, by default), or ``None``."""
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        tried = set()
        for rescan in (False, True):
            if rescan:
                with self._lock:
                    self._refresh()
            for location in self._index.get(digest, ()):
                if location in tried:
                    continue
                tried.add(location)
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

    def append(self, key: str, payload: bytes, *, once: bool = False) -> None:
        """Append one record of ``key``; with ``once``, only if none is indexed."""
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        length = len(payload)
        crc = _record_crc(digest, length, payload)
        record = _RECORD_HEADER.pack(SEGMENT_MAGIC, digest, length, crc) + payload
        with self._lock:
            if once and self._index.get(digest):
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
                self._own = None  # never append after a torn tail: the next append starts a new segment
                raise CacheError(f"short write to the segment in {self.directory}")
            self._own[1] = offset + len(record)
            self._add(digest, (fd, offset + _RECORD_HEADER.size, length, crc))

    def key_lock(self, key: str) -> threading.Lock:
        """A lock for this process's writers of ``key``, shared with a few other keys."""
        return self._key_locks[hash(key) % _KEY_LOCKS]

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

    def sync(self) -> None:
        for log in list(self._logs.values()):
            log.sync()

    def close(self) -> None:
        """Close every log; call it when no other thread uses them."""
        logs, self._logs = self._logs, {}
        for log in logs.values():
            log.close()


# --- artifact cache ------------------------------------------------------------
# meta record: stamp of the payload file (uint64 LE inode | uint64 LE size |
#   int64 LE mtime ns) | sha256 of the payload (32 bytes) | the meta as canonical JSON.

_STAMP = struct.Struct("<QQq")
_META_AT = _STAMP.size + 32
_META_LOG = "log"


def _stamp(st: os.stat_result) -> bytes:
    return _STAMP.pack(st.st_ino, st.st_size, st.st_mtime_ns)


class ArtifactCache:
    """Content-addressed, write-once artifact store.

    Each entry is a payload file ``<root>/<first2-of-key>/<key><suffix>``,
    written atomically (temp file, fsync, rename), plus a meta record in the
    segment log ``<root>/log/``. The record holds the stamp (inode, size,
    mtime to the nanosecond, which :meth:`put` sets) of the payload file it
    was written for and the sha256 of its bytes. An entry is the record that
    matches its payload file as it is now: by stamp, which makes :meth:`has`
    one ``stat`` plus an index lookup, or else, for a payload that was
    copied and so has a new inode, by the sha256 of its bytes. So the meta an
    entry returns always describes the bytes at its payload path, whichever
    writer's rename came last. A payload without a matching record (a crash
    between the two writes, or a lost race), a deleted payload and a torn or
    bad-crc record are all misses, and the next :meth:`put` writes a fresh
    payload and record. ``.meta`` files of older versions are ignored.

    :meth:`put` writes the payload before it appends the record and never
    replaces a complete entry, so a retry after a crash is idempotent; the
    threads of one process put a key one at a time. Records are durable
    after :meth:`sync`; payloads are fsynced as they are written.
    """

    def __init__(self, root: Path, suffix: str = ".bin"):
        self.root = Path(root)
        self.suffix = suffix
        self._logs = SegmentLogs(self.root)
        # str(self.root / x), spelled as a string join: "." joins as nothing
        self._prefix = "" if str(self.root) == "." else os.path.join(str(self.root), "")

    def path_for(self, key: str) -> Path:
        return Path(self._payload_path(key))

    def _payload_path(self, key: str) -> str:
        """``str(path_for(key))``, without building a ``Path`` on every lookup."""
        return f"{self._prefix}{key[:2]}/{key}{self.suffix}"

    def _meta_record(self, key: str) -> bytes | None:
        """The meta JSON of the record that matches the payload file as it is now."""
        path = self._payload_path(key)
        try:
            stamp = _stamp(os.stat(path))
        except FileNotFoundError:
            return None
        log = self._logs[_META_LOG]
        record = log.find(key, lambda payload: payload.startswith(stamp))
        if record is None:
            try:
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).digest()
            except FileNotFoundError:
                return None
            record = log.find(key, lambda payload: payload[_STAMP.size:_META_AT] == digest)
        return None if record is None else record[_META_AT:]

    def has(self, key: str) -> bool:
        return self._meta_record(key) is not None

    def get(self, key: str) -> bytes:
        try:
            with open(self._payload_path(key), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise CacheError(f"cache miss for key {key}") from None

    def get_meta(self, key: str) -> dict:
        record = self._meta_record(key)
        if record is None:
            raise CacheError(f"missing cache metadata for key {key}")
        return json.loads(record)

    def put(self, key: str, data: bytes, meta: dict) -> dict:
        """Store ``data`` and ``meta`` under ``key`` unless the entry exists;
        returns the entry's meta as stored, an earlier writer's if it did."""
        log = self._logs[_META_LOG]
        with log.key_lock(key):
            record = self._meta_record(key)
            if record is not None:
                return json.loads(record)
            # an mtime to the nanosecond: a payload that reuses the inode of a
            # deleted one still gets a stamp of its own
            written = atomic_write_bytes(self._payload_path(key), data, mtime_ns=time.time_ns())
            digest = hashlib.sha256(data).digest()
            log.append(key, _stamp(written) + digest + canonical_json(meta).encode("utf-8"))
            return meta

    def sync(self) -> None:
        """Make every record put so far durable."""
        self._logs.sync()

    def close(self) -> None:
        """Close the log's segments; call it when no other thread uses the cache."""
        self._logs.close()
