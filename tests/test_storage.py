import ast
import collections
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import signal
import sys
import threading
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from t2ifuse import storage
from t2ifuse.embedding import EmbeddingCache, HashProjectionProvider, embed_text, encode_vec_payload
from t2ifuse.storage import ArtifactCache, CacheError, atomic_write_bytes, sha256_hex

# The crash tests fork on purpose: a child that inherits a live cache must
# start a segment of its own.
FORK = multiprocessing.get_context("fork")
TEXTS = ["a red kettle", "a blue kettle", "a green kettle"]


def _segments(root):
    return sorted((root / "hash-8").glob("*.seg"))


def _assert_same(got, expected):
    (vec, tokens), (vec_expected, tokens_expected) = got, expected
    assert vec.tobytes() == vec_expected.tobytes()
    assert tokens.tobytes() == tokens_expected.tobytes()


def test_a_flipped_payload_byte_is_a_miss_that_the_next_put_repairs(tmp_path):
    provider = HashProjectionProvider("hash-8", 8)
    cache = EmbeddingCache(tmp_path / "emb")
    first = embed_text("a red kettle", provider, cache)
    [segment] = _segments(tmp_path / "emb")
    with open(segment, "r+b") as fh:  # one bit of the payload's last float rots on disk
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 0x01]))

    for _ in range(3):
        _assert_same(embed_text("a red kettle", provider, cache), first)
    assert provider.calls == 2  # one miss re-encodes; the record it appends makes later calls hits
    fresh = EmbeddingCache(tmp_path / "emb")
    _assert_same(embed_text("a red kettle", provider, fresh), first)
    assert provider.calls == 2  # a fresh store skips the corrupt record for the repaired one
    cache.close()
    fresh.close()


def test_a_torn_tail_is_a_miss_that_a_new_segment_repairs(tmp_path):
    provider = HashProjectionProvider("hash-8", 8)
    cache = EmbeddingCache(tmp_path / "emb")
    first = [embed_text(text, provider, cache) for text in TEXTS]
    cache.sync()
    cache.close()
    [segment] = _segments(tmp_path / "emb")
    torn = segment.read_bytes()[:-5]  # a crash mid-write, or a disk that lost the tail
    segment.write_bytes(torn)

    cache = EmbeddingCache(tmp_path / "emb")
    for text, expected in zip(TEXTS, first):
        _assert_same(embed_text(text, provider, cache), expected)
    assert provider.calls == 4  # the two whole records are hits, the torn one is one encode
    segments = _segments(tmp_path / "emb")
    assert len(segments) == 2 and segments[0].read_bytes() == torn  # never appended after the tear
    cache.close()

    fresh = EmbeddingCache(tmp_path / "emb")
    for text, expected in zip(TEXTS, first):
        _assert_same(embed_text(text, provider, fresh), expected)
    assert provider.calls == 4  # ... and the repair is a hit for the next store
    fresh.close()


def _put_then_hang(cache, texts, done):
    provider = HashProjectionProvider("hash-8", 8)
    for text in texts:
        embed_text(text, provider, cache)
    done.set()
    time.sleep(60)  # killed before it ever syncs


def test_a_killed_writer_keeps_its_completed_records_and_no_one_appends_to_it(tmp_path):
    provider = HashProjectionProvider("hash-8", 8)
    cache = EmbeddingCache(tmp_path / "emb")
    embed_text("the parent's own text", provider, cache)
    [parent_segment] = _segments(tmp_path / "emb")
    texts = [f"child text number {i}" for i in range(20)]

    done = FORK.Event()
    child = FORK.Process(target=_put_then_hang, args=(cache, texts, done))
    child.start()
    try:
        assert done.wait(30)
    finally:
        os.kill(child.pid, signal.SIGKILL)
        child.join(10)
    assert not child.is_alive() and child.exitcode == -signal.SIGKILL
    [child_segment] = set(_segments(tmp_path / "emb")) - {parent_segment}
    child_bytes = child_segment.read_bytes()

    reference, fresh = HashProjectionProvider("hash-8", 8), EmbeddingCache(tmp_path / "emb")
    for text in texts:
        _assert_same(embed_text(text, provider, fresh), embed_text(text, reference))
    assert provider.calls == 1  # every record the child completed is a hit for a store opened after it
    embed_text("another parent text", provider, cache)
    assert provider.calls == 2
    assert child_segment.read_bytes() == child_bytes  # the parent appended to its own segment
    assert _segments(tmp_path / "emb") == sorted([parent_segment, child_segment])
    cache.close()
    fresh.close()


def _put_one_value(root, key, value, start):
    cache = EmbeddingCache(root)
    assert cache.get("hash-8", key) is None  # both writers miss before either puts
    start.wait(10)
    cache.put_many("hash-8", [(key, np.full(8, value, np.float32), np.full((2, 8), value, np.float32))])
    cache.sync()
    cache.close()


def test_two_processes_putting_one_key_leave_one_value_per_store(tmp_path):
    root, key = tmp_path / "emb", "k" * 64
    payloads = {
        encode_vec_payload(np.full(8, v, np.float32), np.full((2, 8), v, np.float32))
        for v in (1.0, 2.0)
    }
    reader = EmbeddingCache(root)
    assert reader.get("hash-8", key) is None  # indexed before either writer starts

    start = FORK.Barrier(2)
    writers = [FORK.Process(target=_put_one_value, args=(root, key, v, start)) for v in (1.0, 2.0)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(30)
    assert [w.exitcode for w in writers] == [0, 0]
    oldest, newer = _segments(root)  # both appended: neither had seen the other's record

    assert reader.get("hash-8", key) is None  # opened before the writers, and a miss never rescans
    fresh, again = EmbeddingCache(root), EmbeddingCache(root)
    seen = encode_vec_payload(*fresh.get("hash-8", key))
    assert seen in payloads and seen in oldest.read_bytes()  # the oldest segment's record wins
    for store in (fresh, fresh, again):
        assert encode_vec_payload(*store.get("hash-8", key)) == seen
    for store in (reader, fresh, again):
        store.close()


def test_a_store_lists_its_directory_once_and_a_miss_never_rescans(tmp_path, monkeypatch):
    root = tmp_path / "emb"
    listed = []
    listdir = os.listdir

    def recording_listdir(path):
        listed.append(os.fspath(path))
        return listdir(path)

    monkeypatch.setattr(os, "listdir", recording_listdir)
    provider = HashProjectionProvider("hash-8", 8)
    writer, reader = EmbeddingCache(root), EmbeddingCache(root)
    assert reader.get("hash-8", "0" * 64) is None  # the reader indexes an empty log
    written = [embed_text(text, provider, writer) for text in TEXTS]
    for text in TEXTS:  # appended after the reader's scan: misses, and none rescans
        assert reader.get("hash-8", sha256_hex(text.encode("utf-8"))) is None
    assert [p for p in listed if p.startswith(str(root))] == [str(root / "hash-8")] * 2

    fresh = EmbeddingCache(root)  # a store opened after the appends sees them
    for text, expected in zip(TEXTS, written):
        _assert_same(embed_text(text, provider, fresh), expected)
    assert provider.calls == len(TEXTS)
    for store in (writer, reader, fresh):
        store.close()


def test_threads_sharing_a_store_append_each_key_once_to_one_segment(tmp_path):
    cache = EmbeddingCache(tmp_path / "emb")
    keys = [f"{i:064x}" for i in range(50)]
    start = threading.Barrier(8)
    errors = []

    def worker():
        start.wait()
        try:
            for key in keys:
                if cache.get("hash-8", key) is None:
                    values = np.full(8, int(key, 16), np.float32)
                    cache.put_many("hash-8", [(key, values, values[None, :])])
        except Exception as exc:  # reported below; a thread's exception is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    [segment] = _segments(tmp_path / "emb")  # one segment, however many threads raced to create it
    payload = encode_vec_payload(np.zeros(8, np.float32), np.zeros((1, 8), np.float32))
    record = 4 + 32 + 4 + 4 + len(payload)  # magic, key digest, length, crc, payload
    assert segment.stat().st_size == len(keys) * record  # and one record per key
    for key in keys:
        pooled, tokens = cache.get("hash-8", key)
        assert pooled.tobytes() == np.full(8, int(key, 16), np.float32).tobytes()
    cache.close()


def test_put_never_overwrites_an_existing_file(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    cache.put("k1", b"first", {"n": 1})
    cache.put("k1", b"second", {"n": 2})
    assert cache.get("k1") == b"first"
    assert cache.get_meta("k1") == {"n": 1}
    cache.close()


def _meta_of(data):
    return {"content_hash": sha256_hex(data)}


def _assert_record_matches_payload(cache, key):
    assert cache.has(key)
    assert cache.get_meta(key)["content_hash"] == sha256_hex(cache.get(key))


def _scanned_store(root):
    """A store that has indexed its logs before any writer of the tested key starts."""
    cache = ArtifactCache(root)
    cache.put("unrelated", b"x", _meta_of(b"x"))
    return cache


def _records(segment):
    """The whole records at the start of a segment file, as ``(key digest,
    crc intact)``, and the count of bytes after them."""
    data, pos, records = segment.read_bytes(), 0, []
    header = storage._RECORD_HEADER
    while pos + header.size <= len(data):
        magic, digest, length, crc = header.unpack_from(data, pos)
        end = pos + header.size + length
        if magic != storage.SEGMENT_MAGIC or end > len(data):
            break
        records.append((digest, storage._record_crc(digest, length, data[pos + header.size:end]) == crc))
        pos = end
    return records, len(data) - pos


def test_threads_putting_the_same_keys_leave_one_record_of_the_bytes_on_disk(tmp_path):
    root, keys = tmp_path / "c", [f"{i:064x}" for i in range(30)]
    cache = ArtifactCache(root)
    start = threading.Barrier(8)
    returned = {key: [] for key in keys}
    errors = []

    def writer(n):
        start.wait()
        try:
            for key in keys:
                data = b"thread %d, key %s" % (n, key.encode())
                returned[key].append(cache.put(key, data, _meta_of(data)))
        except Exception as exc:  # reported below; a thread's exception is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    cache.sync()
    fresh = ArtifactCache(root)
    for key in keys:
        # every put of a key after the first found its entry and returned it
        assert len(returned[key]) == 8 and all(meta == cache.get_meta(key) for meta in returned[key])
        for store in (cache, fresh):
            _assert_record_matches_payload(store, key)
    digests = sorted(storage._key_digest(key) for key in keys)
    for log in ("data", "meta"):
        [segment] = (root / log).glob("*.seg")  # one segment per log, and one record per key in it
        records, tail = _records(segment)
        assert sorted(digest for digest, intact in records if intact) == digests and tail == 0
    for store in (cache, fresh):
        store.close()


def _put_after_both_missed(cache, key, data, missed):
    assert not cache.has(key)  # this child's own index, taken before either writer puts
    missed.wait(10)
    cache.put(key, data, _meta_of(data))
    cache.sync()
    cache.close()


def test_two_processes_putting_one_key_leave_one_record_of_the_bytes_on_disk(tmp_path):
    """A lost race: each writer's bytes keep one payload record of their own,
    and each reader asks for its own sha256."""
    root, key = tmp_path / "c", "k" * 64
    old = _scanned_store(root)  # both writers inherit it, live, through fork
    missed = FORK.Barrier(2)
    writers = [
        FORK.Process(target=_put_after_both_missed, args=(old, key, data, missed))
        for data in (b"process a", b"process b")
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(30)
    assert [w.exitcode for w in writers] == [0, 0]
    assert len(list((root / "meta").glob("*.seg"))) == 3  # the old store's and one per writer
    payloads = [digest for segment in (root / "data").glob("*.seg") for digest, _ in _records(segment)[0]]
    assert payloads.count(storage._key_digest(key)) == 2  # one of each writer's bytes, neither replaced

    fresh = ArtifactCache(root)
    for data in (b"process a", b"process b"):
        assert fresh.get(key, sha256=sha256_hex(data)) == data
    _assert_record_matches_payload(fresh, key)
    assert fresh.get_meta(key) in (_meta_of(b"process a"), _meta_of(b"process b"))
    assert not old.has(key)  # opened before the race, and a miss never rescans
    old.close()
    fresh.close()


def test_a_copied_cache_serves_its_entries_by_their_bytes(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    for n in range(3):
        cache.put(f"k{n}", b"payload %d" % n, {"n": n})
    cache.sync()
    cache.close()
    shutil.copytree(tmp_path / "c", tmp_path / "copy")
    [segment] = (tmp_path / "copy" / "data").glob("*.seg")
    rotted = bytearray(segment.read_bytes())
    rotted[-1] ^= 0x01  # one bit of k2's payload, the last record, rots in the copy
    segment.write_bytes(bytes(rotted))

    copy = ArtifactCache(tmp_path / "copy")
    assert [copy.get_meta(f"k{n}") for n in range(3)] == [{"n": 0}, {"n": 1}, {"n": 2}]
    assert [copy.get(f"k{n}") for n in range(2)] == [b"payload 0", b"payload 1"]
    with pytest.raises(CacheError, match=sha256_hex(b"payload 2")):
        copy.get("k2")  # its crc fails, so the record leaves the index ...
    assert not copy.has("k2")  # ... and the entry is a miss that the next put repairs
    assert copy.put("k2", b"payload 2", {"n": 2}) == {"n": 2} and copy.get("k2") == b"payload 2"
    copy.close()


class _Crash(Exception):
    """The process dies here."""


def test_a_crash_at_any_write_or_fsync_of_a_put_leaves_a_store_that_serves_and_repairs(
        tmp_path, monkeypatch):
    entries = {key: b"the bytes of " + key.encode() for key in ("k0", "k1", "k2", "k3", "k4", "k5")}

    def puts(store):
        for key in ("k0", "k1"):
            store.put(key, entries[key], {"key": key})
        store.sync()
        store.put("k2", entries["k2"], {"key": "k2"})
        store.put("k0", b"other bytes", {"key": "other"})  # the entry exists: appends nothing
        store.sync()
        # three records in each log, one write each; k0 exists and is skipped
        store.put_many([(key, entries[key], {"key": key}) for key in ("k3", "k0", "k4", "k5")])
        store.sync()

    write, fsync = os.write, os.fsync

    def seams(crash_at, torn, calls):
        """``os.write`` and ``os.fsync`` that log each call and raise at the
        ``crash_at``-th; a torn write first writes half its bytes."""
        def seam_write(fd, data):
            calls.append(("write", 0))
            if len(calls) == crash_at:
                if torn:
                    calls[-1] = ("write", write(fd, data[: len(data) // 2]))
                raise _Crash
            return write(fd, data)

        def seam_fsync(fd):
            calls.append(("fsync", 0))
            if len(calls) == crash_at:
                raise _Crash
            return fsync(fd)

        return seam_write, seam_fsync

    def run(root, crash_at, torn):
        calls = []
        store = ArtifactCache(root)
        seam_write, seam_fsync = seams(crash_at, torn, calls)
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", seam_write)
            patch.setattr(os, "fsync", seam_fsync)
            try:
                puts(store)
            except _Crash:
                pass
        return store, calls

    store, kinds = run(tmp_path / "uncrashed", 0, False)
    store.close()
    crashes = [(k, False) for k in range(1, len(kinds) + 1)]
    crashes += [(k, True) for k, (kind, _) in enumerate(kinds, 1) if kind == "write"]
    torn_after_whole_records = 0
    for crash_at, torn in crashes:
        root = tmp_path / f"crash-{crash_at}-{torn}"
        crashed, calls = run(root, crash_at, torn)
        assert len(calls) == crash_at
        tails = {}  # each segment with bytes after its whole records: the torn write's
        for segment in root.glob("*/*.seg"):
            records, tail = _records(segment)
            assert all(intact for _, intact in records)
            if tail:
                assert tail <= calls[-1][1]  # the torn write's bytes after its last whole record
                tails[segment] = segment.read_bytes()
                torn_after_whole_records += tail < calls[-1][1]
        assert len(tails) == torn
        reopened = ArtifactCache(root)
        for key, data in entries.items():
            if reopened.has(key):  # every meta served names an intact payload of its sha256
                assert reopened.get_meta(key) == {"key": key} and reopened.get(key) == data
        for store in (crashed, reopened):  # a writer that survived the failed call, and a new one
            for key, data in entries.items():  # a second put of every key succeeds
                assert store.put(key, data, {"key": key}) == {"key": key} and store.get(key) == data
            store.sync()
            store.close()
        for segment in root.glob("*/*.seg"):
            records, tail = _records(segment)
            assert all(intact for _, intact in records)
            if segment in tails:  # nothing was appended after the tear
                assert segment.read_bytes() == tails[segment]
            else:
                assert tail == 0
    # 14 calls: 8 writes (one per log for each of the three single puts and
    # the put_many) and 6 fsyncs; each a clean crash, and each write torn too
    assert len(kinds) == 14 and len(crashes) == 22
    assert torn_after_whole_records == 2  # the put_many's two writes tear after a whole record


def test_concurrent_writers_of_one_path_use_their_own_temp_files(tmp_path):
    path = tmp_path / "shared.bin"
    payloads = [bytes([i]) * 4096 for i in range(4)]
    errors = []
    start = threading.Barrier(len(payloads))

    def writer(data):
        start.wait()
        try:
            for _ in range(50):
                atomic_write_bytes(path, data)
        except OSError as exc:  # a shared temp name gets renamed away under a writer
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert path.read_bytes() in payloads
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shared.bin"]


# --- reads of damaged logs ------------------------------------------------------


def _log_with(directory, *segments):
    """Write each list of ``(key, payload)`` as a segment of its own, oldest first."""
    for records in segments:
        log = storage.SegmentLog(directory)
        log.append_many(records)
        log.close()


def _flip_payload_byte(segment, key, payload):
    """Rot one bit of the record of ``key`` whose payload is ``payload``."""
    data = bytearray(segment.read_bytes())
    at = data.index(storage._key_digest(key)) + 32 + 8 + len(payload) - 1
    data[at] ^= 0x01
    segment.write_bytes(bytes(data))


def _absent_and_out_of_order(root):
    _log_with(root, [(f"k{n}", b"payload %d" % n) for n in range(5)])
    return ["k3", "absent", "k0", "k1", "k2", "k4", "k4"], [
        b"payload 3", None, b"payload 0", b"payload 1", b"payload 2", b"payload 4", b"payload 4"]


def _one_key_in_two_segments(root):
    _log_with(root, [("k0", b"old"), ("k1", b"one")], [("k0", b"new"), ("k2", b"two")])
    return ["k0", "k1", "k2"], [b"old", b"one", b"two"]


def _a_crc_flipped_first_record(root):
    _log_with(root, [("k0", b"zero"), ("k1", b"rotten"), ("k2", b"two")], [("k1", b"repair")])
    _flip_payload_byte(sorted(root.glob("*.seg"))[0], "k1", b"rotten")
    return ["k0", "k1", "k2"], [b"zero", b"repair", b"two"]


def _a_torn_tail(root):
    _log_with(root, [("k0", b"zero"), ("k1", b"one"), ("k2", b"two")])
    [segment] = root.glob("*.seg")
    segment.write_bytes(segment.read_bytes()[:-2])
    return ["k0", "k1", "k2"], [b"zero", b"one", None]


@pytest.mark.parametrize("case", [_absent_and_out_of_order, _one_key_in_two_segments,
                                  _a_crc_flipped_first_record, _a_torn_tail])
def test_find_serves_each_keys_first_intact_record(tmp_path, monkeypatch, case):
    keys, expected = case(tmp_path / "log")
    log = storage.SegmentLog(tmp_path / "log")
    reads, pread = [], os.pread
    monkeypatch.setattr(os, "pread", lambda fd, length, offset: reads.append(length) or pread(fd, length, offset))
    try:
        assert [log.find(key) for key in keys] == expected
        reads.clear()
        assert [log.find(key) for key in keys] == expected  # again, after any corrupt record left the index
        assert len(reads) == sum(payload is not None for payload in expected)  # one read per hit
        if case is _a_crc_flipped_first_record:
            assert len(log.crcs("k1")) == 1
    finally:
        log.close()


def test_lookups_and_gets_serve_what_a_damaged_cache_still_holds(tmp_path):
    root = tmp_path / "c"
    # an older meta record of k1 names a payload record that no segment holds
    _log_with(root / "meta", [("k1", storage._META_HEADER.pack(bytes(32), 12345) + b'{"n":-1}')])
    cache = ArtifactCache(root)
    cache.put_many([(f"k{n}", b"payload %d" % n, {"n": n}) for n in range(4)])
    cache.close()
    [data] = (root / "data").glob("*.seg")
    data.write_bytes(data.read_bytes()[:-1])  # k3's payload record is torn: its meta names no record
    cache = ArtifactCache(root)
    try:
        assert [cache.lookup(key) for key in ["k3", "k1", "absent", "k0", "k2", "k1"]] == [
            None, {"n": 1}, None, {"n": 0}, {"n": 2}, {"n": 1}]
        assert [cache.get(key) for key in ["k1", "k0", "k2"]] == [b"payload 1", b"payload 0", b"payload 2"]
        for key in ("k3", "absent"):
            with pytest.raises(CacheError):
                cache.get(key)
    finally:
        cache.close()

    provider = HashProjectionProvider("hash-8", 8)
    writer = EmbeddingCache(tmp_path / "emb")
    for text in TEXTS:
        embed_text(text, provider, writer)
    writer.close()
    [segment] = _segments(tmp_path / "emb")
    segment.write_bytes(segment.read_bytes()[:-1])  # the last text's record is torn
    cache = EmbeddingCache(tmp_path / "emb")
    try:
        for text, kept in zip(reversed(TEXTS), (False, True, True)):
            got = cache.get("hash-8", sha256_hex(text.encode("utf-8")))
            if kept:
                _assert_same(got, embed_text(text, provider))
            else:
                assert got is None
        assert cache.get("hash-8", "0" * 64) is None
    finally:
        cache.close()


# --- the index against a reference model ------------------------------------------


def _whole_records(segment):
    """``(key digest, crc, payload, intact)`` of each whole record at the
    start of a segment file, read from the format alone."""
    data, pos, records = segment.read_bytes(), 0, []
    while pos + 44 <= len(data):
        magic, digest, length = data[pos:pos + 4], data[pos + 4:pos + 36], data[pos + 36:pos + 40]
        crc = int.from_bytes(data[pos + 40:pos + 44], "little")
        end = pos + 44 + int.from_bytes(length, "little")
        if magic != b"ESG1" or end > len(data):
            break
        payload = data[pos + 44:end]
        records.append((digest, crc, payload, zlib.crc32(digest + length + payload) == crc))
        pos = end
    return records


def _on_disk(directory):
    """Key digest -> ``[crc, payload, intact]`` of each whole record in the
    directory's segments, oldest segment first, then file order: the
    records a freshly opened log indexes."""
    model = {}
    for segment in sorted(directory.glob("*.seg")):
        for digest, crc, payload, intact in _whole_records(segment):
            model.setdefault(digest, []).append([crc, payload, intact])
    return model


def _model_find(model, digest):
    """The first intact record's payload; the corrupt records read before it
    leave the model, as they leave the index."""
    records = model.get(digest, [])
    while records:
        crc, payload, intact = records[0]
        if intact:
            return payload
        records.pop(0)
    return None


def _assert_matches(log, model, keys):
    for key in keys:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        assert log.crcs(key) == {crc for crc, _, _ in model.get(digest, [])}, key
        assert log.find(key) == _model_find(model, digest), key
        assert log.crcs(key) == {crc for crc, _, _ in model.get(digest, [])}, key


def _damage(directory, rng):
    """Tear a random segment's tail, or flip a byte of a random record's
    payload; returns which."""
    segment = rng.choice(sorted(directory.glob("*.seg")))
    data = bytearray(segment.read_bytes())
    if rng.random() < 0.5:
        segment.write_bytes(bytes(data[:len(data) - rng.randint(1, min(len(data), 60))]))
        return "torn"
    starts, pos = [], 0
    for _, _, payload, _ in _whole_records(segment):
        if payload:
            starts.append((pos + 44, len(payload)))
        pos += 44 + len(payload)
    if not starts:
        return None
    start, length = rng.choice(starts)
    data[start + rng.randrange(length)] ^= 1 << rng.randrange(8)
    segment.write_bytes(bytes(data))
    return "flipped"


def test_find_and_crcs_agree_with_a_model_built_from_the_segments(tmp_path):
    seen = {"torn": 0, "flipped": 0, "two segments": 0}
    for seed in range(12):
        rng, directory = random.Random(seed), tmp_path / f"log{seed}"
        keys = [f"k{n}" for n in range(12)] + ["absent"]
        for _ in range(5):
            model = _on_disk(directory)
            log = storage.SegmentLog(directory)
            try:
                _assert_matches(log, model, rng.sample(keys, len(keys)))
                for _ in range(rng.randint(1, 4)):
                    once = rng.random() < 0.3
                    batch = [(rng.choice(keys[:-1]), rng.randbytes(rng.randint(0, 90)))
                             for _ in range(rng.randint(1, 8))]
                    expected, taken = [], set()
                    for key, payload in batch:
                        digest = hashlib.sha256(key.encode("utf-8")).digest()
                        if once and (key in taken or model.get(digest)):
                            expected.append(None)
                            continue
                        taken.add(key)
                        crc = zlib.crc32(digest + len(payload).to_bytes(4, "little") + payload)
                        model.setdefault(digest, []).append([crc, payload, True])
                        expected.append(crc)
                    assert log.append_many(batch, once=once) == expected
                    _assert_matches(log, model, rng.sample(keys, rng.randint(1, len(keys))))
            finally:
                log.close()
            damage = _damage(directory, rng)
            if damage:
                seen[damage] += 1
        holders = collections.Counter(
            digest for segment in directory.glob("*.seg") for digest in {r[0] for r in _whole_records(segment)})
        seen["two segments"] += any(n > 1 for n in holders.values())
        model = _on_disk(directory)
        log = storage.SegmentLog(directory)
        try:
            _assert_matches(log, model, keys)
        finally:
            log.close()
    assert all(seen.values()), seen  # every case came up


# --- regression guards ------------------------------------------------------------


def test_the_index_costs_at_most_180_bytes_a_record(tmp_path):
    records = 20_000
    _log_with(tmp_path / "log", [(f"key{n}", b"payload") for n in range(records)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = storage.SegmentLog(tmp_path / "log")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    try:
        assert log.find("key0") == log.find(f"key{records - 1}") == b"payload"
    finally:
        log.close()
    assert held / records <= 180


def test_each_cache_call_hashes_each_key_once(tmp_path, monkeypatch):
    hashed, key_digest = [], storage._key_digest
    monkeypatch.setattr(storage, "_key_digest", lambda key: hashed.append(key) or key_digest(key))

    def hashes(call, *args, **kwargs):
        hashed.clear()
        call(*args, **kwargs)
        return sorted(hashed)

    cache, keys = ArtifactCache(tmp_path / "c"), ["k0", "k1", "k2"]
    emb = EmbeddingCache(tmp_path / "emb")
    vectors = (np.zeros(4, np.float32), np.zeros((1, 4), np.float32))
    try:
        entries = [(key, key.encode(), {"key": key}) for key in keys]
        assert hashes(cache.put_many, entries + entries[:1]) == keys  # fresh keys, one repeated
        assert hashes(cache.put_many, entries) == keys  # each with an entry
        for key in (*keys, "absent"):
            assert hashes(cache.lookup, key) == [key]
        for key in keys:
            assert hashes(cache.get, key) == [key]
            assert hashes(cache.get, key, sha256=sha256_hex(key.encode())) == [key]
        assert hashes(emb.put_many, "p", [(key, *vectors) for key in keys]) == keys
        for key in (*keys, "absent"):
            assert hashes(emb.get, "p", key) == [key]
    finally:
        cache.close()
        emb.close()


# --- canonical JSON ------------------------------------------------------------

_ALPHABET = ["a", "Z", "0", " ", '"', "\\", "/", "\x00", "\x01", "\x1f", "\x7f", "\n", "\t",
             "é", "ß", "日本", " ", "\ud800", "😀"]
_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-05, 1e16, 5e-324, 0.1, -2.5e300]


def _text(rng):
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(6)))


def _json_tree(rng, depth=0):
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, -1, 2**64 + rng.randrange(10**6), -(2**70), rng.randrange(-10**9, 10**9)])
    if kind == 2:
        return rng.choice(_FLOATS + [rng.uniform(-1e6, 1e6)])
    if kind == 3:
        return _text(rng)
    if kind == 4:
        return [_json_tree(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 5:
        return tuple(_json_tree(rng, depth + 1) for _ in range(rng.randrange(3)))
    return {_text(rng): _json_tree(rng, depth + 1) for _ in range(rng.randrange(6))}  # keys unsorted


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def test_canonical_json_writes_what_json_dumps_writes():
    rng = random.Random(20)
    trees = [_json_tree(rng) for _ in range(2000)] + _FLOATS + [True, 2**64, {"b": {"d": 1, "c": [2]}, "a": 0}]
    for tree in trees:
        assert storage.canonical_json(tree) == _dumps(tree)


def test_threads_encoding_at_once_each_get_what_json_dumps_writes():
    trees = [[_json_tree(random.Random(1000 * t + n)) for n in range(200)] for t in range(8)]
    start, errors = threading.Barrier(8), []

    def encode(own):
        start.wait()
        for _ in range(5):
            if [storage.canonical_json(tree) for tree in own] != [_dumps(tree) for tree in own]:
                errors.append("mismatch")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode, args=(own,)) for own in trees]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []


def test_canonical_json_rejects_what_it_cannot_write_and_keeps_no_state():
    shared = {"x": [1, 2]}
    items = [shared, object()]
    with pytest.raises(TypeError):
        storage.canonical_json(items)
    items.pop()  # the list that failed, encoded again: an error leaves no marker behind
    assert storage.canonical_json(items) == _dumps(items) == '[{"x":[1,2]}]'
    assert storage.canonical_json([shared, shared]) == '[{"x":[1,2]},{"x":[1,2]}]'
    circular = []
    circular.append(circular)
    with pytest.raises((ValueError, RecursionError)):
        storage.canonical_json(circular)
    loop = {"a": {}}
    loop["a"]["b"] = loop
    with pytest.raises((ValueError, RecursionError)):
        storage.canonical_json(loop)


def test_no_module_but_storage_writes_compact_sorted_json_itself():
    """Compact sorted JSON has one encoder, ``storage.canonical_json``."""
    package = Path(storage.__file__).parent
    own = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "storage.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.keyword) and node.arg == "separators":
                try:
                    compact = ast.literal_eval(node.value) in ((",", ":"), [",", ":"])
                except ValueError:  # computed separators may be the compact ones
                    compact = True
                if compact:
                    own.append(f"{path.relative_to(package)}:{node.value.lineno}")
    assert own == []
