import multiprocessing
import os
import shutil
import signal
import sys
import threading
import time

import numpy as np

from t2ifuse import storage
from t2ifuse.embedding import EmbeddingCache, HashProjectionProvider, embed_text, encode_vec_payload
from t2ifuse.storage import ArtifactCache, atomic_write_bytes, sha256_hex

# The crash tests fork on purpose: a child that inherits a live cache must
# start a segment of its own.
FORK = multiprocessing.get_context("fork")
TEXTS = ["a red kettle", "a blue kettle", "a green kettle"]


def _segments(root):
    return sorted((root / "hash-8").glob("*.seg"))


def _assert_same(got, expected):
    (vec, tokens), (vec_expected, tokens_expected) = got, expected
    assert vec.values.tobytes() == vec_expected.values.tobytes()
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

    reference = HashProjectionProvider("hash-8", 8)
    for text in texts:
        _assert_same(embed_text(text, provider, cache), embed_text(text, reference))
    assert provider.calls == 1  # every record the child completed is a hit for the parent
    embed_text("another parent text", provider, cache)
    assert provider.calls == 2
    assert child_segment.read_bytes() == child_bytes  # the parent appended to its own segment
    assert _segments(tmp_path / "emb") == sorted([parent_segment, child_segment])
    cache.close()


def _put_one_value(root, key, value, start):
    cache = EmbeddingCache(root)
    assert cache.get("hash-8", key) is None  # both writers miss before either puts
    start.wait(10)
    cache.put("hash-8", key, np.full(8, value, np.float32), np.full((2, 8), value, np.float32))
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
    assert len(_segments(root)) == 2  # both appended: neither had seen the other's record

    seen = encode_vec_payload(*reader.get("hash-8", key))
    assert seen in payloads
    assert reader.get("hash-8", "absent" * 8) is None  # a miss rescans both segments
    for _ in range(3):
        assert encode_vec_payload(*reader.get("hash-8", key)) == seen
    fresh = EmbeddingCache(root)
    assert encode_vec_payload(*fresh.get("hash-8", key)) == seen
    reader.close()
    fresh.close()


def test_a_second_store_sees_entries_appended_after_its_first_scan(tmp_path):
    provider = HashProjectionProvider("hash-8", 8)
    writer, reader = EmbeddingCache(tmp_path / "emb"), EmbeddingCache(tmp_path / "emb")
    assert reader.get("hash-8", "0" * 64) is None  # the reader's first scan: nothing there yet
    written = [embed_text(text, provider, writer) for text in TEXTS]
    for text, expected in zip(TEXTS, written):
        _assert_same(embed_text(text, provider, reader), expected)
    assert provider.calls == len(TEXTS)
    writer.close()
    reader.close()


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
                    cache.put("hash-8", key, values, values[None, :])
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


def _meta_of(data):
    return {"content_hash": sha256_hex(data)}


def _assert_record_matches_payload(cache, key):
    assert cache.has(key)
    assert cache.get_meta(key)["content_hash"] == sha256_hex(cache.get(key))


def _scanned_store(root):
    """A store that has indexed the log before any writer of the tested key starts."""
    cache = ArtifactCache(root)
    cache.put("unrelated", b"x", _meta_of(b"x"))
    return cache


def test_threads_putting_the_same_keys_leave_one_record_of_the_bytes_on_disk(tmp_path):
    root, keys = tmp_path / "c", [f"{i:064x}" for i in range(30)]
    old, cache = _scanned_store(root), ArtifactCache(root)
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
    fresh = ArtifactCache(root)
    for key in keys:
        # every put of a key after the first found its entry and returned it
        assert len(returned[key]) == 8 and all(meta == cache.get_meta(key) for meta in returned[key])
        for store in (cache, old, fresh):
            _assert_record_matches_payload(store, key)
    for store in (cache, old, fresh):
        store.close()


def _put_in_turn(cache, key, data, missed, turn, done):
    """Put ``data``; its payload is written once both writers have missed,
    and not before ``turn`` is set."""
    write = storage.atomic_write_bytes

    def write_in_turn(*args, **kwargs):
        missed.wait(10)
        if turn is not None:
            assert turn.wait(10)
        return write(*args, **kwargs)

    storage.atomic_write_bytes = write_in_turn  # this forked child's copy of the module only
    cache.put(key, data, _meta_of(data))
    cache.sync()
    done.set()


def test_two_processes_putting_one_key_leave_one_record_of_the_bytes_on_disk(tmp_path):
    root, key = tmp_path / "c", "k" * 64
    old = _scanned_store(root)  # both writers inherit it, live, through fork
    missed, first_done, second_done = FORK.Barrier(2), FORK.Event(), FORK.Event()
    # both miss; the first writes its payload and appends its record, then the
    # second replaces the payload and appends its own, in a newer segment
    writers = [
        FORK.Process(target=_put_in_turn, args=(old, key, b"process a", missed, None, first_done)),
        FORK.Process(target=_put_in_turn, args=(old, key, b"process b", missed, first_done, second_done)),
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(30)
    assert [w.exitcode for w in writers] == [0, 0]
    assert old.get(key) == b"process b"
    assert len(list((root / "log").glob("*.seg"))) == 3  # the old store's and one per writer

    fresh = ArtifactCache(root)
    for store in (old, fresh):
        _assert_record_matches_payload(store, key)
        assert store.get_meta(key) == _meta_of(b"process b")
        store.close()


def test_a_copied_cache_serves_its_entries_by_their_bytes(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    for n in range(3):
        cache.put(f"k{n}", b"payload %d" % n, {"n": n})
    cache.sync()
    cache.close()
    shutil.copytree(tmp_path / "c", tmp_path / "copy")  # new inodes: no stamp matches
    (tmp_path / "copy" / "k2" / "k2.bin").write_bytes(b"other bytes")

    copy = ArtifactCache(tmp_path / "copy")
    assert [copy.has(f"k{n}") for n in range(3)] == [True, True, False]
    assert [copy.get_meta(f"k{n}") for n in range(2)] == [{"n": 0}, {"n": 1}]
    assert copy.put("k2", b"payload 2", {"n": 2}) == {"n": 2} and copy.get("k2") == b"payload 2"
    copy.close()


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
