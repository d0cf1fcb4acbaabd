import threading

from t2ifuse.embedding import EmbeddingCache, HashProjectionProvider, embed_text
from t2ifuse.storage import ArtifactCache, atomic_write_bytes, sha256_hex


def test_put_writes_the_missing_meta_after_a_crash(tmp_path):
    provider = HashProjectionProvider("hash-8", 8)
    cache = EmbeddingCache(tmp_path / "emb")
    embed_text("a red kettle", provider, cache)
    meta = tmp_path / "emb" / "hash-8" / (sha256_hex(b"a red kettle") + ".meta")
    assert meta.exists()

    meta.unlink()  # a crash between the payload write and the .meta write
    for _ in range(3):
        embed_text("a red kettle", provider, cache)
    assert provider.calls == 2  # one miss re-encodes; the .meta it writes makes later calls hits
    assert meta.exists()


def test_a_truncated_embedding_is_a_miss_that_the_next_put_repairs(tmp_path):
    provider = HashProjectionProvider("hash-8", 8)
    cache = EmbeddingCache(tmp_path / "emb")
    first, tokens = embed_text("a red kettle", provider, cache)
    vec = tmp_path / "emb" / "hash-8" / (sha256_hex(b"a red kettle") + ".vec")
    intact = vec.read_bytes()
    vec.write_bytes(intact[:-5])  # a torn write, or a disk that lost the tail

    again, tokens_again = embed_text("a red kettle", provider, cache)
    assert provider.calls == 2  # the corrupt entry is a miss: one encode
    assert vec.read_bytes() == intact  # ... whose put rewrote the entry
    assert again.values.tobytes() == first.values.tobytes()
    assert tokens_again.tobytes() == tokens.tobytes()
    embed_text("a red kettle", provider, cache)
    assert provider.calls == 2  # and the call after that is a hit


def test_put_never_overwrites_an_existing_file(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    cache.put("k1", b"first", {"n": 1})
    cache.put("k1", b"second", {"n": 2})
    assert cache.get("k1") == b"first"
    assert cache.get_meta("k1") == {"n": 1}


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
