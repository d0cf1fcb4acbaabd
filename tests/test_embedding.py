import hashlib
import re

import numpy as np
import pytest

from t2ifuse.embedding import (
    CLIP_SCORE_WEIGHT,
    DimensionMismatchError,
    HashProjectionProvider,
    ImageContentError,
    OracleFeatureProvider,
    ProviderError,
    ZeroVectorError,
    _hash_floats,
    clip_score,
    cosine_similarity,
    decode_vec_payload,
    embed_all,
    embed_image,
    embed_text,
    encode_vec_payload,
    write_oracle_features,
)
from t2ifuse.fusion import FeaturePack, PackBatch
from t2ifuse.generation import ImageStore
from t2ifuse.storage import CacheError, write_jsonl


class CountingProvider:
    """Fixture provider mapping the input hash to a fixed vector."""

    def __init__(self, provider_id="fix-4", dim=4, extra=0):
        self.provider_id = provider_id
        self.dim = dim
        self.extra = extra  # to force dim mismatches
        self.calls = 0

    def _vec(self, data: bytes):
        digest = hashlib.sha256(data).digest()
        return np.frombuffer(digest[: (self.dim + self.extra)], dtype=np.uint8).astype(np.float32)

    def encode_text(self, text):
        self.calls += 1
        vec = self._vec(text.encode())
        return vec, vec[None, :]

    def encode_image(self, data):
        self.calls += 1
        vec = self._vec(data)
        return vec, vec[None, :]


def test_embed_text_caches_by_text_hash(emb_cache):
    provider = CountingProvider()
    a, _ = embed_text("same text", provider, emb_cache)
    b, _ = embed_text("same text", provider, emb_cache)
    assert provider.calls == 1
    assert np.array_equal(a, b)


def test_embed_text_dim_mismatch(emb_cache):
    provider = CountingProvider(extra=1)
    with pytest.raises(DimensionMismatchError):
        embed_text("anything", provider, emb_cache)
    with pytest.raises(ProviderError):
        embed_text("   ", provider, None)


class NanProvider(CountingProvider):
    """Returns a NaN entry until ``healed`` is set."""

    healed = False

    def _vec(self, data: bytes):
        vec = super()._vec(data)
        if not self.healed:
            vec[1] = np.nan
        return vec


@pytest.mark.parametrize("embed, item", [(embed_text, "some text"), (embed_image, b"image bytes")])
def test_non_finite_output_is_rejected_before_it_is_cached(emb_cache, embed, item):
    provider = NanProvider()
    with pytest.raises(ProviderError, match="non-finite"):
        embed(item, provider, emb_cache)
    with pytest.raises(ProviderError, match="non-finite"):
        embed(item, provider, emb_cache)
    assert provider.calls == 2  # the failure was not served from the cache
    key = hashlib.sha256(item if isinstance(item, bytes) else item.encode()).hexdigest()
    assert emb_cache.get(provider.provider_id, key) is None
    provider.healed = True
    vec, _ = embed(item, provider, emb_cache)
    assert np.isfinite(vec).all() and provider.calls == 3


def test_embed_all_rejects_a_batch_of_the_wrong_length(emb_cache):
    class ShortBatches(CountingProvider):
        def encode_texts(self, texts):
            return [self.encode_text(t) for t in texts[:-1]]

    with pytest.raises(ProviderError, match="1 outputs for 2 inputs"):
        embed_all(ShortBatches(), "text", {"k1": "one", "k2": "two"}, emb_cache, workers=1)
    assert emb_cache.get("fix-4", "k1") is None


class FlawedBatches(CountingProvider):
    """Batch outputs with a NaN entry for text ``nan`` and an extra entry
    for text ``wide``; every other output is whole."""

    def encode_texts(self, texts):
        outputs = []
        for text in texts:
            vec = self._vec(text.encode())
            if text == "nan":
                vec[1] = np.nan
            if text == "wide":
                vec = np.append(vec, 1.0).astype(np.float32)
            outputs.append((vec, vec[None, :]))
        return outputs


@pytest.mark.parametrize("texts, stored", [
    (["one", "two", "nan", "four"], ["one", "two", "four"]),
    (["one", "nan", "wide", "four"], ["one", "four"]),  # the first bad output, in order, is the error
])
def test_embed_all_stores_every_valid_output_of_a_batch_and_raises_the_first_bad_one(emb_cache, texts, stored):
    with pytest.raises(ProviderError, match="non-finite"):
        embed_all(FlawedBatches(), "text", {text: text for text in texts}, emb_cache, workers=1)
    assert [text for text in texts if emb_cache.get("fix-4", text) is not None] == stored


def test_hash_projection_matches_formula_recompute():
    provider = HashProjectionProvider("hash-8", 8)
    pooled, tokens = provider.encode_text("coffee machine")

    # independent recomputation of the documented projection
    def expected_token(token):
        tag = f"hash-8|token|{token}".encode()
        out = b""
        counter = 0
        while len(out) < 8:
            out += hashlib.sha256(tag + counter.to_bytes(4, "big")).digest()
            counter += 1
        raw = np.frombuffer(out[:8], dtype=np.uint8)
        return (raw.astype(np.float32) / 255.0) * 2.0 - 1.0

    assert np.array_equal(tokens[0], expected_token("coffee"))
    assert np.array_equal(tokens[1], expected_token("machine"))
    assert np.allclose(pooled, tokens.mean(axis=0), atol=1e-7)


@pytest.mark.parametrize("dim", [1, 16, 33, 48])
def test_batch_hash_encoding_is_bit_identical_to_hashing_each_token(dim):
    provider = HashProjectionProvider(f"hash-{dim}", dim)
    rng = np.random.default_rng(dim)
    words = [f"w{i}" for i in range(12)]  # few words, so texts repeat tokens
    texts = [" ".join(rng.choice(words, size=n)) for n in range(1, 41)] + ["echo echo echo", "solo"]
    outputs = provider.encode_texts(texts)
    assert provider.calls == len(texts)  # items, not batches
    for text, (pooled, tokens) in zip(texts, outputs):
        matrix = np.stack([_hash_floats(f"hash-{dim}|token|{t}".encode(), dim)
                           for t in text.split()[: provider.max_tokens]])
        assert tokens.shape == (min(len(text.split()), 32), dim)
        assert tokens.tobytes() == matrix.tobytes()
        assert pooled.tobytes() == matrix.mean(axis=0).tobytes()
        one_pooled, one_tokens = provider.encode_text(text)
        assert one_pooled.tobytes() == pooled.tobytes() and one_tokens.tobytes() == tokens.tobytes()

    images = [b"", b"fixture-image-bytes", bytes(range(256)) * 3, b"fixture-image-bytes"]
    calls = provider.calls
    batch = provider.encode_images(images)
    assert provider.calls == calls + len(images)
    for data, (pooled, tokens) in zip(images, batch):
        expected = _hash_floats(f"hash-{dim}|image|".encode() + hashlib.sha256(data).digest(), dim)
        assert pooled.tobytes() == expected.tobytes() and tokens.shape == (1, dim)
        assert provider.encode_image(data)[0].tobytes() == expected.tobytes()

    for bad in (["fine text", "   "], [""]):
        with pytest.raises(ProviderError, match="empty text"):
            provider.encode_texts(bad)


def test_fixture_image_embedding_golden():
    provider = HashProjectionProvider("hash-8", 8)
    pooled, tokens = provider.encode_image(b"fixture-image-bytes")
    golden = np.array(
        [-0.654902, 0.576471, -0.403922, -0.796078, 0.584314, 0.662745, -0.043137, 0.968627],
        dtype=np.float32,
    )
    assert np.allclose(pooled, golden, atol=1e-6)
    assert tokens.shape == (1, 8)


def test_embed_image_keyed_on_content_not_prompt(tmp_path, emb_cache):
    provider = CountingProvider()
    # two different artifact paths, same bytes -> single provider call
    path_a = tmp_path / "a.bin"
    path_b = tmp_path / "b.bin"
    path_a.write_bytes(b"same-bytes")
    path_b.write_bytes(b"same-bytes")
    embed_image(path_a.read_bytes(), provider, emb_cache)
    embed_image(path_b.read_bytes(), provider, emb_cache)
    assert provider.calls == 1


def test_provider_swap_creates_distinct_cache_entries(tmp_path, emb_cache):
    siglip_like = HashProjectionProvider("siglip-like", 8)
    dino_like = HashProjectionProvider("dino-like", 8)
    a, _ = embed_image(b"payload", siglip_like, emb_cache)
    b, _ = embed_image(b"payload", dino_like, emb_cache)
    assert siglip_like.calls == 1 and dino_like.calls == 1
    assert not np.array_equal(a, b)
    assert (tmp_path / "emb" / "siglip-like").exists()
    assert (tmp_path / "emb" / "dino-like").exists()


def _read_path(content_hash, path):
    return path.read_bytes()


def test_embed_image_with_its_known_hash_serves_a_hit_without_the_file(tmp_path, emb_cache):
    provider = CountingProvider()
    image = tmp_path / "img.bin"
    image.write_bytes(b"payload")
    items = {hashlib.sha256(b"payload").hexdigest(): image}
    first = embed_all(provider, "image", items, emb_cache, workers=1, read=_read_path)
    image.unlink()  # a hit never reads it
    again = embed_all(provider, "image", items, emb_cache, workers=1, read=_read_path)
    assert provider.calls == 1 and again.keys() == items.keys()
    assert all(again[k][0].tobytes() == first[k][0].tobytes() for k in items)


def test_embed_image_rejects_bytes_that_are_not_its_known_hash(tmp_path, emb_cache):
    provider = CountingProvider()
    recorded = hashlib.sha256(b"payload").hexdigest()
    store = ImageStore(tmp_path / "images")
    try:
        store.put("k", b"tampered", {})
        with pytest.raises(ImageContentError, match=recorded) as err:
            embed_all(provider, "image", {recorded: "k"}, emb_cache, workers=1,
                      read=lambda content_hash, key: store.get(key, sha256=content_hash))
    finally:
        store.close()
    assert isinstance(err.value, ProviderError)
    assert provider.calls == 0
    assert emb_cache.get(provider.provider_id, recorded) is None


def test_embed_missing_artifact(tmp_path, emb_cache):
    store = ImageStore(tmp_path / "images")
    recorded = hashlib.sha256(b"payload").hexdigest()
    try:
        with pytest.raises(ImageContentError, match=f"missing image artifact with sha256 {recorded}"):
            embed_all(CountingProvider(), "image", {recorded: "no such key"}, emb_cache, workers=1,
                      read=lambda content_hash, key: store.get(key, sha256=content_hash))
    finally:
        store.close()


def test_cache_round_trip_bit_identical(emb_cache):
    provider = HashProjectionProvider("hash-16", 16)
    first, tokens_first = embed_text("a stitch in time", provider, emb_cache)
    reloaded, tokens_again = embed_text("a stitch in time", provider, emb_cache)
    assert first.tobytes() == reloaded.tobytes()
    assert tokens_first.tobytes() == tokens_again.tobytes()


def test_vec_payload_format():
    pooled = np.array([1.0, 2.0], dtype=np.float32)
    tokens = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    payload = encode_vec_payload(pooled, tokens)
    assert payload[:4] == b"EVC1"
    p2, t2 = decode_vec_payload(payload)
    assert np.array_equal(p2, pooled)
    assert np.array_equal(t2, tokens)


def test_vec_payload_decode_rejects_malformed_bytes():
    payload = encode_vec_payload(np.ones(2, dtype=np.float32), np.ones((2, 2), dtype=np.float32))
    for bad in (payload[:-1], payload + b"\0", payload[:10], b"", b"EVC0" + payload[4:]):
        with pytest.raises(CacheError):
            decode_vec_payload(bad)


def test_oracle_provider_round_trip(tmp_path):
    path = tmp_path / "oracle.jsonl"
    write_oracle_features(path, {"s1": np.arange(4.0), "s2": np.ones(4)})
    provider = OracleFeatureProvider(path)
    pooled, tokens = provider.features_for("s1")
    assert np.allclose(pooled, [0, 1, 2, 3])
    assert tokens.shape == (1, 4)
    assert provider.dim == 4
    with pytest.raises(ProviderError):
        provider.features_for("missing")


@pytest.mark.parametrize("records, message", [
    ([{"sample_id": "s1", "dim": 3, "values": [1.0, 2.0]}], "sample 's1' dim mismatch"),
    ([], "empty oracle feature file"),
    ([{"sample_id": "s1", "dim": 2, "values": [1.0, 2.0]}, {"sample_id": "s2", "dim": 3, "values": [1.0, 2.0, 3.0]}],
     "inconsistent dims [2, 3]"),
])
def test_a_malformed_oracle_feature_file_is_a_provider_error(tmp_path, records, message):
    path = tmp_path / "oracle.jsonl"
    write_jsonl(path, records)
    with pytest.raises(ProviderError, match=re.escape(message)):
        OracleFeatureProvider(path)


def test_oracle_packs_share_shape_contract(tmp_path):
    path = tmp_path / "oracle.jsonl"
    write_oracle_features(path, {"s1": np.ones(8, dtype=np.float32)})
    pooled, tokens = OracleFeatureProvider(path).features_for("s1")
    gen_pooled, gen_tokens = HashProjectionProvider("hash-8", 8).encode_image(b"x")
    pack_oracle = FeaturePack(np.ones((2, 8)), tokens, np.ones(8), pooled)
    pack_gen = FeaturePack(np.ones((2, 8)), gen_tokens, np.ones(8), gen_pooled)
    assert pack_oracle.image_tokens.shape == pack_gen.image_tokens.shape
    assert pack_oracle.image_pooled.shape == pack_gen.image_pooled.shape
    assert len(PackBatch.from_packs([pack_oracle, pack_gen])) == 2  # validated as one batch


def test_clip_score_unit_cases():
    e = np.zeros(4)
    e[0] = 1.0
    assert clip_score(e, e) == pytest.approx(CLIP_SCORE_WEIGHT, abs=1e-9)
    f = np.zeros(4)
    f[1] = 1.0
    assert clip_score(e, f) == pytest.approx(0.0, abs=1e-9)
    assert clip_score(e, -e) == pytest.approx(0.0, abs=1e-9)  # clamped


def test_clip_score_symmetry_and_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        assert clip_score(a, b) == pytest.approx(clip_score(b, a), abs=1e-9)
        assert clip_score(3.7 * a, b) == pytest.approx(clip_score(a, 0.25 * b), abs=1e-9)
        assert 0.0 <= clip_score(a, b) <= CLIP_SCORE_WEIGHT


def test_clip_score_zero_vector_and_dim_mismatch():
    with pytest.raises(ZeroVectorError):
        clip_score(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="dim mismatch"):
        cosine_similarity(np.ones(3), np.ones(4))
