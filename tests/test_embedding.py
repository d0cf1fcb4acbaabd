import hashlib

import numpy as np
import pytest

from t2ifuse.embedding import (
    CLIP_SCORE_WEIGHT,
    DimensionMismatchError,
    EmbeddingCache,
    EmbeddingVector,
    FeaturePack,
    HashProjectionProvider,
    OracleFeatureProvider,
    ProviderError,
    ZeroVectorError,
    clip_score,
    cosine_similarity,
    decode_vec_payload,
    embed_image,
    embed_text,
    encode_vec_payload,
    write_oracle_features,
)
from t2ifuse.storage import CacheError


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


def test_embed_text_caches_by_text_hash(tmp_path):
    provider = CountingProvider()
    cache = EmbeddingCache(tmp_path / "emb")
    a, _ = embed_text("same text", provider, cache)
    b, _ = embed_text("same text", provider, cache)
    assert provider.calls == 1
    assert np.array_equal(a.values, b.values)


def test_embed_text_dim_mismatch(tmp_path):
    provider = CountingProvider(extra=1)
    with pytest.raises(DimensionMismatchError):
        embed_text("anything", provider, EmbeddingCache(tmp_path / "emb"))
    with pytest.raises(ProviderError):
        embed_text("   ", provider, None)


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


def test_fixture_image_embedding_golden():
    provider = HashProjectionProvider("hash-8", 8)
    pooled, tokens = provider.encode_image(b"fixture-image-bytes")
    golden = np.array(
        [-0.654902, 0.576471, -0.403922, -0.796078, 0.584314, 0.662745, -0.043137, 0.968627],
        dtype=np.float32,
    )
    assert np.allclose(pooled, golden, atol=1e-6)
    assert tokens.shape == (1, 8)


def test_embed_image_keyed_on_content_not_prompt(tmp_path):
    provider = CountingProvider()
    cache = EmbeddingCache(tmp_path / "emb")
    # two different artifact paths, same bytes -> single provider call
    path_a = tmp_path / "a.bin"
    path_b = tmp_path / "b.bin"
    path_a.write_bytes(b"same-bytes")
    path_b.write_bytes(b"same-bytes")
    embed_image(path_a, provider, cache)
    embed_image(path_b, provider, cache)
    assert provider.calls == 1


def test_provider_swap_creates_distinct_cache_entries(tmp_path):
    cache = EmbeddingCache(tmp_path / "emb")
    image = tmp_path / "img.bin"
    image.write_bytes(b"payload")
    siglip_like = HashProjectionProvider("siglip-like", 8)
    dino_like = HashProjectionProvider("dino-like", 8)
    a, _ = embed_image(image, siglip_like, cache)
    b, _ = embed_image(image, dino_like, cache)
    assert siglip_like.calls == 1 and dino_like.calls == 1
    assert not np.array_equal(a.values, b.values)
    assert (tmp_path / "emb" / "siglip-like").exists()
    assert (tmp_path / "emb" / "dino-like").exists()


def test_embed_missing_artifact(tmp_path):
    with pytest.raises(ProviderError, match="missing image artifact"):
        embed_image(tmp_path / "nope.bin", CountingProvider(), None)


def test_cache_round_trip_bit_identical(tmp_path):
    provider = HashProjectionProvider("hash-16", 16)
    cache = EmbeddingCache(tmp_path / "emb")
    first, tokens_first = embed_text("a stitch in time", provider, cache)
    reloaded, tokens_again = embed_text("a stitch in time", provider, cache)
    assert first.values.tobytes() == reloaded.values.tobytes()
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


def test_oracle_packs_share_shape_contract(tmp_path):
    path = tmp_path / "oracle.jsonl"
    write_oracle_features(path, {"s1": np.ones(8, dtype=np.float32)})
    pooled, tokens = OracleFeatureProvider(path).features_for("s1")
    gen_pooled, gen_tokens = HashProjectionProvider("hash-8", 8).encode_image(b"x")
    pack_oracle = FeaturePack(np.ones((2, 8)), tokens, np.ones(8), pooled)
    pack_gen = FeaturePack(np.ones((2, 8)), gen_tokens, np.ones(8), gen_pooled)
    assert pack_oracle.image_tokens.shape == pack_gen.image_tokens.shape
    assert pack_oracle.image_pooled.shape == pack_gen.image_pooled.shape


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


def test_embedding_vector_invariants():
    with pytest.raises(ValueError, match="normalized"):
        EmbeddingVector(np.array([1.0, 1.0]), "p", normalized=True)
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingVector(np.array([np.inf, 0.0]), "p")
    vec = EmbeddingVector(np.array([0.6, 0.8]), "p", normalized=True)
    assert vec.dim == 2
