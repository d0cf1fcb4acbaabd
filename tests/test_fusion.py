import dataclasses

import numpy as np
import pytest

from t2ifuse.embedding import FeaturePack
from t2ifuse.fusion import (
    FusionConfig,
    FusionConfigError,
    PackBatch,
    build_fusion_head,
    export_attention,
    fuse_forward,
    head_averaged_map,
)
from t2ifuse.tensorcore import ShapeError, cross_entropy, grad_check
from tests.conftest import random_pack


def _one(pack):
    """A batch of one pack."""
    return PackBatch.from_packs([pack])


def _loss_closure(head, pack, label):
    batch = _one(pack)

    def loss_fn():
        out = fuse_forward(head, batch)
        loss, back = cross_entropy(out.logits, [label])
        out.backward(back())
        return loss
    return loss_fn


def test_config_validation():
    with pytest.raises(FusionConfigError):
        FusionConfig(mechanism="cross_attention", model_dim=8, heads=3)
    with pytest.raises(FusionConfigError):
        FusionConfig(mechanism="late_sum")
    with pytest.raises(FusionConfigError):
        FusionConfig(num_classes=1)
    with pytest.raises(FusionConfigError):
        FusionConfig(mechanism="deep_prefix", encoder_layers=0)


def test_concat_parameter_count_matches_shape_arithmetic():
    config = FusionConfig(mechanism="concat", model_dim=8, heads=1, num_classes=2, hidden_dim=16)
    head = build_fusion_head(config, text_dim=8, image_dim=8, seed=0)
    # projections: 2*(8*8 + 8); classifier: (16*16 + 16) + (16*2 + 2)
    expected = 2 * (8 * 8 + 8) + (16 * 16 + 16) + (16 * 2 + 2)
    assert head.num_params == expected


def test_build_determinism():
    config = FusionConfig(mechanism="cross_attention", model_dim=8, heads=2)
    a = build_fusion_head(config, 6, 5, seed=123)
    b = build_fusion_head(config, 6, 5, seed=123)
    assert set(a.params.params) == set(b.params.params)
    for name in a.params.params:
        assert np.array_equal(a.params.params[name], b.params.params[name])


def test_concat_zero_image_sits_at_bias_point():
    rng = np.random.default_rng(0)
    config = FusionConfig(mechanism="concat", model_dim=6, heads=1, num_classes=3, hidden_dim=8)
    head = build_fusion_head(config, text_dim=5, image_dim=4, seed=1)
    text_tokens = rng.standard_normal((2, 5))
    pack = FeaturePack(text_tokens, np.zeros((1, 4)), text_tokens.mean(axis=0), np.zeros(4))
    out = fuse_forward(head, _one(pack))

    # manual forward oracle with the image pathway pinned at its bias
    p = head.params.params
    ht = pack.text_pooled[None, :].astype(np.float32) @ p["text_proj.w"] + p["text_proj.b"]
    hi = p["image_proj.b"]
    joined = np.concatenate([ht, hi], axis=1)
    h1 = joined @ p["cls.w1"] + p["cls.b1"]
    g = 0.5 * h1 * (1 + np.tanh(np.sqrt(2 / np.pi) * (h1 + 0.044715 * h1**3)))
    logits = g @ p["cls.w2"] + p["cls.b2"]
    assert np.allclose(out.logits[0], logits[0], atol=1e-6)


def test_cross_attention_single_image_token_degenerate():
    config = FusionConfig(mechanism="cross_attention", model_dim=8, heads=2, num_classes=2)
    head = build_fusion_head(config, text_dim=6, image_dim=5, seed=2)
    pack = random_pack(np.random.default_rng(3), n_text=4, n_image=1, text_dim=6, image_dim=5)
    out = fuse_forward(head, _one(pack))
    maps = out.attention.maps[0][0]
    assert maps.shape == (2, 4, 1)
    assert np.allclose(maps, 1.0)


@pytest.mark.parametrize("mechanism", ["cross_attention", "deep_prefix"])
def test_image_token_permutation_leaves_logits_unchanged(mechanism):
    config = FusionConfig(
        mechanism=mechanism, model_dim=8, heads=2, num_classes=3,
        encoder_layers=2, visual_prefix_len=2,
    )
    head = build_fusion_head(config, text_dim=6, image_dim=5, seed=4)
    rng = np.random.default_rng(5)
    pack = random_pack(rng, n_text=3, n_image=5, text_dim=6, image_dim=5)
    perm = rng.permutation(5)
    permuted = FeaturePack(
        pack.text_tokens, pack.image_tokens[perm], pack.text_pooled, pack.image_pooled
    )
    out_a = fuse_forward(head, _one(pack))
    out_b = fuse_forward(head, _one(permuted))
    assert np.allclose(out_a.logits[0], out_b.logits[0], atol=1e-10)


def test_cross_attention_matches_manual_forward_oracle():
    config = FusionConfig(mechanism="cross_attention", model_dim=4, heads=1, num_classes=2, hidden_dim=6)
    head = build_fusion_head(config, text_dim=3, image_dim=3, seed=6)
    rng = np.random.default_rng(7)
    pack = random_pack(rng, n_text=2, n_image=3, text_dim=3, image_dim=3)
    out = fuse_forward(head, _one(pack))

    # scripted recomputation at float64 with independent numpy code
    p = {k: v.astype(np.float64) for k, v in head.params.params.items()}

    def gelu(x):
        return 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))

    def ln(x, gain, shift, eps=1e-5):
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * gain + shift

    t = pack.text_tokens.astype(np.float32).astype(np.float64) @ p["text_proj.w"] + p["text_proj.b"]
    i = pack.image_tokens.astype(np.float32).astype(np.float64) @ p["image_proj.w"] + p["image_proj.b"]
    q = t @ p["xattn.attn.wq"]
    k = i @ p["xattn.attn.wk"]
    v = i @ p["xattn.attn.wv"]
    scores = q @ k.T / np.sqrt(4)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    attn = (a @ v) @ p["xattn.attn.wo"]
    n1 = ln(t + attn, p["xattn.ln1.gain"], p["xattn.ln1.shift"])
    f = gelu(n1 @ p["xattn.ffn.w1"] + p["xattn.ffn.b1"]) @ p["xattn.ffn.w2"] + p["xattn.ffn.b2"]
    n2 = ln(n1 + f, p["xattn.ln2.gain"], p["xattn.ln2.shift"])
    pooled = n2.mean(axis=0, keepdims=True)
    logits = gelu(pooled @ p["cls.w1"] + p["cls.b1"]) @ p["cls.w2"] + p["cls.b2"]

    assert np.allclose(out.logits[0], logits[0], atol=1e-5)
    assert np.allclose(out.attention.maps[0][0][0], a, atol=1e-6)


@pytest.mark.parametrize("mechanism", ["concat", "cross_attention", "deep_prefix"])
def test_end_to_end_grad_check(mechanism):
    config = FusionConfig(
        mechanism=mechanism, model_dim=8, heads=2, num_classes=4,
        hidden_dim=10, encoder_layers=2, visual_prefix_len=2,
    )
    head = build_fusion_head(config, text_dim=6, image_dim=5, seed=8, dtype=np.float64)
    pack = random_pack(np.random.default_rng(9), n_text=3, n_image=4, text_dim=6, image_dim=5)
    report = grad_check(_loss_closure(head, pack, 2), head.params, tolerance=1e-4, seed=1)
    assert report.passed, str(report)


def test_forward_dim_mismatch_errors():
    config = FusionConfig(mechanism="concat", model_dim=4, heads=1)
    head = build_fusion_head(config, text_dim=6, image_dim=5, seed=10)
    bad = random_pack(np.random.default_rng(11), text_dim=7, image_dim=5)
    with pytest.raises(Exception, match="text dim"):
        fuse_forward(head, _one(bad))


def test_export_attention_rows_and_labels():
    config = FusionConfig(mechanism="cross_attention", model_dim=8, heads=2, num_classes=2)
    head = build_fusion_head(config, text_dim=6, image_dim=5, seed=12)
    pack = random_pack(np.random.default_rng(13), n_text=3, n_image=4, text_dim=6, image_dim=5)
    out = fuse_forward(head, _one(pack))
    table = export_attention(out.attention, ["t0", "t1", "t2"], ["i0", "i1", "i2", "i3"])
    lines = table.strip().split("\n")
    assert lines[0] == "token\ti0\ti1\ti2\ti3"
    assert len(lines) == 4
    for line in lines[1:]:
        values = [float(v) for v in line.split("\t")[1:]]
        assert abs(sum(values) - 1.0) <= 1e-6

    with pytest.raises(ValueError, match="label counts"):
        export_attention(out.attention, ["t0"], ["i0", "i1", "i2", "i3"])


def test_export_attention_single_image_token_all_ones_column():
    config = FusionConfig(mechanism="cross_attention", model_dim=8, heads=2, num_classes=2)
    head = build_fusion_head(config, text_dim=6, image_dim=5, seed=14)
    pack = random_pack(np.random.default_rng(15), n_text=3, n_image=1, text_dim=6, image_dim=5)
    out = fuse_forward(head, _one(pack))
    matrix = head_averaged_map(out.attention)[0]
    assert matrix.shape == (3, 1)
    assert np.allclose(matrix, 1.0)


def test_export_attention_identical_image_tokens_near_uniform():
    config = FusionConfig(mechanism="cross_attention", model_dim=8, heads=2, num_classes=2)
    head = build_fusion_head(config, text_dim=6, image_dim=5, seed=16)
    rng = np.random.default_rng(17)
    token = rng.standard_normal(5)
    image_tokens = np.tile(token, (4, 1))
    text_tokens = rng.standard_normal((2, 6))
    pack = FeaturePack(text_tokens, image_tokens, text_tokens.mean(axis=0), token)
    out = fuse_forward(head, _one(pack))
    matrix = head_averaged_map(out.attention)[0]
    assert np.allclose(matrix, 0.25, atol=1e-9)


def test_export_attention_golden_pinned():
    config = FusionConfig(mechanism="cross_attention", model_dim=4, heads=1, num_classes=2, hidden_dim=4)
    head = build_fusion_head(config, text_dim=3, image_dim=3, seed=20)
    pack = random_pack(np.random.default_rng(21), n_text=2, n_image=2, text_dim=3, image_dim=3)
    out_1 = fuse_forward(head, _one(pack))
    out_2 = fuse_forward(head, _one(pack))
    table_1 = export_attention(out_1.attention, ["a", "b"], ["x", "y"])
    table_2 = export_attention(out_2.attention, ["a", "b"], ["x", "y"])
    assert table_1 == table_2  # byte-stable across forwards
    matrix = head_averaged_map(out_1.attention)[0]
    reparsed = [
        [float(v) for v in line.split("\t")[1:]]
        for line in table_1.strip().split("\n")[1:]
    ]
    assert np.allclose(matrix, reparsed, atol=0)  # repr round-trips exactly


def test_deep_prefix_attention_bundle_shape_and_export():
    config = FusionConfig(
        mechanism="deep_prefix", model_dim=8, heads=2, num_classes=2,
        encoder_layers=2, visual_prefix_len=2,
    )
    head = build_fusion_head(config, text_dim=6, image_dim=5, seed=18)
    pack = random_pack(np.random.default_rng(19), n_text=3, n_image=4, text_dim=6, image_dim=5)
    out = fuse_forward(head, _one(pack))
    assert out.attention.kind == "self"
    assert len(out.attention.maps) == 2
    assert out.attention.maps[0].shape == (1, 2, 5, 5)
    table = export_attention(out.attention, ["t0", "t1", "t2"], ["v0", "v1"])
    lines = table.strip().split("\n")
    assert lines[0] == "token\tv0\tv1\tt0\tt1\tt2"
    for line in lines[1:]:
        values = [float(v) for v in line.split("\t")[1:]]
        assert abs(sum(values) - 1.0) <= 1e-6


# --- padded batches ------------------------------------------------------------

# Ragged on both sides, with a 1-token text beside a 5-token one.
_TEXT_LENS = (1, 5, 3, 2, 4, 1)
_IMAGE_LENS = (2, 1, 3, 1, 2, 3)


def _ragged_setup(mechanism, seed=30):
    config = FusionConfig(
        mechanism=mechanism, model_dim=8, heads=2, num_classes=3,
        hidden_dim=10, encoder_layers=2, visual_prefix_len=2,
    )
    head = build_fusion_head(config, text_dim=6, image_dim=5, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    packs = [
        random_pack(rng, n_text=t, n_image=i, text_dim=6, image_dim=5)
        for t, i in zip(_TEXT_LENS, _IMAGE_LENS)
    ]
    labels = rng.integers(0, 3, size=len(packs))
    return head, packs, labels


def _batch_loss(head, batch, labels):
    out = fuse_forward(head, batch)
    loss, back = cross_entropy(out.logits, labels)
    out.backward(back())
    return loss, out


def test_a_head_draws_its_dropout_masks_from_a_generator_its_build_seed_decides():
    head, packs, _ = _ragged_setup("cross_attention")
    batch = PackBatch.from_packs(packs)
    state = head.train_rng.bit_generator.state
    assert state == np.random.default_rng(30).bit_generator.state
    trained = fuse_forward(head, batch, train_mode=True)
    assert head.train_rng.bit_generator.state == state  # rate 0 is the identity and draws nothing
    np.testing.assert_array_equal(trained.logits, fuse_forward(head, batch).logits)

    config = dataclasses.replace(head.config, dropout_rate=0.5)
    a, b = (build_fusion_head(config, text_dim=6, image_dim=5, seed=7, dtype=np.float64) for _ in range(2))
    first = fuse_forward(a, batch, train_mode=True).logits
    assert not np.array_equal(first, fuse_forward(a, batch, train_mode=True).logits)  # the masks advance
    np.testing.assert_array_equal(first, fuse_forward(b, batch, train_mode=True).logits)


def test_pack_batch_pads_and_masks():
    _, packs, _ = _ragged_setup("concat")
    batch = PackBatch.from_packs(packs)
    assert batch.text_tokens.shape == (6, 5, 6)
    assert batch.image_tokens.shape == (6, 3, 5)
    assert batch.text_mask.sum(axis=1).tolist() == list(_TEXT_LENS)
    assert batch.image_mask.sum(axis=1).tolist() == list(_IMAGE_LENS)
    assert np.all(batch.text_tokens[~batch.text_mask] == 0.0)
    for b, pack in enumerate(packs):
        assert np.array_equal(batch.text_tokens[b, : _TEXT_LENS[b]], pack.text_tokens)
        assert np.array_equal(batch.image_pooled[b], pack.image_pooled)
    bad = random_pack(np.random.default_rng(0), text_dim=7, image_dim=5)
    with pytest.raises(ShapeError, match="text dims"):
        PackBatch.from_packs(packs + [bad])


_BATCH_FIELDS = ("text_tokens", "text_mask", "image_tokens", "image_mask", "text_pooled", "image_pooled")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [[4, 0, 2], [3], [5, 1], list(range(6))], ids=str)
def test_take_equals_from_packs_of_those_rows(rows, dtype):
    _, packs, _ = _ragged_setup("concat")
    taken = PackBatch.from_packs(packs, dtype).take(np.array(rows))
    built = PackBatch.from_packs([packs[i] for i in rows], dtype)
    for name in _BATCH_FIELDS:
        a, b = getattr(taken, name), getattr(built, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("kind", ["text", "image"])
def test_from_packs_validates_every_pack(kind):
    _, packs, _ = _ragged_setup("concat")

    def broken(field, value):
        return packs[:2] + [dataclasses.replace(packs[2], **{f"{kind}_{field}": value})]

    tokens = getattr(packs[2], f"{kind}_tokens")
    pooled = getattr(packs[2], f"{kind}_pooled")
    with_nan = tokens.copy()
    with_nan[-1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        PackBatch.from_packs(broken("tokens", with_nan))
    with pytest.raises(ValueError, match="non-finite"):
        PackBatch.from_packs(broken("pooled", np.full_like(pooled, np.inf)))
    with pytest.raises(ShapeError, match=f"pooled {kind} dim"):
        PackBatch.from_packs(broken("pooled", pooled[:-1]))
    with pytest.raises(ShapeError, match="non-empty"):
        PackBatch.from_packs(broken("tokens", tokens[:0]))


def test_export_attention_needs_a_batch_of_one():
    head, packs, _ = _ragged_setup("cross_attention")
    out = fuse_forward(head, PackBatch.from_packs(packs[:2]))
    assert head_averaged_map(out.attention).shape == (2, 5, 2)
    with pytest.raises(ValueError, match="batch of one"):
        export_attention(out.attention, [f"t{i}" for i in range(5)], ["i0", "i1"])


@pytest.mark.parametrize("mechanism", ["concat", "cross_attention", "deep_prefix"])
def test_batched_logits_and_gradients_match_per_sample(mechanism):
    head, packs, labels = _ragged_setup(mechanism)
    store = head.params
    store.zero_grads()
    out = fuse_forward(head, PackBatch.from_packs(packs))
    _, back = cross_entropy(out.logits, labels)
    dlogits = back()
    out.backward(dlogits)
    batched = {name: g.copy() for name, g in store.grads.items()}

    store.zero_grads()
    for pack, row_logits, row_grad in zip(packs, out.logits, dlogits):
        single = fuse_forward(head, _one(pack))
        assert np.allclose(single.logits[0], row_logits, rtol=0, atol=1e-12)
        single.backward(row_grad[None, :])
    for name, g in store.grads.items():
        assert np.allclose(batched[name], g, rtol=0, atol=1e-12), name


@pytest.mark.parametrize("mechanism", ["concat", "cross_attention", "deep_prefix"])
def test_batched_grad_check(mechanism):
    head, packs, labels = _ragged_setup(mechanism, seed=40)
    batch = PackBatch.from_packs(packs)
    report = grad_check(
        lambda: _batch_loss(head, batch, labels)[0], head.params, tolerance=1e-4, seed=2
    )
    assert report.passed, str(report)


@pytest.mark.parametrize("mechanism", ["concat", "cross_attention", "deep_prefix"])
def test_padding_takes_no_weight_and_no_gradient(mechanism):
    """Padded keys get weight exactly 0, and padded rows get exactly zero
    gradient: filling the padding with noise changes no logit and no
    parameter gradient by a single bit."""
    head, packs, labels = _ragged_setup(mechanism, seed=50)
    batch = PackBatch.from_packs(packs)
    head.params.zero_grads()
    _, out = _batch_loss(head, batch, labels)
    grads = {name: g.copy() for name, g in head.params.grads.items()}

    rng = np.random.default_rng(51)
    noisy = dataclasses.replace(
        batch,
        text_tokens=np.where(batch.text_mask[..., None], batch.text_tokens,
                             10 * rng.standard_normal(batch.text_tokens.shape)),
        image_tokens=np.where(batch.image_mask[..., None], batch.image_tokens,
                              10 * rng.standard_normal(batch.image_tokens.shape)),
    )
    head.params.zero_grads()
    _, noisy_out = _batch_loss(head, noisy, labels)

    assert np.array_equal(out.logits, noisy_out.logits)
    for name, g in head.params.grads.items():
        assert np.array_equal(grads[name], g), name
        assert np.isfinite(g).all()
    assert np.isfinite(out.logits).all()
    if mechanism == "concat":
        return
    prefix = head.config.visual_prefix_len if mechanism == "deep_prefix" else 0
    key_mask = batch.image_mask if mechanism == "cross_attention" else np.concatenate(
        [np.ones((len(batch), prefix), dtype=bool), batch.text_mask], axis=1
    )
    for maps in out.attention.maps:
        assert np.isfinite(maps).all()
        assert np.all(np.where(key_mask[:, None, None, :], 0.0, maps) == 0.0)
        assert np.allclose(maps.sum(axis=-1), 1.0, atol=1e-12)
