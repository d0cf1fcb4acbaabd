import math

import numpy as np
import pytest

from t2ifuse import tensorcore as tc
from t2ifuse.tensorcore import (
    NondeterministicClosureError,
    ParamStore,
    ShapeError,
    cross_entropy,
    dense_affine,
    grad_check,
    layer_norm,
    load_checkpoint,
    masked_mean_pool,
    multi_head_attention,
    save_checkpoint,
    softmax_rows,
)


# --- dense_affine ---------------------------------------------------------

def test_dense_affine_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out, _ = dense_affine(x, np.eye(2), np.zeros((1, 2)))
    assert np.array_equal(out, x)


def test_dense_affine_hand_case():
    out, _ = dense_affine(
        np.array([[1.0, 2.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0]])
    )
    assert np.array_equal(out, np.array([[2.0, 3.0]]))


def test_dense_affine_matches_triple_loop():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 2))
    b = rng.standard_normal((1, 2))
    out, _ = dense_affine(x, w, b)
    # brute-force oracle
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = b[0, j]
            for k in range(4):
                acc += x[i, k] * w[k, j]
            expected[i, j] = acc
    assert np.allclose(out, expected, atol=1e-12)


def test_dense_affine_shape_error():
    with pytest.raises(ShapeError):
        dense_affine(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        dense_affine(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((1, 3)))


# --- softmax ---------------------------------------------------------------

def test_softmax_symmetry_and_stability():
    p, _ = softmax_rows(np.array([[0.0, 0.0]]))
    assert np.allclose(p, [[0.5, 0.5]])
    p, _ = softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.isfinite(p).all()
    assert p[0, 0] > 0.999 and p[0, 1] < 1e-6


def test_softmax_matches_extended_precision_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 5)) * 3
    p, _ = softmax_rows(x)
    xl = x.astype(np.longdouble)
    e = np.exp(xl)
    expected = e / e.sum(axis=1, keepdims=True)
    assert np.allclose(p, expected.astype(np.float64), atol=1e-14)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_softmax_rows_sum_to_one_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6)))) * 10
        p, _ = softmax_rows(x)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


# --- layer norm -------------------------------------------------------------

def test_layer_norm_constant_row():
    x = np.full((1, 4), 3.7)
    out, _ = layer_norm(x, np.ones((1, 4)), np.zeros((1, 4)))
    assert np.allclose(out, 0.0)


def test_layer_norm_standardized_row():
    out, _ = layer_norm(
        np.array([[1.0, -1.0]]), np.ones((1, 2)), np.zeros((1, 2)), eps=1e-12
    )
    assert np.allclose(out, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_matches_definition():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6))
    gain = rng.standard_normal((1, 6))
    shift = rng.standard_normal((1, 6))
    eps = 1e-5
    out, _ = layer_norm(x, gain, shift, eps)
    for i in range(4):
        row = x[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        expected = (row - mu) / math.sqrt(var + eps) * gain[0] + shift[0]
        assert np.allclose(out[i], expected, atol=1e-12)
    # zero-mean property with unit gain
    out0, _ = layer_norm(x, np.ones((1, 6)), np.zeros((1, 6)))
    assert np.abs(out0.mean(axis=1)).max() < 1e-9


# --- attention ---------------------------------------------------------------

def _attn_params(rng, d):
    return [rng.standard_normal((d, d)) for _ in range(4)]


def test_attention_single_kv_token():
    rng = np.random.default_rng(4)
    d = 4
    wq, wk, wv, wo = _attn_params(rng, d)
    q_in = rng.standard_normal((3, d))
    kv = rng.standard_normal((1, d))
    out, maps, _ = multi_head_attention(q_in[None], kv[None], wq, wk, wv, wo, heads=2)
    assert np.allclose(maps, 1.0)
    expected_row = (kv @ wv) @ wo
    for i in range(3):
        assert np.allclose(out[0, i], expected_row[0], atol=1e-12)


def test_attention_kv_permutation_invariance():
    rng = np.random.default_rng(5)
    d = 8
    wq, wk, wv, wo = _attn_params(rng, d)
    q_in = rng.standard_normal((2, d))
    kv = rng.standard_normal((5, d))
    perm = rng.permutation(5)
    out_a, maps_a, _ = multi_head_attention(q_in[None], kv[None], wq, wk, wv, wo, heads=2)
    out_b, maps_b, _ = multi_head_attention(q_in[None], kv[perm][None], wq, wk, wv, wo, heads=2)
    assert np.allclose(out_a, out_b, atol=1e-12)
    assert np.allclose(maps_a[..., perm], maps_b, atol=1e-12)


def test_attention_matches_scripted_recomputation():
    rng = np.random.default_rng(6)
    d, h = 4, 2
    wq, wk, wv, wo = _attn_params(rng, d)
    q_in = rng.standard_normal((2, d))
    kv = rng.standard_normal((3, d))
    out, maps, _ = multi_head_attention(q_in[None], kv[None], wq, wk, wv, wo, heads=h)
    out, maps = out[0], maps[0]

    # independent step-by-step oracle at extended precision
    ql = (q_in @ wq).astype(np.longdouble)
    kl = (kv @ wk).astype(np.longdouble)
    vl = (kv @ wv).astype(np.longdouble)
    dh = d // h
    ctx = np.zeros((2, d), dtype=np.longdouble)
    for head in range(h):
        sl = slice(head * dh, (head + 1) * dh)
        scores = ql[:, sl] @ kl[:, sl].T / np.longdouble(math.sqrt(dh))
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(maps[head], a.astype(np.float64), atol=1e-12)
        ctx[:, sl] = a @ vl[:, sl]
    expected = ctx @ wo.astype(np.longdouble)
    assert np.allclose(out, expected.astype(np.float64), atol=1e-10)
    assert np.allclose(maps.sum(axis=2), 1.0, atol=1e-6)


def test_attention_head_divisibility_error():
    rng = np.random.default_rng(7)
    d = 8
    wq, wk, wv, wo = _attn_params(rng, d)
    with pytest.raises(ShapeError):
        multi_head_attention(
            rng.standard_normal((1, 2, d)), rng.standard_normal((1, 2, d)), wq, wk, wv, wo, heads=3
        )


def _ragged_attention_batch(rng, d, q_lens, kv_lens):
    """Zero-padded (B, L, d) query/key batches with their masks, plus the
    unpadded per-sample sequences."""
    qs = [rng.standard_normal((m, d)) for m in q_lens]
    kvs = [rng.standard_normal((n, d)) for n in kv_lens]
    q_mask = np.arange(max(q_lens)) < np.array(q_lens)[:, None]
    kv_mask = np.arange(max(kv_lens)) < np.array(kv_lens)[:, None]
    q_in = np.zeros(q_mask.shape + (d,))
    kv_in = np.zeros(kv_mask.shape + (d,))
    q_in[q_mask] = np.concatenate(qs)
    kv_in[kv_mask] = np.concatenate(kvs)
    return qs, kvs, q_in, kv_in, q_mask, kv_mask


def test_attention_padded_batch_matches_per_sample():
    rng = np.random.default_rng(14)
    d = 6
    wq, wk, wv, wo = _attn_params(rng, d)
    q_lens, kv_lens = [1, 5, 3, 2, 4], [3, 1, 5, 2, 4]
    qs, kvs, q_in, kv_in, q_mask, kv_mask = _ragged_attention_batch(rng, d, q_lens, kv_lens)
    out, maps, back = multi_head_attention(q_in, kv_in, wq, wk, wv, wo, heads=2, key_mask=kv_mask)
    g = rng.standard_normal(out.shape) * q_mask[:, :, None]  # no gradient into padded queries
    d_q, d_kv, *d_w = back(g)

    summed = [np.zeros((d, d)) for _ in range(4)]
    for b, (q, kv) in enumerate(zip(qs, kvs)):
        m, n = q.shape[0], kv.shape[0]
        out_1, maps_1, back_1 = multi_head_attention(q[None], kv[None], wq, wk, wv, wo, heads=2)
        assert np.allclose(out[b, :m], out_1[0], rtol=0, atol=1e-12)
        assert np.allclose(maps[b, :, :m, :n], maps_1[0], rtol=0, atol=1e-12)
        dq_1, dkv_1, *dw_1 = back_1(g[b : b + 1, :m])
        assert np.allclose(d_q[b, :m], dq_1[0], rtol=0, atol=1e-12)
        assert np.allclose(d_kv[b, :n], dkv_1[0], rtol=0, atol=1e-12)
        summed = [acc + w for acc, w in zip(summed, dw_1)]
    for batched, reference in zip(d_w, summed):
        assert np.allclose(batched, reference, rtol=0, atol=1e-12)

    # padded keys take exactly zero weight, padded rows exactly zero gradient
    assert np.all(np.where(kv_mask[:, None, None, :], 0.0, maps) == 0.0)
    assert np.all(d_kv[~kv_mask] == 0.0)
    assert np.all(d_q[~q_mask] == 0.0)
    for arr in (out, maps, d_q, d_kv, *d_w):
        assert np.isfinite(arr).all()


def test_attention_fully_masked_row_stays_finite():
    rng = np.random.default_rng(15)
    d = 4
    wq, wk, wv, wo = _attn_params(rng, d)
    q_in = rng.standard_normal((2, 2, d))
    kv_in = rng.standard_normal((2, 3, d))
    key_mask = np.array([[True, True, False], [False, False, False]])
    out, maps, back = multi_head_attention(q_in, kv_in, wq, wk, wv, wo, heads=2, key_mask=key_mask)
    grads = back(rng.standard_normal(out.shape))
    assert np.isfinite(out).all() and np.isfinite(maps).all()
    assert all(np.isfinite(gr).all() for gr in grads)
    assert np.allclose(maps.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(maps[0, :, :, 2] == 0.0)
    # with every key masked the weights are uniform whatever the queries are
    assert np.all(grads[0][1] == 0.0)


def test_attention_key_mask_shape_error():
    rng = np.random.default_rng(16)
    d = 4
    wq, wk, wv, wo = _attn_params(rng, d)
    with pytest.raises(ShapeError, match="key_mask"):
        multi_head_attention(
            rng.standard_normal((2, 2, d)), rng.standard_normal((2, 3, d)),
            wq, wk, wv, wo, heads=2, key_mask=np.ones((2, 2), dtype=bool),
        )


# --- masked mean pool ------------------------------------------------------------

def test_masked_mean_pool_averages_real_rows_only():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 4, 5))
    mask = np.array([[True, False, False, False], [True] * 4, [True, True, True, False]])
    out, back = masked_mean_pool(x, mask)
    for b in range(3):
        assert np.allclose(out[b], x[b, mask[b]].mean(axis=0), rtol=0, atol=1e-15)
    (dx,) = back(rng.standard_normal((3, 5)))
    assert np.all(dx[~mask] == 0.0)
    assert np.allclose(dx[1], dx[1, 0])  # equal share for each real row
    with pytest.raises(ShapeError, match="unmasked"):
        masked_mean_pool(x, np.zeros((3, 4), dtype=bool))


# --- cross entropy -----------------------------------------------------------

def test_cross_entropy_uniform_logits():
    loss, _ = cross_entropy(np.zeros((2, 4)), [0, 3])
    assert abs(loss - math.log(4)) < 1e-12


def test_cross_entropy_confident_limit():
    logits = np.array([[100.0, 0.0, 0.0]])
    loss, _ = cross_entropy(logits, [0])
    assert loss < 1e-12


def test_cross_entropy_matches_extended_precision():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((5, 3)) * 2
    labels = rng.integers(0, 3, size=5)
    loss, backward = cross_entropy(logits, labels)

    xl = logits.astype(np.longdouble)
    e = np.exp(xl - xl.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    expected = -np.log(p[np.arange(5), labels]).mean()
    assert abs(loss - float(expected)) < 1e-14

    onehot = np.zeros((5, 3), dtype=np.longdouble)
    onehot[np.arange(5), labels] = 1
    assert np.allclose(backward(), ((p - onehot) / 5).astype(np.float64), atol=1e-14)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(np.zeros((1, 2)), [2])


# --- gradient checks ----------------------------------------------------------

def _loss_closure(store, forward):
    def loss_fn():
        loss, grads = forward()
        for name, g in grads.items():
            store.accumulate(name, g)
        return loss
    return loss_fn


def test_grad_check_dense_affine_random_shapes():
    rng = np.random.default_rng(9)
    store = ParamStore(seed=1, dtype=np.float64)
    store.add("w", 4, 3)
    store.add("b", 1, 3, init="zeros")
    x = rng.standard_normal((5, 4))
    labels = rng.integers(0, 3, size=5)

    def forward():
        out, back = dense_affine(x, store.params["w"], store.params["b"])
        loss, ce_back = cross_entropy(out, labels)
        _, dw, db = back(ce_back())
        return loss, {"w": dw, "b": db}

    report = grad_check(_loss_closure(store, forward), store, tolerance=1e-4)
    assert report.passed, str(report)


def test_grad_check_gelu_layernorm_softmax_chain():
    rng = np.random.default_rng(10)
    store = ParamStore(seed=2, dtype=np.float64)
    store.add("w", 6, 6)
    store.add("gain", 1, 6, init="ones")
    store.add("shift", 1, 6, init="zeros")
    x = rng.standard_normal((3, 6))

    def forward():
        h, b1 = dense_affine(x, store.params["w"], np.zeros((1, 6)))
        g, b2 = tc.gelu(h)
        n, b3 = layer_norm(g, store.params["gain"], store.params["shift"])
        p, b4 = softmax_rows(n)
        m, b5 = masked_mean_pool(p[None], np.ones((1, 3), dtype=bool))
        loss = float((m**2).sum())
        dm = 2 * m
        (dp,) = b5(dm)
        dp = dp[0]
        (dn,) = b4(dp)
        dg, dgain, dshift = b3(dn)
        (dh,) = b2(dg)
        _, dw, _ = b1(dh)
        return loss, {"w": dw, "gain": dgain, "shift": dshift}

    report = grad_check(_loss_closure(store, forward), store, tolerance=1e-4)
    assert report.passed, str(report)


def test_grad_check_attention_end_to_end():
    rng = np.random.default_rng(11)
    d = 6
    store = ParamStore(seed=3, dtype=np.float64)
    for name in ("wq", "wk", "wv", "wo"):
        store.add(name, d, d)
    q_in = rng.standard_normal((1, 2, d))
    kv = rng.standard_normal((1, 3, d))

    def forward():
        out, _, back = multi_head_attention(
            q_in, kv, store.params["wq"], store.params["wk"],
            store.params["wv"], store.params["wo"], heads=2,
        )
        loss = float((out**2).sum())
        _, _, dwq, dwk, dwv, dwo = back(2 * out)
        return loss, {"wq": dwq, "wk": dwk, "wv": dwv, "wo": dwo}

    report = grad_check(_loss_closure(store, forward), store, tolerance=1e-4)
    assert report.passed, str(report)


def test_grad_check_masked_attention_and_pool():
    rng = np.random.default_rng(18)
    d = 6
    store = ParamStore(seed=6, dtype=np.float64)
    for name in ("wq", "wk", "wv", "wo"):
        store.add(name, d, d)
    _, _, q_in, kv_in, q_mask, kv_mask = _ragged_attention_batch(rng, d, [1, 5, 2], [4, 1, 3])

    def forward():
        out, _, back = multi_head_attention(
            q_in, kv_in, store.params["wq"], store.params["wk"],
            store.params["wv"], store.params["wo"], heads=2, key_mask=kv_mask,
        )
        pooled, b_pool = masked_mean_pool(out, q_mask)
        loss = float((pooled**2).sum())
        (d_out,) = b_pool(2 * pooled)
        _, _, dwq, dwk, dwv, dwo = back(d_out)
        return loss, {"wq": dwq, "wk": dwk, "wv": dwv, "wo": dwo}

    report = grad_check(_loss_closure(store, forward), store, tolerance=1e-4)
    assert report.passed, str(report)


def test_grad_check_detects_corrupted_backward():
    rng = np.random.default_rng(12)
    store = ParamStore(seed=4, dtype=np.float64)
    store.add("w", 3, 2)
    x = rng.standard_normal((4, 3))
    labels = rng.integers(0, 2, size=4)

    def forward():
        out, back = dense_affine(x, store.params["w"], np.zeros((1, 2)))
        loss, ce_back = cross_entropy(out, labels)
        _, dw, _ = back(ce_back())
        return loss, {"w": -dw}  # deliberate sign flip

    report = grad_check(_loss_closure(store, forward), store, tolerance=1e-4)
    assert not report.passed


def test_grad_check_rejects_nondeterminism_and_float32():
    store = ParamStore(seed=5, dtype=np.float64)
    store.add("w", 2, 2)
    state = {"calls": 0}

    def noisy():
        state["calls"] += 1
        return float(state["calls"])

    with pytest.raises(NondeterministicClosureError):
        grad_check(noisy, store)

    store32 = ParamStore(seed=5, dtype=np.float32)
    store32.add("w", 2, 2)
    with pytest.raises(ValueError, match="float64"):
        grad_check(lambda: 0.0, store32)


# --- param store & checkpoints ------------------------------------------------

def test_param_store_seeded_init_is_reproducible():
    a = ParamStore(seed=11)
    b = ParamStore(seed=11)
    wa = a.add("w", 5, 7)
    wb = b.add("w", 5, 7)
    assert np.array_equal(wa, wb)
    s = math.sqrt(6.0 / 12)
    assert np.abs(wa).max() <= s


def test_param_store_duplicate_and_shape_errors():
    store = ParamStore(seed=0)
    store.add("w", 2, 2)
    with pytest.raises(ValueError):
        store.add("w", 2, 2)
    with pytest.raises(ShapeError):
        store.accumulate("w", np.zeros((3, 3)))


def test_checkpoint_round_trip(tmp_path):
    store = ParamStore(seed=9)
    store.add("layer.w", 3, 4)
    store.add("layer.b", 1, 4, init="zeros")
    path = tmp_path / "params.ntc"
    save_checkpoint(store, path)
    loaded = load_checkpoint(path)
    assert set(loaded) == {"layer.w", "layer.b"}
    for name in loaded:
        assert np.array_equal(loaded[name], store.params[name])
    manifest_path = path.with_name(path.name + ".manifest.json")
    assert manifest_path.exists()
    assert '"init_seed": 9' in manifest_path.read_text()


def test_ops_are_pure():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 4))
    p1, _ = softmax_rows(x)
    p2, _ = softmax_rows(x)
    assert np.array_equal(p1, p2)
    g1, _ = tc.gelu(x)
    g2, _ = tc.gelu(x)
    assert np.array_equal(g1, g2)
