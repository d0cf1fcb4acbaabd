import json

import numpy as np
import pytest

from t2ifuse.corpus import LabelSpace
from t2ifuse.embedding import FeaturePack
from t2ifuse.fusion import FusionConfig, build_fusion_head
from t2ifuse.tensorcore import ParamStore
from t2ifuse.training import (
    LabeledPacks,
    NanGradientError,
    TrainConfig,
    adamw_step,
    evaluate_split,
    train_config_from_preset,
    train_loop,
)


def test_train_config_defaults_and_validation():
    config = TrainConfig()
    assert config.learning_rate == 2e-5
    assert config.batch_size == 32
    assert config.weight_decay == 0.01
    assert config.max_epochs == 5
    assert config.patience == 2
    assert config.betas == (0.9, 0.999)
    assert config.eps == 1e-8
    with pytest.raises(ValueError):
        TrainConfig(patience=9, max_epochs=5)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


def test_presets():
    finetune = train_config_from_preset("backbone-finetune")
    assert finetune.learning_rate == 2e-5
    head = train_config_from_preset("frozen-head")
    assert head.learning_rate == 1e-3
    with pytest.raises(KeyError):
        train_config_from_preset("imaginary")


def _store_with(value, dtype=np.float64):
    store = ParamStore(seed=0, dtype=dtype)
    store.add("w", 2, 2, init="zeros")
    store.params["w"][...] = value
    return store


def test_adamw_first_step_matches_hand_formula():
    # wd=0, lr=0.1, g=1 everywhere, t=1 -> delta = -0.1 * (1 / (1 + 1e-8))
    store = _store_with(5.0)
    store.grads["w"][...] = 1.0
    config = TrainConfig(learning_rate=0.1, weight_decay=0.0)
    adamw_step(store, config, 1)
    expected_delta = -0.1 * (1.0 / (1.0 + 1e-8))
    assert np.allclose(store.params["w"], 5.0 + expected_delta, rtol=1e-12)


def test_adamw_zero_gradient_fixed_point():
    store = _store_with(3.0)
    config = TrainConfig(learning_rate=0.1, weight_decay=0.0)
    adamw_step(store, config, 1)
    assert np.array_equal(store.params["w"], np.full((2, 2), 3.0))


def test_adamw_decoupled_decay_isolation():
    # g=0, wd=0.01, lr=0.1 -> theta * (1 - 0.001) exactly
    store = _store_with(2.0)
    config = TrainConfig(learning_rate=0.1, weight_decay=0.01)
    adamw_step(store, config, 1)
    assert np.allclose(store.params["w"], 2.0 * (1 - 0.001), rtol=1e-12)


def test_adamw_wd_zero_equals_adam_reference():
    rng = np.random.default_rng(0)
    store = _store_with(0.0)
    store.params["w"][...] = rng.standard_normal((2, 2))
    theta0 = store.params["w"].copy()
    config = TrainConfig(learning_rate=0.01, weight_decay=0.0)

    # reference Adam implemented independently
    m = np.zeros((2, 2))
    v = np.zeros((2, 2))
    theta_ref = theta0.copy()
    for t in range(1, 6):
        g = rng.standard_normal((2, 2))
        store.grads["w"][...] = g
        adamw_step(store, config, t)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        theta_ref -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(store.params["w"], theta_ref, atol=1e-12)


def test_adamw_rejects_nan_gradient():
    store = _store_with(1.0)
    store.grads["w"][0, 0] = np.nan
    with pytest.raises(NanGradientError):
        adamw_step(store, TrainConfig(), 1)
    with pytest.raises(ValueError):
        adamw_step(_store_with(1.0), TrainConfig(), 0)


def _toy_data(n_per_class=16, dim=6, seed=0, separation=3.0):
    """Linearly separable two-class toy packs; image features carry no signal."""
    rng = np.random.default_rng(seed)
    space = LabelSpace(("neg", "pos"))
    ids, packs, labels = [], [], []
    for i in range(2 * n_per_class):
        label = i % 2
        center = separation * (1 if label else -1)
        text = rng.standard_normal((2, dim)) * 0.3 + center
        image = rng.standard_normal((1, dim)) * 0.1
        ids.append(f"t{i}")
        packs.append(FeaturePack(text, image, text.mean(axis=0), image[0]))
        labels.append(label)
    return LabeledPacks(ids, packs, np.array(labels), space)


def _toy_head(seed=0, num_classes=2):
    config = FusionConfig(mechanism="concat", model_dim=8, heads=1, num_classes=num_classes, hidden_dim=8)
    return build_fusion_head(config, text_dim=6, image_dim=6, seed=seed)


def test_train_loss_decreases_on_separable_toy():
    train = _toy_data(seed=1)
    val = _toy_data(seed=2)
    config = TrainConfig(learning_rate=5e-3, batch_size=8, max_epochs=3, patience=3, seed=0)
    _, state = train_loop(_toy_head(), train, val, config)
    losses = [h.train_loss for h in state.history]
    assert len(losses) == 3
    assert losses[1] < losses[0]
    assert losses[2] < losses[1]


def test_train_determinism_bitwise():
    config = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=3, patience=3, seed=11)
    _, state_a = train_loop(_toy_head(seed=5), _toy_data(seed=1), _toy_data(seed=2), config)
    _, state_b = train_loop(_toy_head(seed=5), _toy_data(seed=1), _toy_data(seed=2), config)
    hist_a = [(h.train_loss, h.val_accuracy, h.val_macro_f1) for h in state_a.history]
    hist_b = [(h.train_loss, h.val_accuracy, h.val_macro_f1) for h in state_b.history]
    assert hist_a == hist_b  # equal to the last bit


def _ragged_data(n=24, seed=0, dim=6):
    """Two-class packs with 1-5 text tokens and 1-3 image tokens each."""
    rng = np.random.default_rng(seed)
    packs, labels = [], []
    for i in range(n):
        label = i % 2
        text = rng.standard_normal((int(rng.integers(1, 6)), dim)) + (1.0 if label else -1.0)
        image = rng.standard_normal((int(rng.integers(1, 4)), dim))
        packs.append(FeaturePack(text, image, text.mean(axis=0), image.mean(axis=0)))
        labels.append(label)
    ids = [f"r{i}" for i in range(n)]
    return LabeledPacks(ids, packs, np.array(labels), LabelSpace(("neg", "pos")))


def _xattn_head(seed=0, dropout_rate=0.0):
    config = FusionConfig(
        mechanism="cross_attention", model_dim=8, heads=2, num_classes=2,
        hidden_dim=8, dropout_rate=dropout_rate,
    )
    return build_fusion_head(config, text_dim=6, image_dim=6, seed=seed)


def test_train_determinism_with_dropout_and_padding():
    config = TrainConfig(learning_rate=3e-3, batch_size=5, max_epochs=3, patience=3, seed=4)
    runs = [
        train_loop(_xattn_head(seed=2, dropout_rate=0.3), _ragged_data(seed=1),
                   _ragged_data(seed=2), config)
        for _ in range(2)
    ]
    (head_a, state_a), (head_b, state_b) = runs
    assert [h.to_dict() for h in state_a.history] == [h.to_dict() for h in state_b.history]
    for name, value in head_a.params.params.items():
        assert np.array_equal(value, head_b.params.params[name])


def test_evaluate_split_logits_independent_of_chunking():
    data = _ragged_data(n=23, seed=3)
    head = _xattn_head(seed=5)
    _, _, whole = evaluate_split(head, data, batch_size=len(data))
    for batch_size in (1, 4, 7):
        _, _, chunked = evaluate_split(head, data, batch_size=batch_size)
        assert np.array_equal(whole.logits, chunked.logits), batch_size
        assert chunked.sample_ids == data.ids


def test_early_stopping_protocol_trace(tmp_path):
    forced = {1: 0.5, 2: 0.6, 3: 0.59, 4: 0.58, 5: 0.7}
    snapshots = {}

    def fake_val(head, epoch):
        snapshots[epoch] = head.params.snapshot()
        return forced[epoch], forced[epoch]

    config = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=5, patience=2, seed=0)
    history_path = tmp_path / "history.jsonl"
    head, state = train_loop(
        _toy_head(), _toy_data(seed=1), _toy_data(seed=2), config,
        val_metric_fn=fake_val, history_path=history_path,
    )
    assert state.epoch == 4  # stopped after epoch 4, never saw 0.7
    assert state.best_epoch == 2
    assert state.best_val_macro_f1 == 0.6
    for name, value in head.params.params.items():
        assert np.array_equal(value, snapshots[2][name])
    lines = [json.loads(l) for l in history_path.read_text().splitlines()]
    assert [l["epoch"] for l in lines] == [1, 2, 3, 4]
    assert [l["improved"] for l in lines] == [True, True, False, False]


def test_early_stopping_tie_keeps_earliest():
    forced = {1: 0.6, 2: 0.6, 3: 0.6}

    def fake_val(head, epoch):
        return forced[epoch], forced[epoch]

    config = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=5, patience=2, seed=0)
    _, state = train_loop(
        _toy_head(), _toy_data(seed=1), _toy_data(seed=2), config, val_metric_fn=fake_val
    )
    assert state.best_epoch == 1
    assert state.epoch == 3


def test_best_epoch_is_max_of_history():
    config = TrainConfig(learning_rate=5e-3, batch_size=8, max_epochs=4, patience=4, seed=3)
    _, state = train_loop(_toy_head(), _toy_data(seed=1), _toy_data(seed=2), config)
    best = max(h.val_macro_f1 for h in state.history)
    assert state.best_val_macro_f1 == best


def test_batch_order_invariance_of_loss():
    data = _toy_data(seed=4)
    head = _toy_head(seed=6)
    from t2ifuse.training import _train_batch

    head.params.zero_grads()
    loss_a = _train_batch(head, data, np.arange(8))
    head.params.zero_grads()
    loss_b = _train_batch(head, data, np.arange(8)[::-1])
    assert loss_a == pytest.approx(loss_b, abs=1e-12)


def test_evaluate_split_all_correct_and_degenerate_head():
    data = _toy_data(seed=7)
    config = TrainConfig(learning_rate=5e-3, batch_size=8, max_epochs=5, patience=5, seed=0)
    head, _ = train_loop(_toy_head(), data, data, config)
    accuracy, macro_f1, preds = evaluate_split(head, data)
    assert accuracy == 1.0
    assert macro_f1 == 1.0

    # zeroed classifier -> identical logits; argmax tie-break picks class 0
    zeroed = _toy_head(seed=8)
    zeroed.params.params["cls.w2"][...] = 0.0
    zeroed.params.params["cls.b2"][...] = 0.0
    accuracy, _, preds = evaluate_split(zeroed, data)
    assert set(preds.y_pred.tolist()) == {0}
    assert accuracy == pytest.approx(0.5)


def test_evaluate_metrics_match_archived_logits():
    data = _toy_data(seed=9)
    head = _toy_head(seed=10)
    accuracy, macro_f1, preds = evaluate_split(head, data)
    recomputed = (np.argmax(preds.logits, axis=1) == preds.y_true).mean()
    assert accuracy == pytest.approx(float(recomputed), abs=1e-15)


def test_checkpoint_written(tmp_path):
    config = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=2, patience=2, seed=0)
    path = tmp_path / "best.ntc"
    head, state = train_loop(
        _toy_head(), _toy_data(seed=1), _toy_data(seed=2), config, checkpoint_path=path
    )
    assert path.exists()
    from t2ifuse.tensorcore import load_checkpoint

    loaded = load_checkpoint(path)
    for name, value in loaded.items():
        assert np.allclose(value, head.params.params[name], atol=0)
