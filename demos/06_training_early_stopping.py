"""Deterministic training with AdamW and early stopping on validation Macro-F1.

Run: python3 demos/06_training_early_stopping.py
"""

import numpy as np

from t2ifuse.corpus import LabelSpace
from t2ifuse.fusion import FeaturePack, FusionConfig, PackBatch, build_fusion_head
from t2ifuse.training import LabeledPacks, TrainConfig, evaluate_split, train_loop


def make_toy_split(n_per_class, seed, dim=8, separation=2.0):
    rng = np.random.default_rng(seed)
    ids, packs, labels = [], [], []
    for i in range(2 * n_per_class):
        label = i % 2
        center = separation * (1 if label else -1)
        text = rng.standard_normal((3, dim)) * 0.5 + center
        image = rng.standard_normal((2, dim)) * 0.5 + center
        ids.append(f"s{seed}-{i}")
        packs.append(FeaturePack(text, image, text.mean(axis=0), image.mean(axis=0)))
        labels.append(label)
    return LabeledPacks(ids, PackBatch.from_packs(packs), np.array(labels), LabelSpace(("neg", "pos")))


train = make_toy_split(32, seed=1)
val = make_toy_split(16, seed=2)
test = make_toy_split(16, seed=3)

config = FusionConfig(mechanism="cross_attention", model_dim=8, heads=2, num_classes=2, hidden_dim=16)
head = build_fusion_head(config, text_dim=8, image_dim=8, seed=0)

train_config = TrainConfig(
    learning_rate=1e-3, batch_size=16, weight_decay=0.01,
    max_epochs=8, patience=2, seed=0,
)
head, state = train_loop(head, train, val, train_config)

print("epoch  train_loss  val_acc  val_ma-f1  improved")
for h in state.history:
    print(f"{h.epoch:>5}  {h.train_loss:>10.4f}  {h.val_accuracy:>7.3f}  "
          f"{h.val_macro_f1:>9.3f}  {'*' if h.improved else ''}")
print(f"\nstopped after epoch {state.epoch}; restored parameters from epoch "
      f"{state.best_epoch} (best val Macro-F1 {state.best_val_macro_f1:.3f})")

accuracy, macro_f1, _ = evaluate_split(head, test)
print(f"held-out test: accuracy {accuracy:.3f}, Macro-F1 {macro_f1:.3f}")

# same seed, same data -> bit-identical history
head2 = build_fusion_head(config, text_dim=8, image_dim=8, seed=0)
_, state2 = train_loop(head2, make_toy_split(32, seed=1), make_toy_split(16, seed=2), train_config)
identical = all(
    (a.train_loss, a.val_macro_f1) == (b.train_loss, b.val_macro_f1)
    for a, b in zip(state.history, state2.history)
)
print(f"re-run with the same seed reproduces the history bit for bit: {identical}")
