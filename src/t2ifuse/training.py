"""AdamW optimization, early stopping on validation Macro-F1, deterministic loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import LabelSpace
from .evaluation import PredictionSet, compute_metrics
from .fusion import FusionHead, PackBatch, fuse_forward
from .tensorcore import ParamStore, cross_entropy, save_checkpoint


class TrainingError(RuntimeError):
    pass


class NanGradientError(TrainingError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-5
    batch_size: int = 32
    weight_decay: float = 0.01
    max_epochs: int = 5
    patience: int = 2
    seed: int = 0
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    grad_clip_norm: float | None = None  # off by default

    def __post_init__(self):
        for name in ("learning_rate", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        clip = self.grad_clip_norm
        if clip is not None and not (math.isfinite(clip) and clip > 0):
            raise ValueError(f"grad_clip_norm must be finite and > 0, or null, got {clip}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")
        if not (0 < self.patience <= self.max_epochs):
            raise ValueError("patience must be in [1, max_epochs]")
        if not (0 < self.betas[0] < 1 and 0 < self.betas[1] < 1):
            raise ValueError("betas must lie in (0, 1)")


# Hyperparameter presets. "backbone-finetune" is the published recipe for
# fine-tuning a full encoder stack, and TrainConfig's defaults are its values;
# "frozen-head" suits a run where only the small fusion head trains, for which
# 2e-5 is needlessly slow.
TRAIN_PRESETS: dict[str, dict] = {
    "backbone-finetune": dict(
        learning_rate=2e-5, batch_size=32, weight_decay=0.01, max_epochs=5, patience=2
    ),
    "frozen-head": dict(
        learning_rate=1e-3, batch_size=32, weight_decay=0.01, max_epochs=5, patience=2
    ),
}


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float
    val_macro_f1: float
    improved: bool

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "val_acc": self.val_accuracy,
            "val_macro_f1": self.val_macro_f1,
            "improved": self.improved,
        }


@dataclass
class TrainState:
    epoch: int = 0
    best_epoch: int = 0
    best_val_macro_f1: float = float("-inf")
    best_params: dict[str, np.ndarray] | None = None
    epochs_since_improvement: int = 0
    history: list[EpochStats] = field(default_factory=list)


@dataclass
class LabeledPacks:
    """A split as one padded feature batch, row-aligned with its ids and
    label indices; training and evaluation cut sub-batches with ``take``."""

    ids: list[str]
    batch: PackBatch
    labels: np.ndarray
    label_space: LabelSpace

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if not (len(self.ids) == len(self.batch) == self.labels.shape[0]):
            raise TrainingError("ids, batch rows, and labels must align")
        if len(self.ids) == 0:
            raise TrainingError("empty split")
        if self.labels.size and self.labels.max() >= len(self.label_space):
            raise TrainingError("label index out of range")

    def __len__(self) -> int:
        return len(self.ids)


def adamw_step(store: ParamStore, config: TrainConfig, step_index: int) -> None:
    """Decoupled-weight-decay Adam update.

    m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2; with bias-corrected m^, v^:
    theta <- theta - lr * (m^ / (sqrt(v^) + eps) + wd * theta).

    The update runs once over the store's flat arena (``flat_params``,
    ``flat_grads``, ``flat_m``, ``flat_v``) rather than once per parameter.
    Every op is elementwise, so each element sees the same float operations
    in the same order as a per-parameter loop, and the result is identical
    to the bit. A non-finite gradient anywhere raises ``NanGradientError``
    naming the first parameter that holds one, before anything is updated.
    """
    if step_index < 1:
        raise ValueError("step_index starts at 1")
    g = store.flat_grads
    if not np.isfinite(g).all():
        name = next(n for n, grad in store.grads.items() if not np.isfinite(grad).all())
        raise NanGradientError(f"non-finite gradient in parameter {name!r}")
    b1, b2 = config.betas
    bc1 = 1.0 - b1**step_index
    bc2 = 1.0 - b2**step_index
    m, v, theta = store.flat_m, store.flat_v, store.flat_params
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    m_hat = m / bc1
    v_hat = v / bc2
    theta -= config.learning_rate * (
        m_hat / (np.sqrt(v_hat) + config.eps) + config.weight_decay * theta
    )


def _clip_gradients(store: ParamStore, max_norm: float) -> float:
    """Scale the gradients so their global L2 norm is at most ``max_norm``;
    returns the norm before clipping.

    The squared norm is summed in float64 one parameter at a time, in store
    order. One sum over the flat buffer would group the terms differently
    and can move the norm, and so the history, in the last bit.
    """
    total = 0.0
    for g in store.grads.values():
        total += float((g.astype(np.float64) ** 2).sum())
    norm = total**0.5
    if norm > max_norm:
        store.flat_grads *= max_norm / norm
    return norm


def _train_batch(head: FusionHead, data: LabeledPacks, indices: np.ndarray) -> float:
    if indices.size == 0:
        raise TrainingError("empty batch")
    out = fuse_forward(head, data.batch.take(indices), train_mode=True)
    loss, ce_backward = cross_entropy(out.logits, data.labels[indices])
    out.backward(ce_backward())
    return loss


def evaluate_split(
    head: FusionHead, data: LabeledPacks, batch_size: int = TrainConfig.batch_size
) -> tuple[float, float, PredictionSet]:
    """Accuracy and Macro-F1 on a split; logits are archived in the returned
    prediction set for report and bootstrap reuse.

    The split runs in chunks of ``batch_size`` rows, each trimmed to its
    longest sequence, which bounds the memory of one forward; a sample's
    logits do not depend on its chunk.
    """
    chunks = (
        data.batch.take(range(start, min(start + batch_size, len(data))))
        for start in range(0, len(data), batch_size)
    )
    logits = np.concatenate([fuse_forward(head, chunk).logits for chunk in chunks])
    preds = PredictionSet.from_logits(data.ids, data.labels, logits, data.label_space)
    report = compute_metrics(preds)
    return report.accuracy, report.macro_f1, preds


def train_loop(
    head: FusionHead,
    train: LabeledPacks,
    val: LabeledPacks,
    config: TrainConfig,
    *,
    val_metric_fn: Callable[[FusionHead, int], tuple[float, float]] | None = None,
    checkpoint_path: str | Path | None = None,
) -> tuple[FusionHead, TrainState]:
    """Optimize the head with AdamW and early stopping on validation Macro-F1.

    Shuffling is seeded from ``config.seed``, so a fixed (seed, config, data)
    triple reproduces the history bit for bit within one build mode. Training
    stops when validation Macro-F1 has not improved for ``patience`` epochs
    (ties count as no improvement) or at ``max_epochs``; the parameters from
    the best epoch are restored before returning.

    ``val_metric_fn`` replaces the real validation pass when supplied; it is a
    verification hook for exercising the stopping protocol.
    """
    rng = np.random.default_rng(config.seed)
    head.reset_train_rng(config.seed)  # dropout masks, when enabled
    state = TrainState()
    step = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            head.params.zero_grads()
            losses.append(_train_batch(head, train, batch))
            if config.grad_clip_norm is not None:
                _clip_gradients(head.params, config.grad_clip_norm)
            step += 1
            adamw_step(head.params, config, step)
        train_loss = float(np.mean(losses))

        if val_metric_fn is not None:
            val_acc, val_f1 = val_metric_fn(head, epoch)
        else:
            val_acc, val_f1, _ = evaluate_split(head, val, config.batch_size)

        improved = val_f1 > state.best_val_macro_f1
        if improved:
            state.best_val_macro_f1 = val_f1
            state.best_epoch = epoch
            state.best_params = head.params.snapshot()
            state.epochs_since_improvement = 0
        else:
            state.epochs_since_improvement += 1
        state.epoch = epoch
        stats = EpochStats(
            epoch=epoch,
            train_loss=train_loss,
            val_accuracy=val_acc,
            val_macro_f1=val_f1,
            improved=improved,
        )
        state.history.append(stats)
        if state.epochs_since_improvement >= config.patience:
            break

    if state.best_params is not None:
        head.params.restore(state.best_params)
    if checkpoint_path is not None:
        save_checkpoint(head.params, Path(checkpoint_path))
    return head, state
