"""Fusion heads mapping text/image feature packs to class logits.

Three mechanisms are provided:

- ``concat``: input projections, pooled-vector concatenation, 2-layer MLP.
- ``cross_attention``: one decoder-style block in which projected text tokens
  query projected image tokens, followed by mean pooling and an MLP.
- ``deep_prefix``: learned visual prefix tokens derived from the pooled image
  vector are prepended to the text tokens and the joint sequence runs through
  a small self-attention encoder stack (no positional encoding on the prefix),
  then mean pooling over all positions and an MLP.

Heads run on a padded batch: a ``PackBatch`` stacks the token sequences of B
packs, padded with zero rows to the longest text and image sequence, with
boolean masks marking the real positions. Every attention block masks padded
keys and every pooling averages real positions only, so a sample's logits do
not depend on what it is batched with, and padded rows take zero gradient.
A lone ``FeaturePack`` runs as a batch of one whose batch axis is dropped from
the output.

Only the head trains; encoders are external providers and stay frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .embedding import FeaturePack
from . import tensorcore as tc
from .tensorcore import ParamStore, ShapeError

MECHANISMS = ("concat", "cross_attention", "deep_prefix")


class FusionConfigError(ValueError):
    pass


@dataclass(frozen=True)
class FusionConfig:
    mechanism: str = "cross_attention"
    model_dim: int = 16
    heads: int = 2
    encoder_layers: int = 2  # deep_prefix only
    visual_prefix_len: int = 2  # deep_prefix only
    num_classes: int = 2
    hidden_dim: int = 32
    dropout_rate: float = 0.0  # applied before the classifier MLP in train mode

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise FusionConfigError(f"unknown fusion mechanism {self.mechanism!r}")
        if self.model_dim < 1 or self.hidden_dim < 1:
            raise FusionConfigError("model_dim and hidden_dim must be positive")
        if self.heads < 1 or self.model_dim % self.heads != 0:
            raise FusionConfigError(
                f"heads={self.heads} must divide model_dim={self.model_dim}"
            )
        if self.num_classes < 2:
            raise FusionConfigError("num_classes must be >= 2")
        if self.mechanism == "deep_prefix":
            if self.encoder_layers < 1:
                raise FusionConfigError("deep_prefix needs encoder_layers >= 1")
            if self.visual_prefix_len < 1:
                raise FusionConfigError("deep_prefix needs visual_prefix_len >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise FusionConfigError("dropout_rate must be in [0, 1)")


@dataclass
class AttentionBundle:
    """Post-softmax attention weights captured during a forward pass.

    ``kind`` is "cross" (queries = text tokens, keys = image tokens) or
    "self" (joint sequence of ``prefix_len`` visual tokens + text tokens).
    ``maps`` holds one (B, heads, queries, keys) array per attention block,
    or (heads, queries, keys) when the forward ran on a lone pack.
    """

    kind: str
    maps: list[np.ndarray]
    prefix_len: int = 0


@dataclass
class FusionOutput:
    logits: np.ndarray  # (B, num_classes), or (num_classes,) for a lone pack
    attention: AttentionBundle | None
    backward: Callable[[np.ndarray], None]  # accumulates parameter grads


@dataclass(frozen=True)
class PackBatch:
    """B feature packs stacked into zero-padded arrays.

    Token arrays are (B, L, dim) with L the longest sequence in the batch;
    a mask is True at real positions and False at padding.
    """

    text_tokens: np.ndarray  # (B, T, text_dim)
    text_mask: np.ndarray  # (B, T) bool
    image_tokens: np.ndarray  # (B, I, image_dim)
    image_mask: np.ndarray  # (B, I) bool
    text_pooled: np.ndarray  # (B, text_dim)
    image_pooled: np.ndarray  # (B, image_dim)

    def __len__(self) -> int:
        return self.text_tokens.shape[0]

    @classmethod
    def from_packs(cls, packs: Sequence[FeaturePack], dtype=np.float64) -> "PackBatch":
        if not packs:
            raise ShapeError("a pack batch needs at least one pack")
        text_tokens, text_mask = _pad([p.text_tokens for p in packs], "text", dtype)
        image_tokens, image_mask = _pad([p.image_tokens for p in packs], "image", dtype)
        return cls(
            text_tokens=text_tokens,
            text_mask=text_mask,
            image_tokens=image_tokens,
            image_mask=image_mask,
            text_pooled=np.stack([p.text_pooled for p in packs]).astype(dtype, copy=False),
            image_pooled=np.stack([p.image_pooled for p in packs]).astype(dtype, copy=False),
        )


def _pad(seqs: list[np.ndarray], kind: str, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Stack (n_i, dim) sequences into a zero-padded (B, max n_i, dim) array
    and its (B, max n_i) mask of real positions."""
    lengths = np.array([s.shape[0] for s in seqs])
    dims = {s.shape[1] for s in seqs}
    if len(dims) != 1:
        raise ShapeError(f"packs in one batch have different {kind} dims {sorted(dims)}")
    if lengths.min() < 1:
        raise ShapeError("token sequences must be non-empty")
    mask = np.arange(lengths.max()) < lengths[:, None]
    out = np.zeros(mask.shape + (dims.pop(),), dtype=dtype)
    out[mask] = np.concatenate(seqs)
    return out, mask


@dataclass
class FusionHead:
    config: FusionConfig
    text_dim: int
    image_dim: int
    params: ParamStore
    # Advances across train-mode forwards; reseed via reset_train_rng for a
    # deterministic run. Inference never touches it.
    train_rng: np.random.Generator | None = None

    @property
    def num_params(self) -> int:
        return self.params.num_params

    def reset_train_rng(self, seed: int) -> None:
        self.train_rng = np.random.default_rng(seed)


def _ffn_dim(config: FusionConfig) -> int:
    return 2 * config.model_dim


def build_fusion_head(
    config: FusionConfig,
    text_dim: int,
    image_dim: int,
    seed: int,
    dtype=np.float32,
) -> FusionHead:
    """Allocate and seed all parameters for the configured mechanism.

    Builds are deterministic: same config, dims, and seed give bit-identical
    initial parameters.
    """
    if text_dim < 1 or image_dim < 1:
        raise FusionConfigError("input dims must be positive")
    d = config.model_dim
    store = ParamStore(seed, dtype=dtype)
    store.add("text_proj.w", text_dim, d)
    store.add("text_proj.b", 1, d, init="zeros")

    def add_block(prefix: str):
        store.add(f"{prefix}.attn.wq", d, d)
        store.add(f"{prefix}.attn.wk", d, d)
        store.add(f"{prefix}.attn.wv", d, d)
        store.add(f"{prefix}.attn.wo", d, d)
        store.add(f"{prefix}.ln1.gain", 1, d, init="ones")
        store.add(f"{prefix}.ln1.shift", 1, d, init="zeros")
        store.add(f"{prefix}.ffn.w1", d, _ffn_dim(config))
        store.add(f"{prefix}.ffn.b1", 1, _ffn_dim(config), init="zeros")
        store.add(f"{prefix}.ffn.w2", _ffn_dim(config), d)
        store.add(f"{prefix}.ffn.b2", 1, d, init="zeros")
        store.add(f"{prefix}.ln2.gain", 1, d, init="ones")
        store.add(f"{prefix}.ln2.shift", 1, d, init="zeros")

    if config.mechanism == "concat":
        store.add("image_proj.w", image_dim, d)
        store.add("image_proj.b", 1, d, init="zeros")
        cls_in = 2 * d
    elif config.mechanism == "cross_attention":
        store.add("image_proj.w", image_dim, d)
        store.add("image_proj.b", 1, d, init="zeros")
        add_block("xattn")
        cls_in = d
    else:  # deep_prefix
        store.add("prefix.w", image_dim, config.visual_prefix_len * d)
        store.add("prefix.b", 1, config.visual_prefix_len * d, init="zeros")
        for layer in range(config.encoder_layers):
            add_block(f"enc{layer}")
        cls_in = d

    store.add("cls.w1", cls_in, config.hidden_dim)
    store.add("cls.b1", 1, config.hidden_dim, init="zeros")
    store.add("cls.w2", config.hidden_dim, config.num_classes)
    store.add("cls.b2", 1, config.num_classes, init="zeros")
    return FusionHead(config=config, text_dim=text_dim, image_dim=image_dim, params=store)


def _check_batch(head: FusionHead, batch: PackBatch) -> None:
    if batch.text_tokens.shape[2] != head.text_dim:
        raise ShapeError(
            f"pack text dim {batch.text_tokens.shape[2]} != head text dim {head.text_dim}"
        )
    if batch.image_tokens.shape[2] != head.image_dim:
        raise ShapeError(
            f"pack image dim {batch.image_tokens.shape[2]} != head image dim {head.image_dim}"
        )


def _affine(store: ParamStore, x: np.ndarray, w_name: str, b_name: str):
    """``x @ w + b`` over the last axis of ``x``, any leading shape.

    backward(g) accumulates the parameter gradients and returns dx.
    """
    out, back = tc.dense_affine(
        x.reshape(-1, x.shape[-1]), store.params[w_name], store.params[b_name]
    )

    def backward(grad: np.ndarray) -> np.ndarray:
        dx, dw, db = back(np.asarray(grad).reshape(out.shape))
        store.accumulate(w_name, dw)
        store.accumulate(b_name, db)
        return dx.reshape(x.shape)

    return out.reshape(x.shape[:-1] + out.shape[-1:]), backward


def _layer_norm(store: ParamStore, x: np.ndarray, prefix: str):
    """Layer norm with parameters ``prefix.gain``/``prefix.shift``;
    backward(g) accumulates their gradients and returns dx."""
    out, back = tc.layer_norm(x, store.params[f"{prefix}.gain"], store.params[f"{prefix}.shift"])

    def backward(grad: np.ndarray) -> np.ndarray:
        dx, dgain, dshift = back(grad)
        store.accumulate(f"{prefix}.gain", dgain)
        store.accumulate(f"{prefix}.shift", dshift)
        return dx

    return out, backward


def _classifier(store: ParamStore, x: np.ndarray, train_mode: bool, config: FusionConfig, rng):
    b_drop = None
    if train_mode and config.dropout_rate > 0.0:
        x, b_drop = tc.dropout(x, config.dropout_rate, rng)
    h, b1 = _affine(store, x, "cls.w1", "cls.b1")
    g, bg = tc.gelu(h)
    logits, b2 = _affine(store, g, "cls.w2", "cls.b2")

    def backward(grad: np.ndarray) -> np.ndarray:
        dx = b1(bg(b2(grad))[0])
        return dx if b_drop is None else b_drop(dx)[0]

    return logits, backward


def _encoder_block(store: ParamStore, prefix: str, q_in: np.ndarray, kv_in: np.ndarray,
                   heads: int, key_mask: np.ndarray):
    """Attention + residual + norm + feed-forward + residual + norm.

    ``q_in`` is (B, m, d) and ``kv_in`` is (B, n, d) with key mask (B, n);
    the row-wise layers run on the flattened (B*m, d) view. When ``q_in is
    kv_in`` the block is a self-attention encoder layer and the returned
    backward folds both gradient paths into one input gradient.
    """
    p = store.params
    attn_names = [f"{prefix}.attn.{w}" for w in ("wq", "wk", "wv", "wo")]
    attn, maps, b_attn = tc.multi_head_attention(
        q_in, kv_in, *(p[name] for name in attn_names), heads, key_mask
    )
    shape = q_in.shape
    n1, b_ln1 = _layer_norm(store, (q_in + attn).reshape(-1, shape[-1]), f"{prefix}.ln1")
    f1, b_f1 = _affine(store, n1, f"{prefix}.ffn.w1", f"{prefix}.ffn.b1")
    g1, b_g = tc.gelu(f1)
    f2, b_f2 = _affine(store, g1, f"{prefix}.ffn.w2", f"{prefix}.ffn.b2")
    out, b_ln2 = _layer_norm(store, n1 + f2, f"{prefix}.ln2")
    self_attention = q_in is kv_in

    def backward(grad: np.ndarray):
        dr2 = b_ln2(np.asarray(grad).reshape(out.shape))
        dn1 = dr2 + b_f1(b_g(b_f2(dr2))[0])  # residual path + feed-forward path
        dr1 = b_ln1(dn1).reshape(shape)
        dq, dkv, *d_weights = b_attn(dr1)
        for name, grad_w in zip(attn_names, d_weights):
            store.accumulate(name, grad_w)
        dq_total = dq + dr1  # residual path
        if self_attention:
            return dq_total + dkv, None
        return dq_total, dkv

    return out.reshape(shape), maps, backward


def _unbatch(out: FusionOutput) -> FusionOutput:
    """A batch-of-one output with the batch axis dropped everywhere."""
    bundle = out.attention
    if bundle is not None:
        bundle = AttentionBundle(bundle.kind, [m[0] for m in bundle.maps], bundle.prefix_len)
    batched_backward = out.backward

    def backward(dlogits: np.ndarray) -> None:
        batched_backward(np.asarray(dlogits).reshape(1, -1))

    return FusionOutput(logits=out.logits[0], attention=bundle, backward=backward)


def fuse_forward(head: FusionHead, batch: PackBatch | FeaturePack,
                 train_mode: bool = False) -> FusionOutput:
    """Run the head on a padded batch of feature packs.

    Returns (B, num_classes) logits, the attention maps of the attention
    mechanisms as (B, heads, queries, keys) arrays, and one ``backward``
    closure that accumulates parameter gradients from the (B, num_classes)
    gradient d(loss)/d(logits). Padded keys get attention weight 0 and padded
    positions are left out of every pooling, so each row of the logits equals
    that pack's logits computed alone.

    A lone ``FeaturePack`` runs as a batch of one with the batch axis dropped:
    logits (num_classes,), maps (heads, queries, keys), and a backward taking
    a (num_classes,) gradient.
    """
    if isinstance(batch, FeaturePack):
        batch_of_one = PackBatch.from_packs([batch], head.params.dtype)
        return _unbatch(fuse_forward(head, batch_of_one, train_mode))
    _check_batch(head, batch)
    config = head.config
    store = head.params
    dtype = store.dtype
    rng = None
    if train_mode and config.dropout_rate > 0.0:
        if head.train_rng is None:
            head.reset_train_rng(store.seed)
        rng = head.train_rng

    text_tokens = batch.text_tokens.astype(dtype, copy=False)
    image_tokens = batch.image_tokens.astype(dtype, copy=False)
    text_pooled = batch.text_pooled.astype(dtype, copy=False)
    image_pooled = batch.image_pooled.astype(dtype, copy=False)

    if config.mechanism == "concat":
        ht, b_t = _affine(store, text_pooled, "text_proj.w", "text_proj.b")
        hi, b_i = _affine(store, image_pooled, "image_proj.w", "image_proj.b")
        pooled, b_cat = tc.concat_cols(ht, hi)
        bundle = None

        def features_backward(dpooled: np.ndarray) -> None:
            dht, dhi = b_cat(dpooled)
            b_t(dht)
            b_i(dhi)

    elif config.mechanism == "cross_attention":
        t_seq, b_tp = _affine(store, text_tokens, "text_proj.w", "text_proj.b")
        i_seq, b_ip = _affine(store, image_tokens, "image_proj.w", "image_proj.b")
        fused, maps, b_block = _encoder_block(
            store, "xattn", t_seq, i_seq, config.heads, batch.image_mask
        )
        pooled, b_pool = tc.masked_mean_pool(fused, batch.text_mask)
        bundle = AttentionBundle(kind="cross", maps=[maps])

        def features_backward(dpooled: np.ndarray) -> None:
            dt, di = b_block(*b_pool(dpooled))
            b_tp(dt)
            b_ip(di)

    else:  # deep_prefix
        k = config.visual_prefix_len
        d = config.model_dim
        prefix_flat, b_pref = _affine(store, image_pooled, "prefix.w", "prefix.b")
        t_seq, b_tp = _affine(store, text_tokens, "text_proj.w", "text_proj.b")
        x = np.concatenate([prefix_flat.reshape(len(batch), k, d), t_seq], axis=1)
        mask = np.concatenate([np.ones((len(batch), k), dtype=bool), batch.text_mask], axis=1)
        block_backs = []
        all_maps = []
        for layer in range(config.encoder_layers):
            x, maps, b_block = _encoder_block(store, f"enc{layer}", x, x, config.heads, mask)
            all_maps.append(maps)
            block_backs.append(b_block)
        pooled, b_pool = tc.masked_mean_pool(x, mask)
        bundle = AttentionBundle(kind="self", maps=all_maps, prefix_len=k)

        def features_backward(dpooled: np.ndarray) -> None:
            (dx,) = b_pool(dpooled)
            for b_block in reversed(block_backs):
                dx, _ = b_block(dx)
            b_pref(dx[:, :k].reshape(prefix_flat.shape))
            b_tp(dx[:, k:])

    logits, b_cls = _classifier(store, pooled, train_mode, config, rng)

    def backward(dlogits: np.ndarray) -> None:
        features_backward(b_cls(np.asarray(dlogits)))

    return FusionOutput(logits=logits, attention=bundle, backward=backward)


def head_averaged_map(bundle: AttentionBundle, layer: int = -1) -> np.ndarray:
    """Average the chosen block's attention weights over heads -> (queries, keys),
    or (B, queries, keys) for a batched bundle."""
    if not bundle.maps:
        raise ValueError("bundle has no attention maps")
    return bundle.maps[layer].mean(axis=-3)


def export_attention(
    bundle: AttentionBundle,
    text_token_labels: list[str],
    image_token_labels: list[str],
    layer: int = -1,
) -> str:
    """Render head-averaged attention weights as a tab-delimited heatmap table.

    For "cross" bundles rows are text tokens and columns are image tokens; for
    "self" bundles both axes are the joint sequence (visual prefix labels
    followed by text labels). Every row of post-softmax weights sums to 1.
    """
    matrix = head_averaged_map(bundle, layer)
    if bundle.kind == "cross":
        row_labels = list(text_token_labels)
        col_labels = list(image_token_labels)
    elif bundle.kind == "self":
        if len(image_token_labels) != bundle.prefix_len:
            raise ValueError(
                f"expected {bundle.prefix_len} visual prefix labels, got {len(image_token_labels)}"
            )
        joint = list(image_token_labels) + list(text_token_labels)
        row_labels = joint
        col_labels = joint
    else:
        raise ValueError(f"unknown bundle kind {bundle.kind!r}")

    if matrix.shape != (len(row_labels), len(col_labels)):
        raise ValueError(
            f"label counts {(len(row_labels), len(col_labels))} do not match map shape {matrix.shape}"
        )
    row_sums = matrix.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-6:
        raise ValueError("attention rows must sum to 1")

    lines = ["token\t" + "\t".join(col_labels)]
    for label, row in zip(row_labels, matrix):
        lines.append(label + "\t" + "\t".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
