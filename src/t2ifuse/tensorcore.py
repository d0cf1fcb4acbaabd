"""Dense kernels with hand-written reverse-mode gradients.

Every op returns its output together with a ``backward`` closure mapping the
upstream gradient to input gradients. The fusion heads compose these closures
explicitly; there is no general-purpose tape. Two build modes are supported:
float64 for gradient verification, float32 for training runs.

Shape convention: row-wise ops (``dense_affine``, ``layer_norm``, ``gelu``,
``dropout``, ``concat_cols``) take 2-D ``numpy`` arrays (rows x cols); a
padded batch of sequences runs through them as its flattened (B*L, d) view.
Sequence ops take a leading batch axis: ``multi_head_attention`` maps
(B, L, d) inputs plus a boolean (B, n) key mask, and ``masked_mean_pool``
maps (B, L, d) plus a (B, L) mask to (B, d). A mask is True at real positions
and False at padding; padded positions get exactly zero weight and exactly
zero gradient. Parameters, bias and gain/shift vectors are 2-D (1 x d for the
vectors).

``ParamStore`` keeps a head's parameters, gradients and optimizer moments in
a flat arena: one contiguous buffer each, with every named parameter and
gradient a reshaped view into it. The ops above read and accumulate through
the views; the optimizer and ``zero_grads`` work on the whole buffers at once.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .storage import atomic_write_bytes


class ShapeError(ValueError):
    pass


class NondeterministicClosureError(RuntimeError):
    pass


def _check_ndim(name: str, x: np.ndarray, ndim: int = 2) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {x.shape}")
    return x


class ParamStore:
    """Named 2-D parameters held in one flat arena.

    Four contiguous 1-D buffers of the store's dtype hold every parameter,
    its gradient and its two AdamW moments: ``flat_params``, ``flat_grads``,
    ``flat_m`` and ``flat_v``. Names are laid out in the order they were
    added. ``params[name]`` and ``grads[name]`` are reshaped views into the
    first two buffers, so an in-place write through a view reaches the
    arena, and a whole-store operation (an optimizer step, ``zero_grads``,
    ``snapshot``) is one vectorized pass. Callers must never rebind a view:
    write into it with ``[...] =`` or an in-place operator.

    ``add`` re-packs the existing values into new, larger buffers and
    rebinds every view, so an array obtained before a later ``add`` no
    longer aliases the store. Heads add all their parameters up front and
    hold no views across an ``add``.

    Initialization is seeded: weight matrices are uniform(-s, s) with
    s = sqrt(6 / (fan_in + fan_out)); "zeros"/"ones" cover biases and
    normalization gains.
    """

    def __init__(self, seed: int, dtype=np.float32):
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self._rng = np.random.default_rng(self.seed)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.flat_params = np.zeros(0, dtype=self.dtype)
        self.flat_grads = np.zeros(0, dtype=self.dtype)
        self.flat_m = np.zeros(0, dtype=self.dtype)
        self.flat_v = np.zeros(0, dtype=self.dtype)

    def add(self, name: str, rows: int, cols: int, init: str = "uniform_fan") -> np.ndarray:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if rows < 1 or cols < 1:
            raise ShapeError(f"parameter {name!r}: non-positive shape ({rows}, {cols})")
        if init == "uniform_fan":
            s = math.sqrt(6.0 / (rows + cols))
            value = self._rng.uniform(-s, s, size=(rows, cols))
        elif init == "zeros":
            value = np.zeros((rows, cols))
        elif init == "ones":
            value = np.ones((rows, cols))
        else:
            raise ValueError(f"unknown init {init!r}")
        shapes = self._shapes() + [(name, (rows, cols))]
        used = self.flat_params.size
        buffers = []
        for old in (self.flat_params, self.flat_grads, self.flat_m, self.flat_v):
            buf = np.zeros(used + rows * cols, dtype=self.dtype)
            buf[:used] = old
            buffers.append(buf)
        self.flat_params, self.flat_grads, self.flat_m, self.flat_v = buffers
        self.flat_params[used:] = value.astype(self.dtype).reshape(-1)
        self._bind(self.params, self.flat_params, shapes)
        self._bind(self.grads, self.flat_grads, shapes)
        return self.params[name]

    def _shapes(self) -> list[tuple[str, tuple[int, int]]]:
        return [(name, p.shape) for name, p in self.params.items()]

    @staticmethod
    def _bind(views: dict[str, np.ndarray], flat: np.ndarray, shapes) -> dict[str, np.ndarray]:
        """Point ``views[name]`` at its span of ``flat``, in ``shapes`` order."""
        offset = 0
        for name, (rows, cols) in shapes:
            views[name] = flat[offset : offset + rows * cols].reshape(rows, cols)
            offset += rows * cols
        return views

    def zero_grads(self) -> None:
        self.flat_grads.fill(0.0)

    def accumulate(self, name: str, grad: np.ndarray) -> None:
        buf = self.grads[name]
        grad = np.asarray(grad)
        if grad.shape != buf.shape:
            raise ShapeError(
                f"gradient for {name!r} has shape {grad.shape}, expected {buf.shape}"
            )
        buf += grad

    @property
    def num_params(self) -> int:
        return self.flat_params.size

    def snapshot(self) -> dict[str, np.ndarray]:
        """A copy of every parameter: one copy of the arena, returned as
        per-name views into it."""
        return self._bind({}, self.flat_params.copy(), self._shapes())

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter from ``snapshot``, which must hold
        exactly the store's names with matching shapes. Nothing is written
        unless the whole snapshot checks out."""
        for name, value in snapshot.items():
            if name not in self.params:
                raise KeyError(f"snapshot parameter {name!r} not in store")
            if np.shape(value) != self.params[name].shape:
                raise ShapeError(f"snapshot shape mismatch for {name!r}")
        for name in self.params:
            if name not in snapshot:
                raise KeyError(f"snapshot lacks parameter {name!r}")
        for name, view in self.params.items():
            view[...] = snapshot[name]


# --- checkpoint container -----------------------------------------------
# Layout: magic "NTC1" | uint32 tensor count | per tensor:
#   uint16 name length | name utf-8 | uint32 rows | uint32 cols |
#   float32 little-endian row-major values.
# A sibling "<path>.manifest.json" records shapes and the init seed.

CHECKPOINT_MAGIC = b"NTC1"


def checkpoint_bytes(store: ParamStore) -> tuple[bytes, bytes]:
    """The ``NTC1`` container of ``store`` and its sibling manifest."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", len(store.params))]
    for name in sorted(store.params):
        p = store.params[name]
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<II", p.shape[0], p.shape[1]))
        chunks.append(np.ascontiguousarray(p, dtype="<f4").tobytes())
    manifest = {
        "init_seed": store.seed,
        "shapes": {name: list(p.shape) for name, p in sorted(store.params.items())},
    }
    return b"".join(chunks), json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8")


def save_checkpoint(store: ParamStore, path: str | Path) -> Path:
    path = Path(path)
    container, manifest = checkpoint_bytes(store)
    atomic_write_bytes(path, container)
    atomic_write_bytes(path.with_name(path.name + ".manifest.json"), manifest)
    return path


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read an ``NTC1`` container. A container that ends before its last
    tensor does, or holds bytes after it, raises ``ValueError`` naming
    ``path``."""
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a parameter container")
    offset = 4

    def take(n_bytes: int) -> int:
        nonlocal offset
        if offset + n_bytes > len(data):
            raise ValueError(
                f"{path}: truncated parameter container ({len(data)} bytes, "
                f"needs at least {offset + n_bytes})"
            )
        offset += n_bytes
        return offset - n_bytes

    (count,) = struct.unpack_from("<I", data, take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, take(2))
        at = take(name_len)
        name = data[at : at + name_len].decode("utf-8")
        rows, cols = struct.unpack_from("<II", data, take(8))
        values = np.frombuffer(data, dtype="<f4", count=rows * cols, offset=take(rows * cols * 4))
        tensors[name] = values.reshape(rows, cols).copy()
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes after the last tensor")
    return tensors


# --- primitives -----------------------------------------------------------


def dense_affine(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """out = x @ w + b with bias broadcast over rows.

    backward(g) -> (dx, dw, db).
    """
    x = _check_ndim("x", x)
    w = _check_ndim("w", w)
    b = _check_ndim("b", b)
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"x cols {x.shape[1]} != w rows {w.shape[0]}")
    if b.shape != (1, w.shape[1]):
        raise ShapeError(f"bias must be 1x{w.shape[1]}, got {b.shape}")
    out = x @ w + b

    def backward(g: np.ndarray):
        g = np.asarray(g)
        return g @ w.T, x.T @ g, g.sum(axis=0, keepdims=True)

    return out, backward


def softmax_rows(x: np.ndarray):
    """Softmax over the last axis with max-subtraction, so every row of an
    array of any leading shape sums to 1; backward(g) -> (dx,)."""
    x = np.asarray(x)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray):
        g = np.asarray(g)
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return p, backward


def layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray, eps: float = 1e-5):
    """Per-row standardization scaled by gain and offset by shift.

    backward(g) -> (dx, dgain, dshift).
    """
    x = _check_ndim("x", x)
    gain = _check_ndim("gain", gain)
    shift = _check_ndim("shift", shift)
    d = x.shape[1]
    if gain.shape != (1, d) or shift.shape != (1, d):
        raise ShapeError(f"gain/shift must be 1x{d}")
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = xhat * gain + shift

    def backward(g: np.ndarray):
        g = np.asarray(g)
        gy = g * gain
        dx = inv * (
            gy
            - gy.mean(axis=1, keepdims=True)
            - xhat * (gy * xhat).mean(axis=1, keepdims=True)
        )
        dgain = (g * xhat).sum(axis=0, keepdims=True)
        dshift = g.sum(axis=0, keepdims=True)
        return dx, dgain, dshift

    return out, backward


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: np.ndarray):
    """Smooth GELU (tanh form); backward(g) -> (dx,)."""
    x = _check_ndim("x", x)
    u = _GELU_C * (x + _GELU_A * x**3)
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)

    def backward(g: np.ndarray):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
        dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du
        return (np.asarray(g) * dx,)

    return out, backward


def masked_mean_pool(x: np.ndarray, mask: np.ndarray):
    """Mean over the real positions of each sequence: (B, L, d) with a boolean
    (B, L) mask -> (B, d). backward(g) -> (dx,), exactly zero on padded rows.
    """
    x = _check_ndim("x", x, 3)
    mask = _check_ndim("mask", mask, 2).astype(bool)
    if mask.shape != x.shape[:2]:
        raise ShapeError(f"mask shape {mask.shape} != sequence shape {x.shape[:2]}")
    count = mask.sum(axis=1)
    if count.min() < 1:
        raise ShapeError("every sequence needs at least one unmasked position")
    weight = mask[:, :, None].astype(x.dtype)
    out = (x * weight).sum(axis=1) / count[:, None].astype(x.dtype)

    def backward(g: np.ndarray):
        g = np.asarray(g)
        return (weight * (g / count[:, None].astype(x.dtype))[:, None, :],)

    return out, backward


def concat_cols(a: np.ndarray, b: np.ndarray):
    """Column-wise concatenation; backward(g) -> (da, db)."""
    a = _check_ndim("a", a)
    b = _check_ndim("b", b)
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"row mismatch {a.shape[0]} vs {b.shape[0]}")
    out = np.concatenate([a, b], axis=1)
    split = a.shape[1]

    def backward(g: np.ndarray):
        g = np.asarray(g)
        return g[:, :split], g[:, split:]

    return out, backward


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator):
    """Inverted dropout with a seeded mask; backward(g) -> (dx,)."""
    x = _check_ndim("x", x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x, lambda g: (np.asarray(g),)
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    scale = 1.0 / (1.0 - rate)
    out = x * keep * scale

    def backward(g: np.ndarray):
        return (np.asarray(g) * keep * scale,)

    return out, backward


# Score given to masked keys before the softmax. It is finite, so a row
# whose keys are all masked stays finite (uniform weights), and far enough
# below any real score that exp() of a masked key underflows to exactly 0.
MASKED_SCORE = -1e9


def multi_head_attention(
    q_in: np.ndarray,
    kv_in: np.ndarray,
    w_q: np.ndarray,
    w_k: np.ndarray,
    w_v: np.ndarray,
    w_o: np.ndarray,
    heads: int,
    key_mask: np.ndarray | None = None,
):
    """Batched scaled dot-product attention; queries come from ``q_in``
    (B, m, d), keys/values from ``kv_in`` (B, n, d). Head ``i`` uses column
    block ``[i*dh, (i+1)*dh)`` of the projections, with scale 1/sqrt(dh).
    ``key_mask`` (B, n) is True at real keys; ``None`` means no padding.
    In every query row with at least one real key, masked keys get weight
    exactly 0, so their ``kv_in`` rows get exactly zero gradient. A row whose
    keys are all masked stays finite and weighs them uniformly.

    Returns ``(out, maps, backward)`` where ``out`` is (B, m, d), ``maps``
    holds the post-softmax weights, shape (B, heads, m, n), and
    ``backward(g) -> (d_q_in, d_kv_in, d_wq, d_wk, d_wv, d_wo)``.
    """
    q_in = _check_ndim("q_in", q_in, 3)
    kv_in = _check_ndim("kv_in", kv_in, 3)
    batch, m, d = q_in.shape
    batch_kv, n, d_kv = kv_in.shape
    if d_kv != d:
        raise ShapeError(f"query dim {d} != key/value dim {d_kv}")
    if batch_kv != batch:
        raise ShapeError(f"query batch {batch} != key/value batch {batch_kv}")
    for name, w in (("w_q", w_q), ("w_k", w_k), ("w_v", w_v), ("w_o", w_o)):
        w = _check_ndim(name, w)
        if w.shape != (d, d):
            raise ShapeError(f"{name} must be {d}x{d}, got {w.shape}")
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"heads={heads} must divide model dim {d}")
    if key_mask is not None:
        key_mask = _check_ndim("key_mask", key_mask).astype(bool)
        if key_mask.shape != (batch, n):
            raise ShapeError(f"key_mask must be ({batch}, {n}), got {key_mask.shape}")
        key_mask = key_mask[:, None, None, :]  # broadcast over heads and queries
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split_heads(x):  # (B, L, d) -> (B, heads, L, dh)
        return x.reshape(batch, -1, heads, dh).transpose(0, 2, 1, 3)

    def merge_heads(x):  # (B, heads, L, dh) -> (B*L, d)
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    q_flat = q_in.reshape(-1, d)
    kv_flat = kv_in.reshape(-1, d)
    q = split_heads(q_flat @ w_q)
    k = split_heads(kv_flat @ w_k)
    v = split_heads(kv_flat @ w_v)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    if key_mask is not None:
        scores = np.where(key_mask, scores, scores.dtype.type(MASKED_SCORE))
    maps, softmax_back = softmax_rows(scores)
    ctx = merge_heads(maps @ v)
    out = (ctx @ w_o).reshape(batch, m, d)

    def backward(g: np.ndarray):
        g = np.asarray(g).reshape(-1, d)
        d_ctx = split_heads(g @ w_o.T)
        d_wo = ctx.T @ g
        dv = maps.transpose(0, 1, 3, 2) @ d_ctx
        (ds,) = softmax_back(d_ctx @ v.transpose(0, 1, 3, 2))
        if key_mask is not None:
            ds = np.where(key_mask, ds, 0.0)
        ds = ds * scale
        dq = merge_heads(ds @ k)
        dk = merge_heads(ds.transpose(0, 1, 3, 2) @ q)
        dv = merge_heads(dv)
        d_q_in = (dq @ w_q.T).reshape(q_in.shape)
        d_kv_in = (dk @ w_k.T + dv @ w_v.T).reshape(kv_in.shape)
        return d_q_in, d_kv_in, q_flat.T @ dq, kv_flat.T @ dk, kv_flat.T @ dv, d_wo

    return out, maps, backward


def cross_entropy(logits: np.ndarray, labels) -> tuple[float, Callable[[], np.ndarray]]:
    """Mean negative log-likelihood over rows.

    ``backward()`` returns d(loss)/d(logits) = (softmax - onehot) / n.
    """
    logits = _check_ndim("logits", logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexError(f"label out of range for {c} classes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    loss = float(-log_p[np.arange(n), labels].mean())
    p = np.exp(log_p)

    def backward() -> np.ndarray:
        g = p.copy()
        g[np.arange(n), labels] -= 1.0
        return g * (1.0 / n)  # not g / n, which rounds differently

    return loss, backward


# --- finite-difference verification ---------------------------------------


@dataclass
class GradCheckReport:
    tolerance: float
    per_param: dict[str, float]
    max_rel_err: float
    passed: bool

    def __str__(self) -> str:
        lines = [f"grad check ({'pass' if self.passed else 'FAIL'}), tol={self.tolerance:g}"]
        for name, err in sorted(self.per_param.items()):
            lines.append(f"  {name}: max rel err {err:.3e}")
        return "\n".join(lines)


GRAD_CHECK_STEP = 1e-5  # of the central finite differences
GRAD_CHECK_SAMPLE = 50  # coordinates probed per tensor


def grad_check(
    loss_fn: Callable[[], float],
    store: ParamStore,
    tolerance: float = 1e-4,
    *,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must be deterministic, return a scalar loss, and populate
    ``store.grads`` as a side effect (the store is zeroed before the call).
    Each tensor is probed on a random subsample of ``GRAD_CHECK_SAMPLE``
    coordinates (all of them when the tensor has no more). Relative error is
    |a - n| / max(|a|, |n|, 1e-8). Requires the float64 build mode.
    """
    if store.dtype != np.float64:
        raise ValueError("grad_check requires a float64 ParamStore")
    store.zero_grads()
    loss_a = loss_fn()
    analytic = {name: g.copy() for name, g in store.grads.items()}
    store.zero_grads()
    loss_b = loss_fn()
    if loss_a != loss_b:
        raise NondeterministicClosureError(
            f"two identical evaluations differ: {loss_a!r} vs {loss_b!r}"
        )

    rng = np.random.default_rng(seed)
    per_param: dict[str, float] = {}
    for name, theta in store.params.items():
        flat = theta.reshape(-1)
        size = flat.size
        if size <= GRAD_CHECK_SAMPLE:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=GRAD_CHECK_SAMPLE, replace=False)
        worst = 0.0
        a_flat = analytic[name].reshape(-1)
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + GRAD_CHECK_STEP
            f_plus = loss_fn()
            flat[idx] = original - GRAD_CHECK_STEP
            f_minus = loss_fn()
            flat[idx] = original
            numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_STEP)
            a = float(a_flat[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
        per_param[name] = worst

    max_rel = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(
        tolerance=tolerance,
        per_param=per_param,
        max_rel_err=max_rel,
        passed=max_rel <= tolerance,
    )
