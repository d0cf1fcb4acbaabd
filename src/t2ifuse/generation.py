"""Image generation: pluggable backends, content-addressed cache, cost ledger.

A generation request is keyed by a hash over (backend id, positive, negative,
params, seed); repeated requests are served from the cache without touching
the backend. Every fresh generation appends a ledger record carrying latency
and cost, which :func:`ledger_totals` aggregates exactly (costs are money, so
totals use decimal arithmetic).
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import hashlib
import logging
import threading
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Protocol

from .prompting import PromptSpec
from .storage import ArtifactCache, append_jsonl, canonical_json, read_jsonl, sha256_hex

logger = logging.getLogger(__name__)

STUB_IMAGE_SIZE = 4096  # bytes emitted by the offline stub backend
COST_MODES = ("measured", "estimated")


class GenerationError(RuntimeError):
    pass


class TransientBackendError(GenerationError):
    """Transport failure or 5xx; the request may be retried."""


class RetriesExhaustedError(GenerationError):
    """Every attempt failed transiently; the last failure is the cause."""

    def __init__(self, attempts: int, last: TransientBackendError):
        super().__init__(f"failed after {attempts} attempts: {last}")
        self.attempts = attempts


TRANSIENT_RETRIES = 3  # attempts in all, unless a caller configures its own


def retry_transient(
    call: Callable[[], Any],
    *,
    retries: int = TRANSIENT_RETRIES,
    backoff_s: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Return ``call()``, retrying :class:`TransientBackendError` up to
    ``retries`` attempts in all.

    The k-th failure sleeps ``backoff_s * 2**(k-1)`` before the next attempt;
    after the last it raises :class:`RetriesExhaustedError`. Any other error
    propagates at once.
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            return call()
        except TransientBackendError as exc:
            if attempt >= retries:
                raise RetriesExhaustedError(attempt, exc) from exc
            delay = backoff_s * (2 ** (attempt - 1))
            logger.warning(
                "transient failure (attempt %d/%d), retrying in %.1fs: %s",
                attempt, retries, delay, exc,
            )
            sleep(delay)


class UnknownBackendError(GenerationError):
    pass


@dataclass(frozen=True)
class GenerationParams:
    backend_id: str
    steps: int
    guidance_scale: float
    width: int
    height: int
    scheduler_id: str | None = None
    seed: int = 0
    # Hosted providers that choose steps/guidance themselves; the fields are
    # still carried (and hashed) but marked as managed.
    provider_managed: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.guidance_scale < 0:
            raise ValueError("guidance_scale must be >= 0")
        for name, value in (("width", self.width), ("height", self.height)):
            if value < 8 or value % 8 != 0:
                raise ValueError(f"{name} must be a positive multiple of 8")

    def key_fields(self) -> dict:
        return {
            "backend_id": self.backend_id,
            "steps": self.steps,
            "guidance_scale": self.guidance_scale,
            "width": self.width,
            "height": self.height,
            "scheduler_id": self.scheduler_id,
            "seed": self.seed,
            "provider_managed": self.provider_managed,
        }


# (steps, guidance, width, height, scheduler, provider_managed) per preset.
# "flux-schnell-1step" is the strict-latency variant: the same backend forced
# to a single inference step.
_PRESETS: dict[str, tuple] = {
    "sd15": ("sd15", 50, 7.5, 512, 512, "DPM++ 2M Karras", False),
    "sdxl": ("sdxl", 50, 8.0, 1024, 1024, "DPM++ 2M Karras", False),
    "sdxl-lightning": ("sdxl-lightning", 4, 1.0, 1024, 1024, None, False),
    "flux-schnell": ("flux-schnell", 4, 0.0, 1024, 1024, None, False),
    "flux-schnell-1step": ("flux-schnell", 1, 0.0, 1024, 1024, None, False),
    "dalle3": ("dalle3", 1, 0.0, 1024, 1024, None, True),
}


def preset_params(preset_id: str, seed: int = 0) -> GenerationParams:
    """Published per-backend generation settings."""
    if preset_id not in _PRESETS:
        raise UnknownBackendError(
            f"unknown generation preset {preset_id!r}; have {sorted(_PRESETS)}"
        )
    backend_id, steps, guidance, width, height, scheduler, managed = _PRESETS[preset_id]
    return GenerationParams(
        backend_id=backend_id,
        steps=steps,
        guidance_scale=guidance,
        width=width,
        height=height,
        scheduler_id=scheduler,
        seed=seed,
        provider_managed=managed,
    )


@dataclass(frozen=True)
class CostEntry:
    unit_cost_usd: Decimal
    nominal_latency_s: Decimal
    nominal_steps: int

    def __post_init__(self):
        if self.unit_cost_usd <= 0 or self.nominal_latency_s <= 0 or self.nominal_steps < 1:
            raise ValueError("cost entries must be positive")


@dataclass(frozen=True)
class CostModel:
    entries: Mapping[str, CostEntry]

    def entry(self, backend_id: str) -> CostEntry:
        if backend_id not in self.entries:
            raise UnknownBackendError(f"no cost entry for backend {backend_id!r}")
        return self.entries[backend_id]


# Estimated per-image latency and price for the hosted APIs (late-2024 list
# prices; configurable, not ground truth about providers today).
DEFAULT_COST_MODEL = CostModel(
    {
        "sd15": CostEntry(Decimal("0.008"), Decimal("3.0"), 50),
        "sdxl": CostEntry(Decimal("0.022"), Decimal("5.0"), 50),
        "sdxl-lightning": CostEntry(Decimal("0.006"), Decimal("1.2"), 4),
        "flux-schnell": CostEntry(Decimal("0.004"), Decimal("0.8"), 4),
        "dalle3": CostEntry(Decimal("0.040"), Decimal("8.0"), 1),
    }
)


@dataclass(frozen=True)
class GeneratedImageRecord:
    content_hash: str
    prompt_key: str
    backend_id: str
    steps: int
    image_ref: str
    latency_s: float
    cost_usd: float
    created_at: str

    def __post_init__(self):
        if self.latency_s < 0 or self.cost_usd < 0:
            raise ValueError("latency and cost must be non-negative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratedImageRecord":
        """Build from any mapping holding the fields; other keys are ignored."""
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})

    def ledger_line(self) -> dict:
        return {
            "prompt_key": self.prompt_key,
            "backend_id": self.backend_id,
            "steps": self.steps,
            "latency_s": self.latency_s,
            "cost_usd": self.cost_usd,
            "content_hash": self.content_hash,
            "timestamp": self.created_at,
        }


def prompt_key(positive: str, negative: str, params: GenerationParams) -> str:
    """Pure function of the complete generation request."""
    return sha256_hex(
        canonical_json(
            {"positive": positive, "negative": negative, "params": params.key_fields()}
        ).encode("utf-8")
    )


class ImageBackend(Protocol):
    backend_id: str

    def generate(self, positive: str, negative: str, params: GenerationParams) -> bytes: ...


@dataclass(frozen=True)
class PromptPair:
    """Bare positive/negative pair; unlike PromptSpec it allows empty prompts
    so the stub backend stays total."""

    positive: str
    negative: str = ""


def stub_generate(prompt: PromptSpec | PromptPair, params: GenerationParams) -> bytes:
    """Deterministic pseudo-image: a fixed-size buffer expanded from a hash of
    (positive, negative, params). Never fails; identical inputs give identical
    bytes."""
    seed_material = canonical_json(
        {
            "positive": prompt.positive,
            "negative": prompt.negative,
            "params": params.key_fields(),
        }
    ).encode("utf-8")
    digest = hashlib.sha256(seed_material).digest()
    out = bytearray(b"STUBIMG1")
    counter = 0
    while len(out) < STUB_IMAGE_SIZE:
        out += hashlib.sha256(digest + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:STUB_IMAGE_SIZE])


class StubImageBackend:
    """Offline backend built on :func:`stub_generate`; counts its calls so
    tests can assert cache hits made no backend requests."""

    def __init__(self, backend_id: str = "stub"):
        self.backend_id = backend_id
        self.calls = 0

    def generate(self, positive: str, negative: str, params: GenerationParams) -> bytes:
        self.calls += 1
        return stub_generate(PromptPair(positive, negative), params)


class ImageStore(ArtifactCache):
    """Cache layout: ``<root>/<first2-of-key>/<key>.bin`` plus ``.meta``."""

    def __init__(self, root: str | Path):
        super().__init__(Path(root), suffix=".bin", shard=True)


class GenerationLedger:
    """Append-only record-per-line log of generation events."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, record: GeneratedImageRecord) -> None:
        with self._lock:
            append_jsonl(self.path, record.ledger_line())

    def read(self) -> list[dict]:
        if not self.path.exists():
            return []
        return list(read_jsonl(self.path))


def generate_image(
    prompt: PromptSpec,
    params: GenerationParams,
    backend: ImageBackend,
    store: ImageStore,
    *,
    ledger: GenerationLedger | None = None,
    cost_model: CostModel | None = None,
    cost_mode: str = "measured",
    retries: int = TRANSIENT_RETRIES,
    backoff_s: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
) -> GeneratedImageRecord:
    """Generate (or fetch) the image for a prompt.

    On a cache hit the stored record is returned without any backend call. On
    a miss the backend is called through :func:`retry_transient`, the latency
    of the successful attempt is recorded, the bytes are verified non-empty
    and stored atomically, and a ledger entry is appended. ``cost_mode`` selects
    between backend-reported cost ("measured", 0 when not reported) and the
    cost model's per-image estimate ("estimated").
    """
    if cost_mode not in COST_MODES:
        raise ValueError(f"unknown cost mode {cost_mode!r}")
    key = prompt_key(prompt.positive, prompt.negative, params)
    if store.has(key):
        return GeneratedImageRecord.from_dict(store.get_meta(key))

    def attempt() -> tuple[bytes, float]:
        start = time.perf_counter()
        data = backend.generate(prompt.positive, prompt.negative, params)
        return data, time.perf_counter() - start

    try:
        data, latency = retry_transient(attempt, retries=retries, backoff_s=backoff_s, sleep=sleep)
    except RetriesExhaustedError as exc:
        raise GenerationError(f"backend {backend.backend_id!r} {exc}") from exc

    if not data:
        raise GenerationError(f"backend {backend.backend_id!r} returned empty image bytes")
    if cost_mode == "estimated":
        model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        cost = float(model.entry(params.backend_id).unit_cost_usd)
    else:
        cost = float(getattr(backend, "unit_cost_usd", 0.0))

    record = GeneratedImageRecord(
        content_hash=sha256_hex(data),
        prompt_key=key,
        backend_id=params.backend_id,
        steps=params.steps,
        image_ref=str(store.path_for(key)),
        latency_s=latency,
        cost_usd=cost,
        created_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )
    store.put(key, data, record.to_dict())
    if ledger is not None:
        ledger.append(record)
    return record


@dataclass(frozen=True)
class BackendTotals:
    images: int
    cost_usd: Decimal
    latency_s: Decimal


@dataclass(frozen=True)
class LedgerTotals:
    total_cost_usd: Decimal
    total_latency_s: Decimal
    per_backend: dict[str, BackendTotals]


def ledger_totals(
    records: Iterable[GeneratedImageRecord | dict],
    model: CostModel | None = None,
    mode: str = "measured",
) -> LedgerTotals:
    """Exact cost/latency sums with a per-backend breakdown.

    "measured" sums the recorded figures; "estimated" prices each image at the
    cost model's per-backend rates. Decimal arithmetic keeps the totals exact
    and associative: totals(A ++ B) equals totals(A) + totals(B) componentwise.
    """
    if mode not in COST_MODES:
        raise ValueError(f"unknown cost mode {mode!r}")
    model = model if model is not None else DEFAULT_COST_MODEL
    counts: dict[str, int] = {}
    costs: dict[str, Decimal] = {}
    latencies: dict[str, Decimal] = {}
    for item in records:
        rec = item.ledger_line() if isinstance(item, GeneratedImageRecord) else item
        backend_id = rec["backend_id"]
        counts[backend_id] = counts.get(backend_id, 0) + 1
        if mode == "estimated":
            entry = model.entry(backend_id)
            cost = entry.unit_cost_usd
            latency = entry.nominal_latency_s
        else:
            cost = Decimal(repr(rec["cost_usd"]))
            latency = Decimal(repr(rec["latency_s"]))
        costs[backend_id] = costs.get(backend_id, Decimal(0)) + cost
        latencies[backend_id] = latencies.get(backend_id, Decimal(0)) + latency

    per_backend = {
        b: BackendTotals(images=counts[b], cost_usd=costs[b], latency_s=latencies[b])
        for b in sorted(counts)
    }
    return LedgerTotals(
        total_cost_usd=sum(costs.values(), Decimal(0)),
        total_latency_s=sum(latencies.values(), Decimal(0)),
        per_backend=per_backend,
    )
