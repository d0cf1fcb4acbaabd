"""Image generation: pluggable backends, content-addressed cache, cost ledger.

A generation request is keyed by a hash over (backend id, positive, negative,
params, seed); repeated requests are served from the cache without touching
the backend. The cache (:class:`ImageStore`) keeps each image and its
:class:`GeneratedImageRecord` as two records in segment logs, read through an
index built when the store is opened; a record's ``image_ref`` names its
entry, and the image bytes are read back by prompt key and content hash.
Every fresh generation appends a ledger record carrying latency and cost, which
:func:`ledger_totals` aggregates exactly (costs are money, so totals use
decimal arithmetic).

:func:`run_misses` is the one way a stage's cache misses are made, here and
in :mod:`embedding`: in chunks of :data:`CHUNK`, one batch call per chunk,
else one call per item on a pool of threads, each chunk kept with one call;
a failure is raised only after every output returned and checked is kept.
:func:`generate_all` looks each prompt up once and generates the misses
through it; :func:`generate_image` is a one-item :func:`generate_all`.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import datetime as _dt
import hashlib
import logging
import threading
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence

from .prompting import PromptSpec
from .storage import ArtifactCache, canonical_json, from_fields, read_jsonl, sha256_hex

logger = logging.getLogger(__name__)

STUB_IMAGE_SIZE = 4096  # bytes emitted by the offline stub backend
COST_MODES = ("measured", "estimated")


class GenerationError(RuntimeError):
    pass


class TransientBackendError(GenerationError):
    """Transport failure, 5xx or 429; the request may be retried, though not
    before ``retry_after_s`` seconds when the server asked for a delay."""

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class RetriesExhaustedError(GenerationError):
    """Every attempt failed transiently; the last failure is the cause."""

    def __init__(self, attempts: int, last: TransientBackendError):
        super().__init__(f"failed after {attempts} attempts: {last}")
        self.attempts = attempts


TRANSIENT_RETRIES = 3  # attempts in all, unless a caller configures its own
RETRY_AFTER_MAX_S = 60.0  # the longest wait a server's Retry-After gets


def retry_transient(
    call: Callable[[], Any],
    *,
    retries: int = TRANSIENT_RETRIES,
    backoff_s: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Return ``call()``, retrying :class:`TransientBackendError` up to
    ``retries`` attempts in all.

    The k-th failure sleeps ``backoff_s * 2**(k-1)``, or the failure's
    ``retry_after_s`` if that is longer, capped at :data:`RETRY_AFTER_MAX_S`,
    before the next attempt; after the last it raises
    :class:`RetriesExhaustedError`. Any other error propagates at once.
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            return call()
        except TransientBackendError as exc:
            if attempt >= retries:
                raise RetriesExhaustedError(attempt, exc) from exc
            delay = max(backoff_s * (2 ** (attempt - 1)), min(exc.retry_after_s or 0.0, RETRY_AFTER_MAX_S))
            logger.warning(
                "transient failure (attempt %d/%d), retrying in %.1fs: %s",
                attempt, retries, delay, exc,
            )
            sleep(delay)


CHUNK = 64  # misses per chunk: one batch call and one store each; also bounds what a chunk holds


def _outcome(call: Callable[..., Any], *args) -> Any:
    """``call(*args)``, or the exception it raised."""
    try:
        return call(*args)
    except Exception as exc:  # a cancelled future's is a CancelledError
        return exc


def run_misses(
    misses: Sequence,
    one: Callable[[Any], Any],
    many: Callable[[list], list] | None,
    check: Callable[[Any], Any],
    keep: Callable[[list[tuple[Any, Any]]], None],
    *,
    workers: int,
) -> None:
    """Make an output for each item of ``misses``, in order, in chunks of
    :data:`CHUNK`, and ``keep`` each chunk's with one call.

    A chunk gets one ``many(chunk)`` call, which returns its outputs in
    order and whose error is raised as it is. Without ``many``, each item
    gets one ``one(item)`` call: on a pool of ``workers`` threads when there
    are more than one worker and more than one miss, else inline, stopping
    at the first failure. After a pool call fails, the calls not started yet
    are cancelled. ``check`` returns the output to keep, or raises.

    What a failure keeps: every output that was returned and passes its
    check is kept, as ``(item, output)`` pairs in input order, then the
    chunk's first failure in input order is raised, and no later chunk is
    called.
    """
    def checked(item):
        return check(one(item))

    pool = None
    if many is None and workers > 1 and len(misses) > 1:
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
    try:
        for start in range(0, len(misses), CHUNK):
            chunk = misses[start:start + CHUNK]
            if many is not None:
                outcomes = [_outcome(check, output) for output in many(chunk)]
            elif pool is None:
                outcomes = []
                for item in chunk:
                    outcomes.append(_outcome(checked, item))
                    if isinstance(outcomes[-1], Exception):
                        break
            else:
                futures = [pool.submit(checked, item) for item in chunk]
                outcomes = []
                for future in futures:  # every future: one that ran beside a failure may return a paid output
                    outcomes.append(_outcome(future.result))
                    if isinstance(outcomes[-1], Exception):
                        for pending in futures:
                            pending.cancel()  # only those not started yet
            keep([(item, out) for item, out in zip(chunk, outcomes) if not isinstance(out, Exception)])
            failure = next((out for out in outcomes if isinstance(out, Exception)), None)
            if failure is not None:
                raise failure
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


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


# Published settings per preset. "flux-schnell-1step" is the strict-latency
# variant: the same backend forced to a single inference step.
_PRESETS: dict[str, GenerationParams] = {
    "sd15": GenerationParams("sd15", 50, 7.5, 512, 512, "DPM++ 2M Karras"),
    "sdxl": GenerationParams("sdxl", 50, 8.0, 1024, 1024, "DPM++ 2M Karras"),
    "sdxl-lightning": GenerationParams("sdxl-lightning", 4, 1.0, 1024, 1024),
    "flux-schnell": GenerationParams("flux-schnell", 4, 0.0, 1024, 1024),
    "flux-schnell-1step": GenerationParams("flux-schnell", 1, 0.0, 1024, 1024),
    "dalle3": GenerationParams("dalle3", 1, 0.0, 1024, 1024, provider_managed=True),
}


def preset_params(preset_id: str, seed: int = 0) -> GenerationParams:
    """Published per-backend generation settings."""
    if preset_id not in _PRESETS:
        raise UnknownBackendError(
            f"unknown generation preset {preset_id!r}; have {sorted(_PRESETS)}"
        )
    return dataclasses.replace(_PRESETS[preset_id], seed=seed)


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
        # every field is a scalar, so a shallow copy equals dataclasses.asdict
        return {name: getattr(self, name) for name in _RECORD_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratedImageRecord":
        """Build from any mapping holding the fields; other keys are ignored."""
        return from_fields(cls, data)

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


_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(GeneratedImageRecord))


def _request_bytes(positive: str, negative: str, params: GenerationParams) -> bytes:
    """The complete generation request as canonical JSON. Every field of
    ``params`` is a scalar, so ``vars(params)`` is ``dataclasses.asdict(params)``
    without its per-field copies."""
    return canonical_json({"positive": positive, "negative": negative, "params": vars(params)}).encode("utf-8")


def prompt_key(positive: str, negative: str, params: GenerationParams) -> str:
    """Pure function of the complete generation request."""
    return sha256_hex(_request_bytes(positive, negative, params))


class ImageBackend(Protocol):
    """A text-to-image backend. An optional ``generate_many(prompts, params)
    -> list[bytes]``, one image per prompt (each with ``positive`` and
    ``negative``) in order, gets one call per chunk of misses from
    :func:`generate_all`, in the calling thread; a local diffusers pipeline
    batches prompts this way. Without it, ``generate`` is called once per
    miss, from several threads at once when ``workers`` allows, as a remote
    endpoint is (see :func:`run_misses`)."""

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
    digest = hashlib.sha256(_request_bytes(prompt.positive, prompt.negative, params)).digest()
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

    def generate_many(self, prompts: Sequence[PromptSpec | PromptPair],
                      params: GenerationParams) -> list[bytes]:
        self.calls += len(prompts)
        return [stub_generate(prompt, params) for prompt in prompts]


class ImageStore(ArtifactCache):
    """Generated images by prompt key: each image is a payload record in
    ``<root>/data/`` and its :class:`GeneratedImageRecord` a meta record in
    ``<root>/meta/``, so a hit reads the record and never the image. Each
    log is indexed when the store first uses it, and a miss never rescans.
    A record's ``image_ref`` is ``<root>#<prompt key>``, which names the
    entry; nothing opens it as a path. See :class:`storage.ArtifactCache`."""


class GenerationLedger:
    """Append-only record-per-line log of generation events.

    Appends share one handle, opened by the first; each writes its records
    with one write and one flush. :meth:`close` closes the handle, and a
    later append opens it again.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = None

    def append_many(self, records: Sequence[GeneratedImageRecord]) -> None:
        if not records:
            return
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write("".join(canonical_json(r.ledger_line()) + "\n" for r in records))
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def read(self) -> list[dict]:
        if not self.path.exists():
            return []
        return list(read_jsonl(self.path))


def generate_all(
    items: Mapping[str, PromptSpec | PromptPair],
    params: GenerationParams,
    backend: ImageBackend,
    store: ImageStore,
    *,
    ledger: GenerationLedger | None = None,
    retries: int = TRANSIENT_RETRIES,
    workers: int = 1,
    sleep: Callable[[float], None] = time.sleep,
) -> dict[str, dict]:
    """Key -> record for ``items``: prompt key -> prompt. A record is in the
    :meth:`GeneratedImageRecord.to_dict` form: a hit's holds its stored
    meta's fields, and a miss's is the dict it stored.

    Each key is looked up in ``store`` once, with one
    :meth:`ImageStore.lookup`; a hit makes no backend call.
    The misses go through :func:`run_misses`: one ``backend.generate_many``
    call per chunk, or without it one ``backend.generate`` call per item,
    each through :func:`retry_transient`. An empty image is a failure. Each
    chunk's images are stored with one :meth:`ImageStore.put_many` and
    logged with one ledger append; a batch of the wrong size stores nothing,
    as no image can be matched to its prompt.

    ``latency_s`` is the successful attempt's wall time; for a batch call,
    that time divided by the chunk's size, so latencies still sum to the
    backend's time. ``cost_usd`` is the backend's ``unit_cost_usd``, else 0;
    estimates come from :func:`ledger_totals`. The record returned is the
    one stored: another writer's, when it stored the key first.
    """
    generate_many = getattr(backend, "generate_many", None)
    cost = float(getattr(backend, "unit_cost_usd", 0.0))
    # a hit's dict takes the module's field names as its keys, so thousands of
    # hits do not each hold their own copy of every key that json.loads made
    results = {key: {name: meta[name] for name in _RECORD_FIELDS}
               for key in items if (meta := store.lookup(key)) is not None}
    misses = [key for key in items if key not in results]

    def timed(call: Callable[[], Any]) -> tuple[Any, float]:
        def attempt():
            start = time.perf_counter()
            out = call()
            return out, time.perf_counter() - start
        try:
            return retry_transient(attempt, retries=retries, sleep=sleep)
        except RetriesExhaustedError as exc:
            raise GenerationError(f"backend {backend.backend_id!r} {exc}") from exc

    def one(key: str) -> tuple[bytes, float]:
        prompt = items[key]
        return timed(lambda: backend.generate(prompt.positive, prompt.negative, params))

    def many(keys: list[str]) -> list[tuple[bytes, float]]:
        images, latency = timed(lambda: generate_many([items[key] for key in keys], params))
        if len(images) != len(keys):
            raise GenerationError(f"backend {backend.backend_id!r} returned {len(images)} "
                                  f"images for {len(keys)} prompts")
        return [(image, latency / len(keys)) for image in images]

    def check(output: tuple[bytes, float]) -> tuple[bytes, float]:
        if not output[0]:
            raise GenerationError(f"backend {backend.backend_id!r} returned empty image bytes")
        return output

    def keep(pairs: list[tuple[str, tuple[bytes, float]]]) -> None:
        created_at = _dt.datetime.now(_dt.timezone.utc).isoformat()
        records = [GeneratedImageRecord(content_hash=sha256_hex(data), prompt_key=key,
                                        backend_id=params.backend_id, steps=params.steps,
                                        image_ref=f"{store.root}#{key}", latency_s=latency,
                                        cost_usd=cost, created_at=created_at)
                   for key, (data, latency) in pairs]
        entries = [(key, data, record.to_dict()) for (key, (data, _)), record in zip(pairs, records)]
        results.update(zip((key for key, _ in pairs), store.put_many(entries)))
        if ledger is not None:
            ledger.append_many(records)

    run_misses(misses, one, None if generate_many is None else many, check, keep, workers=workers)
    return results


def generate_image(prompt: PromptSpec, params: GenerationParams, backend: ImageBackend, store: ImageStore,
                   *, ledger: GenerationLedger | None = None, retries: int = TRANSIENT_RETRIES,
                   sleep: Callable[[float], None] = time.sleep) -> GeneratedImageRecord:
    """Generate (or fetch) the image for a prompt: a one-item :func:`generate_all`."""
    key = prompt_key(prompt.positive, prompt.negative, params)
    return GeneratedImageRecord.from_dict(
        generate_all({key: prompt}, params, backend, store, ledger=ledger, retries=retries, sleep=sleep)[key])


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


def ledger_totals(records: Iterable[GeneratedImageRecord | dict], mode: str = "measured") -> LedgerTotals:
    """Exact cost/latency sums with a per-backend breakdown.

    "measured" sums the recorded figures; "estimated" prices each image at
    ``DEFAULT_COST_MODEL``'s per-backend rates. Decimal arithmetic keeps the
    totals exact and associative: totals(A ++ B) equals totals(A) + totals(B)
    componentwise.
    """
    if mode not in COST_MODES:
        raise ValueError(f"unknown cost mode {mode!r}")
    counts: dict[str, int] = {}
    costs: dict[str, Decimal] = {}
    latencies: dict[str, Decimal] = {}
    for item in records:
        rec = item.ledger_line() if isinstance(item, GeneratedImageRecord) else item
        backend_id = rec["backend_id"]
        counts[backend_id] = counts.get(backend_id, 0) + 1
        if mode == "estimated":
            entry = DEFAULT_COST_MODEL.entry(backend_id)
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
