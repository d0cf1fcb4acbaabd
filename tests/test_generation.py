import hashlib
import time
from decimal import Decimal

import pytest

from t2ifuse.generation import (
    DEFAULT_COST_MODEL,
    GeneratedImageRecord,
    GenerationError,
    GenerationLedger,
    GenerationParams,
    ImageStore,
    PromptPair,
    RetriesExhaustedError,
    StubImageBackend,
    TransientBackendError,
    UnknownBackendError,
    generate_image,
    ledger_totals,
    preset_params,
    prompt_key,
    retry_transient,
    stub_generate,
)
from t2ifuse.prompting import NEGATIVE_PROMPT, PromptSpec


def _spec(positive="a sleek black coffee machine", sample_id="s1"):
    return PromptSpec(sample_id=sample_id, strategy="keyword", positive=positive)


def test_params_validation():
    with pytest.raises(ValueError):
        GenerationParams("sdxl", steps=0, guidance_scale=8.0, width=1024, height=1024)
    with pytest.raises(ValueError):
        GenerationParams("sdxl", steps=1, guidance_scale=8.0, width=1001, height=1024)
    with pytest.raises(ValueError):
        GenerationParams("sdxl", steps=1, guidance_scale=-1.0, width=1024, height=1024)


def test_presets_match_published_settings():
    sd15 = preset_params("sd15")
    assert (sd15.steps, sd15.guidance_scale, sd15.width, sd15.height) == (50, 7.5, 512, 512)
    assert sd15.scheduler_id == "DPM++ 2M Karras"
    sdxl = preset_params("sdxl")
    assert (sdxl.steps, sdxl.guidance_scale, sdxl.width, sdxl.height) == (50, 8.0, 1024, 1024)
    assert sdxl.scheduler_id == "DPM++ 2M Karras"
    flux = preset_params("flux-schnell")
    assert flux.steps == 4 and flux.width == 1024
    fast = preset_params("flux-schnell-1step")
    assert fast.steps == 1 and fast.backend_id == "flux-schnell"
    dalle = preset_params("dalle3")
    assert dalle.provider_managed and dalle.width == 1024
    with pytest.raises(UnknownBackendError):
        preset_params("imagen")


def test_stub_generate_golden_hash():
    params = preset_params("flux-schnell", seed=42)
    data = stub_generate(PromptPair("a red vacuum cleaner", "text, watermark"), params)
    assert len(data) == 4096
    assert hashlib.sha256(data).hexdigest() == (
        "e2afd5c5848484bd72f057f4e726798c0a5456be42aae13653f58a07882c85f1"
    )
    again = stub_generate(PromptPair("a red vacuum cleaner", "text, watermark"), params)
    assert again == data


def test_stub_generate_prompt_sensitivity_and_totality():
    params = preset_params("flux-schnell", seed=42)
    a = stub_generate(PromptPair("a red vacuum cleaner", ""), params)
    b = stub_generate(PromptPair("a red vacuum cleaneR", ""), params)
    assert a != b
    empty = stub_generate(PromptPair("", ""), params)
    assert len(empty) == 4096
    assert stub_generate(PromptPair("", ""), params) == empty


def test_generate_image_cache_idempotency(tmp_path):
    backend = StubImageBackend("flux-schnell")
    store = ImageStore(tmp_path / "images")
    params = preset_params("flux-schnell", seed=1)
    first = generate_image(_spec(), params, backend, store)
    second = generate_image(_spec(), params, backend, store)
    assert backend.calls == 1
    assert first.content_hash == second.content_hash
    assert first.prompt_key == second.prompt_key
    assert store.verify(first.prompt_key, first.content_hash)


def test_generate_image_after_a_lost_meta_stores_the_bytes_it_records(tmp_path):
    class NondeterministicBackend:
        backend_id = "flux-schnell"

        def __init__(self):
            self.calls = 0

        def generate(self, positive, negative, params):
            self.calls += 1
            return b"image-%d" % self.calls

    backend = NondeterministicBackend()
    store = ImageStore(tmp_path / "images")
    params = preset_params("flux-schnell", seed=1)
    first = generate_image(_spec(), params, backend, store)
    store.path_for(first.prompt_key).with_suffix(".meta").unlink()  # crash before the .meta

    second = generate_image(_spec(), params, backend, store)
    assert backend.calls == 2 and second.content_hash != first.content_hash
    assert store.verify(second.prompt_key, second.content_hash)
    assert store.get_meta(second.prompt_key)["content_hash"] == second.content_hash
    third = generate_image(_spec(), params, backend, store)
    assert backend.calls == 2 and third.content_hash == second.content_hash


def test_generate_image_seed_sensitivity(tmp_path):
    backend = StubImageBackend("flux-schnell")
    store = ImageStore(tmp_path / "images")
    r42 = generate_image(_spec(), preset_params("flux-schnell", seed=42), backend, store)
    r43 = generate_image(_spec(), preset_params("flux-schnell", seed=43), backend, store)
    assert r42.content_hash != r43.content_hash
    assert backend.calls == 2


def test_generate_image_ledger_and_estimated_cost(tmp_path):
    backend = StubImageBackend("sdxl")
    store = ImageStore(tmp_path / "images")
    ledger = GenerationLedger(tmp_path / "ledger.jsonl")
    record = generate_image(
        _spec(), preset_params("sdxl"), backend, store,
        ledger=ledger, cost_mode="estimated",
    )
    assert record.cost_usd == pytest.approx(0.022)
    assert record.steps == 50
    lines = ledger.read()
    assert len(lines) == 1
    assert lines[0]["backend_id"] == "sdxl"
    assert lines[0]["content_hash"] == record.content_hash
    assert set(lines[0]) == {
        "prompt_key", "backend_id", "steps", "latency_s", "cost_usd",
        "content_hash", "timestamp",
    }


def test_generate_image_retries_transient_then_succeeds(tmp_path):
    class FlakyBackend:
        backend_id = "flaky"

        def __init__(self, failures):
            self.failures = failures
            self.calls = 0

        def generate(self, positive, negative, params):
            self.calls += 1
            if self.calls <= self.failures:
                raise TransientBackendError("503")
            return b"image-bytes"

    sleeps = []
    backend = FlakyBackend(failures=2)
    params = GenerationParams("flaky", steps=4, guidance_scale=0.0, width=512, height=512)
    record = generate_image(
        _spec(), params, backend, ImageStore(tmp_path / "img"),
        retries=3, backoff_s=0.5, sleep=sleeps.append,
    )
    assert backend.calls == 3
    assert sleeps == [0.5, 1.0]  # exponential backoff
    assert record.content_hash == hashlib.sha256(b"image-bytes").hexdigest()

    exhausted = FlakyBackend(failures=10)
    with pytest.raises(GenerationError, match="after 3 attempts"):
        generate_image(
            _spec("other prompt"), params, exhausted, ImageStore(tmp_path / "img2"),
            retries=3, sleep=lambda s: None,
        )


def _flaky(failures, error=TransientBackendError):
    calls = []

    def call():
        calls.append(None)
        if len(calls) <= failures:
            raise error(f"failure {len(calls)}")
        return "ok"

    return call, calls


def test_retry_transient_backoff_and_exhaustion():
    sleeps = []
    call, calls = _flaky(failures=2)
    assert retry_transient(call, retries=3, backoff_s=0.5, sleep=sleeps.append) == "ok"
    assert len(calls) == 3
    assert sleeps == [0.5, 1.0]

    sleeps.clear()
    call, calls = _flaky(failures=10)
    with pytest.raises(RetriesExhaustedError, match="after 4 attempts: failure 4") as err:
        retry_transient(call, retries=4, backoff_s=0.25, sleep=sleeps.append)
    assert err.value.attempts == 4
    assert isinstance(err.value.__cause__, TransientBackendError)
    assert sleeps == [0.25, 0.5, 1.0]  # no sleep after the last attempt


def test_retry_transient_propagates_other_errors_at_once():
    sleeps = []
    call, calls = _flaky(failures=1, error=GenerationError)
    with pytest.raises(GenerationError, match="failure 1") as err:
        retry_transient(call, retries=3, backoff_s=0.5, sleep=sleeps.append)
    assert not isinstance(err.value, RetriesExhaustedError)
    assert len(calls) == 1
    assert sleeps == []


def test_generate_image_latency_is_the_successful_attempt(tmp_path, monkeypatch):
    # the failed attempt starts at 0 s; the successful one runs from 10 s to 10.25 s
    clock = iter([0.0, 10.0, 10.25])
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))

    class SlowThenFast:
        backend_id = "flaky"
        calls = 0

        def generate(self, positive, negative, params):
            self.calls += 1
            if self.calls == 1:
                raise TransientBackendError("timeout")
            return b"image-bytes"

    params = GenerationParams("flaky", steps=4, guidance_scale=0.0, width=512, height=512)
    record = generate_image(
        _spec(), params, SlowThenFast(), ImageStore(tmp_path / "img"), sleep=lambda s: None,
    )
    assert record.latency_s == 0.25


def test_generate_image_rejects_empty_bytes(tmp_path):
    class EmptyBackend:
        backend_id = "empty"

        def generate(self, positive, negative, params):
            return b""

    params = GenerationParams("empty", steps=1, guidance_scale=0.0, width=512, height=512)
    with pytest.raises(GenerationError, match="empty image bytes"):
        generate_image(_spec(), params, EmptyBackend(), ImageStore(tmp_path / "img"))


def test_cache_key_covers_full_request():
    base = preset_params("sdxl", seed=0)
    key = prompt_key("p", NEGATIVE_PROMPT, base)
    import dataclasses

    assert prompt_key("p2", NEGATIVE_PROMPT, base) != key
    assert prompt_key("p", "other negative", base) != key
    assert prompt_key("p", NEGATIVE_PROMPT, dataclasses.replace(base, steps=25)) != key
    assert prompt_key("p", NEGATIVE_PROMPT, dataclasses.replace(base, seed=1)) != key
    assert prompt_key("p", NEGATIVE_PROMPT, base) == key


def test_steps_sweep_produces_distinct_cache_keys():
    import dataclasses

    base = preset_params("sdxl")
    keys = {
        prompt_key("same prompt", NEGATIVE_PROMPT, dataclasses.replace(base, steps=steps))
        for steps in (50, 25, 10, 4)
    }
    assert len(keys) == 4


def _record(backend_id, cost=0.0, latency=0.0):
    return GeneratedImageRecord(
        content_hash="h", prompt_key="k", backend_id=backend_id, steps=1,
        image_ref="x", latency_s=latency, cost_usd=cost, created_at="t",
    )


def test_ledger_totals_empty():
    totals = ledger_totals([])
    assert totals.total_cost_usd == Decimal(0)
    assert totals.total_latency_s == Decimal(0)
    assert totals.per_backend == {}


def test_ledger_totals_estimated_published_rates():
    records = [_record("flux-schnell")] * 100
    totals = ledger_totals(records, mode="estimated")
    assert totals.total_cost_usd == Decimal("0.40")
    mixed = [_record("sdxl")] * 10 + [_record("dalle3")] * 10
    totals = ledger_totals(mixed, mode="estimated")
    assert totals.total_cost_usd == Decimal("0.62")
    assert totals.per_backend["sdxl"].cost_usd == Decimal("0.22")
    assert totals.per_backend["dalle3"].cost_usd == Decimal("0.40")


def test_ledger_totals_unknown_backend_in_estimate_mode():
    with pytest.raises(UnknownBackendError):
        ledger_totals([_record("mystery")], mode="estimated")
    # measured mode tolerates unknown backends
    totals = ledger_totals([_record("mystery", cost=0.5, latency=1.5)], mode="measured")
    assert totals.total_cost_usd == Decimal("0.5")


def test_ledger_totals_associative():
    import numpy as np

    rng = np.random.default_rng(3)
    backends = ("sd15", "sdxl", "flux-schnell")
    records = [
        _record(backends[rng.integers(0, 3)], cost=float(rng.uniform(0, 0.05)),
                latency=float(rng.uniform(0, 9)))
        for _ in range(40)
    ]
    for mode in ("measured", "estimated"):
        whole = ledger_totals(records, mode=mode)
        a = ledger_totals(records[:17], mode=mode)
        b = ledger_totals(records[17:], mode=mode)
        assert whole.total_cost_usd == a.total_cost_usd + b.total_cost_usd
        assert whole.total_latency_s == a.total_latency_s + b.total_latency_s


def test_cost_model_entries_positive():
    for entry in DEFAULT_COST_MODEL.entries.values():
        assert entry.unit_cost_usd > 0
        assert entry.nominal_latency_s > 0
        assert entry.nominal_steps >= 1


def test_record_round_trip_and_validation():
    record = _record("sdxl", cost=0.022, latency=5.0)
    assert GeneratedImageRecord.from_dict(record.to_dict()) == record
    with pytest.raises(ValueError):
        _record("sdxl", cost=-1.0)
