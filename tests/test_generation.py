import dataclasses
import hashlib
import time
from decimal import Decimal
from pathlib import Path

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
    generate_all,
    generate_image,
    ledger_totals,
    preset_params,
    prompt_key,
    retry_transient,
    stub_generate,
)
from t2ifuse import generation
from t2ifuse.embedding import EmbeddingCache, HashProjectionProvider, embed_all
from t2ifuse.prompting import NEGATIVE_PROMPT, PromptSpec
from t2ifuse.storage import SegmentLog, sha256_hex


@pytest.fixture
def open_store(tmp_path):
    """Opens an :class:`ImageStore` under ``tmp_path`` (``images`` by
    default); every store it opened is closed after the test."""
    stores = []

    def open_store(name="images"):
        stores.append(ImageStore(tmp_path / name))
        return stores[-1]

    yield open_store
    for store in stores:
        store.close()


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


def test_generate_image_cache_idempotency(open_store):
    backend = StubImageBackend("flux-schnell")
    store = open_store()
    params = preset_params("flux-schnell", seed=1)
    first = generate_image(_spec(), params, backend, store)
    second = generate_image(_spec(), params, backend, store)
    assert backend.calls == 1
    assert first.content_hash == second.content_hash
    assert first.prompt_key == second.prompt_key
    assert store.has(first.prompt_key)
    assert sha256_hex(store.get(first.prompt_key)) == first.content_hash


class NondeterministicBackend:
    """New bytes on every call, as a sampler without a fixed noise seed gives."""

    backend_id = "flux-schnell"

    def __init__(self):
        self.calls = 0

    def generate(self, positive, negative, params):
        self.calls += 1
        return b"image-%d" % self.calls


def _assert_serves(store, record):
    """``store`` serves ``record``, and the bytes it keeps for the entry are the ones it names."""
    key = record.prompt_key
    assert store.has(key)
    assert store.get_meta(key) == record.to_dict()
    assert record.image_ref == f"{store.root}#{key}"
    assert sha256_hex(store.get(key)) == record.content_hash


class Crash(BaseException):
    """The process dies here."""


def test_a_payload_written_without_its_record_is_a_miss_that_regenerating_repairs(
        open_store, monkeypatch):
    backend = NondeterministicBackend()
    store = open_store()
    params = preset_params("flux-schnell", seed=1)
    append_many = SegmentLog._append_many  # every append goes through it

    def crash_at_the_meta_record(log, records, **kwargs):
        if log.directory.name == "meta":
            raise Crash  # killed between the payload record and its meta record
        return append_many(log, records, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(SegmentLog, "_append_many", crash_at_the_meta_record)
        with pytest.raises(Crash):
            generate_image(_spec(), params, backend, store)
    key = prompt_key(_spec().positive, _spec().negative, params)
    assert store.get(key, sha256=sha256_hex(b"image-1")) == b"image-1"  # the payload is stored ...
    assert not store.has(key)  # ... but without its record it is a miss

    second = generate_image(_spec(), params, backend, store)
    assert backend.calls == 2 and second.content_hash == sha256_hex(b"image-2")
    _assert_serves(store, second)
    third = generate_image(_spec(), params, backend, store)
    assert backend.calls == 2 and third == second
    _assert_serves(open_store(), second)  # a fresh store reads the same record


def test_a_deleted_payload_is_a_miss_whose_regeneration_leaves_a_matching_record(tmp_path, open_store):
    backend = NondeterministicBackend()
    store = open_store()
    params = preset_params("flux-schnell", seed=1)
    first = generate_image(_spec(), params, backend, store)
    store.sync()
    store.close()
    for segment in (tmp_path / "images" / "data").glob("*.seg"):
        segment.unlink()  # its meta record stays in the log
    store = open_store()
    assert not store.has(first.prompt_key)

    second = generate_image(_spec(), params, backend, store)
    assert backend.calls == 2 and second.content_hash != first.content_hash
    _assert_serves(store, second)
    third = generate_image(_spec(), params, backend, store)
    assert backend.calls == 2 and third == second
    _assert_serves(open_store(), second)  # the first meta record names no payload: the second is served


def test_a_torn_record_is_a_miss_and_the_torn_segment_is_never_appended_to(tmp_path, open_store):
    backend = NondeterministicBackend()
    store = open_store()
    params = preset_params("flux-schnell", seed=1)
    kept = generate_image(_spec("first prompt"), params, backend, store)
    lost = generate_image(_spec("second prompt"), params, backend, store)
    store.sync()
    store.close()
    [segment] = (tmp_path / "images" / "meta").glob("*.seg")
    torn = segment.read_bytes()[:-5]  # a crash mid-append, or a disk that lost the tail
    segment.write_bytes(torn)

    store = open_store()
    _assert_serves(store, kept)
    assert not store.has(lost.prompt_key)
    again = generate_image(_spec("second prompt"), params, backend, store)
    assert backend.calls == 3 and again.content_hash == sha256_hex(b"image-3")
    _assert_serves(store, again)
    assert segment.read_bytes() == torn and len(list(segment.parent.glob("*.seg"))) == 2
    fresh = open_store()
    _assert_serves(fresh, kept)
    _assert_serves(fresh, again)


def test_an_entry_of_the_old_meta_layout_is_regenerated_once(tmp_path, open_store):
    backend = NondeterministicBackend()
    params = preset_params("flux-schnell", seed=1)
    key = prompt_key(_spec().positive, _spec().negative, params)
    root = tmp_path / "images"
    old = root / key[:2] / f"{key}.bin"  # a payload file, with a .meta file and a log/ record
    old.parent.mkdir(parents=True)
    old.write_bytes(b"old image")
    old.with_suffix(".meta").write_text('{"content_hash": "%s"}' % sha256_hex(b"old image"))
    log = SegmentLog(root / "log")
    log.append_many([(key, bytes(56) + b'{"content_hash": "%s"}' % sha256_hex(b"old image").encode())])
    log.close()
    old_files = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

    store = open_store()
    assert not store.has(key)
    record = generate_image(_spec(), params, backend, store)
    assert backend.calls == 1 and record.content_hash == sha256_hex(b"image-1")
    _assert_serves(store, record)
    assert generate_image(_spec(), params, backend, store) == record and backend.calls == 1
    assert all(p.read_bytes() == data for p, data in old_files.items())  # ignored, not removed


def test_generate_image_seed_sensitivity(open_store):
    backend = StubImageBackend("flux-schnell")
    store = open_store()
    r42 = generate_image(_spec(), preset_params("flux-schnell", seed=42), backend, store)
    r43 = generate_image(_spec(), preset_params("flux-schnell", seed=43), backend, store)
    assert r42.content_hash != r43.content_hash
    assert backend.calls == 2


def test_generate_image_ledger_and_estimated_cost(tmp_path, open_store):
    backend = StubImageBackend("sdxl")
    store = open_store()
    ledger = GenerationLedger(tmp_path / "ledger.jsonl")
    record = generate_image(_spec(), preset_params("sdxl"), backend, store, ledger=ledger)
    assert record.cost_usd == 0.0  # the stub reports no cost; the estimate is the ledger's
    assert record.steps == 50
    ledger.close()
    lines = ledger.read()
    assert ledger_totals(lines, mode="estimated").total_cost_usd == Decimal("0.022")
    assert len(lines) == 1
    assert lines[0]["backend_id"] == "sdxl"
    assert lines[0]["content_hash"] == record.content_hash
    assert set(lines[0]) == {
        "prompt_key", "backend_id", "steps", "latency_s", "cost_usd",
        "content_hash", "timestamp",
    }


def test_generate_image_retries_transient_then_succeeds(open_store):
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
        _spec(), params, backend, open_store("img"),
        retries=3, sleep=sleeps.append,
    )
    assert backend.calls == 3
    assert sleeps == [0.5, 1.0]  # exponential backoff
    assert record.content_hash == hashlib.sha256(b"image-bytes").hexdigest()

    exhausted = FlakyBackend(failures=10)
    with pytest.raises(GenerationError, match="after 3 attempts"):
        generate_image(
            _spec("other prompt"), params, exhausted, open_store("img2"),
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


def test_generate_image_latency_is_the_successful_attempt(open_store, monkeypatch):
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
        _spec(), params, SlowThenFast(), open_store("img"), sleep=lambda s: None,
    )
    assert record.latency_s == 0.25


def test_generate_image_rejects_empty_bytes(open_store):
    class EmptyBackend:
        backend_id = "empty"

        def generate(self, positive, negative, params):
            return b""

    params = GenerationParams("empty", steps=1, guidance_scale=0.0, width=512, height=512)
    with pytest.raises(GenerationError, match="empty image bytes"):
        generate_image(_spec(), params, EmptyBackend(), open_store("img"))


# --- generate_all: the misses in chunks ---------------------------------------------


def _misses(params, *positives):
    return {prompt_key(p, "", params): PromptPair(p) for p in positives}


def test_the_stub_batch_method_returns_what_generate_returns():
    params = preset_params("flux-schnell", seed=42)
    backend = StubImageBackend("flux-schnell")
    prompts = [PromptPair("a red vacuum cleaner", "text, watermark"), PromptPair("", "")]
    assert backend.generate_many(prompts, params) == [stub_generate(p, params) for p in prompts]
    assert backend.calls == 2


def test_a_batch_call_splits_its_wall_time_over_its_images(open_store, monkeypatch):
    clock = iter([0.0, 3.0])  # one batch call of three images, 3 s long
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    params = preset_params("flux-schnell", seed=1)
    misses = _misses(params, "one", "two", "three")
    records = generate_all(misses, params, StubImageBackend("flux-schnell"), open_store())
    assert [records[key]["latency_s"] for key in misses] == [1.0, 1.0, 1.0]


def test_a_batch_call_is_retried_whole(open_store):
    class FlakyBatch(StubImageBackend):
        def generate_many(self, prompts, params):
            if self.calls == 0:
                self.calls += len(prompts)
                raise TransientBackendError("503")
            return super().generate_many(prompts, params)

    sleeps = []
    backend, params = FlakyBatch("flux-schnell"), preset_params("flux-schnell", seed=1)
    misses = _misses(params, "one", "two")
    records = generate_all(misses, params, backend, open_store(), sleep=sleeps.append)
    assert backend.calls == 4 and sleeps == [0.5] and list(records) == list(misses)


def test_a_batch_of_the_wrong_size_stores_none_of_its_images(tmp_path, open_store, monkeypatch):
    class ShortBatch(StubImageBackend):
        def generate_many(self, prompts, params):
            images = super().generate_many(prompts, params)
            return images if self.calls <= 2 else images[:-1]

    monkeypatch.setattr(generation, "CHUNK", 2)
    store, params = open_store(), preset_params("flux-schnell", seed=1)
    ledger = GenerationLedger(tmp_path / "ledger.jsonl")
    misses = _misses(params, "one", "two", "three", "four")
    with pytest.raises(GenerationError, match="returned 1 images for 2 prompts"):
        generate_all(misses, params, ShortBatch("flux-schnell"), store, ledger=ledger)
    ledger.close()
    # the first chunk is stored; no image of the second can be matched to its prompt
    assert [store.lookup(key) is not None for key in misses] == [True, True, False, False]
    assert [line["prompt_key"] for line in ledger.read()] == list(misses)[:2]


class _FailsOn:
    """Stub images from ``generate`` and ``hash-16`` vectors from
    ``encode_text``, one item at a time; the item ``bad`` fails after
    ``delay`` seconds, so a call started beside it returns first."""

    backend_id = "flux-schnell"
    provider_id, dim = "hash-16", 16

    def __init__(self, delay=0.0):
        self.delay = delay
        self.called = []

    def _call(self, item, make):
        self.called.append(item)
        if item == "bad":
            time.sleep(self.delay)
            raise GenerationError("the backend refused 'bad'")
        return make()

    def generate(self, positive, negative, params):
        return self._call(positive, lambda: stub_generate(PromptPair(positive, negative), params))

    def encode_text(self, text):
        return self._call(text, lambda: HashProjectionProvider("hash-16", 16).encode_text(text))


@pytest.mark.parametrize("workers", [1, 2])
def test_every_image_returned_before_a_failure_is_raised_is_stored_and_logged(
        tmp_path, open_store, workers):
    backend = _FailsOn(delay=0.05 if workers > 1 else 0.0)
    store, params = open_store(), preset_params("flux-schnell", seed=1)
    ledger = GenerationLedger(tmp_path / "ledger.jsonl")
    misses = _misses(params, "first", "bad", "after")
    with pytest.raises(GenerationError, match="refused"):
        generate_all(misses, params, backend, store, ledger=ledger, workers=workers)
    ledger.close()
    stored = [store.lookup(key) is not None for key in misses]
    first, _, after = misses
    logged = [line["prompt_key"] for line in ledger.read()]
    if workers == 1:  # one at a time: nothing is called after the failure
        assert backend.called == ["first", "bad"] and stored == [True, False, False]
        assert logged == [first]
    else:  # "after" runs beside the slow failure, and its paid image is kept, in input order
        assert sorted(backend.called) == ["after", "bad", "first"] and stored == [True, False, True]
        assert logged == [first, after]


@pytest.mark.parametrize("workers", [1, 2])
def test_every_embedding_returned_before_a_failure_is_raised_is_stored(tmp_path, workers):
    encoder = _FailsOn(delay=0.05 if workers > 1 else 0.0)
    texts = {"key-first": "first", "key-bad": "bad", "key-after": "after"}
    cache = EmbeddingCache(tmp_path / "emb")
    try:
        with pytest.raises(GenerationError, match="refused"):
            embed_all(encoder, "text", texts, cache, workers=workers)
        stored = [cache.get("hash-16", key) is not None for key in texts]
    finally:
        cache.close()
    if workers == 1:  # the same rule as the images': nothing is called after the failure
        assert encoder.called == ["first", "bad"] and stored == [True, False, False]
    else:  # "after" runs beside the slow failure, and its paid vector is kept
        assert sorted(encoder.called) == ["after", "bad", "first"] and stored == [True, False, True]


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


def test_record_to_dict_equals_asdict_and_from_dict_ignores_other_keys(open_store):
    record = generate_image(_spec(), preset_params("flux-schnell", seed=1),
                            StubImageBackend("flux-schnell"), open_store())
    as_dict = record.to_dict()
    assert as_dict == dataclasses.asdict(record)
    assert list(as_dict) == [f.name for f in dataclasses.fields(record)]
    assert GeneratedImageRecord.from_dict(as_dict) == record
    assert GeneratedImageRecord.from_dict({"sample_id": "s1", **as_dict}) == record


@pytest.mark.parametrize("root", ["absolute", "relative", "trailing slash", "current dir"])
def test_image_ref_names_the_store_root_and_the_key(tmp_path, monkeypatch, root):
    monkeypatch.chdir(tmp_path)
    given = {
        "absolute": tmp_path / "images",
        "relative": "cache/images",
        "trailing slash": f"{tmp_path}/images/",
        "current dir": ".",
    }[root]
    backend = StubImageBackend("flux-schnell")
    store = ImageStore(given)
    try:
        record = generate_image(_spec(), preset_params("flux-schnell", seed=1), backend, store)
        key = record.prompt_key
        assert record.image_ref == f"{Path(given)}#{key}"
        assert sha256_hex(store.get(key)) == record.content_hash
        assert store.has(key) and store.get_meta(key) == record.to_dict()
        assert sorted(p.parent.name for p in Path(given).rglob("*.seg")) == ["data", "meta"]
    finally:
        store.close()
