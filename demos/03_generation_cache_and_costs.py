"""Image generation with a content-addressed cache and exact cost accounting.

Run: python3 demos/03_generation_cache_and_costs.py
"""

import tempfile
from pathlib import Path

from t2ifuse.generation import (
    DEFAULT_COST_MODEL,
    GenerationLedger,
    ImageStore,
    StubImageBackend,
    generate_image,
    ledger_totals,
    preset_params,
)
from t2ifuse.prompting import PromptSpec

print("published per-backend presets:")
for preset in ("sd15", "sdxl", "sdxl-lightning", "flux-schnell", "flux-schnell-1step", "dalle3"):
    p = preset_params(preset)
    print(f"  {preset:>18}: steps={p.steps:>2} guidance={p.guidance_scale} "
          f"size={p.width}x{p.height} scheduler={p.scheduler_id}")
print()

with tempfile.TemporaryDirectory() as tmp:
    store = ImageStore(Path(tmp) / "cache" / "images")
    ledger = GenerationLedger(Path(tmp) / "ledger.jsonl")
    backend = StubImageBackend("flux-schnell")  # offline deterministic stand-in
    spec = PromptSpec(sample_id="d1", strategy="keyword",
                      positive="A photorealistic image of a red vacuum cleaner.")
    params = preset_params("flux-schnell", seed=42)

    first = generate_image(spec, params, backend, store, ledger=ledger)
    second = generate_image(spec, params, backend, store, ledger=ledger)
    print(f"backend calls after two identical requests: {backend.calls} (cache hit)")
    print(f"content hash stable: {first.content_hash == second.content_hash}")

    other_seed = preset_params("flux-schnell", seed=43)
    third = generate_image(spec, other_seed, backend, store, ledger=ledger)
    print(f"different seed -> different image: {third.content_hash != first.content_hash}\n")

    store.close()  # releases the segments of its data/ and meta/ logs under cache/images/
    ledger.close()
    totals = ledger_totals(ledger.read(), mode="estimated")
    print(f"ledger: {sum(t.images for t in totals.per_backend.values())} generations, "
          f"estimated cost ${totals.total_cost_usd}, latency {totals.total_latency_s}s")

print("\nper-image rates used for estimates:")
for backend_id, entry in DEFAULT_COST_MODEL.entries.items():
    print(f"  {backend_id:>15}: ${entry.unit_cost_usd} / image, ~{entry.nominal_latency_s}s")
print("\n100 images on each backend would cost:")
for backend_id, entry in DEFAULT_COST_MODEL.entries.items():
    print(f"  {backend_id:>15}: ${entry.unit_cost_usd * 100}")
