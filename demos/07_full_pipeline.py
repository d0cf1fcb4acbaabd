"""End-to-end offline experiment: prompts -> images -> embeddings -> training
-> evaluation, with resumable stages, call-free re-runs, and a fresh run
directory that reuses the stages of a finished run on the same cache.

Run: python3 demos/07_full_pipeline.py
"""

import dataclasses
import tempfile
from pathlib import Path

from t2ifuse.config import parse_config_data
from t2ifuse.orchestrator import ProviderRegistry, run_experiment
from t2ifuse.synthetic import build_separability_fixture

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    fixture = build_separability_fixture(tmp / "data", samples_per_class=25, seed=3)
    print(f"synthetic dataset: {fixture.num_samples} samples, "
          f"oracle image features dim {fixture.image_dim}\n")

    config = parse_config_data({
        "experiment_id": "demo-pipeline",
        "dataset": {"path": str(fixture.dataset_csv), "split_seed": 5,
                     "split_fractions": [0.6, 0.2, 0.2]},
        "output_dir": str(tmp / "run"),
        "cache_dir": str(tmp / "cache"),
        "method": "gen_image",          # text + generated image
        "strategy": "keyword",
        "generation": {"backend": "flux-schnell"},
        "providers": {"text": "hash-32", "image": "hash-32"},
        "fusion": {"mechanism": "cross_attention", "model_dim": 16, "heads": 2, "hidden_dim": 24},
        "training": {"preset": "frozen-head", "max_epochs": 4, "batch_size": 16},
        "seeds": [0],
        "cost_mode": "estimated",
        "offline": True,
    })

    registry = ProviderRegistry()
    manifest, report = run_experiment(config, registry)
    backend = registry.backends["flux-schnell"]
    print("first run:")
    print(f"  stages: {', '.join(f'{k}={v.status}' for k, v in manifest.stages.items())}")
    print(f"  backend calls: {backend.calls}")
    print(f"  test accuracy {report.accuracy:.3f}, Macro-F1 {report.macro_f1:.3f}")
    print(f"  semantic consistency: cosine {report.clip_cos_mean:.3f} "
          f"(scaled {report.clip_score_mean:.3f})")
    print(f"  estimated generation cost ${report.cost_summary['total_cost_usd']}\n")

    print((tmp / "run" / "report.txt").read_text())

    calls_before = backend.calls
    run_experiment(config, registry)
    print(f"re-run in the same directory: backend calls still {backend.calls} "
          f"(+{backend.calls - calls_before}); every stage verified and skipped\n")

    config_b = dataclasses.replace(config, output_dir=str(tmp / "run-b"))
    manifest_b, _ = run_experiment(config_b, registry)
    identical = (tmp / "run" / "report.txt").read_bytes() == (tmp / "run-b" / "report.txt").read_bytes()
    reused = [name for name, stage in manifest_b.stages.items() if stage.reused_from]
    print(f"fresh directory, shared cache: backend calls still {backend.calls}; "
          f"reports byte-identical: {identical}")
    print(f"  stages reused from run/ by fingerprint: {', '.join(reused)}")

    config_c = dataclasses.replace(config, output_dir=str(tmp / "run-c"))
    run_experiment(config_c, registry, force=True)
    identical = (tmp / "run" / "report.txt").read_bytes() == (tmp / "run-c" / "report.txt").read_bytes()
    print(f"fresh directory, force=True (every stage re-derived from the caches): "
          f"backend calls still {backend.calls}; reports byte-identical: {identical}")
