"""The benchmark's per-layer metrics wrap names in ``t2ifuse`` from outside
(``perfbench/tracing.py``); a name that disappears turns its metric null
without failing the run. This test fails instead."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # where its dataclasses look
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracing = _tracing()
    sites = [site for group in tracing.SITES.values() for site in group]
    sites.append(tracing.RUN_EXPERIMENT)
    missing = []
    for site in sites:
        try:
            tracing._resolve(site)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{site}: {exc}")
    assert missing == []
    assert {
        "t2ifuse.orchestrator:_load_packs",
        "t2ifuse.orchestrator:fuse_forward",
        "t2ifuse.training:fuse_forward",
        "t2ifuse.orchestrator:evaluate_split",
        "t2ifuse.training:evaluate_split",
    } <= set(sites)


def test_the_bench_times_the_declared_stages_in_order():
    from t2ifuse import orchestrator

    assert _tracing().STAGES == tuple(stage.name for stage in orchestrator.STAGES)


def test_a_forced_run_gets_each_embedding_once_through_the_traced_site(tmp_path):
    from t2ifuse.config import parse_config_data
    from t2ifuse.orchestrator import ProviderRegistry, run_experiment
    from t2ifuse.storage import read_jsonl
    from t2ifuse.synthetic import build_separability_fixture

    fixture = build_separability_fixture(tmp_path / "data", samples_per_class=8, seed=3)

    def config(out):
        return parse_config_data({
            "experiment_id": "sites",
            "dataset": {"path": str(fixture.dataset_csv), "split_seed": 5, "split_fractions": [0.5, 0.25, 0.25]},
            "output_dir": str(tmp_path / out),
            "cache_dir": str(tmp_path / "cache"),
            "method": "gen_image",
            "strategy": "keyword",
            "generation": {"backend": "flux-schnell"},
            "providers": {"text": "hash-16", "image": "hash-16"},
            "fusion": {"mechanism": "concat", "model_dim": 8, "heads": 2, "hidden_dim": 12},
            "training": {"batch_size": 8, "max_epochs": 1, "patience": 1},
            "seeds": [0],
        })

    run_experiment(config("cold"))  # fills the caches
    registry, tracer = ProviderRegistry(), _tracing().Tracer()
    with tracer.installed(registry):
        # the name bound before the tracer wraps run_experiment: one call, the sites traced
        run_experiment(config("forced"), registry, force=True)
    assert tracer.missing == {}
    features = list(read_jsonl(tmp_path / "forced" / "features.jsonl"))
    keys = ({(row["text_provider"], row["text_key"]) for row in features}
            | {(row["image"]["provider"], row["image"]["key"]) for row in features})
    assert len(keys) == 2 * len(features) > 0
    assert tracer.totals()["embedding.cache_get"][0] == len(keys)  # every one a hit


def test_every_workload_runs_through_the_names_the_bench_calls(tmp_path):
    """The bench's own entry path at 8 samples per class: its fixture, config
    and registry, through ``orchestrator.run_experiment``. ``run_phase`` is
    not called: it syncs the machine, and ``stub_syncs`` patches ``os.fsync``
    for the whole process."""
    from t2ifuse import orchestrator

    workloads = _workloads()
    calls = {}
    for name, workload in workloads.WORKLOADS.items():
        fixture = workloads.build_fixture(workload, tmp_path / name / "data", seed=11, samples_per_class=8)
        config = workloads.make_config(workload, fixture, tmp_path / name / "run", tmp_path / name / "cache")
        registry = workloads.make_registry()
        _, report = orchestrator.run_experiment(config, registry)
        assert report is not None
        assert (tmp_path / name / "run" / "report.txt").read_bytes()
        calls[name] = workloads.provider_calls(registry)
    assert calls["gen-concat"] > 0
