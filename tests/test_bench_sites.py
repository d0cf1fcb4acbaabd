"""The benchmark's per-layer metrics wrap names in ``t2ifuse`` from outside
(``perfbench/tracing.py``); a name that disappears turns its metric null
without failing the run. This test fails instead."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
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
