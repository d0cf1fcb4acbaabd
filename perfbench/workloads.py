"""Workload definitions: inputs, configs, one cold/warm iteration, output checks.

Every workload runs offline with the stub image backend and ``hash-16``
encoders. An iteration is a cold phase (empty cache, fresh run dir), a warm
phase (fresh run dir sharing the now-filled cache) and an output check.
Everything goes through the public entry points of ``t2ifuse``.

Durable syncs are not waited for: :func:`stub_syncs` replaces ``os.fsync``,
``os.fdatasync`` and ``os.sync`` with a counter, and the count is a metric of
its own. The sync latency of a shared disk swings several-fold within a
minute, so a run time that waits on it cannot be compared between runs.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from t2ifuse import orchestrator
from t2ifuse.config import parse_config_data
from t2ifuse.embedding import HashProjectionProvider
from t2ifuse.generation import StubImageBackend
from t2ifuse.synthetic import build_separability_fixture

ENCODER = "hash-16"
BACKEND = "flux-schnell"

# Criterion-3 settings shared by every workload; each workload overrides a few.
_BASE = {
    "dataset": {"split_seed": 7, "split_fractions": [0.14, 0.11, 0.75]},
    "providers": {"text": ENCODER, "image": ENCODER},
    "fusion": {
        "mechanism": "cross_attention", "model_dim": 8, "heads": 2,
        "hidden_dim": 16, "dropout_rate": 0.3,
    },
    "training": {
        "learning_rate": 2.5e-3, "batch_size": 32,
        # patience == max_epochs: every seed trains the same number of epochs,
        # so the work per run does not depend on where early stopping fires.
        "max_epochs": 10, "patience": 10, "weight_decay": 0.03,
    },
    "seeds": [0],
    "cost_mode": "estimated",
}


@dataclass(frozen=True)
class Workload:
    name: str
    samples_per_class: int
    method: str
    overrides: dict = field(default_factory=dict)
    min_accuracy: float | None = None  # checked on the cold run at full size


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="oracle-xattn",
            samples_per_class=1200,
            method="oracle_image",
            min_accuracy=0.95,  # the criterion-3 bound on the fused model
        ),
        Workload(
            name="gen-concat",
            samples_per_class=1200,
            method="gen_image",
            overrides={
                "strategy": "keyword",
                "generation": {"backend": BACKEND},
                "fusion": {"mechanism": "concat"},
            },
        ),
    )
}


_os_sync = os.sync  # the real one, kept for flush()
_sync_lock = threading.Lock()
_sync_calls = 0


def stub_syncs() -> None:
    """Make ``os.fsync``, ``os.fdatasync`` and ``os.sync`` count instead of wait."""
    def counted(*_fd):
        global _sync_calls
        with _sync_lock:  # the image stage syncs from two threads
            _sync_calls += 1

    os.fsync = os.fdatasync = os.sync = counted


def sync_calls() -> int:
    """Durable syncs requested since :func:`stub_syncs`."""
    return _sync_calls


def flush() -> None:
    """Write out dirty pages and collect garbage, so that the timed work
    after it does not pay for earlier work."""
    gc.collect()
    _os_sync()


def _merge(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def build_fixture(workload: Workload, out_dir: Path, seed: int, samples_per_class: int | None = None):
    return build_separability_fixture(
        out_dir, samples_per_class=samples_per_class or workload.samples_per_class, seed=seed
    )


def make_config(workload: Workload, fixture, out_dir: Path, cache_dir: Path):
    """Parse the workload's config; the phases of an iteration differ only in ``out_dir``."""
    raw = _merge(_BASE, workload.overrides)
    raw = _merge(raw, {
        # One id for both phases, so their reports must match byte for byte.
        "experiment_id": workload.name,
        "method": workload.method,
        "dataset": {"path": str(fixture.dataset_csv)},
        "providers": {"oracle_features": str(fixture.oracle_features)},
        "output_dir": str(out_dir),
        "cache_dir": str(cache_dir),
    })
    return parse_config_data(raw)


def make_registry() -> orchestrator.ProviderRegistry:
    """Fresh provider instances per phase, so their ``calls`` count that phase only."""
    return orchestrator.ProviderRegistry(
        backends={BACKEND: StubImageBackend(backend_id=BACKEND)},
        text_providers={ENCODER: HashProjectionProvider(ENCODER, 16)},
        image_providers={ENCODER: HashProjectionProvider(ENCODER, 16)},
    )


def provider_calls(registry: orchestrator.ProviderRegistry) -> int:
    return (
        registry.backends[BACKEND].calls
        + registry.text_providers[ENCODER].calls
        + registry.image_providers[ENCODER].calls
    )


@dataclass
class PhaseResult:
    wall_s: float
    report_text: bytes
    accuracy: float
    macro_f1: float
    provider_calls: int
    syncs: int
    problems: list[str]


def run_phase(workload: Workload, config, registry) -> PhaseResult:
    """One closed-loop pass: a whole experiment.

    ``run_experiment`` is looked up on the module at call time, so a tracer
    can wrap it.
    """
    problems = []
    flush()
    syncs = sync_calls()
    start = time.perf_counter()
    _, report = orchestrator.run_experiment(config, registry)
    wall = time.perf_counter() - start
    syncs = sync_calls() - syncs
    if report is None:
        problems.append("evaluation produced no report")
    report_path = Path(config.output_dir) / "report.txt"
    text = report_path.read_bytes() if report_path.exists() else b""
    if not text:
        problems.append(f"missing {report_path.name}")
    return PhaseResult(
        wall_s=wall,
        report_text=text,
        accuracy=report.accuracy if report is not None else float("nan"),
        macro_f1=report.macro_f1 if report is not None else float("nan"),
        provider_calls=provider_calls(registry),
        syncs=syncs,
        problems=problems,
    )


def tree_bytes(root: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(root)
        for name in names
    )


@dataclass
class IterationResult:
    cold: PhaseResult
    warm: PhaseResult
    disk_bytes: int  # cache plus both run dirs
    problems: list[str]


def check_outputs(workload: Workload, cold: PhaseResult, warm: PhaseResult,
                  check_accuracy: bool = True) -> list[str]:
    problems = [f"cold: {p}" for p in cold.problems] + [f"warm: {p}" for p in warm.problems]
    if check_accuracy and workload.min_accuracy is not None and not cold.accuracy >= workload.min_accuracy:
        problems.append(f"cold test accuracy {cold.accuracy:.4f} < {workload.min_accuracy}")
    if warm.report_text != cold.report_text:
        problems.append("warm report differs from cold")
    if warm.provider_calls:
        problems.append(f"warm phase made {warm.provider_calls} backend/encoder calls")
    return problems


def run_iteration(workload: Workload, fixture, iter_dir: Path, *, tracers: dict | None = None,
                  check_accuracy: bool = True) -> IterationResult:
    """A cold phase, a warm phase on the same cache, then the output check.

    With ``tracers`` (a :class:`tracing.Tracer` for "cold" and one for "warm")
    each phase runs with its tracer's wrappers installed.
    """
    results = {}
    for phase in ("cold", "warm"):
        config = make_config(workload, fixture, iter_dir / phase, iter_dir / "cache")
        registry = make_registry()
        if tracers is None:
            results[phase] = run_phase(workload, config, registry)
        else:
            with tracers[phase].installed(registry):
                results[phase] = run_phase(workload, config, registry)
    cold, warm = results["cold"], results["warm"]
    return IterationResult(
        cold=cold,
        warm=warm,
        disk_bytes=tree_bytes(iter_dir),
        problems=check_outputs(workload, cold, warm, check_accuracy),
    )
