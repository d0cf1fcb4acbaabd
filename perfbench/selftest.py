"""Self-tests of the benchmark at a tiny fixture size.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))
# The set-up rounds run in child interpreters, which find t2ifuse the way run.py's child does.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from t2ifuse.corpus import load_dataset, make_splits  # noqa: E402

TINY = 16  # samples per class
SEED = 11


def _split_sizes(workload, seed: int, work: Path) -> tuple[int, int, int]:
    fixture = workloads.build_fixture(workload, work / "sizes", seed, TINY)
    config = workloads.make_config(workload, fixture, work / "unused", work / "unused")
    samples, _ = load_dataset(config.dataset.path)
    splits = make_splits(samples, config.dataset.split_fractions, config.dataset.split_seed)
    return tuple(len(splits[name]) for name in ("train", "validation", "test"))


def _counts(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        (ROOT / ".perfbench_work").mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work", prefix="selftest-")
        self.work = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def _trace(self, name: str, sub: str = "trace") -> dict:
        with contextlib.redirect_stdout(io.StringIO()):
            out = harness.trace(name, SEED, self.work / sub, None, samples_per_class=TINY)
        self.assertEqual(out["failed"], 0)
        return {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}

    def test_each_workload_passes_its_output_checks_on_two_seeds(self):
        for name in workloads.WORKLOADS:
            for seed in (SEED, SEED + 1):
                with self.subTest(workload=name, seed=seed):
                    with contextlib.redirect_stdout(io.StringIO()):
                        out = harness.measure(name, seed, 0, self.work / f"{name}-{seed}",
                                              samples_per_class=TINY)
                    self.assertEqual((out["attempted"], out["failed"]),
                                     (harness.MIN_ITERATIONS, 0))
                    self.assertEqual(
                        set(out["metrics"]),
                        {"setup_s", "cold_run_s", "warm_run_s", "test_accuracy",
                         "test_macro_f1", "disk_mb", "fsync_calls"},
                    )
                    self.assertGreater(out["metrics"]["fsync_calls"][0], 0)

    def test_a_changed_report_fails_the_check(self):
        workload = workloads.WORKLOADS["oracle-xattn"]
        cold = workloads.PhaseResult(1.0, b"a", 0.99, 0.99, 0, 10, [])
        warm = workloads.PhaseResult(1.0, b"b", 0.99, 0.99, 3, 1, [])
        self.assertEqual(len(workloads.check_outputs(workload, cold, warm)), 2)
        low = workloads.PhaseResult(1.0, b"a", 0.5, 0.5, 0, 10, [])
        self.assertEqual(len(workloads.check_outputs(workload, low, low)), 1)

    def test_traced_counts_match_closed_forms(self):
        epochs = workloads._BASE["training"]["max_epochs"]
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                metrics = self._trace(name, name)
                value = lambda key: metrics[key]["value"]  # noqa: E731
                train, val, test = _split_sizes(workload, SEED, self.work / name)
                head = workload.overrides.get("fusion", {}).get("mechanism", "cross_attention")
                export = int(head in ("cross_attention", "deep_prefix"))
                for phase in ("cold", "warm"):
                    self.assertEqual(value(f"{phase}.training.epochs"), epochs)
                    self.assertEqual(value(f"{phase}.fusion.forward.calls"),
                                     epochs * (train + val) + test + export)
                    self.assertEqual(value(f"{phase}.fusion.backward.calls"), epochs * train)
                # Only the cold phase fills the cache; both write run records.
                self.assertGreater(value("cold.storage.fsync.calls"),
                                   value("warm.storage.fsync.calls"))
                self.assertGreater(value("warm.storage.fsync.calls"), 0)
                self.assertEqual(value("warm.embedding.encode.calls"), 0)
                self.assertEqual(value("warm.generation.backend.calls"), 0)
                if workload.method == "gen_image":
                    samples = 4 * TINY
                    self.assertEqual(value("cold.generation.generate_image.calls"), samples)
                    self.assertEqual(value("cold.generation.backend.calls"), samples)
                    self.assertEqual(value("warm.generation.cache_hit_ratio"), 1.0)
                self.assertEqual(value("warm.embedding.cache_hit_ratio"), 1.0)
                self.assertTrue(all(m["value"] is not None for m in metrics.values()))
                self.assertEqual(len(metrics), 98)

    def test_two_traced_runs_give_identical_counts(self):
        first = _counts(self._trace("gen-concat", "first"))
        second = _counts(self._trace("gen-concat", "second"))
        self.assertGreater(len(first), 20)
        self.assertEqual(first, second)

    def test_stage_spans_cover_the_traced_phase(self):
        workload = workloads.WORKLOADS["oracle-xattn"]
        fixture = workloads.build_fixture(workload, self.work / "fx", SEED, TINY)
        tracer = tracing.Tracer()
        config = workloads.make_config(workload, fixture, self.work / "run", self.work / "cache")
        registry = workloads.make_registry()
        with tracer.installed(registry):
            result = workloads.run_phase(workload, config, registry)
        stages = sum(tracer.totals()[f"orchestrator.{s}"][1] for s in tracing.STAGES)
        self.assertLessEqual(stages, result.wall_s)
        self.assertGreater(stages, 0.9 * result.wall_s)
        self.assertEqual(tracer.totals()["orchestrator.training"][0], 1)
        self_times = tracer.self_times()
        for name, (_, total) in tracer.totals().items():
            self.assertLessEqual(self_times[name], total + 1e-9)
            self.assertGreaterEqual(self_times[name], -1e-9)

    def test_worker_thread_spans_hang_under_the_images_stage(self):
        workload = workloads.WORKLOADS["gen-concat"]
        fixture = workloads.build_fixture(workload, self.work / "fx", SEED, TINY)
        tracer = tracing.Tracer()
        config = workloads.make_config(workload, fixture, self.work / "run", self.work / "cache")
        registry = workloads.make_registry()
        with tracer.installed(registry):
            workloads.run_phase(workload, config, registry)
        names = {sid: name for sid, name, _, _, _ in tracer.spans}
        parents = {names[parent] for _, name, _, _, parent in tracer.spans
                   if name == "generation.generate_image"}
        self.assertEqual(parents, {"orchestrator.images"})
        self.assertTrue(all(parent is not None for _, name, _, _, parent in tracer.spans
                            if name not in {f"orchestrator.{s}" for s in tracing.STAGES}))

    def test_a_vanished_name_is_reported_missing(self):
        sites = dict(tracing.SITES, **{"orchestrator.load_packs": ("t2ifuse.orchestrator:_gone",)})
        with mock.patch.object(tracing, "SITES", sites):
            metrics = self._trace("oracle-xattn")
        self.assertIsNone(metrics["cold.orchestrator.load_packs.calls"]["value"])
        self.assertIsNone(metrics["warm.orchestrator.load_packs.s"]["value"])
        self.assertIsNotNone(metrics["cold.fusion.forward.calls"]["value"])

    def test_wrappers_are_removed_after_a_phase(self):
        from t2ifuse import orchestrator, storage

        before = (orchestrator.run_experiment, orchestrator._load_packs,
                  storage.ArtifactCache.put, storage.atomic_write_bytes)
        self._trace("oracle-xattn")
        after = (orchestrator.run_experiment, orchestrator._load_packs,
                 storage.ArtifactCache.put, storage.atomic_write_bytes)
        self.assertEqual(before, after)

    def test_run_fails_without_sources(self):
        empty = self.work / "empty"
        empty.mkdir()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "oracle-xattn",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
