"""Span tracer that wraps the public functions of each ``t2ifuse`` layer from outside.

Each function is wrapped where its caller looks it up (``fuse_forward`` is
bound in both ``training`` and ``orchestrator``), so nothing under ``src/``
changes. Spans (id, name, start, end, parent) stay in memory; the benchmark
writes them once at the end. A name that no longer exists is reported as a
missing metric instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

STAGES = ("prompts", "images", "embeddings", "training", "evaluation")

# Span name -> the "module:attribute" sites that feed it.
SITES = {
    "orchestrator.load_packs": ("t2ifuse.orchestrator:_load_packs",),
    "corpus.load_dataset": ("t2ifuse.orchestrator:load_dataset",),
    "corpus.make_splits": ("t2ifuse.orchestrator:make_splits",),
    "prompting.build_prompt": ("t2ifuse.orchestrator:build_prompt",),
    "generation.generate_image": ("t2ifuse.orchestrator:generate_image",),
    "storage.atomic_write": (
        "t2ifuse.storage:atomic_write_bytes",  # also reached via atomic_write_text/write_jsonl
        "t2ifuse.tensorcore:atomic_write_bytes",
    ),
    "storage.cache_put": ("t2ifuse.storage:ArtifactCache.put",),
    "storage.cache_get": (
        "t2ifuse.storage:ArtifactCache.has",
        "t2ifuse.storage:ArtifactCache.get",
        "t2ifuse.storage:ArtifactCache.get_meta",
    ),
    "embedding.embed_text": ("t2ifuse.orchestrator:embed_text",),
    "embedding.embed_image": ("t2ifuse.orchestrator:embed_image",),
    "embedding.cache_get": ("t2ifuse.embedding:EmbeddingCache.get",),
    "fusion.forward": ("t2ifuse.training:fuse_forward", "t2ifuse.orchestrator:fuse_forward"),
    "tensorcore.cross_entropy": ("t2ifuse.training:cross_entropy",),
    "tensorcore.checkpoint": ("t2ifuse.training:save_checkpoint", "t2ifuse.orchestrator:load_checkpoint"),
    "training.train_loop": ("t2ifuse.orchestrator:train_loop",),
    "training.adamw_step": ("t2ifuse.training:adamw_step",),
    "training.evaluate_split": ("t2ifuse.orchestrator:evaluate_split", "t2ifuse.training:evaluate_split"),
    "evaluation.compute_metrics": ("t2ifuse.orchestrator:compute_metrics", "t2ifuse.training:compute_metrics"),
    "evaluation.bootstrap_std": ("t2ifuse.orchestrator:bootstrap_std",),
    "evaluation.render_report": ("t2ifuse.orchestrator:render_report",),
}
RUN_EXPERIMENT = "t2ifuse.orchestrator:run_experiment"

# Spans whose call count is a metric, besides their time.
COUNTED = (
    "orchestrator.load_packs", "prompting.build_prompt", "generation.generate_image",
    "generation.backend", "storage.atomic_write", "storage.cache_put", "storage.cache_get",
    "embedding.embed_text", "embedding.embed_image", "embedding.encode", "embedding.cache_get",
    "fusion.forward", "fusion.backward", "training.adamw_step", "training.evaluate_split",
)
TIMED_ONLY = tuple(f"orchestrator.{s}" for s in STAGES) + (
    "corpus.load_dataset", "corpus.make_splits", "tensorcore.cross_entropy",
    "tensorcore.checkpoint", "training.train_loop", "evaluation.compute_metrics",
    "evaluation.bootstrap_std", "evaluation.render_report",
)
# Derived metric -> (unit, spans it is computed from).
DERIVED = {
    "generation.cache_hit_ratio": ("ratio", ("generation.generate_image", "generation.backend")),
    "storage.bytes_written": ("bytes", ("storage.atomic_write",)),
    "embedding.cache_hit_ratio": (
        "ratio", ("embedding.embed_text", "embedding.embed_image", "embedding.encode")),
    "training.epochs": ("count", ("training.train_loop",)),
    "training.samples_per_s": ("1/s", ("training.train_loop",)),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric of one phase, with its unit."""
    units = {}
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for name in TIMED_ONLY:
        units[f"{name}.s"] = "s"
    for name, (unit, _) in DERIVED.items():
        units[name] = unit
    return units


def _resolve(site: str):
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # AttributeError when the name is gone
    return owner, attr


def span_cost(calls: int = 20000) -> float:
    """Seconds a span wrapper adds to one call, timed on a no-op function.

    Times of whole phases swing with the disk and the host, so traced minus
    untraced run time can hide an overhead this small; spans times this cost
    is a second, steadier estimate.
    """
    def noop():
        return None

    wrapped = Tracer().timed("probe", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - start - bare) / calls)


class Tracer:
    """Records spans and counters for one phase while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Parent for spans opened on a thread with no open span of its own
        # (the image stage's worker pool): the open orchestrator stage.
        self._root: int | None = None
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def stage_span(self, name: str):
        """A span that is also the parent of spans opened on other threads."""
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        self._root = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = parent
            self.spans.append((sid, name, start, end, parent))

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` may count or rewrap."""
        spans, clock, ids = self.spans, time.perf_counter, self._ids

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            return result if after is None else after(result, args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing wrappers -------------------------------------------------

    def _replace(self, owner, attr: str, wrap) -> None:
        """Set ``owner.attr`` to ``wrap(original)`` until the block exits."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrap(original))

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        self._replace(owner, attr, lambda fn: self.timed(name, fn, after))

    def _after(self, name: str):
        if name == "storage.atomic_write":
            def count_bytes(result, args):
                self.counters["storage.bytes_written"] += len(args[1])
                return result
            return count_bytes
        if name == "fusion.forward":
            def wrap_backward(out, args):
                out.backward = self.timed("fusion.backward", out.backward)
                return out
            return wrap_backward
        if name == "training.train_loop":
            def count_epochs(result, args):
                _, state = result
                self.counters["training.epochs"] += state.epoch
                self.counters["training.samples"] += state.epoch * len(args[1])
                return result
            return count_epochs
        return None

    def _run_by_stage(self, original):
        """``run_experiment`` as one call per stage, each timed as its own span."""

        def run_experiment(config, registry=None, *, until_stage=None, force=False):
            result = None
            for stage in STAGES:
                with self.stage_span(f"orchestrator.{stage}"):
                    result = original(config, registry, until_stage=stage, force=force)
                if stage == until_stage:
                    break
            return result

        return run_experiment

    @contextmanager
    def installed(self, registry):
        """Wrap every site, the registry's provider instances and
        ``run_experiment`` for the duration of the block."""
        try:
            for name, sites in SITES.items():
                for site in sites:
                    try:
                        owner, attr = _resolve(site)
                    except (ImportError, AttributeError) as exc:
                        self.missing[name] = f"{site} not found ({exc})"
                        continue
                    self._patch(owner, attr, name, self._after(name))
            for backend in registry.backends.values():
                self._patch(backend, "generate", "generation.backend")
            for provider in registry.text_providers.values():
                self._patch(provider, "encode_text", "embedding.encode")
            for provider in registry.image_providers.values():
                self._patch(provider, "encode_image", "embedding.encode")
            try:
                owner, attr = _resolve(RUN_EXPERIMENT)
            except (ImportError, AttributeError) as exc:
                for stage in STAGES:
                    self.missing[f"orchestrator.{stage}"] = f"{RUN_EXPERIMENT} not found ({exc})"
            else:
                self._replace(owner, attr, self._run_by_stage)
            yield self
        finally:
            for owner, attr, original, own in reversed(self._patches):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
            self._patches.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, seconds summed over calls)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for _, name, start, end, _ in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
        return {name: (calls, seconds) for name, (calls, seconds) in out.items()}

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time: each span's duration less the part
        of its interval that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name] += (end - start) - covered
        return dict(out)

    def metrics(self) -> dict[str, float | None]:
        """Per-layer metric values for this phase; ``None`` marks a missing one."""
        totals = self.totals()

        def calls(name):
            return totals.get(name, (0, 0.0))[0]

        def seconds(name):
            return totals.get(name, (0, 0.0))[1]

        def ratio(hits, attempts):
            return hits / attempts if attempts else 0.0

        values: dict[str, float | None] = {}
        for name in COUNTED:
            values[f"{name}.calls"] = calls(name)
            values[f"{name}.s"] = seconds(name)
        for name in TIMED_ONLY:
            values[f"{name}.s"] = seconds(name)
        generated = calls("generation.generate_image")
        embedded = calls("embedding.embed_text") + calls("embedding.embed_image")
        loop_s = seconds("training.train_loop")
        values["generation.cache_hit_ratio"] = ratio(generated - calls("generation.backend"), generated)
        values["storage.bytes_written"] = self.counters["storage.bytes_written"]
        values["embedding.cache_hit_ratio"] = ratio(embedded - calls("embedding.encode"), embedded)
        values["training.epochs"] = self.counters["training.epochs"]
        values["training.samples_per_s"] = self.counters["training.samples"] / loop_s if loop_s else 0.0

        missing = dict(self.missing)
        if "fusion.forward" in missing:
            missing["fusion.backward"] = missing["fusion.forward"]
        for metric in values:
            if metric in DERIVED:
                gone = [s for s in DERIVED[metric][1] if s in missing]
            else:
                gone = [s for s in missing if metric.startswith(s + ".")]
            if gone:
                values[metric] = None
        return values

    def write_spans(self, path: Path, phase: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"phase": phase, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
