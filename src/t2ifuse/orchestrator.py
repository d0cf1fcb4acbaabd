"""Config-driven experiment pipeline: staged execution, resume and reuse.

An experiment runs five stages in order -- prompts, images, embeddings,
training, evaluation -- each leaving verifiable artifacts in the run
directory, listed in ``manifest.json``: only what a manifest lists is a run's
output. One writer makes them: a stage writes each artifact through the
``write`` that ``run_experiment`` hands it (temp file, fsync, rename), which
keeps the sha256 of the bytes. ``run_experiment`` is the only committer of
the manifest (synced, renamed): when a stage that ran returns, the caches are
synced and the stage is recorded done with those digests, then committed, so
all that a commit lists is durable before it; a stage that raises is recorded
failed and committed; and the manifest is committed once when the run returns
or raises with reuses recorded since. A process killed between commits
loses only reuse records, which the next run redoes from the pointers;
killed before a fresh directory's first commit, it leaves files no manifest
lists and a directory any config may run in. The content-addressed caches
make repeated generation/embedding work free (and remote-call free).

One rule decides whether a stage runs: its outputs stand when a manifest
records it done under its current fingerprint and each of its artifacts still
has the sha256 recorded there. The fingerprint hashes all that decides the
outputs: the package source, the config fields not in ``Stage.ignores``, the
cache location, the files ``Stage.inputs`` names, and the previous stage's
fingerprint. The run's own manifest is checked first, in place; next the run
that ``<cache_dir>/stages/<fingerprint>`` names, left by each stage that ran,
with its artifacts hard-linked in. Otherwise the stage runs.

Each stage declares in ``Stage.reads`` the run artifacts it is handed, and
``run_experiment`` alone hands them on. It keeps what a stage returned for an
artifact (rows of a JSONL file, the label space, the features that training
and evaluation stack into one shared batch per split) with the sha256 the
manifest records, and hands it to a later reader while the file holds those
bytes; otherwise (a resume, one stage from the CLI, a rewritten file) the value
is built from the file by ``_READERS``. Each is dropped after its last reader.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import functools
import json
import logging
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .axes import descriptor, image_source
from .config import EXECUTION_FIELDS, ExperimentConfig, is_field, without_fields
from .corpus import SPLIT_NAMES, LabelSpace, load_dataset, make_splits, split_assignments
from .embedding import (
    EmbeddingCache,
    OracleFeatureProvider,
    clip_pairs,
    embed_all,
    embed_image,
    embed_text,  # unused here; the benchmark's tracer wraps it as t2ifuse.orchestrator:embed_text
    text_key,
)
from .evaluation import (
    EvalReport,
    bootstrap_std,
    clip_score_stats,
    compute_metrics,
    render_records,
    render_report,
)
from .fusion import FeaturePack, PackBatch, build_fusion_head, export_attention, fuse_forward
from .generation import (
    GenerationLedger,
    ImageStore,
    PromptPair,
    cost_summary,
    generate_all,
    generate_image,  # unused here; the benchmark's tracer wraps it as t2ifuse.orchestrator:generate_image
    prompt_key,
)
from .prompting import CachedChatClient, build_prompt, compose_input
from .providers import OrchestrationError, ProviderRegistry
from . import storage
from .storage import ArtifactCache, atomic_write_text, from_fields, iter_jsonl, jsonl_bytes, sha256_hex, stable_key
from .training import LabeledPacks, evaluate_split, train_loop
from .tensorcore import checkpoint_bytes, load_checkpoint

logger = logging.getLogger(__name__)


class ManifestError(OrchestrationError):
    """A ``manifest.json`` that does not have the shape of a run manifest."""


# --- manifest ----------------------------------------------------------------


@dataclass
class StageStatus:
    status: str = "pending"  # pending | done | failed
    artifacts: dict[str, str] = field(default_factory=dict)  # relpath -> sha256
    reason: str | None = None
    fingerprint: str | None = None  # of what decided the artifacts; None before it ran, or in older manifests
    reused_from: str | None = None  # the run directory the artifacts were linked from
    wall_s: float | None = None  # spent running or reusing the stage


@dataclass
class RunManifest:
    experiment_id: str
    config_hash: str
    output_hash: str = ""  # absent from manifests written before it was recorded
    version: str = __version__
    descriptor: dict = field(default_factory=dict)
    stages: dict[str, StageStatus] = field(default_factory=dict)
    created_at: str = field(default_factory=lambda: _dt.datetime.now(_dt.timezone.utc).isoformat())
    updated_at: str = ""

    def __post_init__(self):  # every stage, in run order
        self.stages = {**{stage.name: StageStatus() for stage in STAGES}, **self.stages}

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict, source: str = "manifest") -> "RunManifest":
        """Read by :func:`storage.from_fields`; a manifest older than a field
        reads ``version`` and ``created_at`` as ``""``, others as their defaults."""
        try:
            return from_fields(
                cls, data, version=data.get("version", ""), created_at=data.get("created_at", ""),
                descriptor=dict(data.get("descriptor", {})),
                stages={name: from_fields(StageStatus, raw) for name, raw in data.get("stages", {}).items()})
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"{source}: not a run manifest ({type(exc).__name__}: {exc})") from exc

    def save(self, run_dir: Path) -> None:
        """Commit: write ``manifest.json`` through a synced temp file and a
        rename. A status set in ``stages`` is kept from here on, and lost to a
        kill before. ``run_experiment`` alone commits: when a stage that ran
        is recorded done or failed, and once when the run returns or raises
        with a reuse recorded since the last commit."""
        self.updated_at = _dt.datetime.now(_dt.timezone.utc).isoformat()
        atomic_write_text(run_dir / "manifest.json", json.dumps(self.to_dict(), sort_keys=True, indent=2))

    @classmethod
    def load(cls, run_dir: Path) -> "RunManifest":
        """The manifest of ``run_dir``; :class:`ManifestError` for text that
        is not one, a torn write among it."""
        path = Path(run_dir) / "manifest.json"
        try:
            return cls.from_dict(json.loads(path.read_bytes()), source=str(path))
        except ValueError as exc:  # bytes that are not JSON, or not UTF-8
            raise ManifestError(f"{path}: not a run manifest ({type(exc).__name__}: {exc})") from exc


# --- stage implementations -----------------------------------------------


def _stage_prompts(config: ExperimentConfig, registry: ProviderRegistry, run_dir: Path,
                   caches: dict, inputs: dict, write: Callable) -> dict[str, object]:
    samples, label_space = load_dataset(config.dataset.path, config.dataset.format)
    make_splits(samples, config.dataset.split_fractions, config.dataset.split_seed)
    write("splits.jsonl", split_assignments(samples))

    max_tokens = config.dataset.max_text_tokens
    source = image_source(config.method)
    # textual_expansion rewrites the input text, the elaborated strategy the
    # image prompt; no method does both, so one client serves either
    elaborator = None
    if config.method == "textual_expansion" or (source == "generate" and config.strategy == "elaborated"):
        elaborator = CachedChatClient(registry.resolve_chat_client(config), caches["chat"])
    retriever = registry.resolve_retriever(config) if config.method == "knowledge_retrieval" else None

    records = []
    fallbacks = 0
    for sample in sorted(samples, key=lambda s: s.id):
        effective_text, fallback = compose_input(sample, config.method, elaborator=elaborator,
                                                 retriever=retriever, max_tokens=max_tokens)
        if fallback:
            fallbacks += 1
        prompt_dict = None
        if source == "generate":
            spec = build_prompt(
                sample,
                config.strategy,
                task_id=config.task_id,
                elaborator=elaborator,
                max_tokens=max_tokens,
            )
            prompt_dict = spec.to_dict()
        records.append(
            {
                "sample_id": sample.id,
                "split": sample.split,
                "label": sample.label,
                "effective_text": effective_text,
                "image_source": source,
                "fallback": fallback,
                "prompt": prompt_dict,
            }
        )

    write("prompts.jsonl", jsonl_bytes(records))
    write("labels.json", json.dumps({"class_names": list(label_space.class_names)}, sort_keys=True))
    write(
        "prompts_summary.json",
        json.dumps(
            {
                "samples": len(records),
                "with_retrieval": sum(
                    1 for r in records if config.method == "knowledge_retrieval" and not r["fallback"]
                ),
                "fallbacks": fallbacks,
            },
            sort_keys=True,
        ),
    )
    return {"prompts.jsonl": records, "labels.json": label_space}


def _stage_images(config: ExperimentConfig, registry: ProviderRegistry, run_dir: Path,
                  caches: dict, inputs: dict, write: Callable) -> dict[str, object]:
    if image_source(config.method) != "generate":
        write("images.jsonl", b"")
        return {"images.jsonl": []}
    rows = [r for r in inputs["prompts.jsonl"] if r["prompt"]]
    backend = registry.resolve_backend(config)
    store: ImageStore = caches["images"]
    ledger = GenerationLedger(run_dir / "ledger.jsonl")
    params = config.generation_params()

    # Each row's key is computed once; generate_all looks each distinct key
    # up once and generates the misses in chunks, in sample order. The
    # prompts stage built and checked each row's spec, so a row gives only
    # the positive and negative prompts that the key and the backend read.
    keys: dict[str, str] = {}
    prompts: dict[str, PromptPair] = {}
    for row in rows:
        positive, negative = row["prompt"]["positive"], row["prompt"]["negative"]
        key = keys[row["sample_id"]] = prompt_key(positive, negative, params)
        if key not in prompts:
            prompts[key] = PromptPair(positive, negative)
    try:
        results = generate_all(prompts, params, backend, store, ledger=ledger,
                               retries=config.generation.retries, workers=config.generation.concurrency)
    finally:
        ledger.close()

    image_rows = [{"sample_id": sid, **results[keys[sid]]} for sid in sorted(keys)]
    write("images.jsonl", jsonl_bytes(image_rows))
    return {"images.jsonl": image_rows}


_DIM_PROBE_IMAGE = b"image feature width probe"


class _SplitFeatures:
    """Each split's sample ids, feature packs and labels, in ``features.jsonl``
    order. The first :meth:`batches` call stacks each split into one padded,
    read-only float32 batch (the cache's dtype) and drops the packs; later
    calls return the same batches, under the label space they are given."""

    def __init__(self):
        self._splits = {name: ([], [], []) for name in SPLIT_NAMES}
        self._batches: dict[str, LabeledPacks] | None = None

    def add(self, row: dict, pack: FeaturePack) -> None:
        ids, packs, labels = self._splits[row["split"]]
        ids.append(row["sample_id"])
        packs.append(pack)
        labels.append(int(row["label"]))

    def batches(self, label_space: LabelSpace) -> dict[str, LabeledPacks]:
        if self._batches is None:
            batches = {}
            for name, (ids, packs, labels) in self._splits.items():
                batch = PackBatch.from_packs(packs, np.float32)
                labels = np.asarray(labels, dtype=np.int64)
                for array in (labels, *vars(batch).values()):
                    array.flags.writeable = False
                batches[name] = LabeledPacks(ids=ids, batch=batch, labels=labels, label_space=label_space)
            self._batches, self._splits = batches, None
        elif self._batches["train"].label_space != label_space:  # labels.json was rewritten
            self._batches = {name: dataclasses.replace(packs, label_space=label_space)
                             for name, packs in self._batches.items()}
        return self._batches


def _stand_in_image(entry: dict, sample_id: str, oracles: dict) -> tuple[np.ndarray, np.ndarray]:
    """The features of an ``oracle`` or ``zero`` image entry of
    ``features.jsonl``; ``oracles`` keeps each oracle file read, by path."""
    if entry["kind"] == "oracle":
        if entry["path"] not in oracles:
            oracles[entry["path"]] = OracleFeatureProvider(entry["path"])
        return oracles[entry["path"]].features_for(sample_id)
    dim = int(entry["dim"])
    return np.zeros(dim, dtype=np.float32), np.zeros((1, dim), dtype=np.float32)


def _stage_embeddings(config: ExperimentConfig, registry: ProviderRegistry, run_dir: Path,
                      caches: dict, inputs: dict, write: Callable) -> dict[str, object]:
    rows = sorted(inputs["prompts.jsonl"], key=lambda r: r["sample_id"])
    images = {r["sample_id"]: r for r in inputs["images.jsonl"]}
    emb_cache: EmbeddingCache = caches["embeddings"]
    store: ImageStore = caches["images"]
    workers = config.generation.concurrency

    # embed_all looks each distinct key up once, then encodes the misses in
    # chunks, in sample order, as generate_all does in the images stage.
    text_provider = registry.resolve_text_provider(config)
    text_keys = [text_key(row["effective_text"]) for row in rows]
    texts = embed_all(text_provider, "text", dict(zip(text_keys, (r["effective_text"] for r in rows))),
                      emb_cache, workers=workers)
    sources = {r["image_source"] for r in rows}
    image_provider = registry.resolve_image_provider(config) if sources - {"oracle"} else None
    generated = {image["content_hash"]: image["prompt_key"]
                 for image in (images[r["sample_id"]] for r in rows if r["image_source"] == "generate")}
    # a miss reads its image from the store, which checks the content hash; a hit reads nothing
    image_features = embed_all(
        image_provider, "image", generated, emb_cache, workers=workers,
        read=lambda content_hash, prompt_key: store.get(prompt_key, sha256=content_hash))
    zero_dim = None
    if "none" in sources:
        zero_dim = image_provider.dim
        if zero_dim is None:
            # A remote encoder learns its dim from its first response; the
            # probe goes through the cache, so a warm run calls nothing.
            zero_dim = embed_image(_DIM_PROBE_IMAGE, image_provider, emb_cache)[0].shape[0]

    def image_entry(row: dict) -> dict:
        if row["image_source"] == "generate":
            image_row = images[row["sample_id"]]
            return {"kind": "cached", "provider": image_provider.provider_id,
                    "key": image_row["content_hash"], "image_ref": image_row["image_ref"]}
        if row["image_source"] == "oracle":
            return {"kind": "oracle", "path": config.providers.oracle_features}
        return {"kind": "zero", "dim": zero_dim}

    feature_rows = [{
        "sample_id": row["sample_id"],
        "split": row["split"],
        "label": row["label"],
        "text_provider": text_provider.provider_id,
        "text_key": key,
        "text_dim": texts[key][0].shape[0],
        "image": image_entry(row),
    } for row, key in zip(rows, text_keys)]
    write("features.jsonl", jsonl_bytes(feature_rows))
    embedded = {(text_provider.provider_id, key): value for key, value in texts.items()}
    embedded.update(((image_provider.provider_id, key), value) for key, value in image_features.items())
    return {"features.jsonl": _split_features(feature_rows, lambda provider, key: embedded.get((provider, key)))}


def _load_packs(features: _SplitFeatures, label_space: LabelSpace) -> dict[str, LabeledPacks]:
    """Each split's read-only padded feature batch, shared by training and evaluation."""
    return features.batches(label_space)


def _split_features(rows: Iterable[dict], embedding_of: Callable[[str, str], tuple | None]) -> _SplitFeatures:
    """The split features of ``features.jsonl`` rows. ``embedding_of(provider,
    key)`` gives a cached entry's (pooled, tokens), or ``None`` once the cache
    has lost it."""
    split_features = _SplitFeatures()
    oracles: dict = {}
    for row in rows:
        text = embedding_of(row["text_provider"], row["text_key"])
        image_entry = row["image"]
        if image_entry["kind"] == "cached":
            image = embedding_of(image_entry["provider"], image_entry["key"])
        else:
            image = _stand_in_image(image_entry, row["sample_id"], oracles)
        if text is None or image is None:
            raise OrchestrationError(f"embedding cache lost an entry of sample {row['sample_id']!r}")
        split_features.add(row, FeaturePack(text[1], image[1], text[0], image[0]))
    return split_features


def _read_features(features: bytes, emb_cache: EmbeddingCache) -> _SplitFeatures:
    return _split_features(iter_jsonl(features), emb_cache.get)


def _head_for(config: ExperimentConfig, packs: dict[str, LabeledPacks], label_space: LabelSpace, seed: int):
    batch = packs["train"].batch
    fusion_config = dataclasses.replace(config.fusion, num_classes=len(label_space))
    return build_fusion_head(
        fusion_config,
        text_dim=batch.text_tokens.shape[2],
        image_dim=batch.image_tokens.shape[2],
        seed=seed,
    )


def _stage_training(config: ExperimentConfig, registry: ProviderRegistry, run_dir: Path,
                    caches: dict, inputs: dict, write: Callable) -> dict[str, object]:
    label_space = inputs["labels.json"]
    packs = _load_packs(inputs["features.jsonl"], label_space)
    for seed in config.seeds:
        head = _head_for(config, packs, label_space, seed)
        train_config = dataclasses.replace(config.training, seed=seed)
        _, state = train_loop(head, packs["train"], packs["validation"], train_config)
        write(f"train_s{seed}/history.jsonl", jsonl_bytes(stats.to_dict() for stats in state.history))
        container, manifest = checkpoint_bytes(head.params)
        write(f"train_s{seed}/best.ntc", container)
        write(f"train_s{seed}/best.ntc.manifest.json", manifest)
    return {}


def _stage_evaluation(config: ExperimentConfig, registry: ProviderRegistry, run_dir: Path,
                      caches: dict, inputs: dict, write: Callable) -> dict[str, object]:
    label_space = inputs["labels.json"]
    packs = _load_packs(inputs["features.jsonl"], label_space)
    per_seed_metrics = []
    cost = cost_summary(inputs["images.jsonl"], config.cost_mode)
    test = packs["test"].batch
    cosines, scores = clip_pairs(test.image_pooled, test.text_pooled)  # the same for every seed
    headline_report: EvalReport | None = None
    for seed in config.seeds:
        head = _head_for(config, packs, label_space, seed)
        head.params.restore(load_checkpoint(run_dir / f"train_s{seed}" / "best.ntc"))
        accuracy, macro_f1, preds = evaluate_split(head, packs["test"], config.training.batch_size)
        report = compute_metrics(preds)
        report.bootstrap_std = bootstrap_std(
            preds,
            metric=config.evaluation.bootstrap_metric,
            resamples=config.evaluation.bootstrap_resamples,
            seed=config.evaluation.bootstrap_seed,
        )
        if scores:
            report.clip_cos_mean, report.clip_cos_std = clip_score_stats(cosines)
            report.clip_score_mean, report.clip_score_std = clip_score_stats(scores)
        report.cost_summary = cost
        per_seed_metrics.append(
            {"seed": seed, "accuracy": accuracy, "macro_f1": macro_f1}
        )
        write(f"eval/eval_seed{seed}.json", json.dumps(report.to_dict(), sort_keys=True, indent=2))
        write(
            f"eval/predictions_seed{seed}.jsonl",
            jsonl_bytes(
                {
                    "sample_id": sid,
                    "true": int(t),
                    "pred": int(p),
                    "logits": [float(v) for v in row],
                }
                for sid, t, p, row in zip(preds.sample_ids, preds.y_true, preds.y_pred, preds.logits)
            ),
        )
        if headline_report is None:
            headline_report = report
            # Attention heatmap from the first test sample of the first seed.
            if config.fusion.mechanism in ("cross_attention", "deep_prefix"):
                first = test.take([0])
                out = fuse_forward(head, first)
                n_text = first.text_tokens.shape[1]
                n_image = first.image_tokens.shape[1]
                if config.fusion.mechanism == "deep_prefix":
                    image_labels = [f"vis{i}" for i in range(config.fusion.visual_prefix_len)]
                else:
                    image_labels = [f"img{i}" for i in range(n_image)]
                table = export_attention(
                    out.attention,
                    [f"tok{i}" for i in range(n_text)],
                    image_labels,
                )
                write("attention.tsv", table)

    if cost is not None:
        write("cost_summary.json", json.dumps(cost, sort_keys=True, indent=2))

    accs = np.asarray([m["accuracy"] for m in per_seed_metrics])
    f1s = np.asarray([m["macro_f1"] for m in per_seed_metrics])
    summary = {
        "per_seed": per_seed_metrics,
        "seed_mean": {"accuracy": float(accs.mean()), "macro_f1": float(f1s.mean())},
        "seed_std": {"accuracy": float(accs.std()), "macro_f1": float(f1s.std())},
        "dispersion_label": "bootstrap_std in reports; seed_std here",
    }
    write("summary.json", json.dumps(summary, sort_keys=True, indent=2))

    table, records = render_report(
        {(config.method,): headline_report}, ("method",), experiment_id=config.experiment_id
    )
    write("report.txt", table)
    write("records.jsonl", render_records(records))
    return {}


@dataclass(frozen=True)
class Stage:
    """A pipeline stage: its ``name`` in the manifest, the CLI ``command``
    that runs the pipeline up to it, the run artifacts it ``reads``, and the
    function that ``run``s it. ``run`` is handed ``inputs``, each read
    artifact's value by name, and ``write(rel, data)``, the only way it makes
    an artifact: the file at ``rel`` in the run directory, written through a
    synced temp file and a rename (the images stage's ``ledger.jsonl`` is a
    log of generation calls, appended as they return and listed in no
    manifest). It returns ``{name: value}`` for each artifact a later stage
    reads, the value that reader is handed. Of the run
    directory, ``run`` opens no other file but one an earlier stage wrote
    (evaluation opens each seed's ``best.ntc``), so its outputs rest on its
    fingerprint alone.

    Two declarations make up the stage's fingerprint. ``ignores`` names the
    config fields, dotted, or whole sections, that ``run`` does not read;
    every other output field is part of the fingerprint, so a field missing
    here costs a reuse, never a stale output. ``inputs`` names the config
    fields that name files outside the run; the sha256 of each file is part
    of the fingerprint. Both are checked against the ``ExperimentConfig``
    fields when the stage is built, so a renamed field fails at import."""

    name: str
    command: str
    reads: tuple[str, ...]
    run: Callable[[ExperimentConfig, ProviderRegistry, Path, dict, dict, Callable], dict[str, object]]
    ignores: tuple[str, ...] = ()
    inputs: tuple[str, ...] = ()

    def __post_init__(self):
        for path in self.ignores + self.inputs:
            if not is_field(path):
                raise ValueError(f"stage {self.name}: {path!r} names no ExperimentConfig field")


# What no stage before training reads: the head, its training and
# evaluation, and the names a run or a sweep gives itself.
_BEFORE_TRAINING = ("experiment_id", "sweep_axes", "cost_mode", "seeds", "fusion", "training", "evaluation")
# What only the embeddings stage reads of the providers: the encoders and the oracle
_ENCODERS = ("providers.text", "providers.image", "providers.text_endpoint", "providers.image_endpoint",
             "providers.oracle_features")

STAGES = (  # in run order
    Stage("prompts", "prompt", (), _stage_prompts, ignores=(*_BEFORE_TRAINING, *_ENCODERS, "generation"),
          inputs=("dataset.path", "providers.retrieval_corpus")),
    Stage("images", "generate", ("prompts.jsonl",), _stage_images, ignores=(*_BEFORE_TRAINING, *_ENCODERS)),
    Stage("embeddings", "embed", ("prompts.jsonl", "images.jsonl"), _stage_embeddings,
          ignores=_BEFORE_TRAINING, inputs=("providers.oracle_features",)),
    Stage("training", "train", ("labels.json", "features.jsonl"), _stage_training,
          ignores=("experiment_id", "sweep_axes", "cost_mode", "evaluation")),
    Stage("evaluation", "eval", ("labels.json", "features.jsonl", "images.jsonl"), _stage_evaluation,
          ignores=("sweep_axes",)),
)

# artifact name -> (file bytes, caches) -> its value, when this call kept none for them
_READERS: dict[str, Callable[[bytes, dict], object]] = {
    "prompts.jsonl": lambda data, caches: list(iter_jsonl(data)),
    "images.jsonl": lambda data, caches: list(iter_jsonl(data)),
    "labels.json": lambda data, caches: LabelSpace(tuple(json.loads(data)["class_names"])),
    "features.jsonl": lambda data, caches: _read_features(data, caches["embeddings"]),
}


def _load(run_dir: Path, name: str, kept: dict, caches: dict):
    """The value of the run artifact ``name``: the one ``kept`` for it while
    the file holds the bytes it was kept for, else built from them and kept."""
    data = (run_dir / name).read_bytes()
    digest = sha256_hex(data)
    if name not in kept or kept[name][0] != digest:
        kept[name] = (digest, _READERS[name](data, caches))
    return kept[name][1]


def _build_caches(config: ExperimentConfig) -> dict:
    cache_root = config.resolved_cache_dir()
    return {
        "images": ImageStore(cache_root / "images"),
        "embeddings": EmbeddingCache(cache_root / "emb"),
        "chat": ArtifactCache(cache_root / "chat"),
    }


@functools.cache
def _source_hash() -> str:
    """The sha256 of the package's own modules, read once per process: an
    edited pipeline computes other fingerprints, so it never reuses old outputs."""
    package = Path(__file__).parent
    return stable_key({path.name: sha256_hex(path.read_bytes()) for path in sorted(package.glob("*.py"))})


def _fingerprints(config: ExperimentConfig) -> dict[str, str]:
    """Each stage's fingerprint under ``config``: the sha256 of its name, the
    package source, the output fields it does not ignore, the cache location
    (``image_ref`` names it), the sha256 of each of its input files, and the
    previous stage's fingerprint. An input file that cannot be read hashes
    as a marker naming the error, so a stage that reads it runs and fails,
    and one that does not stands once it has run."""
    data = config.to_dict()  # one for every stage: without_fields leaves it as it was
    cache_dir = str(config.resolved_cache_dir())
    fingerprints: dict[str, str] = {}
    previous = ""
    for stage in STAGES:
        files = {}
        for path in stage.inputs:
            name = functools.reduce(getattr, path.split("."), config)
            try:
                files[path] = name and sha256_hex(Path(name).read_bytes())
            except OSError as exc:
                files[path] = f"unreadable: {type(exc).__name__}"
        fields = without_fields(data, (*EXECUTION_FIELDS, *stage.ignores))
        previous = fingerprints[stage.name] = stable_key(
            [stage.name, _source_hash(), fields, cache_dir, files, previous])
    return fingerprints


def _point(store: Path, fingerprint: str, run_dir: Path) -> None:
    """Name ``run_dir`` as the producer of ``fingerprint``. The pointer is
    renamed into place but not synced: a lost or torn one is only a miss."""
    store.mkdir(parents=True, exist_ok=True)
    tmp = store / f"{fingerprint}.{os.getpid()}.tmp"
    tmp.write_text(os.path.abspath(run_dir), encoding="utf-8")
    os.replace(tmp, store / fingerprint)


def _holds(path: Path, digest: str) -> bool:
    """Whether ``path`` is a file whose bytes have the sha256 ``digest``."""
    try:
        return sha256_hex(path.read_bytes()) == digest
    except OSError:  # removed, or not a file
        return False


def _standing(stage: str, fingerprint: str, own: StageStatus, store: Path,
              run_dir: Path) -> StageStatus | None:
    """The status under which the outputs of ``stage`` stand in ``run_dir``:
    the ``own`` one, checked in place, or else that of the run (never this
    one) the pointer for ``fingerprint`` names, once each of its artifacts is
    linked into ``run_dir`` (or copied, where a link fails) and checked.
    ``None``, with no temp file left, when neither verifies."""
    if own.status == "done" and own.fingerprint == fingerprint and all(
            _holds(run_dir / rel, digest) for rel, digest in own.artifacts.items()):
        return own
    try:
        producer = Path((store / fingerprint).read_text(encoding="utf-8"))
        usable = producer.is_absolute() and producer != Path(os.path.abspath(run_dir))
        status = RunManifest.load(producer).stages[stage] if usable else None
    except (OSError, ValueError, ManifestError):  # no, a torn or a dangling pointer
        return None
    if status is None or status.status != "done" or status.fingerprint != fingerprint:
        return None
    temps = {}
    try:
        for rel, digest in status.artifacts.items():
            if Path(rel).is_absolute() or ".." in Path(rel).parts:
                return None
            target = run_dir / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = temps[target] = target.with_name(f"{target.name}.{os.getpid()}.reuse")
            tmp.unlink(missing_ok=True)  # a copy must not write through a stale link
            try:
                os.link(producer / rel, tmp)
            except OSError:  # across devices, say: a copy, not synced, as the check follows
                shutil.copyfile(producer / rel, tmp)
            # tmp is a name of its own for the inode it checks, so what is checked is what is used
            if not _holds(tmp, digest):
                return None
        for target, tmp in temps.items():
            os.replace(tmp, target)
    except OSError:
        return None
    finally:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
    return StageStatus(status="done", artifacts=dict(status.artifacts), fingerprint=fingerprint,
                       reused_from=str(producer))


def run_experiment(
    config: ExperimentConfig,
    registry: ProviderRegistry | None = None,
    *,
    until_stage: str | None = None,
    force: bool = False,
) -> tuple[RunManifest, EvalReport | None]:
    """Execute the staged pipeline, running each stage whose outputs do not
    stand (see the module docstring).

    A stage that ran commits the manifest before the next starts; reuses
    ride on that commit or on one as the run returns or raises, and a
    process killed before it loses only them. A fresh run directory has no
    manifest until its first commit (see the module docstring).

    ``until_stage`` stops after the named stage (inclusive). ``force`` runs
    every stage: it ignores recorded stage statuses and reuses nothing, and
    each stage that runs still leaves its pointer for later runs. Returns the
    manifest and, when evaluation ran or was already done, the headline
    report.
    """
    if until_stage is not None and until_stage not in {stage.name for stage in STAGES}:
        raise OrchestrationError(f"unknown stage {until_stage!r}")
    registry = registry if registry is not None else ProviderRegistry()
    run_dir = Path(config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    caches = _build_caches(config)

    config_hash, output_hash = config.config_hash(), config.output_hash()
    if (run_dir / "manifest.json").exists():
        manifest = RunManifest.load(run_dir)
        # an older manifest records no output hash; its config hash decides
        recorded, current = ((manifest.output_hash, output_hash) if manifest.output_hash
                             else (manifest.config_hash, config_hash))
        if recorded != current:
            raise OrchestrationError(
                f"run directory {run_dir} was produced by a different config "
                f"({recorded[:12]} != {current[:12]}); "
                "use a fresh output_dir"
            )
    else:
        manifest = RunManifest(
            experiment_id=config.experiment_id,
            config_hash=config_hash,
            output_hash=output_hash,
            descriptor=descriptor(config),
        )

    last_reader = {name: stage.name for stage in STAGES for name in stage.reads}
    kept: dict[str, tuple[str, object]] = {}  # artifact name -> (sha256 of its bytes, value)
    fingerprints = _fingerprints(config)
    store = config.resolved_cache_dir() / "stages"
    unsaved = False  # whether a reuse is recorded since the last commit
    try:
        for stage in STAGES:
            fingerprint = fingerprints[stage.name]
            start = time.perf_counter()
            own = manifest.stages[stage.name]
            standing = None if force else _standing(stage.name, fingerprint, own, store, run_dir)
            if standing is own:
                logger.info("stage %s: verified, skipping", stage.name)
            elif standing:
                logger.info("stage %s: reused from %s", stage.name, standing.reused_from)
                standing.wall_s = round(time.perf_counter() - start, 6)
                manifest.stages[stage.name] = standing
                unsaved = True
            else:
                changed = not force and own.status == "done" and own.fingerprint not in (None, fingerprint)
                logger.info("stage %s: inputs changed since it ran, running" if changed
                            else "stage %s: running", stage.name)
                digests: dict[str, str] = {}  # each file the stage wrote, by its path in run_dir -> sha256

                def write(rel: str, data: str | bytes) -> None:
                    data = data.encode("utf-8") if isinstance(data, str) else data
                    storage.atomic_write_bytes(run_dir / rel, data)  # on the module, where the bench wraps it
                    digests[rel] = sha256_hex(data)

                try:
                    inputs = {name: _load(run_dir, name, kept, caches) for name in stage.reads}
                    outputs = stage.run(config, registry, run_dir, caches, inputs, write)
                    for cache in caches.values():
                        cache.sync()  # every entry the artifacts name, before the commit lists them
                except Exception as exc:
                    manifest.stages[stage.name] = StageStatus(status="failed", reason=f"{type(exc).__name__}: {exc}")
                    manifest.save(run_dir)
                    unsaved = False
                    raise
                manifest.stages[stage.name] = StageStatus(status="done", artifacts=digests, fingerprint=fingerprint,
                                                          wall_s=round(time.perf_counter() - start, 6))
                manifest.save(run_dir)
                unsaved = False
                _point(store, fingerprint, run_dir)
                kept.update((name, (digests[name], value)) for name, value in outputs.items())
            for name in stage.reads:
                if last_reader[name] == stage.name:
                    kept.pop(name, None)
            if stage.name == until_stage:
                break
    finally:
        for cache in caches.values():
            cache.close()
        if unsaved:  # the run ends, or raises: its reuses since the last commit
            manifest.save(run_dir)

    report = None
    if manifest.stages["evaluation"].status == "done":
        report = headline_report(run_dir)
    return manifest, report


def headline_report(run_dir: Path) -> EvalReport | None:
    """The report of the run's first configured seed, the one ``report.txt``
    shows; ``None`` when the run has not written it."""
    try:
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        path = run_dir / "eval" / f"eval_seed{summary['per_seed'][0]['seed']}.json"
        return EvalReport.from_dict(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError, IndexError, TypeError):  # TypeError: a report field is missing
        return None
