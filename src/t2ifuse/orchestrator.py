"""Config-driven experiment pipeline: staged execution, resume, sweeps, reports.

An experiment runs five stages in order -- prompts, images, embeddings,
training, evaluation -- each leaving verifiable artifacts in the run
directory and a transactionally updated manifest. Re-running skips stages
whose artifacts still hash-verify, and the content-addressed caches make any
repeated generation/embedding work free (and remote-call free).

Within one ``run_experiment`` call the stages hand on in memory what they
wrote, keyed by artifact name and the sha256 of the artifact's bytes: the
rows of ``prompts.jsonl`` and ``images.jsonl``, and the features of each
sample, which training and evaluation stack into one shared batch per
split. A reader hashes the file and parses it (or reads the embedding
cache) only on a miss: in a resume, a single stage from the CLI, or after
the file was rewritten. Each is released after its last reader.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import datetime as _dt
import itertools
import json
import logging
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .axes import GENERATIVE_METHODS
from .config import SWEEP_AXES, ExperimentConfig
from .corpus import (
    SPLIT_NAMES,
    LabelSpace,
    TextSample,
    apply_split_assignments,
    load_dataset,
    load_split_assignments,
    make_splits,
    truncate_text,
    write_split_assignments,
)
from .embedding import (
    CLIP_SCORE_WEIGHT,
    EmbeddingCache,
    FeaturePack,
    HashProjectionProvider,
    OracleFeatureProvider,
    ZeroVectorError,
    embed_image,
    embed_text,
)
from .evaluation import (
    EvalReport,
    bootstrap_std,
    clip_score_stats,
    compute_metrics,
    render_records,
    render_report,
    table_layout,
)
from .fusion import PackBatch, build_fusion_head, export_attention, fuse_forward
from .generation import (
    GeneratedImageRecord,
    GenerationLedger,
    ImageStore,
    StubImageBackend,
    generate_image,
    ledger_totals,
    prompt_key,
    UnknownBackendError,
)
from .prompting import (
    CachedChatClient,
    NoVisualContentError,
    PromptSpec,
    StubChatClient,
    build_prompt,
    elaborate_text,
    extract_keywords,
)
from .storage import ArtifactCache, atomic_write_text, iter_jsonl, read_jsonl, sha256_hex, write_jsonl
from .training import LabeledPacks, evaluate_split, train_loop
from .tensorcore import load_checkpoint

logger = logging.getLogger(__name__)

STAGES = ("prompts", "images", "embeddings", "training", "evaluation")


class OrchestrationError(RuntimeError):
    pass


class OfflineViolationError(OrchestrationError):
    pass


# --- providers ---------------------------------------------------------------


class KeywordOverlapRetriever:
    """Top-1 retrieval over a local corpus by content-word overlap.

    Stands in for live encyclopedia lookups: documents are a record-per-line
    file with ``text`` (and optional ``id``/``title``) fields; the best match
    is the document sharing the most query words, ties going to file order.
    Each document's word set is built once, when the corpus is loaded.
    """

    def __init__(self, corpus_path: str | Path):
        self.documents = []
        for record in read_jsonl(Path(corpus_path)):
            self.documents.append(str(record["text"]))
        if not self.documents:
            raise OrchestrationError(f"empty retrieval corpus: {corpus_path}")
        self._words = [frozenset(w.strip(".,;:!?").lower() for w in doc.split()) for doc in self.documents]

    def retrieve(self, keywords: Sequence[str]) -> str | None:
        terms = {w.lower() for phrase in keywords for w in phrase.split()}
        best_score = 0
        best_doc = None
        for doc, words in zip(self.documents, self._words):
            score = len(terms & words)
            if score > best_score:
                best_score = score
                best_doc = doc
        return best_doc


def _hash_fixture(name: str):
    return HashProjectionProvider(name, int(name[5:])) if name.startswith("hash-") else None


# kind -> (registry table, fixture the name selects, remote adapter in
# ``remotes``, offline default or None)
_PROVIDER_KINDS = {
    "backend": ("backends", lambda name: StubImageBackend() if name == "stub" else None,
                "HttpImageBackend", StubImageBackend),
    "text provider": ("text_providers", _hash_fixture, "HttpEmbeddingProvider", None),
    "image provider": ("image_providers", _hash_fixture, "HttpEmbeddingProvider", None),
    "chat client": ("chat_clients", lambda name: StubChatClient() if name == "stub-chat" else None,
                    "HttpChatClient", lambda name: StubChatClient(client_id=name)),
}


@dataclass
class ProviderRegistry:
    """Named provider instances, resolved by one rule for every kind.

    A name resolves, in this order, to:

    1. the instance registered under it;
    2. the fixture the name selects: ``hash-<dim>`` for encoders, ``stub``
       for the image backend, ``stub-chat`` for the chat client;
    3. the remote adapter, when the config names an endpoint for that kind
       (an offline run raises :class:`OfflineViolationError` instead);
    4. the offline default: the stub backend or stub chat client under that
       name; an encoder has none, so an unknown encoder is an error.

    Resolved instances are kept, so their call counters survive resume tests
    that hand the same registry to several runs.
    """

    backends: dict = field(default_factory=dict)
    text_providers: dict = field(default_factory=dict)
    image_providers: dict = field(default_factory=dict)
    chat_clients: dict = field(default_factory=dict)
    retrievers: dict = field(default_factory=dict)

    def _resolve(self, kind: str, name: str, endpoint: str | None, offline: bool):
        table_name, fixture, adapter, default = _PROVIDER_KINDS[kind]
        table = getattr(self, table_name)
        if name not in table:
            instance = fixture(name)
            if instance is None and endpoint:
                if offline:
                    raise OfflineViolationError(f"offline run cannot call remote {kind} {name!r}")
                from . import remotes  # imports requests; only remote runs pay for it

                instance = getattr(remotes, adapter)(name, endpoint)
            if instance is None and default is None:
                raise OrchestrationError(
                    f"unknown {kind} {name!r} (register it, use hash-<dim>, or configure an endpoint)"
                )
            table[name] = instance if instance is not None else default(name)
        return table[name]

    def resolve_backend(self, config: ExperimentConfig):
        gen = config.generation
        return self._resolve("backend", gen.backend, gen.endpoint, config.offline)

    def resolve_text_provider(self, config: ExperimentConfig):
        p = config.providers
        return self._resolve("text provider", p.text, p.text_endpoint, config.offline)

    def resolve_image_provider(self, config: ExperimentConfig):
        p = config.providers
        return self._resolve("image provider", p.image, p.image_endpoint, config.offline)

    def resolve_chat_client(self, config: ExperimentConfig):
        p = config.providers
        if p.elaborator is None:
            raise OrchestrationError("no elaborator configured")
        return self._resolve("chat client", p.elaborator, p.chat_endpoint, config.offline)

    def resolve_retriever(self, config: ExperimentConfig):
        path = config.providers.retrieval_corpus
        if path is None:
            raise OrchestrationError("no retrieval corpus configured")
        if path not in self.retrievers:
            self.retrievers[path] = KeywordOverlapRetriever(path)
        return self.retrievers[path]


# --- input composition -------------------------------------------------------


@dataclass
class ComposedInput:
    sample_id: str
    effective_text: str
    image_source: str  # "generate" | "oracle" | "none"
    fallback: str | None = None


@dataclass
class ComposeHelpers:
    elaborator: object | None = None
    retriever: object | None = None
    max_tokens: int = 256


def compose_input(sample: TextSample, method: str, helpers: ComposeHelpers) -> ComposedInput:
    """Build the effective text (and visual-feature request kind) per method.

    Textual expansion appends an LLM scene description; knowledge retrieval
    appends the best-matching local document (falling back to the bare text
    when nothing matches, counted via ``fallback``). Both append first and
    truncate to the token budget afterwards.
    """
    text = sample.text
    fallback = None
    if method == "textual_expansion":
        if helpers.elaborator is None:
            raise OrchestrationError("textual_expansion needs an elaborator client")
        description = elaborate_text(text, "visual_description", helpers.elaborator)
        text = f"{text} {description}"
    elif method == "knowledge_retrieval":
        if helpers.retriever is None:
            raise OrchestrationError("knowledge_retrieval needs a retriever")
        try:
            keywords = extract_keywords(sample.text)
        except NoVisualContentError:
            keywords = []
        doc = helpers.retriever.retrieve(keywords) if keywords else None
        if doc is None:
            fallback = "retrieval_miss"
        else:
            text = f"{text} {doc}"
    image_source = (
        "generate" if method in GENERATIVE_METHODS
        else "oracle" if method == "oracle_image"
        else "none"
    )
    return ComposedInput(
        sample_id=sample.id,
        effective_text=truncate_text(text, helpers.max_tokens),
        image_source=image_source,
        fallback=fallback,
    )


# --- manifest ----------------------------------------------------------------


@dataclass
class StageStatus:
    status: str = "pending"  # pending | done | failed
    artifacts: dict[str, str] = field(default_factory=dict)  # relpath -> sha256
    reason: str | None = None


@dataclass
class RunManifest:
    experiment_id: str
    config_hash: str
    version: str = __version__
    descriptor: dict = field(default_factory=dict)
    stages: dict[str, StageStatus] = field(default_factory=dict)
    created_at: str = ""
    updated_at: str = ""

    def __post_init__(self):
        for stage in STAGES:
            self.stages.setdefault(stage, StageStatus())

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        manifest = cls(
            experiment_id=data["experiment_id"],
            config_hash=data["config_hash"],
            version=data.get("version", ""),
            descriptor=data.get("descriptor", {}),
            created_at=data.get("created_at", ""),
            updated_at=data.get("updated_at", ""),
        )
        for name, raw in data.get("stages", {}).items():
            manifest.stages[name] = StageStatus(
                status=raw.get("status", "pending"),
                artifacts=dict(raw.get("artifacts", {})),
                reason=raw.get("reason"),
            )
        return manifest

    def save(self, run_dir: Path) -> None:
        self.updated_at = _dt.datetime.now(_dt.timezone.utc).isoformat()
        if not self.created_at:
            self.created_at = self.updated_at
        atomic_write_text(run_dir / "manifest.json", json.dumps(self.to_dict(), sort_keys=True, indent=2))

    @classmethod
    def load(cls, run_dir: Path) -> "RunManifest":
        path = Path(run_dir) / "manifest.json"
        return cls.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def stage_verified(self, stage: str, run_dir: Path) -> bool:
        status = self.stages[stage]
        if status.status != "done":
            return False
        for rel, digest in status.artifacts.items():
            try:
                data = (run_dir / rel).read_bytes()
            except OSError:  # removed, or not a file: the stage runs again
                return False
            if sha256_hex(data) != digest:
                return False
        return True

    def mark_done(self, stage: str, run_dir: Path, artifact_paths: Sequence[Path]) -> None:
        artifacts = {}
        for path in artifact_paths:
            rel = str(Path(path).relative_to(run_dir))
            artifacts[rel] = sha256_hex(Path(path).read_bytes())
        self.stages[stage] = StageStatus(status="done", artifacts=artifacts)
        self.save(run_dir)

    def mark_failed(self, stage: str, run_dir: Path, reason: str) -> None:
        self.stages[stage] = StageStatus(status="failed", reason=reason)
        self.save(run_dir)


# --- stage implementations -----------------------------------------------


class _ArtifactMemo(dict):
    """What the stages of one ``run_experiment`` call hand to each other:
    artifact name -> (key, value), the key being the sha256 of the bytes the
    value stands for, and the value what a reader would build from them."""

    def recall(self, name: str, key, build: Callable, *, last: bool = False):
        """The value kept under ``name`` for ``key``, else ``build()``; it stays
        kept for the next reader, unless this one is the ``last``."""
        entry = self.pop(name, None) if last else self.get(name)
        if entry is not None and entry[0] == key:
            return entry[1]
        value = build()
        if not last:
            self[name] = (key, value)
        return value

    def close(self) -> None:
        self.clear()


def _read_rows(caches: dict, path: Path, *, last: bool = False) -> list[dict]:
    """The rows of a JSONL artifact: those its writer kept in this call while
    the file holds the bytes they were written as, else parsed from it."""
    data = path.read_bytes()
    return caches["artifacts"].recall(path.name, sha256_hex(data), lambda: list(iter_jsonl(data)),
                                      last=last)


def _write_rows(caches: dict, path: Path, rows: list[dict]) -> None:
    """Write a JSONL artifact and keep its rows for the stages after this one."""
    caches["artifacts"][path.name] = (sha256_hex(write_jsonl(path, rows)), rows)


def _descriptor(config: ExperimentConfig) -> dict:
    """The run's id and its value on every sweep axis, kept in the manifest."""
    values = {axis: value_of(config) for axis, (value_of, _) in SWEEP_AXES.items()}
    return {"experiment_id": config.experiment_id, **values}


def _stage_prompts(config: ExperimentConfig, registry: ProviderRegistry, run_dir: Path,
                   caches: dict) -> list[Path]:
    samples, label_space = load_dataset(config.dataset.path, config.dataset.format)
    splits_path = run_dir / "splits.jsonl"
    if splits_path.exists():
        apply_split_assignments(samples, load_split_assignments(splits_path))
    else:
        make_splits(samples, config.dataset.split_fractions, config.dataset.split_seed)
        write_split_assignments(samples, splits_path)

    helpers = ComposeHelpers(max_tokens=config.dataset.max_text_tokens)
    if config.method == "textual_expansion":
        helpers.elaborator = CachedChatClient(registry.resolve_chat_client(config), caches["chat"])
    if config.method == "knowledge_retrieval":
        helpers.retriever = registry.resolve_retriever(config)
    elaborator = None
    if config.method in GENERATIVE_METHODS and config.strategy == "elaborated":
        elaborator = CachedChatClient(registry.resolve_chat_client(config), caches["chat"])

    records = []
    fallbacks = 0
    for sample in sorted(samples, key=lambda s: s.id):
        composed = compose_input(sample, config.method, helpers)
        if composed.fallback:
            fallbacks += 1
        prompt_dict = None
        if composed.image_source == "generate":
            spec = build_prompt(
                sample,
                config.strategy,
                task_id=config.task_id,
                elaborator=elaborator,
                max_tokens=config.dataset.max_text_tokens,
            )
            prompt_dict = spec.to_dict()
        records.append(
            {
                "sample_id": sample.id,
                "split": sample.split,
                "label": sample.label,
                "effective_text": composed.effective_text,
                "image_source": composed.image_source,
                "fallback": composed.fallback,
                "prompt": prompt_dict,
            }
        )

    caches["chat"].sync()  # every response prompts.jsonl rests on is durable before the stage is done
    prompts_path = run_dir / "prompts.jsonl"
    _write_rows(caches, prompts_path, records)
    labels_path = run_dir / "labels.json"
    atomic_write_text(labels_path, json.dumps({"class_names": list(label_space.class_names)}, sort_keys=True))
    summary_path = run_dir / "prompts_summary.json"
    atomic_write_text(
        summary_path,
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
    return [prompts_path, labels_path, summary_path, splits_path]


def _stage_images(config: ExperimentConfig, registry: ProviderRegistry, run_dir: Path,
                  caches: dict) -> list[Path]:
    images_path = run_dir / "images.jsonl"
    if config.method not in GENERATIVE_METHODS:
        _write_rows(caches, images_path, [])
        return [images_path]
    rows = [r for r in _read_rows(caches, run_dir / "prompts.jsonl") if r["prompt"]]
    backend = registry.resolve_backend(config)
    store: ImageStore = caches["images"]
    ledger = GenerationLedger(run_dir / "ledger.jsonl")
    params = config.generation_params()

    def run_one(request: tuple[PromptSpec, str]) -> GeneratedImageRecord:
        spec, key = request
        return generate_image(
            spec, params, backend, store,
            ledger=ledger,
            cost_mode=config.cost_mode,
            retries=config.generation.retries,
            key=key,
        )

    # Each row's key is computed once. Hits are served in this thread; only
    # misses pay for the pool.
    results: dict[str, GeneratedImageRecord] = {}
    misses: dict[str, tuple[PromptSpec, str]] = {}
    try:
        for row in rows:
            spec = PromptSpec.from_dict(row["prompt"])
            key = prompt_key(spec.positive, spec.negative, params)
            if store.has(key):
                results[row["sample_id"]] = run_one((spec, key))
            else:
                misses[row["sample_id"]] = (spec, key)
        workers = max(1, config.generation.concurrency)
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            results.update(zip(misses, pool.map(run_one, misses.values())))
    finally:
        ledger.close()

    store.sync()  # every record images.jsonl names is durable before the stage is done
    image_rows = [{"sample_id": sid, **results[sid].to_dict()} for sid in sorted(results)]
    _write_rows(caches, images_path, image_rows)
    return [images_path]


_DIM_PROBE_IMAGE = b"image feature width probe"


class _SplitFeatures:
    """Each split's sample ids, feature packs and labels, in ``features.jsonl``
    order. The first :meth:`batches` call stacks each split into one padded,
    read-only float32 batch (the cache's dtype) and drops the packs; later
    calls return the same batches."""

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
                      caches: dict) -> list[Path]:
    rows = _read_rows(caches, run_dir / "prompts.jsonl", last=True)
    images = {r["sample_id"]: r for r in _read_rows(caches, run_dir / "images.jsonl")}
    text_provider = registry.resolve_text_provider(config)
    emb_cache: EmbeddingCache = caches["embeddings"]
    image_provider = None
    if config.method in GENERATIVE_METHODS:
        image_provider = registry.resolve_image_provider(config)
    zero_dim = None
    oracles: dict = {}
    features = _SplitFeatures()

    def records():
        # made as write_jsonl takes them, so they are never all held at once
        nonlocal image_provider, zero_dim
        for row in sorted(rows, key=lambda r: r["sample_id"]):
            text_pooled, text_tokens = embed_text(row["effective_text"], text_provider, emb_cache)
            text_key = sha256_hex(row["effective_text"].encode("utf-8"))
            if row["image_source"] == "generate":
                image_row = images[row["sample_id"]]
                image_pooled, image_tokens = embed_image(image_row["image_ref"], image_provider, emb_cache,
                                                         content_hash=image_row["content_hash"])
                image_pooled = image_pooled.values
                image_entry = {
                    "kind": "cached",
                    "provider": image_provider.provider_id,
                    "key": image_row["content_hash"],
                    "image_ref": image_row["image_ref"],
                }
            else:
                if row["image_source"] == "oracle":
                    image_entry = {"kind": "oracle", "path": config.providers.oracle_features}
                else:
                    if zero_dim is None:
                        image_provider = registry.resolve_image_provider(config)
                        zero_dim = image_provider.dim
                        if zero_dim is None:
                            # A remote encoder learns its dim from its first response;
                            # the probe goes through the cache, so a warm run calls nothing.
                            zero_dim = embed_image(_DIM_PROBE_IMAGE, image_provider, emb_cache)[0].dim
                    image_entry = {"kind": "zero", "dim": zero_dim}
                image_pooled, image_tokens = _stand_in_image(image_entry, row["sample_id"], oracles)
            features.add(row, FeaturePack(text_tokens, image_tokens, text_pooled.values, image_pooled))
            yield {
                "sample_id": row["sample_id"],
                "split": row["split"],
                "label": row["label"],
                "text_provider": text_provider.provider_id,
                "text_key": text_key,
                "text_dim": text_pooled.dim,
                "image": image_entry,
            }
        emb_cache.sync()  # every entry features.jsonl names is durable before it is written

    features_path = run_dir / "features.jsonl"
    data = write_jsonl(features_path, records())
    labels = (run_dir / "labels.json").read_bytes()
    caches["artifacts"][features_path.name] = ((sha256_hex(data), sha256_hex(labels)), features)
    return [features_path]


def _load_packs(config: ExperimentConfig, run_dir: Path, caches: dict,
                label_space: LabelSpace) -> dict[str, LabeledPacks]:
    """Each split's read-only padded feature batch, stacked once per
    ``run_experiment`` call and shared by training and evaluation: from the
    features the embeddings stage kept, while ``features.jsonl`` and
    ``labels.json`` hold the bytes they were kept for, else (a resume,
    ``t2ifuse eval``, a rewritten file) from those files and the cache."""
    features = (run_dir / "features.jsonl").read_bytes()
    key = (sha256_hex(features), sha256_hex((run_dir / "labels.json").read_bytes()))
    kept = caches["artifacts"].recall("features.jsonl", key,
                                      lambda: _read_features(features, caches["embeddings"]))
    return kept.batches(label_space)


def _read_features(features: bytes, emb_cache: EmbeddingCache) -> _SplitFeatures:
    split_features = _SplitFeatures()
    oracles: dict = {}
    for row in iter_jsonl(features):
        text = emb_cache.get(row["text_provider"], row["text_key"])
        image_entry = row["image"]
        if image_entry["kind"] == "cached":
            image = emb_cache.get(image_entry["provider"], image_entry["key"])
        else:
            image = _stand_in_image(image_entry, row["sample_id"], oracles)
        if text is None or image is None:
            raise OrchestrationError(f"embedding cache lost an entry of sample {row['sample_id']!r}")
        split_features.add(row, FeaturePack(text[1], image[1], text[0], image[0]))
    return split_features


def _load_label_space(run_dir: Path) -> LabelSpace:
    data = json.loads((run_dir / "labels.json").read_text(encoding="utf-8"))
    return LabelSpace(tuple(data["class_names"]))


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
                    caches: dict) -> list[Path]:
    label_space = _load_label_space(run_dir)
    packs = _load_packs(config, run_dir, caches, label_space)
    artifacts = []
    for seed in config.seeds:
        seed_dir = run_dir / f"train_s{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        history_path = seed_dir / "history.jsonl"
        if history_path.exists():
            history_path.unlink()  # re-running the stage rewrites the log
        head = _head_for(config, packs, label_space, seed)
        train_config = dataclasses.replace(config.training, seed=seed)
        checkpoint_path = seed_dir / "best.ntc"
        train_loop(
            head, packs["train"], packs["validation"], train_config,
            history_path=history_path, checkpoint_path=checkpoint_path,
        )
        artifacts += [
            history_path,
            checkpoint_path,
            checkpoint_path.with_name(checkpoint_path.name + ".manifest.json"),
        ]
    return artifacts


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a[i], b[i])`` for every row, bit for bit: a stacked matmul
    reduces each row as ``np.dot`` does (``einsum`` does not)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _clip_pairs(packs: LabeledPacks) -> tuple[list[float], list[float]]:
    """Every row's :func:`embedding.cosine_similarity` and
    :func:`embedding.clip_score` of its pooled image and text features,
    bit-identical to calling them row by row, in one pass. As row by row,
    the first row holding a zero vector decides: a zero image gives
    ``([], [])`` (nothing to score), a zero text raises
    :class:`ZeroVectorError`. Differing dims give ``([], [])``."""
    batch = packs.batch
    if batch.text_pooled.shape[1] != batch.image_pooled.shape[1]:
        return [], []
    image = batch.image_pooled.astype(np.float64)
    text = batch.text_pooled.astype(np.float64)
    image_norm = np.sqrt(_row_dots(image, image))
    text_norm = np.sqrt(_row_dots(text, text))
    zero = np.flatnonzero((image_norm == 0.0) | (text_norm == 0.0))
    if zero.size:
        if not image[zero[0]].any():
            return [], []  # zero image features: no semantic consistency to score
        raise ZeroVectorError("cosine undefined for the zero vector")
    cosines = _row_dots(image / image_norm[:, None], text / text_norm[:, None]).tolist()
    return cosines, [CLIP_SCORE_WEIGHT * max(c, 0.0) for c in cosines]


def _cost_summary(config: ExperimentConfig, image_rows: list[dict]) -> dict | None:
    if not image_rows:
        return None
    try:
        totals = ledger_totals(image_rows, mode=config.cost_mode)
    except UnknownBackendError as exc:
        totals = ledger_totals(image_rows, mode="measured")
        note = f"estimate unavailable ({exc}); measured totals reported"
        mode = "measured"
    else:
        note = None
        mode = config.cost_mode
    return {
        "mode": mode,
        "note": note,
        "images": len(image_rows),
        "unique_images": len({r["content_hash"] for r in image_rows}),
        "total_cost_usd": str(totals.total_cost_usd),
        "total_latency_s": str(totals.total_latency_s),
        "per_backend": {
            b: {
                "images": t.images,
                "cost_usd": str(t.cost_usd),
                "latency_s": str(t.latency_s),
            }
            for b, t in totals.per_backend.items()
        },
    }


def _stage_evaluation(config: ExperimentConfig, registry: ProviderRegistry, run_dir: Path,
                      caches: dict) -> list[Path]:
    label_space = _load_label_space(run_dir)
    packs = _load_packs(config, run_dir, caches, label_space)
    eval_dir = run_dir / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    per_seed_metrics = []
    cost = _cost_summary(config, _read_rows(caches, run_dir / "images.jsonl", last=True))
    cosines, scores = _clip_pairs(packs["test"])  # the same for every seed
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
        report_path = eval_dir / f"eval_seed{seed}.json"
        atomic_write_text(report_path, json.dumps(report.to_dict(), sort_keys=True, indent=2))
        preds_path = eval_dir / f"predictions_seed{seed}.jsonl"
        write_jsonl(
            preds_path,
            (
                {
                    "sample_id": sid,
                    "true": int(t),
                    "pred": int(p),
                    "logits": [float(v) for v in row],
                }
                for sid, t, p, row in zip(preds.sample_ids, preds.y_true, preds.y_pred, preds.logits)
            ),
        )
        artifacts += [report_path, preds_path]
        if headline_report is None:
            headline_report = report
            # Attention heatmap from the first test sample of the first seed.
            if config.fusion.mechanism in ("cross_attention", "deep_prefix"):
                first = packs["test"].batch.take([0])
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
                attention_path = run_dir / "attention.tsv"
                atomic_write_text(attention_path, table)
                artifacts.append(attention_path)

    if cost is not None:
        cost_path = run_dir / "cost_summary.json"
        atomic_write_text(cost_path, json.dumps(cost, sort_keys=True, indent=2))
        artifacts.append(cost_path)

    accs = np.asarray([m["accuracy"] for m in per_seed_metrics])
    f1s = np.asarray([m["macro_f1"] for m in per_seed_metrics])
    summary = {
        "per_seed": per_seed_metrics,
        "seed_mean": {"accuracy": float(accs.mean()), "macro_f1": float(f1s.mean())},
        "seed_std": {"accuracy": float(accs.std()), "macro_f1": float(f1s.std())},
        "dispersion_label": "bootstrap_std in reports; seed_std here",
    }
    summary_path = run_dir / "summary.json"
    atomic_write_text(summary_path, json.dumps(summary, sort_keys=True, indent=2))

    table, records = render_report(
        {(config.method,): headline_report},
        layout="axis_table",
        experiment_id=config.experiment_id,
        axis_names=("method",),
    )
    report_path = run_dir / "report.txt"
    atomic_write_text(report_path, table)
    records_path = run_dir / "records.jsonl"
    atomic_write_text(records_path, render_records(records))
    artifacts += [summary_path, report_path, records_path]
    return artifacts


_STAGE_FUNCS = {
    "prompts": _stage_prompts,
    "images": _stage_images,
    "embeddings": _stage_embeddings,
    "training": _stage_training,
    "evaluation": _stage_evaluation,
}


def _build_caches(config: ExperimentConfig) -> dict:
    cache_root = config.resolved_cache_dir()
    return {
        "images": ImageStore(cache_root / "images"),
        "embeddings": EmbeddingCache(cache_root / "emb"),
        "chat": ArtifactCache(cache_root / "chat", suffix=".txt"),
        "artifacts": _ArtifactMemo(),
    }


def run_experiment(
    config: ExperimentConfig,
    registry: ProviderRegistry | None = None,
    *,
    until_stage: str | None = None,
    force: bool = False,
) -> tuple[RunManifest, EvalReport | None]:
    """Execute the staged pipeline, resuming past verified stages.

    ``until_stage`` stops after the named stage (inclusive); ``force`` ignores
    recorded stage statuses. Returns the manifest and, when evaluation ran or
    was already done, the headline report.
    """
    if until_stage is not None and until_stage not in STAGES:
        raise OrchestrationError(f"unknown stage {until_stage!r}")
    registry = registry if registry is not None else ProviderRegistry()
    run_dir = Path(config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    caches = _build_caches(config)

    config_hash = config.config_hash()
    manifest_path = run_dir / "manifest.json"
    if manifest_path.exists():
        manifest = RunManifest.load(run_dir)
        if manifest.config_hash != config_hash:
            raise OrchestrationError(
                f"run directory {run_dir} was produced by a different config "
                f"({manifest.config_hash[:12]} != {config_hash[:12]}); "
                "use a fresh output_dir"
            )
    else:
        manifest = RunManifest(
            experiment_id=config.experiment_id,
            config_hash=config_hash,
            descriptor=_descriptor(config),
        )
        manifest.save(run_dir)

    try:
        for stage in STAGES:
            if not force and manifest.stage_verified(stage, run_dir):
                logger.info("stage %s: verified, skipping", stage)
            else:
                logger.info("stage %s: running", stage)
                try:
                    artifacts = _STAGE_FUNCS[stage](config, registry, run_dir, caches)
                except Exception as exc:
                    manifest.mark_failed(stage, run_dir, f"{type(exc).__name__}: {exc}")
                    raise
                manifest.mark_done(stage, run_dir, artifacts)
            if until_stage is not None and stage == until_stage:
                break
    finally:
        for cache in caches.values():
            cache.close()

    report = None
    if manifest.stages["evaluation"].status == "done":
        report = _headline_report(run_dir)
    return manifest, report


def _headline_report(run_dir: Path) -> EvalReport | None:
    """The report of the run's first configured seed, the one ``report.txt``
    shows; ``None`` when the run has not written it."""
    try:
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        path = run_dir / "eval" / f"eval_seed{summary['per_seed'][0]['seed']}.json"
        return EvalReport.from_dict(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError, IndexError):
        return None


# --- sweeps -------------------------------------------------------------------


class SweepError(OrchestrationError):
    pass


@dataclass
class SweepCell:
    axes: dict[str, str]
    output_dir: str
    status: str
    error: str | None = None


@dataclass
class SweepResult:
    cells: list[SweepCell]
    table: str | None
    records: list[dict]
    out_dir: Path


# Longest file name, in bytes, that common file systems accept (NAME_MAX).
_MAX_NAME_BYTES = 255


def _cell_id(axis_names: Sequence[str], combo: Sequence) -> str:
    """A cell's name, which is also its directory name: its axis settings,
    or, when they are too long for one file name, a readable prefix of them
    plus a sha256 of the whole, so cells that share the prefix stay apart."""
    cell_id = "-".join(
        f"{name}={str(value).replace('/', '_')}" for name, value in zip(axis_names, combo)
    )
    raw = cell_id.encode("utf-8")
    if len(raw) <= _MAX_NAME_BYTES:
        return cell_id
    suffix = "~" + sha256_hex(raw)[:16]
    return raw[: _MAX_NAME_BYTES - len(suffix)].decode("utf-8", errors="ignore") + suffix


def run_sweep(
    base_config: ExperimentConfig,
    axes: dict[str, Sequence] | None = None,
    registry: ProviderRegistry | None = None,
) -> SweepResult:
    """One experiment per cell of the axis grid; cells are independent and
    individually resumable, and failures don't block other cells."""
    axes = dict(axes if axes is not None else base_config.sweep_axes)
    if not axes:
        raise SweepError("sweep needs at least one axis")
    for name, values in axes.items():
        if name not in SWEEP_AXES:
            raise SweepError(f"unknown sweep axis {name!r}; have {tuple(SWEEP_AXES)}")
        if not values:
            raise SweepError(f"sweep axis {name!r} has no values")
    registry = registry if registry is not None else ProviderRegistry()
    axis_names = list(axes)
    sweep_dir = Path(base_config.output_dir)
    sweep_dir.mkdir(parents=True, exist_ok=True)

    cells: list[SweepCell] = []
    runs: list[tuple[str, dict, EvalReport]] = []
    for combo in itertools.product(*(axes[name] for name in axis_names)):
        cell_id = _cell_id(axis_names, combo)
        cell_dir = str(sweep_dir / "cells" / cell_id)
        status, error = "done", None
        try:
            cell_config = base_config
            for name, value in zip(axis_names, combo):
                cell_config = SWEEP_AXES[name][1](cell_config, value)
            cell_config = dataclasses.replace(
                cell_config,
                experiment_id=f"{base_config.experiment_id}/{cell_id}",
                output_dir=cell_dir,
                cache_dir=str(base_config.resolved_cache_dir()),
                sweep_axes={},
            )
            manifest, report = run_experiment(cell_config, registry)
            runs.append((cell_id, manifest.descriptor, report))
        except Exception as exc:
            logger.warning("sweep cell %s failed: %s", cell_id, exc)
            status, error = "failed", f"{type(exc).__name__}: {exc}"
        cells.append(SweepCell(axes={name: str(v) for name, v in zip(axis_names, combo)},
                               output_dir=cell_dir, status=status, error=error))

    table = None
    records: list[dict] = []
    if runs:
        table, records = _combined_table(runs, axis_names, base_config.experiment_id)
        atomic_write_text(sweep_dir / "combined_table.txt", table)
        atomic_write_text(sweep_dir / "combined_records.jsonl", render_records(records))

    atomic_write_text(
        sweep_dir / "sweep_summary.json",
        json.dumps(
            {
                "axes": {k: [str(v) for v in vs] for k, vs in axes.items()},
                "cells": [dataclasses.asdict(c) for c in cells],
            },
            sort_keys=True,
            indent=2,
        ),
    )
    return SweepResult(cells=cells, table=table, records=records, out_dir=sweep_dir)


# --- consolidated reporting ----------------------------------------------


def _combined_table(
    runs: Sequence[tuple[str | Path, dict, EvalReport]],
    axis_names: Sequence[str],
    experiment_id: str = "experiment",
) -> tuple[str, list[dict]]:
    """One table over ``(name, descriptor, report)`` runs, keyed by their
    descriptor values on ``axis_names``. No run is dropped: when the axes
    leave two runs on one key (or there are none), the name becomes one last
    axis, ``run``."""
    axis_names = list(axis_names)
    keys = [tuple(str(descriptor.get(a)) for a in axis_names) for _, descriptor, _ in runs]
    if not axis_names or len(set(keys)) < len(keys):
        axis_names.append("run")
        keys = [key + (str(name),) for key, (name, _, _) in zip(keys, runs)]
    layout, ordered = table_layout(axis_names, keys)
    positions = [axis_names.index(a) for a in ordered]
    cells = {tuple(key[i] for i in positions): report for key, (_, _, report) in zip(keys, runs)}
    return render_report(cells, layout, experiment_id=experiment_id, axis_names=ordered)


def report_cli(run_dirs: Sequence[str | Path], out_dir: str | Path | None = None) -> str:
    """Aggregate finished runs into consolidated tables and cost totals.

    Corrupt or unfinished run directories are reported and skipped. Each run
    shows its first configured seed. Several runs form one table over the
    sweep axes on which their descriptors differ; a single run reproduces its
    own report verbatim.
    """
    runs: list[tuple[Path, dict, EvalReport]] = []
    problems = []
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        try:
            manifest = RunManifest.load(run_dir)
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            problems.append(f"{run_dir}: unreadable manifest ({type(exc).__name__})")
            continue
        if manifest.stages["evaluation"].status != "done":
            problems.append(f"{run_dir}: evaluation not finished")
            continue
        report = _headline_report(run_dir)
        if report is None:
            problems.append(f"{run_dir}: no evaluation artifacts")
            continue
        runs.append((run_dir, manifest.descriptor, report))

    lines = []
    if problems:
        lines.append("skipped runs:")
        lines.extend(f"  {p}" for p in problems)
        lines.append("")

    if runs:
        if len(runs) == 1:
            report_txt = runs[0][0] / "report.txt"
            if report_txt.exists():
                lines.append(report_txt.read_text(encoding="utf-8").rstrip())
        else:
            varying = [a for a in SWEEP_AXES if len({str(d.get(a)) for _, d, _ in runs}) > 1]
            table, _ = _combined_table(runs, varying)
            lines.append(table.rstrip())

        total = Decimal(0)
        image_count = 0
        attention_files = []
        for run_dir, _, report in runs:
            if report.cost_summary:
                total += Decimal(report.cost_summary["total_cost_usd"])
                image_count += int(report.cost_summary["images"])
            attention = run_dir / "attention.tsv"
            if attention.exists():
                attention_files.append(str(attention))
        lines.append("")
        lines.append(f"generated images: {image_count}, total cost: ${total}")
        if attention_files:
            lines.append("attention heatmaps:")
            lines.extend(f"  {p}" for p in attention_files)

    text = "\n".join(lines) + "\n"
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out_dir / "consolidated.txt", text)
    return text
