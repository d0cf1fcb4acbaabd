import collections
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import random
import re
import sys
import threading
import time
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import quote

import numpy as np
import pytest
import yaml

from t2ifuse.cli import main as cli_main
from t2ifuse.config import DatasetConfig, ExperimentConfig, parse_config, parse_config_data
from t2ifuse.corpus import DatasetError, TextSample
from t2ifuse import embedding, generation, orchestrator, storage, sweep
from t2ifuse.embedding import (
    EmbeddingCache,
    HashProjectionProvider,
    ImageContentError,
    ProviderError,
    ZeroVectorError,
    clip_score,
    cosine_similarity,
    embed_image,
    embed_text,
)
from t2ifuse.evaluation import EvalReport
from t2ifuse.fusion import PackBatch
from t2ifuse.generation import GenerationError, ImageStore, PromptPair, StubImageBackend, stub_generate
from t2ifuse.axes import descriptor, image_source
from t2ifuse.orchestrator import OrchestrationError, ProviderRegistry, RunManifest, run_experiment
from t2ifuse.prompting import STRIP_CHARS, PromptError, StubChatClient, VISUAL_DESCRIPTION_SYSTEM, compose_input
from t2ifuse.providers import KeywordOverlapRetriever, OfflineViolationError
from t2ifuse.remotes import HttpChatClient, HttpEmbeddingProvider, HttpImageBackend
from t2ifuse.storage import read_jsonl, write_jsonl
from t2ifuse.sweep import SweepError, report_cli, run_sweep
from t2ifuse.synthetic import build_separability_fixture


# --- compose_input -----------------------------------------------------------

def _sample(text="a bright red kettle on the stove", sid="s1"):
    return TextSample(id=sid, text=text, label=0)


def test_compose_text_only_is_identity():
    effective_text, fallback = compose_input(_sample(), "text_only")
    assert effective_text == "a bright red kettle on the stove"
    assert image_source("text_only") == "none"
    assert fallback is None


def test_compose_textual_expansion_appends_description():
    client = StubChatClient(response="A red vacuum on a wooden floor.")
    effective_text, _ = compose_input(_sample(), "textual_expansion", elaborator=client)
    assert effective_text == (
        "a bright red kettle on the stove A red vacuum on a wooden floor."
    )
    assert client.requests[0][0] == VISUAL_DESCRIPTION_SYSTEM
    with pytest.raises(PromptError):
        compose_input(_sample(), "textual_expansion")


def test_compose_truncates_after_appending():
    client = StubChatClient(response="tail " * 50)
    effective_text, _ = compose_input(_sample(), "textual_expansion", elaborator=client, max_tokens=10)
    assert len(effective_text.split()) == 10


def test_compose_gen_image_requests_generation():
    effective_text, _ = compose_input(_sample(), "gen_image")
    assert image_source("gen_image") == "generate"
    assert effective_text == _sample().text
    assert image_source("oracle_image") == "oracle"


def test_a_retriever_needs_a_document_and_a_text_without_content_words_misses(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(OrchestrationError, match=re.escape(f"empty retrieval corpus: {empty}")):
        KeywordOverlapRetriever(empty)
    retriever = KeywordOverlapRetriever(_corpus(tmp_path))
    effective_text, fallback = compose_input(_sample("the and of it is"), "knowledge_retrieval", retriever=retriever)
    assert (effective_text, fallback) == ("the and of it is", "retrieval_miss")


@pytest.mark.parametrize("line, problem", [
    ('{"text": null}', "missing or empty 'text'"),
    ('{"title": "x"}', "missing or empty 'text'"),
    ("[1, 2]", "record is not an object"),
    ('{"text": "   "}', "missing or empty 'text'"),
])
def test_a_bad_retrieval_corpus_line_is_a_dataset_error_naming_its_row(tmp_path, line, problem):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"text": "Kettles boil water."}\n' + line + "\n")
    with pytest.raises(DatasetError, match=re.escape(f"{path}: row 2: {problem}")):
        KeywordOverlapRetriever(path)


def _corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(
        path,
        [
            {"id": "d1", "text": "Kettles are stovetop vessels for boiling water."},
            {"id": "d2", "text": "Vacuum cleaners remove dust using suction."},
            {"id": "d3", "text": "Headphones convert electrical signals to sound."},
        ],
    )
    return path


def test_retriever_exhaustive_match_over_three_docs(tmp_path):
    retriever = KeywordOverlapRetriever(_corpus(tmp_path))
    # brute-force oracle over the 3 documents: keyword "kettle(s)" only
    # overlaps the first document
    effective_text, fallback = compose_input(
        TextSample(id="q", text="my kettles whistle loudly", label=0),
        "knowledge_retrieval",
        retriever=retriever,
    )
    assert "boiling water" in effective_text
    assert fallback is None

    effective_text, fallback = compose_input(
        TextSample(id="q2", text="quantum flux capacitor", label=0),
        "knowledge_retrieval",
        retriever=retriever,
    )
    assert fallback == "retrieval_miss"
    assert effective_text == "quantum flux capacitor"


def _rescan_retrieve(documents, keywords):
    """The reference loop: every document split and stripped again on each
    query, of the punctuation ``extract_keywords`` strips."""
    terms = {w.lower() for phrase in keywords for w in phrase.split()}
    best_score, best_doc = 0, None
    for doc in documents:
        score = len(terms & {w.strip(STRIP_CHARS).lower() for w in doc.split()})
        if score > best_score:
            best_score, best_doc = score, doc
    return best_doc


def test_the_retriever_strips_document_words_as_the_query_is_stripped(tmp_path):
    path = tmp_path / "corpus.jsonl"
    documents = ['A guide to the "espresso" machine (grinder included).', "Tea kettles whistle."]
    write_jsonl(path, [{"text": d} for d in documents])
    effective_text, fallback = compose_input(
        TextSample(id="q", text="My espresso grinder broke", label=0), "knowledge_retrieval",
        retriever=KeywordOverlapRetriever(path))
    assert fallback is None
    assert effective_text == "My espresso grinder broke " + documents[0]


def test_the_retriever_picks_what_rescanning_every_document_picks(tmp_path):
    documents = [
        "Kettles boil water, fast!",
        "A kettle; a KETTLE: water?",
        "Water boils. Kettles whistle.",
        "Nothing relevant here",
        "kettle water",
        "(kettle) water...",
    ]
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [{"text": d} for d in documents])
    retriever = KeywordOverlapRetriever(path)
    queries = [["kettle"], ["water"], ["Kettles", "water"], ["water boil"], ["quantum"], [],
               ["KETTLE water", "whistle"], ["(kettle)"], ["relevant here nothing"]]
    for keywords in queries:
        assert retriever.retrieve(keywords) == _rescan_retrieve(documents, keywords), keywords
    assert retriever.retrieve(["water"]) == documents[0]  # a tie goes to file order
    assert retriever.retrieve(["kettle", "water"]) == documents[1]
    assert retriever.retrieve(["quantum"]) is None  # no overlap


# --- staged pipeline ----------------------------------------------------------

def _base_config(tmp_path, fix, out_name="run", **overrides):
    data = {
        "experiment_id": f"test-{out_name}",
        "dataset": {
            "path": str(fix.dataset_csv),
            "split_seed": 5,
            "split_fractions": [0.6, 0.2, 0.2],
        },
        "output_dir": str(tmp_path / out_name),
        "cache_dir": str(tmp_path / "cache"),
        "method": "gen_image",
        "strategy": "keyword",
        "generation": {"backend": "flux-schnell", "concurrency": 2},
        "providers": {
            "text": "hash-16",
            "image": "hash-16",
            "oracle_features": str(fix.oracle_features),
        },
        "fusion": {"mechanism": "cross_attention", "model_dim": 8, "heads": 2, "hidden_dim": 12},
        "training": {"learning_rate": 1e-3, "batch_size": 16, "max_epochs": 2, "patience": 2},
        "seeds": [0],
        "cost_mode": "estimated",
    }
    data.update(overrides)
    return parse_config_data(data)


@pytest.fixture
def fixture_dataset(tmp_path):
    return build_separability_fixture(tmp_path / "data", samples_per_class=12, seed=3)


def test_full_run_produces_all_artifacts(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    manifest, report = run_experiment(config)
    assert all(s.status == "done" for s in manifest.stages.values())
    run_dir = Path(config.output_dir)
    for name in (
        "manifest.json", "splits.jsonl", "prompts.jsonl", "labels.json",
        "images.jsonl", "features.jsonl", "report.txt", "records.jsonl",
        "attention.tsv", "cost_summary.json", "summary.json",
    ):
        assert (run_dir / name).exists(), name
    assert (run_dir / "train_s0" / "best.ntc").exists()
    assert report is not None
    assert 0.0 <= report.accuracy <= 1.0
    cost = json.loads((run_dir / "cost_summary.json").read_text())
    assert cost["mode"] == "estimated"
    assert cost["images"] == 48


def test_a_runs_cost_summary_does_not_depend_on_which_run_filled_the_image_cache(tmp_path, fixture_dataset):
    registry = ProviderRegistry()

    def cost_summary(out_name, cache, cost_mode, backend):
        config = _base_config(tmp_path, fixture_dataset, out_name=out_name, cache_dir=str(tmp_path / cache),
                              cost_mode=cost_mode, generation={"backend": backend})
        run_experiment(config, registry, force=True)
        summary = json.loads((Path(config.output_dir) / "cost_summary.json").read_text())
        return summary["mode"], summary["note"], summary["total_cost_usd"]

    # measured: what the backend reported, whether or not an estimated run filled the cache
    cold = cost_summary("measured-cold", "fresh", "measured", "sdxl")
    estimated = cost_summary("estimated", "shared", "estimated", "sdxl")
    warm = cost_summary("measured-warm", "shared", "measured", "sdxl")
    assert cold == warm == ("measured", None, "0.0")
    assert estimated == ("estimated", None, str(48 * Decimal("0.022")))

    # estimated on a backend without a cost entry: measured totals and a note, cold or warm
    cold = cost_summary("mystery-cold", "mystery-fresh", "estimated", "mystery")
    cost_summary("mystery-measured", "mystery-shared", "measured", "mystery")
    warm = cost_summary("mystery-warm", "mystery-shared", "estimated", "mystery")
    assert cold == warm
    assert cold[0] == "measured" and cold[1].startswith("estimate unavailable") and cold[2] == "0.0"


def test_rerun_same_dir_skips_all_stages(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    registry = ProviderRegistry()
    run_experiment(config, registry)
    backend = registry.backends["flux-schnell"]
    calls_after_first = backend.calls
    manifest, _ = run_experiment(config, registry)
    assert backend.calls == calls_after_first
    assert registry.text_providers["hash-16"].calls > 0  # sanity: first run did encode


def test_fresh_dir_shared_cache_zero_remote_calls_identical_reports(tmp_path, fixture_dataset):
    config_a = _base_config(tmp_path, fixture_dataset, out_name="runA")
    registry = ProviderRegistry()
    run_experiment(config_a, registry)
    backend = registry.backends["flux-schnell"]
    text_provider = registry.text_providers["hash-16"]
    image_provider = registry.image_providers["hash-16"]
    snapshot = (backend.calls, text_provider.calls, image_provider.calls)

    config_b = dataclasses.replace(config_a, output_dir=str(tmp_path / "runB"))
    run_experiment(config_b, registry, force=True)
    assert (backend.calls, text_provider.calls, image_provider.calls) == snapshot

    for name in ("report.txt", "records.jsonl", "cost_summary.json", "attention.tsv"):
        a = (Path(config_a.output_dir) / name).read_bytes()
        b = (Path(config_b.output_dir) / name).read_bytes()
        assert a == b, f"{name} differs between runs"


def test_resume_after_partial_run(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    registry = ProviderRegistry()
    # simulate a run killed after the images stage
    run_experiment(config, registry, until_stage="images")
    manifest = RunManifest.load(Path(config.output_dir))
    assert manifest.stages["images"].status == "done"
    assert manifest.stages["embeddings"].status == "pending"
    backend_calls = registry.backends["flux-schnell"].calls

    manifest, report = run_experiment(config, registry)
    assert registry.backends["flux-schnell"].calls == backend_calls  # prompts/images skipped
    assert manifest.stages["evaluation"].status == "done"
    assert report is not None


def _segments(config):
    """Each embedding segment of the run's cache, by real path, with its size."""
    root = Path(config.resolved_cache_dir()) / "emb"
    return {os.path.realpath(p): p.stat().st_size for p in root.rglob("*.seg")}


def _open_files():
    """What this process's descriptors point at; listing them opens one more,
    which is closed again before it can be read."""
    files = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            files.append(os.readlink(f"/proc/self/fd/{fd}"))
        except FileNotFoundError:
            pass
    return files


def test_embeddings_stage_fsyncs_once_per_segment_not_per_entry(tmp_path, fixture_dataset, monkeypatch):
    config = _base_config(tmp_path, fixture_dataset, method="oracle_image")
    run_experiment(config, until_stage="images")
    synced = []
    fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.readlink(f"/proc/self/fd/{fd}"))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    run_experiment(config, until_stage="embeddings")
    run_dir = os.path.realpath(config.output_dir)
    entries = len(list(read_jsonl(Path(config.output_dir) / "features.jsonl")))
    assert sorted(p for p in synced if p.endswith(".seg")) == sorted(_segments(config)) != []
    assert all(p.startswith(run_dir + os.sep) for p in synced if not p.endswith(".seg"))
    assert len(synced) < entries


def test_a_warm_run_appends_nothing_and_no_run_leaves_a_segment_open(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset, method="oracle_image")
    open_before = len(_open_files())
    run_experiment(config)
    cold = _segments(config)
    assert cold and len(_open_files()) == open_before

    run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / "warm")), force=True)
    assert _segments(config) == cold  # no new segment, and not one byte appended
    assert len(_open_files()) == open_before
    assert not set(_open_files()) & set(cold)


def _log_segments(config, cache):
    """Each record segment of the run's ``images`` or ``chat`` cache, by real path, with its size."""
    root = Path(config.resolved_cache_dir()) / cache
    return {os.path.realpath(p): p.stat().st_size for p in root.rglob("*.seg")}


def test_prompt_and_image_stages_fsync_each_segment_once_and_a_warm_run_appends_nothing(
        tmp_path, fixture_dataset, monkeypatch):
    config = _base_config(
        tmp_path, fixture_dataset, strategy="elaborated",
        providers={"text": "hash-16", "image": "hash-16", "elaborator": "stub-chat"},
    )
    cache_root = os.path.realpath(config.resolved_cache_dir())
    run_dir = os.path.realpath(config.output_dir)
    synced = []
    fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.readlink(f"/proc/self/fd/{fd}"))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    for stage, cache in (("prompts", "chat"), ("images", "images")):
        synced.clear()
        run_experiment(config, until_stage=stage)
        segments = _log_segments(config, cache)
        files = [os.path.realpath(p) for p in Path(cache_root, cache).rglob("*") if p.is_file()]
        assert sorted(files) == sorted(segments)  # no file per entry: the logs' segments only
        in_cache = [p for p in synced if p.startswith(cache_root + os.sep)]
        # each segment once, the payloads before the meta records that name them
        assert sorted(in_cache) == sorted(segments)
        assert [Path(p).parent.name for p in in_cache] == ["data", "meta"]
        assert all(p.startswith(run_dir + os.sep) for p in synced if p not in in_cache)
    logs = {cache: _log_segments(config, cache) for cache in ("chat", "images")}

    run_experiment(config)
    run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / "warm")), force=True)
    assert {cache: _log_segments(config, cache) for cache in ("chat", "images")} == logs


def test_a_run_syncs_each_file_it_writes_and_its_manifest_once_per_stage_it_ran(
        tmp_path, fixture_dataset, monkeypatch):
    """The sync budget, in closed form: each stage that ran syncs each file
    it wrote whole, then commits the manifest once; the embeddings stage
    also syncs each cache segment it appended to. A reused run commits once."""
    config = _base_config(tmp_path, fixture_dataset, method="oracle_image")
    cache_root = os.path.realpath(config.resolved_cache_dir())
    synced = []
    fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.readlink(f"/proc/self/fd/{fd}"))
        fsync(fd)

    def synced_names(run_dir) -> list[str]:
        """What was synced: a segment by its path in the cache, any other
        file by its path in ``run_dir``, less the suffix of its temp name."""
        run_dir = os.path.realpath(run_dir)
        return sorted(os.path.relpath(p, cache_root) if p.startswith(cache_root + os.sep)
                      else re.sub(r"\.\d+\.\d+\.tmp$", "", os.path.relpath(p, run_dir)) for p in synced)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    manifest, _ = run_experiment(config)
    commit = ["manifest.json"]
    segments = [os.path.relpath(p, cache_root) for p in _log_segments(config, "emb")]
    ran = {
        "prompts": ["splits.jsonl", "prompts.jsonl", "labels.json", "prompts_summary.json", *commit],
        "images": ["images.jsonl", *commit],
        "embeddings": ["features.jsonl", *segments, *commit],
        "training": ["train_s0/history.jsonl", "train_s0/best.ntc", "train_s0/best.ntc.manifest.json", *commit],
        "evaluation": ["eval/eval_seed0.json", "eval/predictions_seed0.jsonl", "attention.tsv",
                       "summary.json", "report.txt", "records.jsonl", *commit],
    }
    assert segments == ["emb/hash-16/" + Path(segments[0]).name]  # the text encoder's one segment
    assert synced_names(config.output_dir) == sorted(name for names in ran.values() for name in names)
    assert len(synced) == 21
    for stage, names in ran.items():
        assert set(manifest.stages[stage].artifacts) == set(names) - {*commit, *segments}, stage

    synced.clear()
    reused = dataclasses.replace(config, output_dir=str(tmp_path / "reused"))
    run_experiment(reused)
    assert synced_names(reused.output_dir) == commit


@pytest.mark.parametrize("method", ["gen_image", "oracle_image", "text_only"])
def test_each_artifact_a_commit_lists_is_synced_before_that_commit(
        tmp_path, fixture_dataset, monkeypatch, method):
    config = _base_config(tmp_path, fixture_dataset, method=method, seeds=[0, 1])
    run_dir = os.path.realpath(config.output_dir)
    synced, commits = set(), []  # commits: (what was synced before it, what it lists)
    fsync = os.fsync

    def recording_fsync(fd):
        path = os.readlink(f"/proc/self/fd/{fd}")
        fsync(fd)
        rel = re.sub(r"\.\d+\.\d+\.tmp$", "", os.path.relpath(path, run_dir))
        if rel == "manifest.json":  # the temp file, synced and about to be renamed: the commit
            stages = json.loads(Path(path).read_text(encoding="utf-8"))["stages"]
            commits.append((set(synced), {a for stage in stages.values() for a in stage["artifacts"]}))
        else:
            synced.add(rel)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    manifest, _ = run_experiment(config)
    assert len(commits) == len(orchestrator.STAGES)
    for synced_before, listed in commits:
        assert sorted(listed - synced_before) == []
    assert commits[-1][1] == {a for stage in manifest.stages.values() for a in stage.artifacts}
    assert {"train_s0/history.jsonl", "train_s1/history.jsonl"} <= commits[-1][1]


@pytest.mark.parametrize("method", ["oracle_image", "gen_image"])
def test_a_run_lists_each_log_directory_once_however_many_misses(
        tmp_path, fixture_dataset, monkeypatch, method):
    config = _base_config(tmp_path, fixture_dataset, method=method)
    cache_root = str(Path(config.resolved_cache_dir()))
    listed = collections.Counter()
    listdir = os.listdir

    def recording_listdir(path="."):
        listed[os.fspath(path)] += 1
        return listdir(path)

    monkeypatch.setattr(os, "listdir", recording_listdir)
    for out in ("cold", "warm"):
        listed.clear()
        run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / out)), force=True)
        logs = {path: n for path, n in listed.items() if path.startswith(cache_root + os.sep)}
        expected = ["emb/hash-16"] + (["images/data", "images/meta"] if method == "gen_image" else [])
        assert logs == {os.path.join(cache_root, log): 1 for log in expected}


_OPENED: list[str] | None = None  # while a list, _record_opens adds each path opened
_HOOKED = False


def _record_opens(event, args):
    if event == "open" and _OPENED is not None and isinstance(args[0], (str, bytes, os.PathLike)):
        _OPENED.append(os.path.realpath(args[0]))


@contextlib.contextmanager
def _recording_opens():
    """Yields a list of the real path of every file opened in the block."""
    global _OPENED, _HOOKED
    if not _HOOKED:
        sys.addaudithook(_record_opens)  # stays installed, idle, for the rest of the session
        _HOOKED = True
    _OPENED = []
    try:
        yield _OPENED
    finally:
        _OPENED = None


def test_a_warm_gen_image_run_opens_no_image_payload(tmp_path, fixture_dataset, monkeypatch):
    config = _base_config(tmp_path, fixture_dataset)
    run_experiment(config)
    images = os.path.realpath(Path(config.resolved_cache_dir()) / "images")
    reads = []
    pread = os.pread

    def recording_pread(fd, length, offset):
        reads.append((os.readlink(f"/proc/self/fd/{fd}"), length))
        return pread(fd, length, offset)

    monkeypatch.setattr(os, "pread", recording_pread)
    with _recording_opens() as opened:
        run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / "warm")), force=True)
    opened = [p for p in opened if p.startswith(images + os.sep)]
    assert opened and all(p.endswith(".seg") for p in opened)  # the record logs, never an image file
    data = [length for path, length in reads if path.startswith(os.path.join(images, "data", ""))]
    assert data and set(data) == {44}  # the scan reads each record's header, and no image


def test_a_warm_run_reads_each_cache_hit_once(tmp_path, monkeypatch):
    fixture = build_separability_fixture(tmp_path / "data", samples_per_class=16, seed=3)
    config = _base_config(tmp_path, fixture)
    run_experiment(config, until_stage="embeddings")  # what fills the caches; no later stage to reuse
    cache_root = os.path.realpath(config.resolved_cache_dir())
    reads, scanning = collections.Counter(), []
    pread, scan = os.pread, storage.SegmentLog._scan

    def recording_pread(fd, length, offset):
        if not scanning:  # a hit's read, not the open's scan of record headers
            log = os.path.dirname(os.readlink(f"/proc/self/fd/{fd}"))
            reads[os.path.relpath(log, cache_root)] += 1
        return pread(fd, length, offset)

    def recording_scan(log):
        scanning.append(log)
        try:
            scan(log)
        finally:
            scanning.pop()

    monkeypatch.setattr(os, "pread", recording_pread)
    monkeypatch.setattr(storage.SegmentLog, "_scan", recording_scan)
    warm = dataclasses.replace(config, output_dir=str(tmp_path / "warm"))
    run_experiment(warm, until_stage="embeddings", force=True)
    features = list(read_jsonl(Path(warm.output_dir) / "features.jsonl"))
    prompts = {row["prompt_key"] for row in read_jsonl(Path(warm.output_dir) / "images.jsonl")}
    embeddings = {row["text_key"] for row in features} | {row["image"]["key"] for row in features}
    assert fixture.num_samples == len(prompts) == len(embeddings) / 2 == 64
    # a meta record per prompt, then an embedding per text and per image: one read per distinct hit
    assert reads == {"images/meta": len(prompts), "emb/hash-16": len(embeddings)}
    reads.clear()
    run_experiment(warm)  # resumed at training: features.jsonl's embeddings read back, one read each
    assert reads == {"emb/hash-16": len(embeddings)}


def test_a_tampered_image_fails_the_embeddings_stage(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    run_experiment(config, until_stage="images")
    [segment] = (Path(config.resolved_cache_dir()) / "images" / "data").glob("*.seg")
    data = bytearray(segment.read_bytes())
    data[-1] ^= 0x01  # a bit of the last stored image rots
    segment.write_bytes(bytes(data))
    last = len(data) - (44 + generation.STUB_IMAGE_SIZE)  # the last record: its header, then the image
    [row] = [r for r in read_jsonl(Path(config.output_dir) / "images.jsonl")
             if hashlib.sha256(r["prompt_key"].encode()).digest() == data[last + 4:last + 36]]
    with pytest.raises(ImageContentError, match=row["content_hash"]):
        run_experiment(config)
    embeddings = RunManifest.load(Path(config.output_dir)).stages["embeddings"]
    assert embeddings.status == "failed" and embeddings.reason.startswith("ImageContentError: ")


def test_an_artifact_gone_when_the_manifest_checks_it_reruns_its_stage(
        tmp_path, fixture_dataset, monkeypatch):
    config = _base_config(tmp_path, fixture_dataset, method="text_only")
    run_experiment(config)
    run_dir = Path(config.output_dir)
    ran = []

    def recording(stage):
        def run(*args):
            ran.append(stage.name)
            return stage.run(*args)
        return dataclasses.replace(stage, run=run)

    monkeypatch.setattr(orchestrator, "STAGES", tuple(map(recording, orchestrator.STAGES)))
    gone = run_dir / "features.jsonl"
    read_bytes = Path.read_bytes
    raised = []

    def removed_on_first_read(path):
        if path == gone and not raised:
            raised.append(path)  # another process removes it, then puts it back
            raise FileNotFoundError(2, "No such file or directory", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", removed_on_first_read)
    manifest, report = run_experiment(config)
    assert raised and ran == ["embeddings"]
    assert manifest.stages["embeddings"].status == "done" and report is not None

    prompts = manifest.stages["prompts"]
    store = config.resolved_cache_dir() / "stages"
    assert orchestrator._standing("prompts", prompts.fingerprint, prompts, store, run_dir) is prompts
    (run_dir / "prompts_summary.json").unlink()
    (run_dir / "prompts_summary.json").mkdir()  # a directory where an artifact was
    assert orchestrator._standing("prompts", prompts.fingerprint, prompts, store, run_dir) is None


def test_run_rejects_mismatched_config_hash(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    run_experiment(config, until_stage="prompts")
    changed = dataclasses.replace(config, strategy="direct")
    with pytest.raises(OrchestrationError, match="different config"):
        run_experiment(changed)


def test_a_finished_run_resumes_under_other_execution_settings(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    registry = ProviderRegistry()
    run_experiment(config, registry)
    manifest_path = Path(config.output_dir) / "manifest.json"
    before = manifest_path.read_bytes()
    providers = (registry.backends["flux-schnell"], registry.text_providers["hash-16"],
                 registry.image_providers["hash-16"])
    calls = [provider.calls for provider in providers]
    execution = _base_config(tmp_path, fixture_dataset,
                             generation={"backend": "flux-schnell", "retries": 5, "concurrency": 1})
    _, report = run_experiment(execution, registry)
    assert report is not None
    assert manifest_path.read_bytes() == before  # no stage was marked done again
    assert [provider.calls for provider in providers] == calls

    other_head = _base_config(tmp_path, fixture_dataset, fusion={
        "mechanism": "cross_attention", "model_dim": 16, "heads": 2, "hidden_dim": 12})
    with pytest.raises(OrchestrationError, match="different config"):
        run_experiment(other_head, registry)

    # a manifest that records no output hash: the whole config hash decides, as before
    data = json.loads(before)
    del data["output_hash"]
    manifest_path.write_text(json.dumps(data))
    with pytest.raises(OrchestrationError, match="different config"):
        run_experiment(execution, registry)
    _, report = run_experiment(config, registry)
    assert report is not None and [provider.calls for provider in providers] == calls


def test_text_only_and_oracle_methods(tmp_path, fixture_dataset):
    registry = ProviderRegistry()
    config = _base_config(tmp_path, fixture_dataset, out_name="text", method="text_only")
    manifest, report = run_experiment(config, registry)
    assert "flux-schnell" not in registry.backends  # no generation at all
    features = [
        json.loads(line)
        for line in (Path(config.output_dir) / "features.jsonl").read_text().splitlines()
    ]
    assert all(f["image"]["kind"] == "zero" for f in features)

    oracle_config = _base_config(tmp_path, fixture_dataset, out_name="oracle", method="oracle_image")
    manifest, report = run_experiment(oracle_config, registry)
    assert "flux-schnell" not in registry.backends
    assert report is not None


def test_non_finite_oracle_features_fail_the_training_stage(tmp_path, fixture_dataset):
    rows = list(read_jsonl(fixture_dataset.oracle_features))
    rows[0]["values"][1] = float("nan")
    poisoned = tmp_path / "poisoned_oracle.jsonl"
    write_jsonl(poisoned, rows)
    config = _base_config(
        tmp_path, fixture_dataset, method="oracle_image",
        providers={"text": "hash-16", "image": "hash-16", "oracle_features": str(poisoned)},
    )
    with pytest.raises(ValueError, match="non-finite"):
        run_experiment(config)
    manifest = RunManifest.load(Path(config.output_dir))
    assert manifest.stages["embeddings"].status == "done"
    training = manifest.stages["training"]
    assert training.status == "failed"
    assert training.reason == "ValueError: image features contain non-finite entries"
    assert manifest.stages["evaluation"].status == "pending"


def test_textual_expansion_pipeline_and_chat_cache(tmp_path, fixture_dataset):
    registry = ProviderRegistry()
    config = _base_config(
        tmp_path, fixture_dataset, out_name="b2", method="textual_expansion",
        providers={"text": "hash-16", "image": "hash-16", "elaborator": "stub-chat"},
    )
    run_experiment(config, registry)
    chat = registry.chat_clients["stub-chat"]
    first_requests = len(chat.requests)
    assert first_requests > 0

    config_b = dataclasses.replace(config, output_dir=str(tmp_path / "b2-again"))
    run_experiment(config_b, registry, force=True)
    assert len(chat.requests) == first_requests  # cached rewrites, zero new calls


def test_sweep_cells_independent_and_resumable(tmp_path, fixture_dataset):
    base = _base_config(tmp_path, fixture_dataset, out_name="sweep")
    registry = ProviderRegistry()
    result = run_sweep(base, {"strategy": ["direct", "keyword"]}, registry)
    assert [c.status for c in result.cells] == ["done", "done"]
    assert result.table is not None
    sweep_dir = Path(base.output_dir)
    assert (sweep_dir / "combined_table.txt").exists()
    assert (sweep_dir / "sweep_summary.json").exists()

    # delete one cell and re-run: only that cell is rebuilt
    backend = registry.backends["flux-schnell"]
    calls_before = backend.calls
    cell_dirs = sorted((sweep_dir / "cells").iterdir())
    import shutil

    shutil.rmtree(cell_dirs[0])
    result = run_sweep(base, {"strategy": ["direct", "keyword"]}, registry)
    assert [c.status for c in result.cells] == ["done", "done"]
    assert backend.calls == calls_before  # images all cache hits


def test_sweep_cells_with_long_dataset_paths_get_distinct_short_dirs(tmp_path, fixture_dataset):
    deep = tmp_path / ("d" * 200) / ("e" * 40)
    deep.mkdir(parents=True)
    long_paths = []
    for name in ("one.csv", "two.csv"):
        (deep / name).write_bytes(fixture_dataset.dataset_csv.read_bytes())
        long_paths.append(str(deep / name))
    assert all(len(p) >= 260 for p in long_paths)
    short = str(fixture_dataset.dataset_csv)
    base = _base_config(tmp_path, fixture_dataset, out_name="long", method="text_only")
    result = run_sweep(base, {"dataset": [short, *long_paths]}, ProviderRegistry())
    assert [c.status for c in result.cells] == ["done"] * 3
    names = [Path(c.output_dir).name for c in result.cells]
    assert names[0] == "dataset=" + short.replace("/", "%2F")  # an id that fits is kept as it is
    assert len(set(names)) == 3 and all(len(n.encode()) <= 255 for n in names)
    assert names[1][:200] == names[2][:200] == "dataset=" + long_paths[0].replace("/", "%2F")[:192]


def test_dataset_values_that_differ_only_in_slash_or_underscore_get_their_own_cells(tmp_path, fixture_dataset):
    (tmp_path / "sets" / "a").mkdir(parents=True)
    paths = [str(tmp_path / "sets" / "a" / "b.csv"), str(tmp_path / "sets" / "a_b.csv")]
    for path in paths:
        Path(path).write_bytes(fixture_dataset.dataset_csv.read_bytes())
    base = _base_config(tmp_path, fixture_dataset, out_name="slashes", method="text_only")
    result = run_sweep(base, {"dataset": paths}, ProviderRegistry())
    assert [c.status for c in result.cells] == ["done", "done"]
    names = [Path(c.output_dir).name for c in result.cells]
    assert names == ["dataset=" + quote(path, safe="") for path in paths]
    assert all((Path(c.output_dir) / "manifest.json").exists() for c in result.cells)


def test_sweep_empty_axis_errors(tmp_path, fixture_dataset):
    base = _base_config(tmp_path, fixture_dataset, out_name="sweep2")
    with pytest.raises(SweepError):
        run_sweep(base, {})
    with pytest.raises(SweepError):
        run_sweep(base, {"strategy": []})
    with pytest.raises(SweepError, match="sweep.axes.seed: unknown axis"):
        run_sweep(base, {"seed": [1, 2]})


def test_a_sweep_with_a_repeated_value_runs_no_cell(tmp_path, fixture_dataset):
    base = _base_config(tmp_path, fixture_dataset, out_name="repeated")
    with pytest.raises(SweepError, match="sweep.axes.mechanism: must not repeat a value"):
        run_sweep(base, {"mechanism": ["concat", "concat"]})
    assert not (tmp_path / "repeated").exists()


def test_a_stylized_cell_of_a_task_without_style_tags_fails_before_it_runs(tmp_path, fixture_dataset):
    base = _base_config(tmp_path, fixture_dataset, out_name="styled", task_id="movies")
    result = run_sweep(base, {"strategy": ["keyword", "stylized"]}, ProviderRegistry())
    assert [c.status for c in result.cells] == ["done", "failed"]
    assert result.cells[1].error.startswith("ConfigError")
    assert "task_id: no style tags for task 'movies'" in result.cells[1].error
    assert not (Path(result.cells[1].output_dir) / "manifest.json").exists()


def test_sweep_failure_isolation(tmp_path, fixture_dataset):
    base = _base_config(tmp_path, fixture_dataset, out_name="sweep3")
    result = run_sweep(base, {"mechanism": ["cross_attention", "not_a_mechanism"]})
    statuses = {c.axes["mechanism"]: c.status for c in result.cells}
    assert statuses["cross_attention"] == "done"
    assert statuses["not_a_mechanism"] == "failed"
    assert result.table is None or "cross_attention" in result.table


def test_sweep_cells_are_checked_like_a_parsed_config(tmp_path, fixture_dataset):
    base = _base_config(tmp_path, fixture_dataset, out_name="checked",
                        providers={"text": "hash-16", "image": "hash-16"})
    result = run_sweep(base, {"method": ["text_only", "nope", "oracle_image"]}, ProviderRegistry())
    assert [c.status for c in result.cells] == ["done", "failed", "failed"]
    assert "method: unknown method 'nope'" in result.cells[1].error
    assert "providers.oracle_features: required for method oracle_image" in result.cells[2].error

    base = dataclasses.replace(base, output_dir=str(tmp_path / "checked-values"))
    result = run_sweep(base, {"steps": [0, "four"], "mechanism": ["concat", "bogus"]}, ProviderRegistry())
    assert [c.status for c in result.cells] == ["failed"] * 4
    assert "steps must be" in result.cells[0].error
    assert "sweep.axes.mechanism: 'bogus'" in result.cells[1].error
    assert all("sweep.axes.steps: 'four'" in cell.error for cell in result.cells[2:])
    for cell in result.cells:
        assert cell.error.startswith("ConfigError")
        assert not (Path(cell.output_dir) / "manifest.json").exists()


def test_a_sweep_cell_does_not_generate_on_a_backend_nobody_chose(tmp_path):
    fixture = build_separability_fixture(tmp_path / "data", samples_per_class=8, seed=3)
    base = _base_config(tmp_path, fixture, out_name="unchosen", method="text_only", generation={})
    result = run_sweep(base, {"method": ["text_only", "gen_image"]}, ProviderRegistry())
    assert [c.status for c in result.cells] == ["done", "failed"]
    assert "generation.backend: required for method gen_image" in result.cells[1].error
    assert not (Path(result.cells[1].output_dir) / "manifest.json").exists()


def test_a_config_built_without_parsing_has_no_backend_to_resolve(tmp_path):
    config = ExperimentConfig(experiment_id="unparsed", dataset=DatasetConfig(path=str(tmp_path / "d.csv")),
                              output_dir=str(tmp_path / "out"), method="gen_image")
    with pytest.raises(OrchestrationError, match="no generation backend configured"):
        ProviderRegistry().resolve_backend(config)


def test_report_cli_single_and_grouped(tmp_path, fixture_dataset):
    registry = ProviderRegistry()
    config_a = _base_config(tmp_path, fixture_dataset, out_name="ra")
    config_b = _base_config(
        tmp_path, fixture_dataset, out_name="rb",
        fusion={"mechanism": "concat", "model_dim": 8, "heads": 2, "hidden_dim": 12},
    )
    run_experiment(config_a, registry)
    run_experiment(config_b, registry)

    single = report_cli([config_a.output_dir])
    assert "acc" in single

    grouped = report_cli([config_a.output_dir, config_b.output_dir], out_dir=tmp_path / "agg")
    assert "concat" in grouped and "cross_attention" in grouped
    assert "total cost" in grouped
    assert (tmp_path / "agg" / "consolidated.txt").exists()

    # corrupt manifest is reported and skipped
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "manifest.json").write_text("{not json")
    out = report_cli([bad_dir, config_a.output_dir])
    assert "skipped runs" in out


@pytest.mark.parametrize("manifest", [[], {"experiment_id": "x", "config_hash": "0", "stages": {"prompts": "done"}}])
def test_manifest_of_the_wrong_shape_is_a_typed_error(tmp_path, fixture_dataset, manifest):
    config = _base_config(tmp_path, fixture_dataset, out_name="odd", method="text_only")
    path = Path(config.output_dir) / "manifest.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(manifest))
    out = report_cli([config.output_dir])
    assert out.startswith("skipped runs:\n") and f"{config.output_dir}: unreadable manifest" in out
    with pytest.raises(OrchestrationError, match=re.escape(f"{path}: not a run manifest")):
        run_experiment(config)


def test_b3_fallback_accounting(tmp_path, fixture_dataset):
    corpus = _corpus(tmp_path)
    config = _base_config(
        tmp_path, fixture_dataset, out_name="b3", method="knowledge_retrieval",
        providers={"text": "hash-16", "image": "hash-16", "retrieval_corpus": str(corpus)},
    )
    run_experiment(config, until_stage="prompts")
    summary = json.loads((Path(config.output_dir) / "prompts_summary.json").read_text())
    # retrieval hits + fallbacks account for every sample
    assert summary["with_retrieval"] + summary["fallbacks"] == summary["samples"]


def test_a_registry_reads_an_edited_retrieval_corpus_again(tmp_path, fixture_dataset):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"id": "d1", "text": "Granite is a coarse igneous rock."}])

    def prompts(out_name, registry, **kwargs):
        config = _base_config(
            tmp_path, fixture_dataset, out_name=out_name, method="knowledge_retrieval",
            providers={"text": "hash-16", "image": "hash-16", "retrieval_corpus": str(corpus)},
        )
        run_experiment(config, registry, until_stage="prompts", **kwargs)
        return (Path(config.output_dir) / "prompts.jsonl").read_bytes()

    registry = ProviderRegistry()
    before = prompts("before", registry)
    write_jsonl(corpus, [{"id": "d1", "text": "Velvet is a soft woven fabric."}])
    after = prompts("after", registry)
    assert after != before
    assert after == prompts("fresh", ProviderRegistry(), force=True)


# --- provider resolution --------------------------------------------------------

ENDPOINT = "https://remote.example/v1"

# kind -> (resolver, registry table, config section, name key, endpoint key,
#          fixture name, fixture type, remote adapter type, offline default type)
_KINDS = {
    "backend": ("resolve_backend", "backends", "generation", "backend", "endpoint",
                "stub", StubImageBackend, HttpImageBackend, StubImageBackend),
    "text": ("resolve_text_provider", "text_providers", "providers", "text", "text_endpoint",
             "hash-8", HashProjectionProvider, HttpEmbeddingProvider, None),
    "image": ("resolve_image_provider", "image_providers", "providers", "image", "image_endpoint",
              "hash-8", HashProjectionProvider, HttpEmbeddingProvider, None),
    "chat": ("resolve_chat_client", "chat_clients", "providers", "elaborator", "chat_endpoint",
             "stub-chat", StubChatClient, HttpChatClient, StubChatClient),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_registry_resolves_every_kind_by_one_rule(tmp_path, kind):
    resolver, table, section, name_key, endpoint_key, fixture, fixture_type, remote_type, default_type = _KINDS[kind]

    def resolve(registry, name, endpoint=None, offline=True):
        values = {name_key: name, **({endpoint_key: endpoint} if endpoint else {})}
        config = parse_config_data({
            "experiment_id": "registry", "dataset": {"path": "d.csv"},
            "output_dir": str(tmp_path), "offline": offline, section: values,
        })
        return getattr(registry, resolver)(config)

    # 1. a registered instance wins over everything, even an endpoint on an offline run
    registry = ProviderRegistry()
    mine = object()
    getattr(registry, table)["mine"] = mine
    assert resolve(registry, "mine", ENDPOINT, offline=True) is mine

    # 2. a fixture the name selects is never remote
    for offline in (True, False):
        assert type(resolve(ProviderRegistry(), fixture, ENDPOINT, offline)) is fixture_type

    # 3. an endpoint selects the remote adapter, which an offline run refuses
    registry = ProviderRegistry()
    remote = resolve(registry, "remote-model", ENDPOINT, offline=False)
    assert type(remote) is remote_type
    assert resolve(registry, "remote-model", ENDPOINT, offline=False) is remote  # kept
    with pytest.raises(OfflineViolationError, match="remote-model"):
        resolve(ProviderRegistry(), "remote-model", ENDPOINT, offline=True)
    with pytest.raises(OfflineViolationError, match="remote-model"):  # even once it is kept
        resolve(registry, "remote-model", ENDPOINT, offline=True)

    # 4. otherwise the offline default; an encoder has none
    if default_type is None:
        with pytest.raises(OrchestrationError, match=f"unknown {kind} provider 'plain'"):
            resolve(ProviderRegistry(), "plain")
    else:
        registry = ProviderRegistry()
        default = resolve(registry, "plain")
        assert type(default) is default_type
        assert getattr(default, "backend_id", getattr(default, "client_id", None)) == "plain"
        # a default, built without an endpoint, is not handed to a config that names one
        assert type(resolve(registry, "plain", ENDPOINT, offline=False)) is remote_type
        assert resolve(registry, "plain") is default


class _EncoderSession:
    """Answers every embedding request with a width-4 pooled vector."""

    def __init__(self):
        self.requests = 0
        self.kinds = set()

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests += 1
        self.kinds.add(json["kind"])
        vec = [float(b) for b in hashlib.sha256(json["content"].encode()).digest()[:4]]
        return SimpleNamespace(status_code=200, json=lambda: {"pooled": vec})


def test_text_only_run_with_remote_encoders_of_undeclared_dim(tmp_path, fixture_dataset, monkeypatch):
    monkeypatch.setenv("SIGLIP_API_KEY", "k")

    def run(out_name):
        config = _base_config(
            tmp_path, fixture_dataset, out_name=out_name, method="text_only", offline=False,
            providers={"text": "siglip", "image": "siglip",
                       "text_endpoint": ENDPOINT, "image_endpoint": ENDPOINT},
        )
        registry = ProviderRegistry()
        sessions = []
        for provider in (registry.resolve_text_provider(config), registry.resolve_image_provider(config)):
            provider.session = _EncoderSession()
            sessions.append(provider.session)
        _, report = run_experiment(config, registry)
        features = list(read_jsonl(Path(config.output_dir) / "features.jsonl"))
        if sessions[1].requests:
            assert sessions[1].kinds == {"image"}  # the probe uses the image encoder's own method
        return report, features, sum(s.requests for s in sessions)

    cold_report, features, cold_requests = run("cold")
    assert cold_report is not None
    assert {f["text_dim"] for f in features} == {4}
    assert {f["image"]["dim"] for f in features} == {4}  # learned through the probe
    assert cold_requests == len(features) + 1  # every sample once, plus the probe

    warm_report, _, warm_requests = run("warm")
    assert warm_requests == 0  # the probe is cached like every other embedding
    assert warm_report.to_dict() == cold_report.to_dict()


def test_text_only_run_with_a_registered_image_only_encoder(tmp_path, fixture_dataset):
    class ImageOnlyEncoder:
        provider_id = "image-only"
        dim = 8

        def __init__(self):
            self.calls = 0

        def encode_image(self, data):
            self.calls += 1
            return np.ones(self.dim, dtype=np.float32), np.ones((1, self.dim), dtype=np.float32)

    encoder = ImageOnlyEncoder()
    registry = ProviderRegistry()
    registry.image_providers["image-only"] = encoder
    config = _base_config(
        tmp_path, fixture_dataset, out_name="image-only", method="text_only",
        providers={"text": "hash-16", "image": "image-only"},
    )
    _, report = run_experiment(config, registry)
    assert report is not None
    features = list(read_jsonl(Path(config.output_dir) / "features.jsonl"))
    assert {f["image"]["dim"] for f in features} == {8}
    assert encoder.calls == 0  # a declared dim needs no probe


# --- tables over any set of axes --------------------------------------------------

def test_sweep_over_axes_without_a_dedicated_layout_keeps_every_cell(tmp_path, fixture_dataset):
    base = _base_config(tmp_path, fixture_dataset, out_name="sweep4")
    result = run_sweep(base, {"strategy": ["direct", "keyword"], "steps": [2, 4]}, ProviderRegistry())
    assert [c.status for c in result.cells] == ["done"] * 4
    lines = result.table.strip().split("\n")
    assert lines[0].split() == ["strategy", "steps", "acc", "ma-f1"]
    assert [line.split()[:2] for line in lines[2:]] == [
        ["direct", "2"], ["direct", "4"], ["keyword", "2"], ["keyword", "4"],
    ]
    assert len({tuple(sorted(r["axes"].items())) for r in result.records}) == 4
    assert (Path(base.output_dir) / "combined_table.txt").read_text() == result.table


def test_report_cli_mechanism_by_learning_rate_keeps_every_cell(tmp_path, fixture_dataset):
    registry = ProviderRegistry()
    run_dirs = []
    for mechanism in ("concat", "cross_attention"):
        for lr in (1e-3, 2e-3):
            config = _base_config(
                tmp_path, fixture_dataset, out_name=f"{mechanism}-{lr}",
                fusion={"mechanism": mechanism, "model_dim": 8, "heads": 2, "hidden_dim": 12},
                training={"learning_rate": lr, "batch_size": 16, "max_epochs": 1, "patience": 1},
            )
            run_experiment(config, registry)
            run_dirs.append(config.output_dir)
    lines = report_cli(run_dirs).split("\n")
    assert lines[0].split() == ["mechanism", "ma-f1@0.001", "ma-f1@0.002"]
    assert [line.split()[0] for line in lines[2:4]] == ["concat", "cross_attention"]
    assert all(len(line.split()) == 3 for line in lines[2:4])


# --- one axis table, one combined table -------------------------------------------

def _rows(text):
    """Header and data rows of the first table in ``text``, split on whitespace."""
    lines = text.strip().split("\n")
    end = lines.index("") if "" in lines else len(lines)
    return lines[0].split(), [line.split() for line in lines[2:end]]


def test_descriptor_keeps_its_keys_values_and_types():
    pinned = {
        '{"training": {"learning_rate": 1e-3}}':
            '{"backend": "stub", "dataset": "reviews", "experiment_id": "pinned", '
            '"learning_rate": 0.001, "mechanism": "cross_attention", "method": "text_only", '
            '"steps": 4, "strategy": "keyword"}',
        '{"method": "gen_image_fast", "generation": {"backend": "sdxl"}, '
        '"training": {"learning_rate": 2e-5}, "fusion": {"mechanism": "deep_prefix"}}':
            '{"backend": "sdxl", "dataset": "reviews", "experiment_id": "pinned", '
            '"learning_rate": 2e-05, "mechanism": "deep_prefix", "method": "gen_image_fast", '
            '"steps": 1, "strategy": "keyword"}',
        '{"method": "gen_image", "strategy": "direct", "generation": {"backend": "sdxl", "steps": 10}, '
        '"training": {"preset": "backbone-finetune"}}':
            '{"backend": "sdxl", "dataset": "reviews", "experiment_id": "pinned", '
            '"learning_rate": 2e-05, "mechanism": "cross_attention", "method": "gen_image", '
            '"steps": 10, "strategy": "direct"}',
    }
    for extra, expected in pinned.items():
        data = {"experiment_id": "pinned", "dataset": {"path": "data/reviews.csv"}, "output_dir": "out"}
        config = parse_config_data({**data, **json.loads(extra)})
        assert json.dumps(descriptor(config), sort_keys=True) == expected


def test_dataset_sweep_renders_the_main_table(tmp_path, fixture_dataset):
    other = fixture_dataset.dataset_csv.with_name("other.csv")
    other.write_bytes(fixture_dataset.dataset_csv.read_bytes())
    base = _base_config(tmp_path, fixture_dataset, out_name="main")
    axes = {"method": ["text_only", "gen_image"],
            "dataset": [str(fixture_dataset.dataset_csv), str(other)]}
    result = run_sweep(base, axes, ProviderRegistry())
    assert [c.status for c in result.cells] == ["done"] * 4
    header, rows = _rows(result.table)
    assert header == ["method", "dataset:acc", "dataset:ma-f1", "other:acc", "other:ma-f1"]
    assert [row[0] for row in rows] == ["text_only", "gen_image"]
    assert all(len(row) == 5 for row in rows)
    assert len({tuple(sorted(r["axes"].items())) for r in result.records}) == 4


def test_runs_that_share_a_key_get_the_run_as_one_last_axis(tmp_path, fixture_dataset):
    registry = ProviderRegistry()
    run_dirs = []
    for name, extra in (
        ("seeds-0", {}),
        ("seeds-1", {"seeds": [1]}),
        ("concat", {"fusion": {"mechanism": "concat", "model_dim": 8, "heads": 2, "hidden_dim": 12}}),
    ):
        config = _base_config(tmp_path, fixture_dataset, out_name=name, **extra)
        run_experiment(config, registry)
        run_dirs.append(config.output_dir)
    header, rows = _rows(report_cli(run_dirs))
    assert header == ["mechanism", "run", "acc", "ma-f1"]
    assert sorted((row[0], row[1]) for row in rows) == [
        ("concat", run_dirs[2]), ("cross_attention", run_dirs[0]), ("cross_attention", run_dirs[1]),
    ]

    # two datasets with one stem: the sweep keeps all four cells, too
    twin = fixture_dataset.dataset_csv.parent / "twin" / fixture_dataset.dataset_csv.name
    twin.parent.mkdir()
    twin.write_bytes(fixture_dataset.dataset_csv.read_bytes())
    base = _base_config(tmp_path, fixture_dataset, out_name="twins")
    axes = {"method": ["text_only", "gen_image"], "dataset": [str(fixture_dataset.dataset_csv), str(twin)]}
    header, rows = _rows(run_sweep(base, axes, registry).table)
    assert header == ["method", "dataset", "run", "acc", "ma-f1"]
    assert len(rows) == 4


def test_incomplete_grids_render_every_cell(tmp_path, fixture_dataset, capsys):
    registry = ProviderRegistry()
    run_dirs = []
    for backend, strategy in (("sd15", "keyword"), ("sd15", "direct"), ("sdxl", "keyword")):
        config = _base_config(tmp_path, fixture_dataset, out_name=f"{backend}-{strategy}",
                              strategy=strategy, generation={"backend": backend})
        run_experiment(config, registry)
        run_dirs.append(config.output_dir)
    text = report_cli(run_dirs)
    header, rows = _rows(text)
    assert header == ["backend", "strategy", "acc", "ma-f1"]
    assert [row[:2] for row in rows] == [["sd15", "direct"], ["sd15", "keyword"], ["sdxl", "keyword"]]
    assert cli_main(["report", *run_dirs]) == 0
    assert capsys.readouterr().out == text

    # a sweep whose failed cell leaves the method x dataset grid incomplete:
    # the oracle file has no features for the larger dataset's extra samples
    larger = build_separability_fixture(tmp_path / "larger", samples_per_class=14, seed=3).dataset_csv
    larger = larger.rename(larger.with_name("larger.csv"))
    base = _base_config(tmp_path, fixture_dataset, out_name="holey")
    axes = {"method": ["text_only", "oracle_image"], "dataset": [str(fixture_dataset.dataset_csv), str(larger)]}
    result = run_sweep(base, axes, registry)
    assert [c.status for c in result.cells] == ["done", "done", "done", "failed"]
    header, rows = _rows(result.table)
    assert header == ["method", "dataset", "acc", "ma-f1"]
    assert [row[:2] for row in rows] == [
        ["text_only", "dataset"], ["text_only", "larger"], ["oracle_image", "dataset"],
    ]
    assert (Path(base.output_dir) / "combined_table.txt").read_text() == result.table


def _eval_report(acc, f1, **extra):
    return EvalReport(accuracy=acc, macro_f1=f1, per_class=[], confusion=np.zeros((2, 2), dtype=int),
                      confusion_normalized=np.zeros((2, 2)), **extra)


_CLIP_CELLS = [  # (backend, strategy) cells with bootstrap and CLIP values, some missing
    (("sdxl", "keyword"), _eval_report(0.75, 0.74, bootstrap_std=0.0125, clip_cos_mean=0.3125, clip_cos_std=0.01,
                                       clip_score_mean=0.78125, clip_score_std=0.025)),
    (("sd15", "keyword"), _eval_report(0.625, 0.62, bootstrap_std=0.015, clip_cos_mean=0.25, clip_cos_std=0.02,
                                       clip_score_mean=0.625, clip_score_std=0.05)),
    (("sdxl", "direct"), _eval_report(0.6875, 0.68, bootstrap_std=0.01)),
    (("sd15", "direct"), _eval_report(0.5, 0.5, clip_cos_mean=0.1875, clip_score_mean=0.46875)),
]
_CLIP_RECORDS = {
    ("sd15", "direct"): {"accuracy": 0.5, "macro_f1": 0.5, "clip_cos_mean": 0.1875, "clip_score_mean": 0.46875},
    ("sd15", "keyword"): {"accuracy": 0.625, "macro_f1": 0.62, "bootstrap_std": 0.015, "clip_cos_mean": 0.25,
                          "clip_cos_std": 0.02, "clip_score_mean": 0.625, "clip_score_std": 0.05},
    ("sdxl", "direct"): {"accuracy": 0.6875, "macro_f1": 0.68, "bootstrap_std": 0.01},
    ("sdxl", "keyword"): {"accuracy": 0.75, "macro_f1": 0.74, "bootstrap_std": 0.0125, "clip_cos_mean": 0.3125,
                          "clip_cos_std": 0.01, "clip_score_mean": 0.78125, "clip_score_std": 0.025},
}

# name -> (axis names, cells keyed in that order, table, record axes, records in table order)
_GOLDEN_TABLES = {
    "method x dataset": (
        ("dataset", "method"),
        [(("topics", "gen_image"), _eval_report(0.8125, 0.8)),
         (("topics", "text_only"), _eval_report(0.75, 0.7421875)),
         (("reviews", "gen_image"), _eval_report(0.625, 0.6)),
         (("reviews", "text_only"), _eval_report(0.6875, 0.65625))],
        """\
method     reviews:acc  reviews:ma-f1  topics:acc  topics:ma-f1
---------  -----------  -------------  ----------  ------------
text_only  68.75*       65.62*         75.00       74.22
gen_image  62.50        60.00          81.25*      80.00*
""",
        ("method", "dataset"),
        {("text_only", "reviews"): {"accuracy": 0.6875, "macro_f1": 0.65625},
         ("text_only", "topics"): {"accuracy": 0.75, "macro_f1": 0.7421875},
         ("gen_image", "reviews"): {"accuracy": 0.625, "macro_f1": 0.6},
         ("gen_image", "topics"): {"accuracy": 0.8125, "macro_f1": 0.8}},
    ),
    "mechanism x learning_rate": (
        ("learning_rate", "mechanism"),
        [(("0.001", "cross_attention"), _eval_report(0.75, 0.75)),
         (("0.0003", "cross_attention"), _eval_report(0.8125, 0.8)),
         (("0.001", "concat"), _eval_report(0.875, 0.87)),
         (("0.0003", "concat"), _eval_report(0.5, 0.5))],
        """\
mechanism        ma-f1@0.0003  ma-f1@0.001
---------------  ------------  -----------
concat           50.00         87.00*
cross_attention  80.00*        75.00
""",
        ("mechanism", "learning_rate"),
        {("concat", "0.0003"): {"accuracy": 0.5, "macro_f1": 0.5},
         ("concat", "0.001"): {"accuracy": 0.875, "macro_f1": 0.87},
         ("cross_attention", "0.0003"): {"accuracy": 0.8125, "macro_f1": 0.8},
         ("cross_attention", "0.001"): {"accuracy": 0.75, "macro_f1": 0.75}},
    ),
    "mechanism": (
        ("mechanism",),
        [(("deep_prefix",), _eval_report(0.8, 0.79, bootstrap_std=0.02)),
         (("concat",), _eval_report(0.7, 0.69)),
         (("cross_attention",), _eval_report(0.9, 0.88))],
        """\
mechanism        acc    ma-f1
---------------  -----  -------------
concat           70.00  69.00
cross_attention  90.00  88.00*
deep_prefix      80.00  79.00 (±2.00)
""",
        ("mechanism",),
        {("concat",): {"accuracy": 0.7, "macro_f1": 0.69},
         ("cross_attention",): {"accuracy": 0.9, "macro_f1": 0.88},
         ("deep_prefix",): {"accuracy": 0.8, "macro_f1": 0.79, "bootstrap_std": 0.02}},
    ),
    "backend x strategy": (
        ("strategy", "backend"),
        [((strategy, backend), report) for (backend, strategy), report in _CLIP_CELLS],
        """\
backend  strategy  acc    ma-f1           clip-cos  clip-score
-------  --------  -----  --------------  --------  ----------
sd15     direct    50.00  50.00           0.19      0.47
sd15     keyword   62.50  62.00 (±1.50)   0.25      0.62
sdxl     direct    68.75  68.00 (±1.00)   -         -
sdxl     keyword   75.00  74.00* (±1.25)  0.31      0.78
""",
        ("backend", "strategy"),
        _CLIP_RECORDS,
    ),
    "backend x strategy, one cell short": (
        ("backend", "strategy"),
        _CLIP_CELLS[:3],
        """\
backend  strategy  acc    ma-f1
-------  --------  -----  --------------
sd15     keyword   62.50  62.00 (±1.50)
sdxl     direct    68.75  68.00 (±1.00)
sdxl     keyword   75.00  74.00* (±1.25)
""",
        ("backend", "strategy"),
        {key: metrics for key, metrics in _CLIP_RECORDS.items() if key != ("sd15", "direct")},
    ),
    "strategy x steps": (
        ("steps", "strategy"),
        [(("10", "keyword"), _eval_report(0.7, 0.69)),
         (("10", "direct"), _eval_report(0.6, 0.59)),
         (("4", "direct"), _eval_report(0.8, 0.79, bootstrap_std=0.01))],
        """\
steps  strategy  acc    ma-f1
-----  --------  -----  --------------
4      direct    80.00  79.00* (±1.00)
10     direct    60.00  59.00
10     keyword   70.00  69.00
""",
        ("steps", "strategy"),
        {("4", "direct"): {"accuracy": 0.8, "macro_f1": 0.79, "bootstrap_std": 0.01},
         ("10", "direct"): {"accuracy": 0.6, "macro_f1": 0.59},
         ("10", "keyword"): {"accuracy": 0.7, "macro_f1": 0.69}},
    ),
}


@pytest.mark.parametrize("name", list(_GOLDEN_TABLES))
def test_combined_tables_keep_their_bytes_and_records(name):
    axis_names, cells, table, record_axes, records = _GOLDEN_TABLES[name]
    runs = [(f"cell{i}", dict(zip(axis_names, key)), report) for i, (key, report) in enumerate(cells)]
    assert sweep._combined_table(runs, axis_names, "golden") == (table, [
        {"experiment_id": "golden", "axes": dict(zip(record_axes, key)), "metric": metric, "value": value}
        for key, metrics in records.items() for metric, value in metrics.items()
    ])


def test_two_runs_on_one_key_keep_their_bytes_and_records():
    runs = [("run-b", {"method": "text_only"}, _eval_report(0.5, 0.5)),
            ("run-a", {"method": "text_only"}, _eval_report(0.625, 0.6))]
    table, records = sweep._combined_table(runs, ["method"], "golden")
    assert table == """\
method     run    acc    ma-f1
---------  -----  -----  ------
text_only  run-a  62.50  60.00*
text_only  run-b  50.00  50.00
"""
    assert [(r["axes"], r["metric"], r["value"]) for r in records] == [
        ({"method": "text_only", "run": "run-a"}, "accuracy", 0.625),
        ({"method": "text_only", "run": "run-a"}, "macro_f1", 0.6),
        ({"method": "text_only", "run": "run-b"}, "accuracy", 0.5),
        ({"method": "text_only", "run": "run-b"}, "macro_f1", 0.5),
    ]


def test_sweep_and_report_label_cells_alike(tmp_path, fixture_dataset):
    data = {
        "experiment_id": "lr",
        "dataset": {"path": str(fixture_dataset.dataset_csv), "split_seed": 5,
                    "split_fractions": [0.6, 0.2, 0.2]},
        "output_dir": str(tmp_path / "lr"),
        "providers": {"text": "hash-16", "image": "hash-16"},
        "fusion": {"mechanism": "concat", "model_dim": 8, "heads": 2, "hidden_dim": 12},
        "training": {"batch_size": 16, "max_epochs": 1, "patience": 1},
        "seeds": [0],
    }
    path = tmp_path / "lr.yaml"
    # YAML 1.1 reads 1e-3 (no dot) as the string "1e-3"
    path.write_text(yaml.safe_dump(data) + "sweep:\n  axes:\n    learning_rate: [1e-3, 2e-3]\n")
    config = parse_config(path)
    assert config.sweep_axes == {"learning_rate": ("1e-3", "2e-3")}
    result = run_sweep(config)
    header, rows = _rows(result.table)
    assert [row[0] for row in rows] == ["0.001", "0.002"]
    report = report_cli([c.output_dir for c in result.cells])
    assert report.startswith(result.table)


def test_report_shows_the_first_configured_seed(tmp_path, fixture_dataset):
    registry = ProviderRegistry()
    run_dirs, headline = [], []
    for mechanism in ("concat", "cross_attention"):
        config = _base_config(
            tmp_path, fixture_dataset, out_name=mechanism, seeds=[2, 10],
            fusion={"mechanism": mechanism, "model_dim": 8, "heads": 2, "hidden_dim": 12},
        )
        _, report = run_experiment(config, registry)
        eval_dir = Path(config.output_dir) / "eval"
        seed2, seed10 = (json.loads((eval_dir / f"eval_seed{s}.json").read_text()) for s in (2, 10))
        assert report.accuracy == seed2["accuracy"]
        run_dirs.append(config.output_dir)
        headline.append(seed2)
    assert any(  # the two seeds tell apart which report is shown
        json.loads((Path(d) / "eval" / "eval_seed10.json").read_text())["macro_f1"] != h["macro_f1"]
        for d, h in zip(run_dirs, headline)
    )
    header, rows = _rows(report_cli(run_dirs))
    assert header == ["mechanism", "acc", "ma-f1"]
    assert [row[1] for row in rows] == [f"{h['accuracy'] * 100:.2f}" for h in headline]
    assert [row[2].rstrip("*") for row in rows] == [f"{h['macro_f1'] * 100:.2f}" for h in headline]


# --- split batches shared within a run ------------------------------------------


@pytest.fixture
def pack_loads(monkeypatch):
    """Records what each ``_load_packs`` call returns and how many batches
    ``PackBatch.from_packs`` builds."""
    loads, built = [], []
    load_packs = orchestrator._load_packs
    from_packs = PackBatch.from_packs.__func__

    def recording_load_packs(*args):
        loads.append(load_packs(*args))
        return loads[-1]

    def counting_from_packs(cls, packs, dtype=np.float64):
        built.append(len(packs))
        return from_packs(cls, packs, dtype)

    monkeypatch.setattr(orchestrator, "_load_packs", recording_load_packs)
    monkeypatch.setattr(PackBatch, "from_packs", classmethod(counting_from_packs))
    return SimpleNamespace(loads=loads, built=built)


def _split_outputs(run_dir: Path) -> dict[str, bytes]:
    """What training and evaluation write, by path under the run dir."""
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for pattern in ("eval/*", "train_s*/history.jsonl")
        for p in sorted(run_dir.glob(pattern))
    }


def test_one_run_builds_each_split_batch_once_and_shares_it(tmp_path, fixture_dataset, pack_loads):
    config = _base_config(tmp_path, fixture_dataset, seeds=[0, 1])
    run_experiment(config)
    assert len(pack_loads.built) == 3  # train, validation, test: once each
    training, evaluation = pack_loads.loads
    assert evaluation is training
    for packs in training.values():
        for array in (packs.labels, *vars(packs.batch).values()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_a_run_resumed_after_training_rebuilds_the_batches_and_writes_the_same(
        tmp_path, fixture_dataset, pack_loads):
    whole = _base_config(tmp_path, fixture_dataset, out_name="whole", seeds=[0, 1])
    run_experiment(whole)
    # on a cache of its own, so that no stage of the whole run is reused
    resumed = dataclasses.replace(whole, output_dir=str(tmp_path / "resumed"),
                                  cache_dir=str(tmp_path / "resumed-cache"))
    run_experiment(resumed, until_stage="training")
    run_experiment(resumed)
    assert len(pack_loads.built) == 9  # three builds: the whole run, then each call of the resumed one
    assert pack_loads.loads[2] is not pack_loads.loads[1]
    whole_out = _split_outputs(Path(whole.output_dir))
    assert len(whole_out) == 6  # two seeds: history, eval report, predictions
    assert _split_outputs(Path(resumed.output_dir)) == whole_out


def test_features_rewritten_after_training_are_read_again_by_evaluation(
        tmp_path, fixture_dataset, pack_loads, monkeypatch):
    config = _base_config(tmp_path, fixture_dataset)
    features_path = Path(config.output_dir) / "features.jsonl"
    train = next(stage for stage in orchestrator.STAGES if stage.name == "training")

    def train_then_rewrite(*args):
        artifacts = train.run(*args)
        rows = list(read_jsonl(features_path))
        write_jsonl(features_path, reversed(rows))  # same rows, new order
        return artifacts

    monkeypatch.setattr(orchestrator, "STAGES", tuple(
        dataclasses.replace(stage, run=train_then_rewrite) if stage is train else stage
        for stage in orchestrator.STAGES))
    run_experiment(config)
    training, evaluation = pack_loads.loads
    assert evaluation is not training and len(pack_loads.built) == 6
    assert evaluation["test"].ids == training["test"].ids[::-1]


def test_labels_rewritten_after_training_reach_evaluation(tmp_path, fixture_dataset, monkeypatch):
    config = _base_config(tmp_path, fixture_dataset)
    labels_path = Path(config.output_dir) / "labels.json"
    train = next(stage for stage in orchestrator.STAGES if stage.name == "training")

    def train_then_rename(*args):
        artifacts = train.run(*args)
        names = json.loads(labels_path.read_text())["class_names"]
        labels_path.write_text(json.dumps({"class_names": [f"renamed-{name}" for name in names]}))
        return artifacts

    monkeypatch.setattr(orchestrator, "STAGES", tuple(
        dataclasses.replace(stage, run=train_then_rename) if stage is train else stage
        for stage in orchestrator.STAGES))
    run_experiment(config)
    report = json.loads((Path(config.output_dir) / "eval" / "eval_seed0.json").read_text())
    assert report["per_class"]
    assert all(entry["name"].startswith("renamed-") for entry in report["per_class"])


@pytest.mark.parametrize("method", ["gen_image", "oracle_image", "text_only"])
def test_every_declared_read_has_a_reader_and_an_earlier_writer(tmp_path, fixture_dataset, method):
    assert set(orchestrator._READERS) == {name for stage in orchestrator.STAGES for name in stage.reads}
    manifest, _ = run_experiment(_base_config(tmp_path, fixture_dataset, method=method))
    written = set()
    for stage in orchestrator.STAGES:
        assert set(stage.reads) <= written, f"{stage.name} reads {sorted(set(stage.reads) - written)}"
        written |= set(manifest.stages[stage.name].artifacts)


def _same_batches(kept: dict, fresh: dict) -> None:
    assert kept.keys() == fresh.keys()
    for name in kept:
        a, b = kept[name], fresh[name]
        assert a.ids == b.ids and a.label_space == b.label_space
        for x, y in ((a.labels, b.labels), *zip(vars(a.batch).values(), vars(b.batch).values())):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("method", ["gen_image", "oracle_image", "text_only"])
def test_the_batches_a_run_hands_on_equal_a_fresh_read_of_its_artifacts(
        tmp_path, fixture_dataset, pack_loads, method):
    config = _base_config(tmp_path, fixture_dataset, method=method)
    run_experiment(config)
    run_dir = Path(config.output_dir)
    cache = orchestrator.EmbeddingCache(Path(config.resolved_cache_dir()) / "emb")
    try:
        fresh = orchestrator._read_features((run_dir / "features.jsonl").read_bytes(), cache)
        label_space = orchestrator._READERS["labels.json"]((run_dir / "labels.json").read_bytes(), {})
        _same_batches(pack_loads.loads[0], fresh.batches(label_space))
    finally:
        cache.close()


@pytest.mark.parametrize("method, lookups_per_sample", [("gen_image", 2), ("oracle_image", 1)])
def test_a_warm_run_parses_no_run_artifact_and_reads_each_embedding_once(
        tmp_path, fixture_dataset, monkeypatch, method, lookups_per_sample):
    config = _base_config(tmp_path, fixture_dataset, method=method)
    run_experiment(config)
    samples = len(list(read_jsonl(Path(config.output_dir) / "features.jsonl")))
    warm = dataclasses.replace(config, output_dir=str(tmp_path / "warm"))
    read, parsed, lookups = [], [], []

    def recording_read_jsonl(path):
        read.append(os.path.realpath(path))
        return read_jsonl(path)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("t2ifuse") and getattr(module, "read_jsonl", None) is read_jsonl:
            monkeypatch.setattr(module, "read_jsonl", recording_read_jsonl)
    iter_jsonl = orchestrator.iter_jsonl
    monkeypatch.setattr(orchestrator, "iter_jsonl", lambda data: parsed.append(data) or iter_jsonl(data))
    get = orchestrator.EmbeddingCache.get

    def recording_get(cache, provider_id, key):
        lookups.append((provider_id, key))
        return get(cache, provider_id, key)

    monkeypatch.setattr(orchestrator.EmbeddingCache, "get", recording_get)
    _, report = run_experiment(warm, force=True)
    run_dir = os.path.realpath(warm.output_dir)
    assert report is not None and samples > 0
    assert not [p for p in read if p.startswith(run_dir + os.sep)]
    assert parsed == []
    assert len(lookups) == lookups_per_sample * samples


@pytest.mark.parametrize("dim", [1, 8, 16, 33, 512])
def test_clip_pairs_equal_the_row_by_row_scores_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    image = rng.standard_normal((300, dim)).astype(np.float32)
    text = rng.standard_normal((300, dim)).astype(np.float32)
    cosines, scores = embedding.clip_pairs(image, text)
    assert cosines == [cosine_similarity(i, t) for i, t in zip(image, text)]
    assert scores == [clip_score(i, t) for i, t in zip(image, text)]
    assert all(type(v) is float for v in cosines + scores)


def test_clip_pairs_edge_cases_match_the_row_by_row_scores():
    rng = np.random.default_rng(0)
    image = rng.standard_normal((4, 8)).astype(np.float32)
    text = rng.standard_normal((4, 8)).astype(np.float32)
    assert embedding.clip_pairs(image, text[:, :5]) == ([], [])  # mismatched dims

    zero_image = image.copy()
    zero_image[2] = 0.0
    assert embedding.clip_pairs(zero_image, text) == ([], [])

    zero_text = text.copy()
    zero_text[1] = 0.0
    with pytest.raises(ZeroVectorError):
        cosine_similarity(image[1], zero_text[1])
    with pytest.raises(ZeroVectorError):
        embedding.clip_pairs(image, zero_text)
    with pytest.raises(ZeroVectorError):  # the zero text row comes first
        embedding.clip_pairs(zero_image, zero_text)
    zero_image[0] = 0.0  # now the zero image row comes first
    assert embedding.clip_pairs(zero_image, zero_text) == ([], [])


# --- the images stage: one lookup per key, then the misses in chunks --------------


class _RecordingStub(StubImageBackend):
    """The stub backend, recording the thread of each batch call."""

    def __init__(self):
        super().__init__("flux-schnell")
        self.threads = []

    def generate_many(self, prompts, params):
        self.threads.append(threading.get_ident())
        return super().generate_many(prompts, params)


class _PerItemBackend:
    """The stub's images from ``generate`` alone, so the stage calls it once
    per miss from a pool. Each call sleeps 1-5 ms at random, so calls overlap
    and finish out of order. It counts its calls and the peak number in
    flight, and records each call's thread."""

    backend_id = "flux-schnell"

    def __init__(self):
        self.calls = self.in_flight = self.peak = 0
        self.threads = []
        self._jitter = random.Random(7)
        self._lock = threading.Lock()

    def generate(self, positive, negative, params):
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.threads.append(threading.get_ident())
            delay = self._jitter.uniform(0.001, 0.005)
        try:
            time.sleep(delay)
            return stub_generate(PromptPair(positive, negative), params)
        finally:
            with self._lock:
                self.in_flight -= 1


def _generated(run_dir):
    """(sample id, prompt key, content hash) of each row of ``images.jsonl``."""
    return [(r["sample_id"], r["prompt_key"], r["content_hash"])
            for r in read_jsonl(Path(run_dir) / "images.jsonl")]


def test_a_warm_images_stage_serves_every_hit_in_the_calling_thread(
        tmp_path, fixture_dataset, monkeypatch):
    me = threading.get_ident()
    batch = _RecordingStub()
    registry = ProviderRegistry(backends={"flux-schnell": batch})
    config = _base_config(tmp_path, fixture_dataset)
    run_experiment(config, registry, until_stage="images")
    assert batch.calls == 48 and batch.threads == [me]  # one chunk: one call, from this thread

    started = []
    start = threading.Thread.start
    warm = dataclasses.replace(config, output_dir=str(tmp_path / "warm"))
    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        run_experiment(warm, registry, until_stage="images", force=True)
    assert started == [] and batch.calls == 48  # every hit served here; no thread started
    assert _generated(warm.output_dir) == _generated(config.output_dir)

    per_item = _PerItemBackend()  # concurrency 2, on a cache of its own
    pooled = _base_config(tmp_path / "pooled", fixture_dataset)
    run_experiment(pooled, ProviderRegistry(backends={"flux-schnell": per_item}), until_stage="images")
    assert per_item.calls == 48 and per_item.peak == 2 and me not in per_item.threads
    assert _generated(pooled.output_dir) == _generated(config.output_dir)


def test_the_images_stage_keys_each_row_once_and_looks_up_a_warm_hit_once(
        tmp_path, fixture_dataset, monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def count_then_call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return count_then_call

    key = counted("prompt_key", generation.prompt_key)
    monkeypatch.setattr(generation, "prompt_key", key)
    monkeypatch.setattr(orchestrator, "prompt_key", key)
    monkeypatch.setattr(ImageStore, "lookup", counted("lookup", ImageStore.lookup))
    config = _base_config(tmp_path, fixture_dataset)
    run_experiment(config, until_stage="images")
    cold = list(read_jsonl(Path(config.output_dir) / "images.jsonl"))
    rows = len(cold)
    assert rows > 0 and len({row["prompt_key"] for row in cold}) == rows  # a key per row
    # one lookup per key; storing a miss makes none
    assert calls == {"prompt_key": rows, "lookup": rows}

    calls.clear()
    warm = dataclasses.replace(config, output_dir=str(tmp_path / "warm"))
    run_experiment(warm, until_stage="images", force=True)
    assert calls == {"prompt_key": rows, "lookup": rows}
    assert list(read_jsonl(Path(warm.output_dir) / "images.jsonl")) == cold


@pytest.mark.parametrize("backend", [_RecordingStub, _PerItemBackend])
def test_rows_that_share_a_prompt_generate_it_once_and_log_it_once(tmp_path, fixture_dataset, backend):
    with open(fixture_dataset.dataset_csv, newline="", encoding="utf-8") as fh:
        samples = list(csv.DictReader(fh))
    twins = [dict(sample, id=f"twin{i:03d}") for i, sample in enumerate(samples[::2])]
    shared = tmp_path / "shared.csv"
    with open(shared, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["id", "text", "label"])
        writer.writeheader()
        writer.writerows(samples + twins)
    config = _base_config(tmp_path, dataclasses.replace(fixture_dataset, dataset_csv=shared))
    generator = backend()
    run_experiment(config, ProviderRegistry(backends={"flux-schnell": generator}), until_stage="images")

    images = list(read_jsonl(Path(config.output_dir) / "images.jsonl"))
    keys = [row["prompt_key"] for row in images]
    assert len(images) == len(samples) + len(twins) and len(set(keys)) == len(samples)
    assert generator.calls == len(set(keys))
    ledger = [line["prompt_key"] for line in read_jsonl(Path(config.output_dir) / "ledger.jsonl")]
    assert ledger == list(dict.fromkeys(keys))  # a line per key, in sample order
    records = {}
    for row in images:  # rows that share a key share its record
        record = {name: value for name, value in row.items() if name != "sample_id"}
        assert records.setdefault(row["prompt_key"], record) == record


def _ledger_handles(run_dir) -> list[str]:
    ledger = os.path.realpath(Path(run_dir) / "ledger.jsonl")
    return [p for p in _open_files() if p == ledger]


def test_the_images_stage_opens_its_ledger_once_and_closes_it(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    ledger = os.path.realpath(Path(config.output_dir) / "ledger.jsonl")
    with _recording_opens() as opened:
        run_experiment(config, until_stage="images")
    assert opened.count(ledger) == 1 and not _ledger_handles(config.output_dir)
    lines = list(read_jsonl(Path(ledger)))
    images = list(read_jsonl(Path(config.output_dir) / "images.jsonl"))
    assert sorted(line["content_hash"] for line in lines) == sorted(r["content_hash"] for r in images)


class _FailingBackend:
    """Generates ``good`` images, then fails for good."""

    backend_id = "flux-schnell"

    def __init__(self, good):
        self.good = good
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, positive, negative, params):
        with self._lock:
            self.calls += 1
            if self.calls > self.good:
                raise GenerationError("backend is gone")
        return stub_generate(PromptPair(positive, negative), params)


class _FailingBatchBackend(_FailingBackend):
    """A batch backend that returns ``good`` images, then empty ones."""

    def generate_many(self, prompts, params):
        images = []
        for prompt in prompts:
            try:
                images.append(self.generate(prompt.positive, prompt.negative, params))
            except GenerationError:
                images.append(b"")
        return images


def test_a_failed_images_stage_closes_its_ledger(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    registry = ProviderRegistry(backends={"flux-schnell": _FailingBackend(good=5)})
    with pytest.raises(GenerationError, match="backend is gone"):
        run_experiment(config, registry)
    assert RunManifest.load(Path(config.output_dir)).stages["images"].status == "failed"
    assert not _ledger_handles(config.output_dir)
    assert len(list(read_jsonl(Path(config.output_dir) / "ledger.jsonl"))) == 5


def test_a_failed_batch_stores_and_logs_every_image_it_returned(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    failing = _FailingBatchBackend(good=5)
    with pytest.raises(GenerationError, match="empty image bytes"):
        run_experiment(config, ProviderRegistry(backends={"flux-schnell": failing}))
    assert RunManifest.load(Path(config.output_dir)).stages["images"].status == "failed"
    assert not _ledger_handles(config.output_dir)
    assert len(list(read_jsonl(Path(config.output_dir) / "ledger.jsonl"))) == 5

    working = StubImageBackend("flux-schnell")  # a resume pays only for the images not stored
    manifest, _ = run_experiment(config, ProviderRegistry(backends={"flux-schnell": working}))
    assert manifest.stages["images"].status == "done" and working.calls == 48 - 5


# --- the embeddings stage: one lookup per key, then the misses in batches ---------


class _PerItemEncoder:
    """A ``hash-16`` encoder with only the one-item methods, so the stage
    calls it once per miss from a pool. With ``jitter`` each call sleeps
    1-5 ms at random, so the items of a chunk finish out of order. It counts
    its calls and the peak number in flight, and fails on the item
    ``fail_on``. With ``learn_dim`` its dim is ``None`` until its first call
    returns, as a remote encoder's is."""

    provider_id = "hash-16"

    def __init__(self, *, jitter=True, fail_on=None, learn_dim=False):
        self._inner = HashProjectionProvider("hash-16", 16)
        self.dim = None if learn_dim else 16
        self._jitter = random.Random(5) if jitter else None
        self.fail_on = fail_on
        self.calls = self.finished = self.in_flight = self.peak = 0
        self.started_before_the_first_finished = 0
        self._lock = threading.Lock()

    def _call(self, encode, item):
        with self._lock:
            self.calls += 1
            if self.calls > 1 and self.finished == 0:
                self.started_before_the_first_finished += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            delay = self._jitter.uniform(0.001, 0.005) if self._jitter else 0.0
        try:
            time.sleep(delay)
            if item == self.fail_on:
                raise ProviderError(f"encoder failed on {item!r}")
            output = encode(item)
            self.dim = 16
            return output
        finally:
            with self._lock:
                self.in_flight -= 1
                self.finished += 1

    def encode_text(self, text):
        return self._call(self._inner.encode_text, text)

    def encode_image(self, data):
        return self._call(self._inner.encode_image, data)


def _cache_records(root: Path) -> set[tuple[str, bytes, bytes]]:
    """(log, key digest, payload) of every record in the logs under ``root``."""
    header = storage._RECORD_HEADER
    records = set()
    for segment in root.rglob("*.seg"):
        data, pos = segment.read_bytes(), 0
        while pos < len(data):
            _, digest, length, _ = header.unpack_from(data, pos)
            pos += header.size
            records.add((segment.parent.name, digest, data[pos:pos + length]))
            pos += length
    return records


@pytest.mark.parametrize("method", ["text_only", "oracle_image", "gen_image"])
def test_batched_pooled_and_serial_misses_write_the_same_features_and_cache(
        tmp_path, fixture_dataset, monkeypatch, method):
    monkeypatch.setattr(generation, "CHUNK", 5)  # several chunks, the last one short
    emb_root = tmp_path / "cache" / "emb"
    features, records = {}, {}
    for way, encoder, concurrency in (
        ("batch", None, 2),  # hash-16's encode_texts / encode_images
        ("pool", _PerItemEncoder, 2),  # one call per item, finishing out of order
        ("serial", lambda: _PerItemEncoder(jitter=False), 1),
    ):
        registry = ProviderRegistry()
        if encoder is not None:
            registry.text_providers["hash-16"] = encoder()
            registry.image_providers["hash-16"] = encoder()
        config = _base_config(tmp_path, fixture_dataset, out_name=way, method=method,
                              generation={"backend": "flux-schnell", "concurrency": concurrency})
        run_experiment(config, registry, force=True)  # the pointers of the last way's stages stay
        providers = [*registry.text_providers.values(), *registry.image_providers.values()]
        calls = sum(p.calls for p in providers)
        assert calls > 0
        run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / f"{way}-warm")), registry,
                       force=True)
        assert sum(p.calls for p in providers) == calls  # a warm run calls no encoder
        features[way] = (Path(config.output_dir) / "features.jsonl").read_bytes()
        records[way] = _cache_records(emb_root)
        emb_root.rename(tmp_path / f"emb-{way}")  # the next way starts on a cold embedding cache
    assert features["batch"] == features["pool"] == features["serial"]
    assert records["batch"] == records["pool"] == records["serial"] != set()

    # ... which is what the one-item API writes, sample by sample
    provider = HashProjectionProvider("hash-16", 16)
    reference = EmbeddingCache(emb_root)
    store = ImageStore(tmp_path / "cache" / "images")
    try:
        for row in read_jsonl(tmp_path / "batch" / "prompts.jsonl"):
            embed_text(row["effective_text"], provider, reference)
        for row in read_jsonl(tmp_path / "batch" / "images.jsonl"):
            embed_image(store.get(row["prompt_key"]), provider, reference)
    finally:
        reference.close()
        store.close()
    assert _cache_records(emb_root) == records["batch"]


@pytest.mark.parametrize("stage", ["images", "embeddings"])
def test_a_cold_stage_stores_each_chunk_with_one_write(tmp_path, fixture_dataset, monkeypatch, stage):
    monkeypatch.setattr(generation, "CHUNK", 5)  # one constant for both stages
    config = _base_config(tmp_path, fixture_dataset)
    run_experiment(config, until_stage="prompts" if stage == "images" else "images")
    cache = os.path.realpath(config.resolved_cache_dir())
    writes = collections.Counter()
    write = os.write

    def recording_write(fd, data):
        log = os.path.relpath(os.path.dirname(os.readlink(f"/proc/self/fd/{fd}")), cache)
        if log.startswith(("images", "emb")):
            writes[log] += 1
        return write(fd, data)

    monkeypatch.setattr(os, "write", recording_write)
    run_experiment(config, until_stage=stage)
    images = list(read_jsonl(Path(config.output_dir) / "images.jsonl"))
    assert len({row["prompt_key"] for row in images}) == 48
    chunks = -(-48 // 5)
    if stage == "images":  # one write per chunk to each log, not one per image
        assert writes == {"images/data": chunks, "images/meta": chunks}
    else:  # one write per chunk of texts and per chunk of images, not one per vector
        features = list(read_jsonl(Path(config.output_dir) / "features.jsonl"))
        assert len({row["text_key"] for row in features}) == len({row["image"]["key"] for row in features}) == 48
        assert writes == {"emb/hash-16": 2 * chunks}


def test_a_failed_item_fails_the_stage_and_a_resume_encodes_only_what_is_missing(
        tmp_path, fixture_dataset, monkeypatch):
    monkeypatch.setattr(generation, "CHUNK", 5)
    config = _base_config(tmp_path, fixture_dataset, method="text_only")
    run_experiment(config, until_stage="images")
    texts = sorted({r["effective_text"] for r in read_jsonl(Path(config.output_dir) / "prompts.jsonl")})
    encoder = _PerItemEncoder(fail_on=texts[len(texts) // 2])
    registry = ProviderRegistry(text_providers={"hash-16": encoder})
    with pytest.raises(ProviderError, match="encoder failed"):
        run_experiment(config, registry)
    stage = RunManifest.load(Path(config.output_dir)).stages["embeddings"]
    assert stage.status == "failed" and stage.reason.startswith("ProviderError: ")

    cache = EmbeddingCache(Path(config.resolved_cache_dir()) / "emb")
    try:
        missing = [t for t in texts if cache.get("hash-16", embedding.text_key(t)) is None]
    finally:
        cache.close()
    assert 0 < len(missing) < len(texts)  # the chunks before the failure were kept
    encoder.fail_on, calls = None, encoder.calls
    manifest, report = run_experiment(config, registry)
    assert manifest.stages["embeddings"].status == "done" and report is not None
    assert encoder.calls - calls == len(missing)


@pytest.mark.parametrize("learn_dim", [False, True])
def test_the_pool_runs_at_the_configured_concurrency(tmp_path, fixture_dataset, learn_dim):
    encoder = _PerItemEncoder(learn_dim=learn_dim)
    registry = ProviderRegistry(text_providers={"hash-16": encoder})
    config = _base_config(tmp_path, fixture_dataset, method="oracle_image",
                          generation={"backend": "flux-schnell", "concurrency": 2})
    run_experiment(config, registry, until_stage="embeddings")
    texts = {r["text_key"] for r in read_jsonl(Path(config.output_dir) / "features.jsonl")}
    assert encoder.calls == len(texts) > 2
    assert encoder.peak == 2
    if learn_dim:  # its first call runs alone, and teaches it its dim
        assert encoder.started_before_the_first_finished == 0 and encoder.dim == 16

