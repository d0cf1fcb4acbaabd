import collections
import contextlib
import dataclasses
import hashlib
import json
import os
import re
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from t2ifuse.cli import main as cli_main
from t2ifuse.config import parse_config, parse_config_data
from t2ifuse.corpus import TextSample
from t2ifuse import generation, orchestrator
from t2ifuse.embedding import (
    HashProjectionProvider,
    ImageContentError,
    ZeroVectorError,
    clip_score,
    cosine_similarity,
)
from t2ifuse.fusion import PackBatch
from t2ifuse.generation import GenerationError, ImageStore, PromptPair, StubImageBackend, stub_generate
from t2ifuse.orchestrator import (
    ComposeHelpers,
    KeywordOverlapRetriever,
    OfflineViolationError,
    OrchestrationError,
    ProviderRegistry,
    RunManifest,
    compose_input,
    report_cli,
    run_experiment,
    run_sweep,
    SweepError,
    _descriptor,
)
from t2ifuse.prompting import StubChatClient, VISUAL_DESCRIPTION_SYSTEM
from t2ifuse.remotes import HttpChatClient, HttpEmbeddingProvider, HttpImageBackend
from t2ifuse.storage import read_jsonl, write_jsonl
from t2ifuse.synthetic import build_separability_fixture


# --- compose_input -----------------------------------------------------------

def _sample(text="a bright red kettle on the stove", sid="s1"):
    return TextSample(id=sid, text=text, label=0)


def test_compose_text_only_is_identity():
    out = compose_input(_sample(), "text_only", ComposeHelpers())
    assert out.effective_text == "a bright red kettle on the stove"
    assert out.image_source == "none"
    assert out.fallback is None


def test_compose_textual_expansion_appends_description():
    client = StubChatClient(response="A red vacuum on a wooden floor.")
    out = compose_input(_sample(), "textual_expansion", ComposeHelpers(elaborator=client))
    assert out.effective_text == (
        "a bright red kettle on the stove A red vacuum on a wooden floor."
    )
    assert client.requests[0][0] == VISUAL_DESCRIPTION_SYSTEM
    with pytest.raises(OrchestrationError):
        compose_input(_sample(), "textual_expansion", ComposeHelpers())


def test_compose_truncates_after_appending():
    client = StubChatClient(response="tail " * 50)
    out = compose_input(
        _sample(), "textual_expansion", ComposeHelpers(elaborator=client, max_tokens=10)
    )
    assert len(out.effective_text.split()) == 10


def test_compose_gen_image_requests_generation():
    out = compose_input(_sample(), "gen_image", ComposeHelpers())
    assert out.image_source == "generate"
    assert out.effective_text == _sample().text
    oracle = compose_input(_sample(), "oracle_image", ComposeHelpers())
    assert oracle.image_source == "oracle"


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
    out = compose_input(
        TextSample(id="q", text="my kettles whistle loudly", label=0),
        "knowledge_retrieval",
        ComposeHelpers(retriever=retriever),
    )
    assert "boiling water" in out.effective_text
    assert out.fallback is None

    miss = compose_input(
        TextSample(id="q2", text="quantum flux capacitor", label=0),
        "knowledge_retrieval",
        ComposeHelpers(retriever=retriever),
    )
    assert miss.fallback == "retrieval_miss"
    assert miss.effective_text == "quantum flux capacitor"


def _rescan_retrieve(documents, keywords):
    """The reference loop: every document split and stripped again on each query."""
    terms = {w.lower() for phrase in keywords for w in phrase.split()}
    best_score, best_doc = 0, None
    for doc in documents:
        score = len(terms & {w.strip(".,;:!?").lower() for w in doc.split()})
        if score > best_score:
            best_score, best_doc = score, doc
    return best_doc


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
    run_experiment(config_b, registry)
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

    run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / "warm")))
    assert _segments(config) == cold  # no new segment, and not one byte appended
    assert len(_open_files()) == open_before
    assert not set(_open_files()) & set(cold)


def _log_segments(config, cache):
    """Each record segment of the run's ``images`` or ``chat`` cache, by real path, with its size."""
    root = Path(config.resolved_cache_dir()) / cache / "log"
    return {os.path.realpath(p): p.stat().st_size for p in root.glob("*.seg")}


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
    for stage, cache, suffix in (("prompts", "chat", ".txt"), ("images", "images", ".bin")):
        synced.clear()
        run_experiment(config, until_stage=stage)
        payloads = sorted(os.path.realpath(p) for p in Path(cache_root, cache).rglob(f"*{suffix}"))
        assert len(payloads) > 1
        in_cache = [p for p in synced if p.startswith(cache_root + os.sep)]
        assert sorted(p for p in in_cache if p.endswith(".seg")) == sorted(_log_segments(config, cache)) != []
        # each payload once, fsynced under its temp name before the rename
        assert sorted(re.sub(r"\.\d+\.\d+\.tmp$", "", p) for p in in_cache if not p.endswith(".seg")) == payloads
        assert all(p.startswith(run_dir + os.sep) for p in synced if p not in in_cache)
    logs = {cache: _log_segments(config, cache) for cache in ("chat", "images")}

    run_experiment(config)
    run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / "warm")))
    assert {cache: _log_segments(config, cache) for cache in ("chat", "images")} == logs


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


def test_a_warm_gen_image_run_opens_no_image_payload(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    run_experiment(config)
    images = os.path.realpath(Path(config.resolved_cache_dir()) / "images")
    with _recording_opens() as opened:
        run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / "warm")))
    opened = [p for p in opened if p.startswith(images + os.sep)]
    assert opened and all(p.endswith(".seg") for p in opened)  # the record log, never an image


def test_a_tampered_image_fails_the_embeddings_stage(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    run_experiment(config, until_stage="images")
    row = next(read_jsonl(Path(config.output_dir) / "images.jsonl"))
    Path(row["image_ref"]).write_bytes(b"not the generated image")
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
    for stage, fn in orchestrator._STAGE_FUNCS.items():
        def recording(*args, _stage=stage, _fn=fn):
            ran.append(_stage)
            return _fn(*args)
        monkeypatch.setitem(orchestrator._STAGE_FUNCS, stage, recording)
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

    (run_dir / "prompts_summary.json").unlink()
    (run_dir / "prompts_summary.json").mkdir()  # a directory where an artifact was
    assert RunManifest.load(run_dir).stage_verified("prompts", run_dir) is False


def test_run_rejects_mismatched_config_hash(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    run_experiment(config, until_stage="prompts")
    changed = dataclasses.replace(config, strategy="direct")
    with pytest.raises(OrchestrationError, match="different config"):
        run_experiment(changed)


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
    run_experiment(config_b, registry)
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
    assert names[0] == "dataset=" + short.replace("/", "_")  # an id that fits is kept as it is
    assert len(set(names)) == 3 and all(len(n.encode()) <= 255 for n in names)
    assert names[1][:200] == names[2][:200] == "dataset=" + long_paths[0].replace("/", "_")[:192]


def test_sweep_empty_axis_errors(tmp_path, fixture_dataset):
    base = _base_config(tmp_path, fixture_dataset, out_name="sweep2")
    with pytest.raises(SweepError):
        run_sweep(base, {})
    with pytest.raises(SweepError):
        run_sweep(base, {"strategy": []})
    with pytest.raises(SweepError, match="unknown sweep axis 'seed'"):
        run_sweep(base, {"seed": [1, 2]})


def test_sweep_failure_isolation(tmp_path, fixture_dataset):
    base = _base_config(tmp_path, fixture_dataset, out_name="sweep3")
    result = run_sweep(base, {"mechanism": ["cross_attention", "not_a_mechanism"]})
    statuses = {c.axes["mechanism"]: c.status for c in result.cells}
    assert statuses["cross_attention"] == "done"
    assert statuses["not_a_mechanism"] == "failed"
    assert result.table is None or "cross_attention" in result.table


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

    # 4. otherwise the offline default; an encoder has none
    if default_type is None:
        with pytest.raises(OrchestrationError, match=f"unknown {kind} provider 'plain'"):
            resolve(ProviderRegistry(), "plain")
    else:
        default = resolve(ProviderRegistry(), "plain")
        assert type(default) is default_type
        assert getattr(default, "backend_id", getattr(default, "client_id", None)) == "plain"


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
        assert json.dumps(_descriptor(config), sort_keys=True) == expected


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
    resumed = dataclasses.replace(whole, output_dir=str(tmp_path / "resumed"))
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
    train = orchestrator._STAGE_FUNCS["training"]

    def train_then_rewrite(*args):
        artifacts = train(*args)
        rows = list(read_jsonl(features_path))
        write_jsonl(features_path, reversed(rows))  # same rows, new order
        return artifacts

    monkeypatch.setitem(orchestrator._STAGE_FUNCS, "training", train_then_rewrite)
    run_experiment(config)
    training, evaluation = pack_loads.loads
    assert evaluation is not training and len(pack_loads.built) == 6
    assert evaluation["test"].ids == training["test"].ids[::-1]


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
        _same_batches(pack_loads.loads[0], fresh.batches(orchestrator._load_label_space(run_dir)))
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
    monkeypatch.setattr(orchestrator.EmbeddingCache, "get",
                        lambda cache, *key: lookups.append(key) or get(cache, *key))
    _, report = run_experiment(warm)
    run_dir = os.path.realpath(warm.output_dir)
    assert report is not None and samples > 0
    assert not [p for p in read if p.startswith(run_dir + os.sep)]
    assert parsed == []
    assert len(lookups) == lookups_per_sample * samples


def _pooled(image, text):
    return SimpleNamespace(batch=SimpleNamespace(image_pooled=image, text_pooled=text))


@pytest.mark.parametrize("dim", [1, 8, 16, 33, 512])
def test_clip_pairs_equal_the_row_by_row_scores_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    image = rng.standard_normal((300, dim)).astype(np.float32)
    text = rng.standard_normal((300, dim)).astype(np.float32)
    cosines, scores = orchestrator._clip_pairs(_pooled(image, text))
    assert cosines == [cosine_similarity(i, t) for i, t in zip(image, text)]
    assert scores == [clip_score(i, t) for i, t in zip(image, text)]
    assert all(type(v) is float for v in cosines + scores)


def test_clip_pairs_edge_cases_match_the_row_by_row_scores():
    rng = np.random.default_rng(0)
    image = rng.standard_normal((4, 8)).astype(np.float32)
    text = rng.standard_normal((4, 8)).astype(np.float32)
    assert orchestrator._clip_pairs(_pooled(image, text[:, :5])) == ([], [])  # mismatched dims

    zero_image = image.copy()
    zero_image[2] = 0.0
    assert orchestrator._clip_pairs(_pooled(zero_image, text)) == ([], [])

    zero_text = text.copy()
    zero_text[1] = 0.0
    with pytest.raises(ZeroVectorError):
        cosine_similarity(image[1], zero_text[1])
    with pytest.raises(ZeroVectorError):
        orchestrator._clip_pairs(_pooled(image, zero_text))
    with pytest.raises(ZeroVectorError):  # the zero text row comes first
        orchestrator._clip_pairs(_pooled(zero_image, zero_text))
    zero_image[0] = 0.0  # now the zero image row comes first
    assert orchestrator._clip_pairs(_pooled(zero_image, zero_text)) == ([], [])


# --- the images stage -------------------------------------------------------------


def test_a_warm_images_stage_serves_every_hit_in_the_calling_thread(
        tmp_path, fixture_dataset, monkeypatch):
    config = _base_config(tmp_path, fixture_dataset)
    threads = []
    generate_image = orchestrator.generate_image

    def recording_generate_image(*args, **kwargs):
        threads.append(threading.get_ident())
        return generate_image(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "generate_image", recording_generate_image)
    run_experiment(config, until_stage="images")
    assert len(threads) == 48 and threading.get_ident() not in threads  # misses: the pool

    threads.clear()
    warm = dataclasses.replace(config, output_dir=str(tmp_path / "warm"))
    run_experiment(warm, until_stage="images")
    assert threads == [threading.get_ident()] * 48
    cold_rows = list(read_jsonl(Path(config.output_dir) / "images.jsonl"))
    assert list(read_jsonl(Path(warm.output_dir) / "images.jsonl")) == cold_rows


def test_an_image_deleted_after_the_stage_finds_it_is_generated_again(
        tmp_path, fixture_dataset, monkeypatch):
    config = _base_config(tmp_path, fixture_dataset)
    registry = ProviderRegistry()
    run_experiment(config, registry, until_stage="images")
    backend = registry.backends["flux-schnell"]
    calls = backend.calls
    deleted = []
    has = ImageStore.has

    def has_then_lose_the_payload(store, key):
        found = has(store, key)
        if found and not deleted:
            store.path_for(key).unlink()  # another process cleans the cache right here
            deleted.append(key)
        return found

    monkeypatch.setattr(ImageStore, "has", has_then_lose_the_payload)
    warm = dataclasses.replace(config, output_dir=str(tmp_path / "warm"))
    run_experiment(warm, registry, until_stage="images")
    assert backend.calls == calls + 1
    [row] = [r for r in read_jsonl(Path(warm.output_dir) / "images.jsonl") if r["prompt_key"] == deleted[0]]
    assert hashlib.sha256(Path(row["image_ref"]).read_bytes()).hexdigest() == row["content_hash"]
    [ledger_line] = read_jsonl(Path(warm.output_dir) / "ledger.jsonl")
    assert ledger_line["prompt_key"] == deleted[0]


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
    monkeypatch.setattr(ImageStore, "has", counted("has", ImageStore.has))
    monkeypatch.setattr(ImageStore, "get_meta", counted("get_meta", ImageStore.get_meta))
    config = _base_config(tmp_path, fixture_dataset)
    run_experiment(config, until_stage="images")
    cold = list(read_jsonl(Path(config.output_dir) / "images.jsonl"))
    rows = len(cold)
    assert rows > 0 and calls["prompt_key"] == rows

    calls.clear()
    warm = dataclasses.replace(config, output_dir=str(tmp_path / "warm"))
    run_experiment(warm, until_stage="images")
    assert calls == {"prompt_key": rows, "has": rows, "get_meta": rows}
    assert list(read_jsonl(Path(warm.output_dir) / "images.jsonl")) == cold


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


def test_a_failed_images_stage_closes_its_ledger(tmp_path, fixture_dataset):
    config = _base_config(tmp_path, fixture_dataset)
    registry = ProviderRegistry(backends={"flux-schnell": _FailingBackend(good=5)})
    with pytest.raises(GenerationError, match="backend is gone"):
        run_experiment(config, registry)
    assert RunManifest.load(Path(config.output_dir)).stages["images"].status == "failed"
    assert not _ledger_handles(config.output_dir)
    assert len(list(read_jsonl(Path(config.output_dir) / "ledger.jsonl"))) == 5
