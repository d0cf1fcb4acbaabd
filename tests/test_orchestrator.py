import dataclasses
import hashlib
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from t2ifuse.cli import main as cli_main
from t2ifuse.config import parse_config, parse_config_data
from t2ifuse.corpus import TextSample
from t2ifuse.embedding import HashProjectionProvider
from t2ifuse.generation import StubImageBackend
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
        features = [json.loads(line) for line in (Path(config.output_dir) / "features.jsonl").open()]
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
    features = [json.loads(line) for line in (Path(config.output_dir) / "features.jsonl").open()]
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
