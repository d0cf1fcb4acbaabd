"""Reuse of a finished stage by fingerprint: what it serves, what it refuses,
and whether each stage's declarations cover what it reads."""

import copy
import dataclasses
import datetime
import functools
import json
import logging
import os
import shutil
from pathlib import Path

import pytest
import yaml

from t2ifuse import orchestrator, storage, sweep
from t2ifuse.cli import main as cli_main
from t2ifuse.config import EXECUTION_FIELDS, parse_config_data
from t2ifuse.corpus import DatasetError
from t2ifuse.generation import StubImageBackend
from t2ifuse.orchestrator import STAGES, ProviderRegistry, RunManifest, Stage, StageStatus, run_experiment
from t2ifuse.prompting import StubChatClient
from t2ifuse.sweep import run_sweep
from t2ifuse.storage import read_jsonl, write_jsonl
from t2ifuse.synthetic import build_separability_fixture

from test_config import SETTABLE_FIELDS

STAGE_NAMES = [stage.name for stage in STAGES]


@pytest.fixture
def fix(tmp_path):
    return build_separability_fixture(tmp_path / "data", samples_per_class=8, seed=3)


def _data(tmp_path, fix, out="run", **overrides) -> dict:
    data = {
        "experiment_id": "reuse",
        "dataset": {"path": str(fix.dataset_csv), "split_seed": 5, "split_fractions": [0.5, 0.25, 0.25]},
        "output_dir": str(tmp_path / out),
        "cache_dir": str(tmp_path / "cache"),
        "method": "gen_image",
        "strategy": "keyword",
        "generation": {"backend": "flux-schnell"},
        "providers": {"text": "hash-16", "image": "hash-16", "oracle_features": str(fix.oracle_features)},
        "fusion": {"mechanism": "cross_attention", "model_dim": 8, "heads": 2, "hidden_dim": 12},
        "training": {"learning_rate": 3e-2, "batch_size": 8, "max_epochs": 3, "patience": 2},
        "evaluation": {"bootstrap_resamples": 20},
        "seeds": [0],
    }
    data.update(overrides)
    return data


def _config(tmp_path, fix, out="run", **overrides):
    return parse_config_data(_data(tmp_path, fix, out, **overrides))


def _registry() -> ProviderRegistry:
    return ProviderRegistry(
        backends={"flux-schnell": StubImageBackend("flux-schnell")},
        chat_clients={"stub-chat": StubChatClient(),
                      "other-chat": StubChatClient(response="a quiet harbour", client_id="other-chat")},
    )


def _files(run_dir) -> dict[str, bytes]:
    """Every artifact the run's manifest lists, with its bytes."""
    run_dir = Path(run_dir)
    manifest = RunManifest.load(run_dir)
    return {rel: (run_dir / rel).read_bytes()
            for status in manifest.stages.values() for rel in status.artifacts}


def _digests(run_dir) -> dict[str, dict[str, str]]:
    manifest = RunManifest.load(Path(run_dir))
    return {name: status.artifacts for name, status in manifest.stages.items()}


def _reused(run_dir) -> dict[str, str | None]:
    manifest = RunManifest.load(Path(run_dir))
    return {name: status.reused_from for name, status in manifest.stages.items()}


def _pointer(config, stage: str) -> str:
    fingerprint = RunManifest.load(Path(config.output_dir)).stages[stage].fingerprint
    return (config.resolved_cache_dir() / "stages" / fingerprint).read_text(encoding="utf-8")


def _calls(registry) -> int:
    return sum(p.calls for table in (registry.backends, registry.text_providers, registry.image_providers)
               for p in table.values())


def _segments(config) -> dict[str, int]:
    root = config.resolved_cache_dir()
    return {str(p): p.stat().st_size for p in root.rglob("*.seg")}


def _record_runs(monkeypatch) -> list[str]:
    """The names of the stages that run from now on, in run order."""
    ran = []

    def recording(stage):
        def run(*args):
            ran.append(stage.name)
            return stage.run(*args)
        return dataclasses.replace(stage, run=run)

    monkeypatch.setattr(orchestrator, "STAGES", tuple(map(recording, STAGES)))
    return ran


# --- what a reused run serves ----------------------------------------------------


@pytest.mark.parametrize("method, mechanism", [
    ("gen_image", "concat"), ("oracle_image", "cross_attention"), ("text_only", "cross_attention")])
def test_cold_reused_and_forced_runs_list_the_same_artifacts_and_bytes(tmp_path, fix, method, mechanism):
    registry = _registry()
    fusion = {"mechanism": mechanism, "model_dim": 8, "heads": 2, "hidden_dim": 12}
    cold = _config(tmp_path, fix, "cold", method=method, fusion=fusion)
    run_experiment(cold, registry)
    segments, calls = _segments(cold), _calls(registry)

    warm = dataclasses.replace(cold, output_dir=str(tmp_path / "warm"))
    run_experiment(warm, registry)
    assert _reused(warm.output_dir) == dict.fromkeys(STAGE_NAMES, os.path.abspath(cold.output_dir))
    assert _segments(cold) == segments and _calls(registry) == calls  # no record appended, no call
    assert not (Path(warm.output_dir) / "ledger.jsonl").exists()

    forced = dataclasses.replace(cold, output_dir=str(tmp_path / "forced"))
    run_experiment(forced, registry, force=True)  # reuses nothing, and each stage it runs leaves its pointer
    assert _reused(forced.output_dir) == dict.fromkeys(STAGE_NAMES)
    assert all(_pointer(forced, stage) == os.path.abspath(forced.output_dir) for stage in STAGE_NAMES)
    assert _calls(registry) == calls  # every item a cache hit

    assert _digests(cold.output_dir) == _digests(warm.output_dir) == _digests(forced.output_dir)
    assert _files(cold.output_dir) == _files(warm.output_dir) == _files(forced.output_dir)
    images = (Path(cold.output_dir) / "images.jsonl").read_bytes()
    assert (Path(warm.output_dir) / "images.jsonl").read_bytes() == images
    assert (Path(forced.output_dir) / "images.jsonl").read_bytes() == images


def test_a_reused_run_opens_no_cache_log_and_no_oracle_file(tmp_path, fix, monkeypatch):
    config = _config(tmp_path, fix, method="oracle_image")
    run_experiment(config)
    opened = []
    monkeypatch.setattr(storage.SegmentLog, "_scan", lambda log: opened.append(log))
    monkeypatch.setattr(orchestrator, "OracleFeatureProvider", lambda path: opened.append(path))
    _, report = run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / "warm")))
    assert report is not None and opened == []


def test_a_reused_artifact_is_a_link_to_the_producers_file(tmp_path, fix):
    config = _config(tmp_path, fix, method="text_only")
    run_experiment(config)
    warm = dataclasses.replace(config, output_dir=str(tmp_path / "warm"))
    run_experiment(warm)
    for rel in _files(config.output_dir):
        assert os.path.samefile(Path(config.output_dir) / rel, Path(warm.output_dir) / rel), rel
    assert not [p for p in Path(warm.output_dir).rglob("*") if ".reuse" in p.name or p.suffix == ".tmp"]


def test_a_copy_serves_where_a_link_fails(tmp_path, fix, monkeypatch):
    config = _config(tmp_path, fix, method="text_only")
    run_experiment(config)

    def cross_device(src, dst):
        raise OSError(18, "Invalid cross-device link")

    monkeypatch.setattr(os, "link", cross_device)
    warm = dataclasses.replace(config, output_dir=str(tmp_path / "warm"))
    run_experiment(warm)
    assert all(_reused(warm.output_dir).values())
    assert _files(warm.output_dir) == _files(config.output_dir)
    assert not os.path.samefile(Path(config.output_dir) / "report.txt", Path(warm.output_dir) / "report.txt")


def test_a_reuse_whose_link_and_copy_both_fail_runs_the_stage_and_leaves_no_temp(tmp_path, fix, monkeypatch):
    config = _config(tmp_path, fix, method="text_only")
    run_experiment(config)

    def cross_device(src, dst):
        raise OSError(18, "Invalid cross-device link")

    def disk_full(src, dst):
        Path(dst).write_bytes(b"part")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "link", cross_device)
    monkeypatch.setattr(shutil, "copyfile", disk_full)
    warm = dataclasses.replace(config, output_dir=str(tmp_path / "warm"))
    run_experiment(warm)
    assert _reused(warm.output_dir) == dict.fromkeys(STAGE_NAMES)
    assert _files(warm.output_dir) == _files(config.output_dir)
    assert not [p for p in Path(warm.output_dir).rglob("*") if ".reuse" in p.name]


def test_an_unknown_stage_to_stop_after_is_refused_before_the_run_directory_is_made(tmp_path, fix):
    config = _config(tmp_path, fix, method="text_only")
    with pytest.raises(orchestrator.OrchestrationError, match="unknown stage 'nope'"):
        run_experiment(config, until_stage="nope")
    assert not Path(config.output_dir).exists()


def test_a_finished_run_without_its_summary_is_reported_as_having_no_evaluation_artifacts(tmp_path, fix):
    config = _config(tmp_path, fix, method="text_only")
    run_experiment(config)
    (Path(config.output_dir) / "summary.json").unlink()
    out = sweep.report_cli([config.output_dir])
    assert out == f"skipped runs:\n  {config.output_dir}: no evaluation artifacts\n\n"


@pytest.mark.parametrize("method", ["oracle_image", "gen_image", "text_only"])
def test_a_single_run_is_reported_by_its_table_after_its_report_txt_is_gone(tmp_path, fix, method):
    config = _config(tmp_path, fix, method=method, seeds=[2, 0])
    run_experiment(config)
    report_txt = Path(config.output_dir) / "report.txt"
    table = report_txt.read_text(encoding="utf-8")
    report_txt.unlink()
    assert sweep.report_cli([config.output_dir]).startswith(table.rstrip() + "\n\ngenerated images: ")


def test_resuming_stage_by_stage_on_top_of_reuse_gives_the_same_files(tmp_path, fix):
    config = _config(tmp_path, fix)
    run_experiment(config)
    staged = dataclasses.replace(config, output_dir=str(tmp_path / "staged"))
    for stage in STAGE_NAMES:
        manifest, _ = run_experiment(staged, until_stage=stage)
        assert [s for s in STAGE_NAMES if manifest.stages[s].status == "done"] == \
            STAGE_NAMES[:STAGE_NAMES.index(stage) + 1]
    assert _reused(staged.output_dir) == dict.fromkeys(STAGE_NAMES, os.path.abspath(config.output_dir))
    assert _files(staged.output_dir) == _files(config.output_dir)


def test_a_resume_under_an_edited_source_reruns_every_stage_and_points_to_each(
        tmp_path, fix, monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="t2ifuse.orchestrator")
    config = _config(tmp_path, fix, method="text_only")
    run_experiment(config, until_stage="embeddings")
    store = config.resolved_cache_dir() / "stages"
    first = {p.name for p in store.iterdir()}
    monkeypatch.setattr(orchestrator, "_source_hash", lambda: "edited")
    ran = _record_runs(monkeypatch)
    caplog.clear()
    manifest, _ = run_experiment(config)
    fingerprints = orchestrator._fingerprints(config)
    assert ran == STAGE_NAMES
    assert {s: manifest.stages[s].fingerprint for s in STAGE_NAMES} == fingerprints
    assert {p.name for p in store.iterdir()} == first | set(fingerprints.values()) and len(first) == 3
    assert all(_pointer(config, stage) == os.path.abspath(config.output_dir) for stage in STAGE_NAMES)
    said = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage ")]
    assert said == [f"stage {s}: inputs changed since it ran, running" for s in STAGE_NAMES[:3]] + \
        [f"stage {s}: running" for s in STAGE_NAMES[3:]]


def test_prompts_reads_no_file_of_its_run_directory(tmp_path, fix):
    config = _config(tmp_path, fix, method="text_only")
    run_experiment(config, force=True)
    path = Path(config.dataset.path)
    path.write_text(path.read_text().replace("syn00014", "syn00099"))
    run_experiment(config, force=True)  # a split read back from the first run has no syn00099
    fresh = dataclasses.replace(config, output_dir=str(tmp_path / "fresh"))
    run_experiment(fresh, force=True)
    assert _files(config.output_dir) == _files(fresh.output_dir)
    assert any(row["id"] == "syn00099" for row in read_jsonl(Path(config.output_dir) / "splits.jsonl"))


# --- what reuse refuses ----------------------------------------------------------


# Each damage returns the stages that must run, in a fresh run directory and
# back in the producer's own.
def _edit_artifact(monkeypatch, producer, config):
    path = Path(producer.output_dir) / "features.jsonl"
    path.write_bytes(path.read_bytes() + b"\n")
    return {"embeddings"}, {"embeddings"}


def _delete_producer(monkeypatch, producer, config):
    shutil.rmtree(producer.output_dir)
    return set(STAGE_NAMES), set(STAGE_NAMES)


def _pointer_to(content):
    def damage(monkeypatch, producer, config):
        store = config.resolved_cache_dir() / "stages"
        fingerprint = RunManifest.load(Path(producer.output_dir)).stages["images"].fingerprint
        (store / fingerprint).write_bytes(content(os.path.abspath(producer.output_dir)))
        return {"images"}, set()  # the own manifest vouches before any pointer is read
    return damage


def _other_recorded_fingerprint(monkeypatch, producer, config):
    path = Path(producer.output_dir) / "manifest.json"
    data = json.loads(path.read_text())
    data["stages"]["training"]["fingerprint"] = "0" * 64
    path.write_text(json.dumps(data))
    return {"training"}, {"training"}


def _edit_dataset(monkeypatch, producer, config):
    path = Path(config.dataset.path)
    path.write_text(path.read_text().replace("x00014", "x00099"))
    return set(STAGE_NAMES), set(STAGE_NAMES)


def _edit_oracle(monkeypatch, producer, config):
    path = Path(config.providers.oracle_features)
    rows = list(read_jsonl(path))
    rows[0]["values"][0] += 1.0
    write_jsonl(path, rows)
    ran = {"embeddings", "training", "evaluation"}
    return ran, ran


def _edit_source(monkeypatch, producer, config):
    monkeypatch.setattr(orchestrator, "_source_hash", lambda: "edited")
    return set(STAGE_NAMES), set(STAGE_NAMES)


_DAMAGES = {
    "edited-artifact": (_edit_artifact, "gen_image"),
    "deleted-producer": (_delete_producer, "gen_image"),
    "empty-pointer": (_pointer_to(lambda path: b""), "gen_image"),
    "garbage-pointer": (_pointer_to(lambda path: b"\xff\xfe\x00garbage"), "gen_image"),
    "torn-pointer": (_pointer_to(lambda path: path.encode()[:len(path) // 2]), "gen_image"),
    "relative-pointer": (_pointer_to(lambda path: b"relative/run"), "gen_image"),
    "other-fingerprint": (_other_recorded_fingerprint, "gen_image"),
    "edited-dataset": (_edit_dataset, "gen_image"),
    "edited-oracle": (_edit_oracle, "oracle_image"),
    "edited-source": (_edit_source, "gen_image"),
}
_WHERE = [(case, where) for where in ("fresh", "own") for case in _DAMAGES]


@pytest.mark.parametrize("case, where", _WHERE,
                         ids=[case if where == "fresh" else f"{case}-in-own-dir" for case, where in _WHERE])
def test_reuse_runs_each_stage_it_cannot_verify(tmp_path, fix, monkeypatch, case, where):
    damage, method = _DAMAGES[case]
    producer = _config(tmp_path, fix, "producer", method=method)
    run_experiment(producer)
    config = producer if where == "own" else dataclasses.replace(producer, output_dir=str(tmp_path / "run"))
    in_fresh, in_own = damage(monkeypatch, producer, config)
    must_run = in_own if where == "own" else in_fresh

    ran = _record_runs(monkeypatch)
    manifest, _ = run_experiment(config)
    assert set(ran) == must_run
    assert {s: manifest.stages[s].fingerprint for s in STAGE_NAMES} == orchestrator._fingerprints(config)
    if where == "fresh":
        reused = _reused(config.output_dir)
        assert {stage for stage, source in reused.items() if source is None} == must_run
    assert all(_pointer(config, stage) == os.path.abspath(config.output_dir) for stage in must_run)
    assert not [p for p in Path(config.output_dir).rglob("*") if ".reuse" in p.name]

    forced = dataclasses.replace(producer, output_dir=str(tmp_path / "forced"))
    run_experiment(forced, force=True)
    assert _digests(config.output_dir) == _digests(forced.output_dir)
    assert _files(config.output_dir) == _files(forced.output_dir)


@pytest.mark.parametrize("escape", ["relative", "absolute"])
def test_a_producer_artifact_outside_its_run_directory_is_never_linked_in(tmp_path, fix, monkeypatch, escape):
    producer = _config(tmp_path, fix, "producer", method="text_only")
    run_experiment(producer)
    outside = tmp_path / "escape.txt"
    outside.write_bytes(b"outside")
    rel = "../escape.txt" if escape == "relative" else str(outside)
    path = Path(producer.output_dir) / "manifest.json"
    data = json.loads(path.read_text())
    data["stages"]["prompts"]["artifacts"][rel] = storage.sha256_hex(b"outside")
    path.write_text(json.dumps(data))

    config = dataclasses.replace(producer, output_dir=str(tmp_path / "deep" / "run"))
    ran = _record_runs(monkeypatch)
    run_experiment(config)
    assert ran == ["prompts"]
    assert _reused(config.output_dir)["prompts"] is None
    assert not (tmp_path / "deep" / "escape.txt").exists()  # where "../escape.txt" would land
    assert outside.stat().st_nlink == 1 and outside.read_bytes() == b"outside"


@pytest.mark.parametrize("field, method, reader, error", [
    ("dataset.path", "text_only", "prompts", DatasetError),
    ("providers.oracle_features", "oracle_image", "embeddings", FileNotFoundError),
], ids=["dataset", "oracle"])
def test_an_input_file_gone_fails_the_stage_that_reads_it(tmp_path, fix, field, method, reader, error):
    config = _config(tmp_path, fix, method=method)
    run_experiment(config)
    Path(functools.reduce(getattr, field.split("."), config)).unlink()
    with pytest.raises(error):
        run_experiment(config)
    stages = RunManifest.load(Path(config.output_dir)).stages
    earlier = STAGE_NAMES[:STAGE_NAMES.index(reader)]
    assert [stages[s].status for s in earlier] == ["done"] * len(earlier)
    assert stages[reader].status == "failed" and stages[reader].reason.startswith(error.__name__ + ": ")


def test_a_missing_input_file_that_no_stage_reads_lets_every_stage_stand(tmp_path, fix, monkeypatch):
    providers = {"text": "hash-16", "image": "hash-16", "oracle_features": str(tmp_path / "gone.jsonl")}
    config = _config(tmp_path, fix, method="text_only", providers=providers)
    run_experiment(config)
    assert all(status.fingerprint for status in RunManifest.load(Path(config.output_dir)).stages.values())
    ran = _record_runs(monkeypatch)
    _, report = run_experiment(config)  # a resume: every stage stands in place
    fresh = _config(tmp_path, fix, "fresh", method="text_only", providers=providers)
    _, fresh_report = run_experiment(fresh)  # a fresh run directory: every stage is reused
    assert report is not None and fresh_report is not None and ran == []
    assert all(source is not None for source in _reused(fresh.output_dir).values())
    assert _files(fresh.output_dir) == _files(config.output_dir)


# --- the manifest and the CLI ------------------------------------------------------


# A manifest as the pipeline wrote it before stages recorded a fingerprint,
# a producer and a wall time: a text_only run stopped after images.
_OLDER_MANIFEST = {
    "config_hash": "ac9a88a6afe25c0de175b04f1e0561dd639e798b8513a888b5fa083342aaaf32",
    "created_at": "2026-10-20T00:52:27.881968+00:00",
    "descriptor": {"backend": "stub", "dataset": "dataset", "experiment_id": "reuse", "learning_rate": 0.001,
                   "mechanism": "concat", "method": "text_only", "steps": 4, "strategy": "keyword"},
    "experiment_id": "reuse",
    "output_hash": "95e77da57bcdc29e7d56cedce441cde36114a5b3a9728718e9341b3bcd2b7f36",
    "stages": {
        "embeddings": {"artifacts": {}, "reason": None, "status": "pending"},
        "evaluation": {"artifacts": {}, "reason": None, "status": "pending"},
        "images": {"artifacts": {"images.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
                   "reason": None, "status": "done"},
        "prompts": {"artifacts": {
            "labels.json": "17470e6c5d2400b176107df8b29495a6fe4ae7f1431f8875a4774d1306287f0c",
            "prompts.jsonl": "ab74f3dad6bd439ac7b721f3e05a9abbca1fb8ef56bc66d805ce766690627eed",
            "prompts_summary.json": "0ab2b9af7c116f8412505903f28f72b0a5e7b3b71d72406a12a11358d8b13901",
            "splits.jsonl": "2cf74c56d141ee538654f2de8ba15646920f252d45a6e83897a8e6fc73ef72df",
        }, "reason": None, "status": "done"},
        "training": {"artifacts": {}, "reason": None, "status": "pending"},
    },
    "updated_at": "2026-10-20T00:52:27.887992+00:00",
    "version": "0.1.0",
}


def test_a_manifest_written_before_fingerprints_still_reads_and_resumes(tmp_path, fix, monkeypatch):
    manifest = RunManifest.from_dict(copy.deepcopy(_OLDER_MANIFEST))
    assert manifest.stages["images"] == StageStatus(status="done", artifacts={
        "images.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"})
    assert [manifest.stages[s].status for s in STAGE_NAMES] == ["done", "done", "pending", "pending", "pending"]
    assert {(s.fingerprint, s.reused_from, s.wall_s) for s in manifest.stages.values()} == {(None, None, None)}
    assert RunManifest.from_dict(manifest.to_dict()) == manifest

    # a run stopped after images under such a manifest runs both again, as no
    # fingerprint vouches for their inputs, and records one for every stage
    config = _config(tmp_path, fix, method="text_only")
    run_experiment(config, until_stage="images")
    path = Path(config.output_dir) / "manifest.json"
    data = json.loads(path.read_text())
    for stage in data["stages"].values():
        for name in ("fingerprint", "reused_from", "wall_s"):
            del stage[name]
    path.write_text(json.dumps(data))
    prompts = data["stages"]["prompts"]["artifacts"]
    before = {rel: (Path(config.output_dir) / rel).read_bytes() for rel in prompts}
    ran = _record_runs(monkeypatch)
    manifest, report = run_experiment(config)
    assert report is not None and ran == STAGE_NAMES
    assert all(manifest.stages[s].wall_s is not None for s in STAGE_NAMES)
    assert {s: manifest.stages[s].fingerprint for s in STAGE_NAMES} == orchestrator._fingerprints(config)
    assert all(_pointer(config, stage) == os.path.abspath(config.output_dir) for stage in STAGE_NAMES)
    assert {rel: (Path(config.output_dir) / rel).read_bytes() for rel in before} == before


def test_a_run_records_each_stages_fingerprint_and_wall_time(tmp_path, fix):
    config = _config(tmp_path, fix, method="text_only")
    manifest, _ = run_experiment(config)
    fingerprints = orchestrator._fingerprints(config)
    for stage in STAGE_NAMES:
        status = manifest.stages[stage]
        assert status.fingerprint == fingerprints[stage] and len(status.fingerprint) == 64
        assert status.reused_from is None and status.wall_s >= 0
    assert len(set(fingerprints.values())) == len(STAGE_NAMES)


def test_runs_on_caches_of_their_own_share_no_fingerprint(tmp_path, fix):
    # image_ref names the cache, and a cache in the run directory is named by no output field
    first, second = (orchestrator._fingerprints(_config(tmp_path, fix, out, cache_dir=None))
                     for out in ("first", "second"))
    assert all(first[stage] != second[stage] for stage in STAGE_NAMES)


def test_cli_run_says_which_stages_it_reused(tmp_path, fix, capsys, caplog):
    caplog.set_level(logging.INFO, logger="t2ifuse.orchestrator")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(_data(tmp_path, fix, method="text_only")))
    assert cli_main(["run", "--config", str(path)]) == 0
    assert "stages reused" not in capsys.readouterr().out
    assert cli_main(["-v", "run", "--config", str(path), "--out", str(tmp_path / "again")]) == 0
    out = capsys.readouterr().out
    assert "stages reused: prompts, images, embeddings, training, evaluation\n" in out
    assert f"stage training: reused from {tmp_path / 'run'}" in caplog.text


# --- when the manifest is committed ----------------------------------------------


def _manifest_commits(monkeypatch) -> list[str]:
    """The run directory of each ``manifest.json`` synced from now on, one entry per commit."""
    commits = []
    fsync = os.fsync

    def recording_fsync(fd):
        path = Path(os.readlink(f"/proc/self/fd/{fd}"))
        if path.name.startswith("manifest.json."):  # the temp file renamed over it
            commits.append(str(path.parent))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return commits


def test_a_run_commits_its_manifest_per_stage_it_ran_and_once_for_what_it_reused(tmp_path, fix, monkeypatch):
    commits = _manifest_commits(monkeypatch)
    producer = _config(tmp_path, fix, "producer")
    run_experiment(producer, _registry())
    assert len(commits) == len(STAGE_NAMES)  # a cold run: one per stage, none before the first
    config = dataclasses.replace(producer, output_dir=str(tmp_path / "run"))
    commits.clear()
    run_experiment(config, _registry())
    assert _reused(config.output_dir) == dict.fromkeys(STAGE_NAMES, os.path.abspath(producer.output_dir))
    assert commits == [os.path.realpath(config.output_dir)]
    commits.clear()
    run_experiment(config, _registry())  # every stage stands in place
    assert commits == []


def test_a_run_that_fails_after_reusing_commits_its_reuses_with_the_failure(tmp_path, fix, monkeypatch):
    config = _config(tmp_path, fix)
    run_experiment(config, _registry(), until_stage="prompts")  # under the source before the edit
    monkeypatch.setattr(orchestrator, "_source_hash", lambda: "edited")
    training = {**_data(tmp_path, fix)["training"], "learning_rate": 0.1}
    producer = _config(tmp_path, fix, "producer", training=training)
    run_experiment(producer, _registry())  # shares every stage but training and evaluation

    def failing(*args, **kwargs):
        raise RuntimeError("no head today")

    monkeypatch.setattr(orchestrator, "train_loop", failing)
    commits = _manifest_commits(monkeypatch)
    with pytest.raises(RuntimeError, match="no head today"):
        run_experiment(config, _registry())
    assert len(commits) == 1
    assert _reused(config.output_dir) == {**dict.fromkeys(STAGE_NAMES),
                                          **dict.fromkeys(STAGE_NAMES[:3], os.path.abspath(producer.output_dir))}
    stages = RunManifest.load(Path(config.output_dir)).stages
    assert [stages[s].status for s in STAGE_NAMES] == ["done"] * 3 + ["failed", "pending"]
    assert stages["training"].reason == "RuntimeError: no head today"


def test_a_run_interrupted_mid_reuse_finishes_on_the_next_run_without_a_provider_call(
        tmp_path, fix, monkeypatch, capsys):
    producer = _config(tmp_path, fix, "producer")
    run_experiment(producer, _registry())
    config = dataclasses.replace(producer, output_dir=str(tmp_path / "run"))
    standing = orchestrator._standing
    asked = []

    def interrupted(stage, *args):
        asked.append(stage)
        if len(asked) == 4:
            raise KeyboardInterrupt
        return standing(stage, *args)

    monkeypatch.setattr(orchestrator, "_standing", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(config, _registry())
    assert asked == STAGE_NAMES[:4]
    monkeypatch.setattr(orchestrator, "_standing", standing)

    assert cli_main(["report", config.output_dir]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"skipped runs:\n  {config.output_dir}: ")
    assert "Traceback" not in out + err

    registry = _registry()
    manifest, report = run_experiment(config, registry)
    assert _calls(registry) == 0 and report is not None
    forced = dataclasses.replace(producer, output_dir=str(tmp_path / "forced"))
    run_experiment(forced, _registry(), force=True)
    assert _files(config.output_dir) == _files(forced.output_dir)


def test_a_directory_left_by_an_interrupted_reuse_refuses_another_config_and_never_lists_its_leftovers(
        tmp_path, fix, monkeypatch):
    producer = _config(tmp_path, fix, "producer")  # cross_attention: its evaluation writes attention.tsv
    run_experiment(producer, _registry())
    config = dataclasses.replace(producer, output_dir=str(tmp_path / "run"))
    run_dir = Path(config.output_dir)
    standing = orchestrator._standing
    asked = []

    def interrupted(stage, *args):
        status = standing(stage, *args)
        asked.append(stage)
        if len(asked) == 5:  # evaluation's artifacts are linked in, and not yet recorded
            raise KeyboardInterrupt
        return status

    monkeypatch.setattr(orchestrator, "_standing", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(config, _registry())
    monkeypatch.setattr(orchestrator, "_standing", standing)
    assert (run_dir / "attention.tsv").exists()
    # the interrupted run committed the reuses it had recorded, and with them its config
    assert _reused(run_dir) == {**dict.fromkeys(STAGE_NAMES[:4], os.path.abspath(producer.output_dir)),
                                "evaluation": None}
    concat = _config(tmp_path, fix, fusion={**_data(tmp_path, fix)["fusion"], "mechanism": "concat"})
    with pytest.raises(orchestrator.OrchestrationError, match="produced by a different config"):
        run_experiment(concat, _registry())

    (run_dir / "manifest.json").unlink()  # as a process killed before that commit leaves the directory
    run_experiment(concat, _registry())
    assert "attention.tsv" not in RunManifest.load(run_dir).stages["evaluation"].artifacts
    assert (run_dir / "attention.tsv").exists()  # left over, and not an output of the run
    assert "attention" not in sweep.report_cli([run_dir])
    assert f"attention heatmaps:\n  {producer.output_dir}/attention.tsv\n" in \
        sweep.report_cli([producer.output_dir])


def _untimed(manifest: dict) -> dict:
    """A manifest's data less its timestamps and each stage's ``wall_s``."""
    data = {key: value for key, value in manifest.items() if key not in ("created_at", "updated_at")}
    data["stages"] = {name: {key: value for key, value in status.items() if key != "wall_s"}
                      for name, status in manifest["stages"].items()}
    return data


def test_a_manifest_is_created_before_its_first_stage_and_keeps_its_form_when_reused(
        tmp_path, fix, monkeypatch):
    started = []

    def stamped(stage):
        def run(*args):
            started.append(datetime.datetime.now(datetime.timezone.utc))
            return stage.run(*args)
        return dataclasses.replace(stage, run=run)

    monkeypatch.setattr(orchestrator, "STAGES", tuple(map(stamped, STAGES)))
    producer = _config(tmp_path, fix, "producer")
    manifest, _ = run_experiment(producer, _registry())
    created = datetime.datetime.fromisoformat(manifest.created_at)
    assert created <= started[0] and datetime.datetime.fromisoformat(manifest.updated_at) >= created
    assert (manifest.config_hash, manifest.output_hash) == (producer.config_hash(), producer.output_hash())

    config = dataclasses.replace(producer, output_dir=str(tmp_path / "run"))
    run_experiment(config, _registry())
    text = (Path(config.output_dir) / "manifest.json").read_text(encoding="utf-8")
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, indent=2)
    expected = json.loads((Path(producer.output_dir) / "manifest.json").read_text(encoding="utf-8"))
    expected["config_hash"] = config.config_hash()  # output_dir differs, and only that
    for status in expected["stages"].values():
        status["reused_from"] = os.path.abspath(producer.output_dir)
    assert _untimed(data) == _untimed(expected)


# --- the declarations ------------------------------------------------------------


def test_a_declared_path_that_names_no_field_fails_when_the_stage_is_built():
    prompts = STAGES[0]
    for change in ({"ignores": ("fusion.mechansim",)}, {"inputs": ("dataset.file",)},
                   {"ignores": ("training.preset",)}, {"inputs": ("providers.oracle",)}):
        with pytest.raises(ValueError, match="stage prompts"):
            dataclasses.replace(prompts, **change)
    Stage("probe", "probe", (), prompts.run, ignores=("fusion", "fusion.mechanism"), inputs=("dataset.path",))


def _bases(tmp_path, fix) -> dict[str, dict]:
    """The base configs of the declarations test: each reads some field the
    others do not (an elaborator, a style task, the oracle, a retrieval
    corpus, a deep prefix)."""
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"text": "granite cliffs above the sea"}, {"text": "velvet curtains in a hall"}])
    providers = {"text": "hash-16", "image": "hash-16", "oracle_features": str(fix.oracle_features)}
    return {
        "elaborated": _data(tmp_path, fix, strategy="elaborated",
                            providers={**providers, "elaborator": "stub-chat"}),
        "stylized": _data(tmp_path, fix, strategy="stylized"),
        "oracle": _data(tmp_path, fix, method="oracle_image"),
        "retrieval": _data(tmp_path, fix, method="knowledge_retrieval",
                           providers={**providers, "retrieval_corpus": str(corpus)}),
        "deep_prefix": _data(tmp_path, fix, fusion={"mechanism": "deep_prefix", "model_dim": 8, "heads": 2,
                                                    "hidden_dim": 12}),
    }


def _copy_edited(tmp_path, name, source, edit) -> str:
    path = tmp_path / name
    path.write_text(edit(Path(source).read_text()))
    return str(path)


# Each output field -> (base config, the value it is changed to). The value
# changes the artifacts of the first stage that reads the field, or makes it
# fail, except where _NO_OFFLINE_EFFECT says why it cannot.
def _perturbations(tmp_path, fix) -> dict[str, tuple[str, object]]:
    oracle = str(fix.oracle_features)
    other_corpus = tmp_path / "other_corpus.jsonl"
    write_jsonl(other_corpus, [{"text": "velvet crimson lanterns"}])
    return {
        "cache_dir": ("elaborated", str(tmp_path / "other-cache")),
        "cost_mode": ("elaborated", "measured"),
        "dataset.format": ("elaborated", "record_lines"),
        "dataset.max_text_tokens": ("elaborated", 2),
        "dataset.path": ("elaborated", _copy_edited(tmp_path, "edited.csv", fix.dataset_csv,
                                                    lambda text: text.replace("x00014", "x00099"))),
        "dataset.split_fractions": ("elaborated", [0.5, 0.3, 0.2]),
        "dataset.split_seed": ("elaborated", 6),
        "evaluation.bootstrap_metric": ("elaborated", "accuracy"),
        "evaluation.bootstrap_resamples": ("elaborated", 21),
        "evaluation.bootstrap_seed": ("elaborated", 1),
        "experiment_id": ("elaborated", "renamed"),
        "fusion.dropout_rate": ("elaborated", 0.5),
        "fusion.encoder_layers": ("deep_prefix", 1),
        "fusion.heads": ("deep_prefix", 4),  # one image token: cross-attention weighs it 1 under any heads
        "fusion.hidden_dim": ("elaborated", 10),
        "fusion.mechanism": ("elaborated", "concat"),
        "fusion.model_dim": ("elaborated", 12),
        "fusion.visual_prefix_len": ("deep_prefix", 3),
        "generation.backend": ("elaborated", "sdxl"),
        "generation.endpoint": ("elaborated", "http://localhost:9"),
        "generation.guidance_scale": ("elaborated", 1.5),
        "generation.height": ("elaborated", 256),
        "generation.preset": ("elaborated", "sdxl"),
        "generation.scheduler_id": ("elaborated", "euler"),
        "generation.seed": ("elaborated", 1),
        "generation.steps": ("elaborated", 2),
        "generation.width": ("elaborated", 256),
        "method": ("elaborated", "text_only"),
        "providers.chat_endpoint": ("elaborated", "http://localhost:9"),
        "providers.elaborator": ("elaborated", "other-chat"),
        "providers.image": ("elaborated", "hash-8"),
        "providers.image_endpoint": ("elaborated", "http://localhost:9"),
        "providers.oracle_features": ("oracle", _copy_edited(tmp_path, "edited_oracle.jsonl", oracle,
                                                             lambda text: text.replace("[0.", "[1.", 1))),
        "providers.retrieval_corpus": ("retrieval", str(other_corpus)),
        "providers.text": ("elaborated", "hash-8"),
        "providers.text_endpoint": ("elaborated", "http://localhost:9"),
        "seeds": ("elaborated", [1]),
        "strategy": ("elaborated", "keyword"),
        "task_id": ("stylized", "news"),
        "training.batch_size": ("elaborated", 16),
        "training.betas": ("elaborated", [0.8, 0.99]),
        "training.eps": ("elaborated", 1e-3),
        "training.grad_clip_norm": ("elaborated", 0.01),
        "training.learning_rate": ("elaborated", 1e-2),
        "training.max_epochs": ("elaborated", 2),
        "training.patience": ("elaborated", 1),
        "training.weight_decay": ("elaborated", 0.5),
    }


# Fields read by the first stage that does not ignore them, whose change no
# offline run can show in that stage's artifacts.
_NO_OFFLINE_EFFECT = {
    "cache_dir": "the prompts stage keeps its chat cache there, but writes no path of it",
    "generation.endpoint": "the registered backend serves the run",
    "providers.chat_endpoint": "the stub chat client serves the run",
    "providers.text_endpoint": "the hash encoder serves the run",
    "providers.image_endpoint": "the hash encoder serves the run",
}


def _chain_ignores(path: str) -> list[str]:
    """The stages, from the first on, that each ignore ``path``: the
    stages whose fingerprint ``path`` is no part of."""
    ignoring = []
    for stage in STAGES:
        if not any(path == p or path.startswith(p + ".") for p in stage.ignores):
            break
        ignoring.append(stage.name)
    return ignoring


def _set(data: dict, path: str, value) -> dict:
    data = copy.deepcopy(data)
    *sections, name = path.split(".")
    target = data
    for section in sections:
        target = target.setdefault(section, {})
    target[name] = value
    return data


def test_each_stage_fingerprints_every_field_it_reads_and_ignores_only_what_it_does_not(tmp_path, fix):
    bases = _bases(tmp_path, fix)
    perturbations = _perturbations(tmp_path, fix)
    assert sorted(perturbations) == sorted(set(SETTABLE_FIELDS) - set(EXECUTION_FIELDS))
    registry = _registry()
    base_runs = {}
    for name, data in bases.items():
        config = parse_config_data(_set(data, "output_dir", str(tmp_path / f"base-{name}")))
        manifest, _ = run_experiment(config, registry, force=True)
        fingerprints = orchestrator._fingerprints(config)
        assert {s: manifest.stages[s].fingerprint for s in STAGE_NAMES} == fingerprints
        base_runs[name] = (fingerprints, _digests(config.output_dir))

    for path, (base, value) in perturbations.items():
        config = parse_config_data(_set(_set(bases[base], path, value), "output_dir", str(tmp_path / path)))
        base_fingerprints, base_digests = base_runs[base]
        fingerprints = orchestrator._fingerprints(config)
        ignoring = _chain_ignores(path)
        assert len(ignoring) < len(STAGE_NAMES), f"no stage reads {path}"
        reader = STAGE_NAMES[len(ignoring)]
        try:
            run_experiment(config, registry, until_stage=reader, force=True)
        except Exception:
            failed = RunManifest.load(Path(config.output_dir)).stages[reader].status == "failed"
            assert failed, f"{path}: a stage before {reader} failed"
        else:
            failed = False
        digests = _digests(config.output_dir)
        for stage in ignoring:
            assert digests[stage] == base_digests[stage], f"{stage} reads {path}, which it ignores"
            assert fingerprints[stage] == base_fingerprints[stage], f"{path} is in {stage}'s fingerprint"
        for stage in STAGE_NAMES[len(ignoring):]:
            assert fingerprints[stage] != base_fingerprints[stage], f"{path} is not in {stage}'s fingerprint"
        if path not in _NO_OFFLINE_EFFECT:
            assert failed or digests[reader] != base_digests[reader], f"{reader} does not read {path}"


# Each config field that names a file outside the run -> (base config, the
# first stage whose outputs the file's content decides, an edit of the file).
_INPUT_FILES = {
    "dataset.path": ("elaborated", "prompts", lambda text: text.replace("x00014", "x00099")),
    "providers.retrieval_corpus": ("retrieval", "prompts", lambda text: text.replace("granite", "marble")),
    "providers.oracle_features": ("oracle", "embeddings", lambda text: text.replace("[0.", "[2.", 1)),
}


def _get(data: dict, path: str):
    for name in path.split("."):
        data = data[name]
    return data


def test_editing_an_input_file_changes_the_fingerprint_from_the_stage_that_reads_it(tmp_path, fix):
    bases = _bases(tmp_path, fix)
    for path, (base, reader, edit) in _INPUT_FILES.items():
        copied = _copy_edited(tmp_path, f"copy-{path}", _get(bases[base], path), lambda text: text)
        data = _set(_set(bases[base], path, copied), "output_dir", str(tmp_path / f"before-{path}"))
        before = parse_config_data(data)
        earlier = STAGE_NAMES[:STAGE_NAMES.index(reader)]
        if earlier:
            run_experiment(before, until_stage=earlier[-1], force=True)
        fingerprints = orchestrator._fingerprints(before)

        Path(copied).write_text(edit(Path(copied).read_text()))
        after = parse_config_data(_set(data, "output_dir", str(tmp_path / f"after-{path}")))
        edited = orchestrator._fingerprints(after)
        for stage in earlier:
            assert edited[stage] == fingerprints[stage], f"{path} is in {stage}'s fingerprint"
        if earlier:
            run_experiment(after, until_stage=earlier[-1], force=True)
            assert _files(after.output_dir) == _files(before.output_dir)
        for stage in STAGE_NAMES[len(earlier):]:
            assert edited[stage] != fingerprints[stage], f"{path}'s content is not in {stage}'s fingerprint"


# --- sweeps ----------------------------------------------------------------------


def test_a_sweep_runs_the_stages_its_cells_share_once(tmp_path, fix):
    registry = _registry()
    base = _config(tmp_path, fix, "sweep")
    mechanisms = ["concat", "cross_attention", "deep_prefix"]
    result = run_sweep(base, {"mechanism": mechanisms}, registry)
    assert [cell.status for cell in result.cells] == ["done"] * 3
    first = os.path.abspath(result.cells[0].output_dir)
    reused = [_reused(cell.output_dir) for cell in result.cells]
    shared = ("prompts", "images", "embeddings")
    assert reused[0] == dict.fromkeys(STAGE_NAMES)
    for cell in reused[1:]:
        assert cell == {**dict.fromkeys(STAGE_NAMES), **dict.fromkeys(shared, first)}
    assert registry.backends["flux-schnell"].calls == fix.num_samples

    runs = []
    for mechanism, cell in zip(mechanisms, result.cells):
        cell_id = f"mechanism={mechanism}"
        alone = parse_config_data(_data(
            tmp_path, fix, f"alone-{mechanism}", experiment_id=f"reuse/{cell_id}",
            cache_dir=str(tmp_path / f"cache-{mechanism}"),
            fusion={**_data(tmp_path, fix)["fusion"], "mechanism": mechanism}))
        alone_registry = ProviderRegistry()
        manifest, report = run_experiment(alone, alone_registry, force=True)
        # the whole sweep called the backend and the encoders as often as one cell alone
        assert _calls(alone_registry) == _calls(registry)
        assert (Path(alone.output_dir) / "report.txt").read_bytes() == \
            (Path(cell.output_dir) / "report.txt").read_bytes()
        runs.append((cell_id, manifest.descriptor, report))
    table, records = sweep._combined_table(runs, ["mechanism"], base.experiment_id)
    assert (Path(base.output_dir) / "combined_table.txt").read_text() == table
    assert (Path(base.output_dir) / "combined_records.jsonl").read_text() == \
        orchestrator.render_records(records)

