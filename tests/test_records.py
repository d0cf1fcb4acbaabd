"""Every record a run persists is read back by its fields (storage.from_fields)."""

import dataclasses
import json

import numpy as np
import pytest

from t2ifuse.evaluation import EvalReport, PerClassStats
from t2ifuse.generation import GeneratedImageRecord
from t2ifuse.orchestrator import STAGES, ManifestError, RunManifest, StageStatus
from t2ifuse.prompting import PromptSpec


def _stage_status(n: int) -> StageStatus:
    return StageStatus(status="failed", artifacts={f"a{n}.json": "0" * 64}, reason=f"boom {n}",
                       fingerprint=f"f{n}", reused_from=f"/runs/{n}", wall_s=0.25 * n)


def _manifest() -> RunManifest:
    return RunManifest(experiment_id="exp", config_hash="c" * 64, output_hash="o" * 64, version="0.0.9",
                       descriptor={"method": "gen_image"},
                       stages={stage.name: _stage_status(n) for n, stage in enumerate(STAGES, start=1)},
                       created_at="2026-01-01T00:00:00+00:00", updated_at="2026-01-02T00:00:00+00:00")


def _report() -> EvalReport:
    return EvalReport(
        accuracy=0.75, macro_f1=0.5,
        per_class=[PerClassStats("pos", 1.0, 0.5, 0.6666, 2), PerClassStats("neg", 0.5, 1.0, 0.6666, 1)],
        confusion=np.array([[1, 1], [0, 1]], dtype=np.int64),
        confusion_normalized=np.array([[0.5, 0.5], [0.0, 1.0]]),
        zero_support_classes=["other"], bootstrap_std=0.01, clip_cos_mean=0.2, clip_cos_std=0.02,
        clip_score_mean=50.0, clip_score_std=5.0, cost_summary={"images": 3, "total_cost_usd": "0.012"})


def _prompt() -> PromptSpec:
    return PromptSpec(sample_id="s1", strategy="stylized", positive="A dark, moody image of a red kettle.",
                      negative="blurry", keywords=("red kettle",), style_tags=("dark", "moody"),
                      elaborator_id="stub-chat")


def _image() -> GeneratedImageRecord:
    return GeneratedImageRecord(content_hash="h" * 64, prompt_key="k" * 64, backend_id="sdxl", steps=30,
                                image_ref="/cache/images/k", latency_s=1.5, cost_usd=0.022,
                                created_at="2026-01-01T00:00:00+00:00")


def _assert_every_field_set(record) -> None:
    """Each field of ``record`` differs from its default, so a field added
    later must be given a value here, or this fails."""
    for f in dataclasses.fields(record):
        if f.default is not dataclasses.MISSING:
            assert getattr(record, f.name) != f.default, f.name
        elif f.default_factory is not dataclasses.MISSING:
            assert getattr(record, f.name) != f.default_factory(), f.name


@pytest.mark.parametrize("make", [_manifest, _report, _prompt, _image], ids=lambda make: make.__name__[1:])
def test_a_value_in_every_field_survives_to_dict_json_and_from_dict(make):
    record = make()
    nested = [*getattr(record, "stages", {}).values(), *getattr(record, "per_class", [])]
    for each in (record, *nested):
        _assert_every_field_set(each)
    back = type(record).from_dict(json.loads(json.dumps(record.to_dict())))
    assert back.to_dict() == record.to_dict()
    for f in dataclasses.fields(record):
        assert type(getattr(back, f.name)) is type(getattr(record, f.name)), f.name
    if isinstance(record, EvalReport):
        assert back.confusion.dtype == np.int64 and back.confusion_normalized.dtype == np.float64
        assert back.per_class == record.per_class
    else:
        assert back == record


@dataclasses.dataclass
class _TunedManifest(RunManifest):
    config: dict = dataclasses.field(default_factory=dict)


def test_a_field_a_manifest_subclass_adds_survives_a_load(tmp_path):
    manifest = _TunedManifest(experiment_id="x", config_hash="h", config={"lr": 1})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest.to_dict()))
    loaded = _TunedManifest.load(tmp_path)
    assert loaded.config == {"lr": 1}
    assert loaded == manifest


def test_a_manifest_of_the_oldest_form_reads_its_missing_fields_as_before():
    manifest = RunManifest.from_dict({"experiment_id": "x", "config_hash": "h", "unknown": 1,
                                      "stages": {"images": {"status": "done", "later_field": 2}}})
    assert (manifest.version, manifest.created_at, manifest.output_hash, manifest.updated_at) == ("", "", "", "")
    assert manifest.descriptor == {}
    assert list(manifest.stages) == [stage.name for stage in STAGES]  # run order, whatever the file's
    assert manifest.stages["images"] == StageStatus(status="done")
    assert manifest.stages["prompts"] == StageStatus()


@pytest.mark.parametrize("data", [
    None, "manifest", {"experiment_id": "x"}, {"config_hash": "h"},
    {"experiment_id": "x", "config_hash": "h", "stages": []},
    {"experiment_id": "x", "config_hash": "h", "descriptor": "method"},
])
def test_a_manifest_of_the_wrong_shape_is_a_manifest_error(data):
    with pytest.raises(ManifestError, match="source.json: not a run manifest"):
        RunManifest.from_dict(data, source="source.json")


def test_a_prompt_row_without_its_negative_prompt_still_raises():
    data = _prompt().to_dict()
    del data["negative"]
    with pytest.raises(KeyError, match="negative"):
        PromptSpec.from_dict(data)


def test_prompt_to_dict_is_asdict_with_lists():
    spec = _prompt()
    assert spec.to_dict() == {**dataclasses.asdict(spec), "keywords": ["red kettle"],
                              "style_tags": ["dark", "moody"]}
