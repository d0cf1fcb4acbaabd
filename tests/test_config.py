from pathlib import Path

import yaml
import pytest

from t2ifuse.config import ConfigError, parse_config, parse_config_data


def _minimal(tmp_path, **extra):
    data = {
        "experiment_id": "demo",
        "dataset": {"path": "data.csv"},
        "output_dir": str(tmp_path / "run"),
    }
    data.update(extra)
    return data


def _write(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def test_minimal_config_defaults_filled(tmp_path):
    config = parse_config(_write(tmp_path, _minimal(tmp_path)))
    assert config.method == "text_only"
    assert config.strategy == "keyword"
    assert config.training.learning_rate == 2e-5
    assert config.dataset.max_text_tokens == 256
    assert config.dataset.split_fractions == (0.8, 0.1, 0.1)
    assert config.seeds == (0, 1, 2)
    assert config.offline is True
    assert config.cost_mode == "estimated"
    # relative dataset path resolves against the config file location
    assert config.dataset.path == str(tmp_path / "data.csv")


def test_config_hash_stable_under_key_reordering(tmp_path):
    data = _minimal(tmp_path, method="text_only", seeds=[1, 2])
    path_a = _write(tmp_path, data, "a.yaml")
    reordered = dict(reversed(list(data.items())))
    path_b = _write(tmp_path, reordered, "b.yaml")
    assert parse_config(path_a).config_hash() == parse_config(path_b).config_hash()


def test_config_hash_changes_on_semantic_change(tmp_path):
    base = parse_config(_write(tmp_path, _minimal(tmp_path)))
    changed = parse_config(
        _write(tmp_path, _minimal(tmp_path, strategy="direct"), "c.yaml")
    )
    assert base.config_hash() != changed.config_hash()


def test_gen_image_missing_backend_reports_single_error(tmp_path):
    data = _minimal(tmp_path, method="gen_image", generation={"backend": None})
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    assert len(err.value.problems) == 1
    assert "generation.backend" in err.value.problems[0]


def test_validation_collects_every_problem(tmp_path):
    data = _minimal(
        tmp_path,
        method="imaginary",
        strategy="P7",
        cost_mode="free",
        typo_key=1,
        seeds="zero",
    )
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    problems = "\n".join(err.value.problems)
    assert "method" in problems
    assert "strategy" in problems
    assert "cost_mode" in problems
    assert "typo_key" in problems
    assert "seeds" in problems
    assert len(err.value.problems) >= 5


def test_unknown_section_keys_rejected(tmp_path):
    data = _minimal(tmp_path, dataset={"path": "d.csv", "fmt": "csv"})
    with pytest.raises(ConfigError, match="dataset.fmt"):
        parse_config_data(data)


def test_sdxl_preset_fills_published_generation_params(tmp_path):
    data = _minimal(
        tmp_path, method="gen_image",
        generation={"backend": "sdxl", "preset": "sdxl"},
    )
    config = parse_config_data(data)
    params = config.generation_params()
    assert params.steps == 50
    assert params.guidance_scale == 8.0
    assert (params.width, params.height) == (1024, 1024)
    assert params.scheduler_id == "DPM++ 2M Karras"
    assert params.backend_id == "sdxl"


def test_backend_name_implies_preset(tmp_path):
    data = _minimal(tmp_path, method="gen_image", generation={"backend": "sd15"})
    params = parse_config_data(data).generation_params()
    assert (params.steps, params.guidance_scale, params.width) == (50, 7.5, 512)


def test_gen_image_fast_forces_single_step(tmp_path):
    data = _minimal(
        tmp_path, method="gen_image_fast", generation={"backend": "flux-schnell"}
    )
    params = parse_config_data(data).generation_params()
    assert params.steps == 1
    assert params.backend_id == "flux-schnell"


def test_method_requirements(tmp_path):
    with pytest.raises(ConfigError, match="oracle_features"):
        parse_config_data(_minimal(tmp_path, method="oracle_image"))
    with pytest.raises(ConfigError, match="elaborator"):
        parse_config_data(_minimal(tmp_path, method="textual_expansion"))
    with pytest.raises(ConfigError, match="retrieval_corpus"):
        parse_config_data(_minimal(tmp_path, method="knowledge_retrieval"))


def test_training_preset_resolution(tmp_path):
    data = _minimal(tmp_path, training={"preset": "frozen-head", "max_epochs": 7})
    config = parse_config_data(data)
    assert config.training.learning_rate == 1e-3
    assert config.training.max_epochs == 7
    with pytest.raises(ConfigError, match="training.preset"):
        parse_config_data(_minimal(tmp_path, training={"preset": "nope"}))


def test_sweep_axes_parsing(tmp_path):
    data = _minimal(tmp_path, sweep={"axes": {"strategy": ["direct", "keyword"]}})
    config = parse_config_data(data)
    assert config.sweep_axes == {"strategy": ("direct", "keyword")}
    with pytest.raises(ConfigError, match="sweep.axes"):
        parse_config_data(_minimal(tmp_path, sweep={"axes": {}}))
    with pytest.raises(ConfigError, match="sweep.axes.strategy"):
        parse_config_data(_minimal(tmp_path, sweep={"axes": {"strategy": []}}))


def test_sweep_axis_names_checked_and_dataset_paths_resolved(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config_data(_minimal(tmp_path, sweep={"axes": {"strategy": ["direct"], "seed": [1, 2]}}))
    assert len(err.value.problems) == 1
    assert err.value.problems[0].startswith("sweep.axes.seed: unknown axis; have ('mechanism',")

    axes = {"dataset": ["reviews.csv", "topics/news.csv", "/abs/other.csv"], "method": ["text_only"]}
    config = parse_config(_write(tmp_path, _minimal(tmp_path, sweep={"axes": axes})))
    assert config.sweep_axes["dataset"] == (
        str(tmp_path / "reviews.csv"), str(tmp_path / "topics" / "news.csv"), "/abs/other.csv",
    )  # the way dataset.path resolves
    assert config.sweep_axes["method"] == ("text_only",)


def test_missing_file_and_empty_config(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "none.yaml")
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty config"):
        parse_config(empty)


def test_field_types_checked_at_parse_time_with_paths(tmp_path):
    data = _minimal(
        tmp_path,
        offline="false",
        generation={"concurrency": "4", "preset": ["sdxl"]},
        dataset={"path": "data.csv", "max_text_tokens": "9", "split_fractions": 0.8},
        training={"max_epochs": "3", "betas": [0.9], "preset": ["frozen-head"]},
        fusion={"dropout_rate": True},
        evaluation=["bootstrap_resamples"],
    )
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    assert sorted(err.value.problems) == [
        "dataset.max_text_tokens: expected int, got str",
        "dataset.split_fractions: expected tuple[float, float, float], got float",
        "evaluation: expected a mapping, got list",
        "fusion.dropout_rate: expected float, got bool",
        "generation.concurrency: expected int, got str",
        "generation.preset: expected str | None, got list",
        "offline: expected bool, got str",
        "training.betas: expected tuple[float, float], got list",
        "training.max_epochs: expected int, got str",
        "training.preset: unknown preset ['frozen-head']; have ['backbone-finetune', 'frozen-head']",
    ]

    data = _minimal(tmp_path, training={"betas": 0.9})
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    assert err.value.problems == ["training.betas: expected tuple[float, float], got float"]

    for seeds in (True, [0, True]):  # a bool is not an int seed
        with pytest.raises(ConfigError) as err:
            parse_config_data(_minimal(tmp_path, seeds=seeds))
        assert err.value.problems == ["seeds: must be a non-empty list of integers"]


def test_ill_typed_required_field_is_reported_once_per_problem(tmp_path):
    data = _minimal(tmp_path, method="textual_expansion", providers={"elaborator": 5})
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    assert err.value.problems == ["providers.elaborator: expected str | None, got int"]

    data = _minimal(tmp_path, method="gen_image", generation={"backend": 7, "preset": ["a"]})
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    assert err.value.problems == [  # two problems with one section prefix both survive
        "generation.backend: expected str, got int",
        "generation.preset: expected str | None, got list",
    ]


def test_int_for_float_field_is_kept_and_hashes_as_before(tmp_path):
    data = _minimal(tmp_path, training={"learning_rate": 1, "grad_clip_norm": 2})
    config = parse_config_data(data)
    assert config.training.learning_rate == 1 and type(config.training.learning_rate) is int
    assert config.training.grad_clip_norm == 2


def test_example_config_keeps_its_hash():
    """Type checks add no conversion, so the shipped example hashes as it
    always has (paths left relative, so the hash does not depend on where the
    checkout lives)."""
    path = Path(__file__).resolve().parents[1] / "demos" / "config.example.yaml"
    config = parse_config_data(yaml.safe_load(path.read_text()))
    assert config.config_hash() == "0fccadfd5c871d0e79c6ddd11adecebb7ed844810aaff2face57b3dbd5653145"
