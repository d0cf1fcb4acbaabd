import copy
import dataclasses
import typing
from pathlib import Path

import yaml
import pytest

from t2ifuse.config import (EXECUTION_FIELDS, ConfigError, ExperimentConfig, parse_config, parse_config_data,
                            without_fields)


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
    with pytest.raises(ConfigError) as err:
        parse_config_data(_minimal(tmp_path, method="gen_image"))  # no generation section at all
    assert err.value.problems == ["generation.backend: required for method gen_image"]
    with pytest.raises(ConfigError) as err:
        parse_config_data(_minimal(tmp_path, method="gen_image", strategy="elaborated",
                                   generation={"backend": "sdxl"}))
    assert err.value.problems == ["providers.elaborator: required for strategy elaborated"]


def test_training_preset_resolution(tmp_path):
    data = _minimal(tmp_path, training={"preset": "frozen-head", "max_epochs": 7})
    config = parse_config_data(data)
    assert config.training.learning_rate == 1e-3
    assert config.training.max_epochs == 7
    finetune = parse_config_data(_minimal(tmp_path, training={"preset": "backbone-finetune"})).training
    assert (finetune.learning_rate, finetune.max_epochs, finetune.patience) == (2e-5, 5, 2)
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


def test_a_repeated_sweep_value_is_rejected_by_name(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config_data(_minimal(tmp_path, sweep={"axes": {"mechanism": ["concat", "concat"],
                                                             "steps": [1, "1"]}}))
    assert err.value.problems == [
        "sweep.axes.mechanism: must not repeat a value, got ['concat', 'concat']",
        "sweep.axes.steps: must not repeat a value, got [1, '1']",  # both name the cell steps=1
    ]


def test_a_stylized_strategy_needs_style_tags_for_its_task(tmp_path):
    generative = dict(method="gen_image", generation={"backend": "stub"}, task_id="movies")
    with pytest.raises(ConfigError) as err:
        parse_config_data(_minimal(tmp_path, strategy="stylized", **generative))
    assert err.value.problems == [
        "task_id: no style tags for task 'movies' under strategy stylized; have ('sentiment', 'news')"]
    assert parse_config_data(_minimal(tmp_path, strategy="keyword", **generative)).task_id == "movies"
    # a method that builds no image prompt never reads the task's tags
    assert parse_config_data(_minimal(tmp_path, strategy="stylized", task_id="movies")).task_id == "movies"
    assert parse_config_data(_minimal(tmp_path, strategy="stylized", **{**generative, "task_id": "news"}))


def test_a_config_root_that_is_not_a_mapping_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="config root must be a mapping"):
        parse_config_data([{"experiment_id": "demo"}])
    path = _write(tmp_path, [{"experiment_id": "demo"}])
    with pytest.raises(ConfigError, match="config root must be a mapping"):
        parse_config(path, overrides={"output_dir": str(tmp_path / "run")})  # as the CLI's --out sets it


def test_a_single_seed_reads_as_a_one_seed_tuple(tmp_path):
    assert parse_config_data(_minimal(tmp_path, seeds=3)).seeds == (3,)


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


@pytest.mark.parametrize("key, value", [
    ("grad_clip_norm", -1.0), ("grad_clip_norm", 0.0), ("grad_clip_norm", float("nan")),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("weight_decay", float("nan")), ("weight_decay", float("inf")),
])
def test_training_numbers_out_of_range_are_rejected_by_name(tmp_path, key, value):
    with pytest.raises(ConfigError) as err:
        parse_config_data(_minimal(tmp_path, training={key: value}))
    [problem] = err.value.problems
    assert problem.startswith(f"{key} must be finite"), problem


def test_example_config_keeps_its_hash():
    """Type checks add no conversion, so the shipped example hashes as it
    always has (paths left relative, so the hash does not depend on where the
    checkout lives)."""
    path = Path(__file__).resolve().parents[1] / "demos" / "config.example.yaml"
    config = parse_config_data(yaml.safe_load(path.read_text()))
    assert config.config_hash() == "0fccadfd5c871d0e79c6ddd11adecebb7ed844810aaff2face57b3dbd5653145"


def test_without_fields_returns_a_copy_and_leaves_its_argument_as_it_was(tmp_path):
    data = parse_config_data(_minimal(tmp_path)).to_dict()
    before = copy.deepcopy(data)
    paths = (*EXECUTION_FIELDS, "fusion", "training.seed", "sweep_axes")
    expected = copy.deepcopy(data)
    for path in paths:
        section, _, name = path.rpartition(".")
        del (expected[section] if section else expected)[name]
    assert without_fields(data, paths) == expected
    assert data == before


def test_every_section_reports_its_own_check(tmp_path):
    data = _minimal(tmp_path, fusion={"heads": 3}, training={"grad_clip_norm": -1},
                    generation={"steps": 0})
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    assert sorted(err.value.problems) == [
        "grad_clip_norm must be finite and > 0, or null, got -1",
        "heads=3 must divide model_dim=16",
        "steps must be >= 1",
    ]


def test_values_that_would_fail_a_later_stage_are_rejected_by_name(tmp_path):
    data = _minimal(
        tmp_path,
        dataset={"path": "data.csv", "max_text_tokens": 0, "split_fractions": [0.5, 0.5, 0.5]},
        generation={"concurrency": -3, "retries": 0},
        evaluation={"bootstrap_resamples": 1, "bootstrap_metric": "auc"},
        seeds=[1, 1],
    )
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    assert sorted(err.value.problems) == [
        "bootstrap_resamples must be >= 2, got 1",
        "concurrency must be >= 1, got -3",
        "evaluation.bootstrap_metric: unknown bootstrap_metric 'auc'; have ('accuracy', 'macro_f1')",
        "max_text_tokens must be >= 1, got 0",
        "retries must be >= 1, got 0",
        "seeds: must not repeat a seed, got [1, 1]",
        "split_fractions must sum to 1, got 1.5",
    ]


def test_a_malformed_hash_encoder_name_is_rejected_by_name(tmp_path):
    for text, image in (("hash-abc", "hash-0"), ("hash-", "hash--4")):
        with pytest.raises(ConfigError) as err:
            parse_config_data(_minimal(tmp_path, providers={"text": text, "image": image}))
        assert err.value.problems == [
            f"text must be hash-<dim> with a positive integer dim, got {text!r}",
            f"image must be hash-<dim> with a positive integer dim, got {image!r}",
        ]
    config = parse_config_data(_minimal(tmp_path, providers={"text": "hash-8", "image": "clip-vit"}))
    assert (config.providers.text, config.providers.image) == ("hash-8", "clip-vit")


def test_a_section_with_an_ill_typed_value_is_not_range_checked(tmp_path):
    """Its range checks would see a default in place of the value given."""
    data = _minimal(tmp_path, fusion={"model_dim": "12", "heads": 3}, sweep_axes={"method": ["x"]})
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    assert err.value.problems == ["sweep_axes: unknown key", "fusion.model_dim: expected int, got str"]


def test_fields_the_pipeline_sets_are_rejected_by_name(tmp_path):
    data = _minimal(tmp_path, fusion={"num_classes": 7}, training={"seed": 3})
    with pytest.raises(ConfigError) as err:
        parse_config_data(data)
    assert err.value.problems == [
        "fusion.num_classes: set by the pipeline from the dataset's label count, not by the config",
        "training.seed: set by the pipeline from each value of seeds, not by the config",
    ]


# Every field path a config file may set. Adding or dropping a config field
# is an edit here.
SETTABLE_FIELDS = [
    "cache_dir", "cost_mode",
    "dataset.format", "dataset.max_text_tokens", "dataset.path", "dataset.split_fractions",
    "dataset.split_seed",
    "evaluation.bootstrap_metric", "evaluation.bootstrap_resamples", "evaluation.bootstrap_seed",
    "experiment_id",
    "fusion.dropout_rate", "fusion.encoder_layers", "fusion.heads", "fusion.hidden_dim",
    "fusion.mechanism", "fusion.model_dim", "fusion.visual_prefix_len",
    "generation.backend", "generation.concurrency", "generation.endpoint", "generation.guidance_scale",
    "generation.height", "generation.preset", "generation.retries", "generation.scheduler_id",
    "generation.seed", "generation.steps", "generation.width",
    "method", "offline", "output_dir",
    "providers.chat_endpoint", "providers.elaborator", "providers.image", "providers.image_endpoint",
    "providers.oracle_features", "providers.retrieval_corpus", "providers.text", "providers.text_endpoint",
    "seeds", "strategy", "task_id",
    "training.batch_size", "training.betas", "training.eps", "training.grad_clip_norm",
    "training.learning_rate", "training.max_epochs", "training.patience", "training.weight_decay",
]


def _leaf_fields(cls, prefix=""):
    """(path, field) for every non-section field, walking sections as the parser does."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _leaf_fields(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f


def test_settable_config_fields_are_pinned(tmp_path):
    accepted = []
    for path, f in _leaf_fields(ExperimentConfig):
        data = _minimal(tmp_path)
        *sections, name = path.split(".")
        target = data
        for section in sections:
            target = target.setdefault(section, {})
        if f.default is not dataclasses.MISSING:
            value = f.default
        elif f.default_factory is not dataclasses.MISSING:
            value = f.default_factory()
        else:
            value = target[name]  # required: the minimal config sets it
        target[name] = list(value) if isinstance(value, tuple) else value
        try:
            parse_config_data(data)
        except ConfigError:
            continue
        accepted.append(path)
    assert sorted(accepted) == SETTABLE_FIELDS
