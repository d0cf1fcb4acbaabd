"""Experiment configuration: YAML parsing, validation, presets, stable hashing.

Config files are nested key-value YAML, parsed in one walk over the config
dataclasses that reports every problem at once, each naming its field:

- types by annotation: a key that is not a field is unknown, a value must fit
  its field's type, a list for a tuple field becomes a tuple, and a field
  without a default is required;
- ``CHOICES``: a well-typed value of a field listed there must be one of its
  values; ``training.preset`` merges a preset under the section's own keys;
- ``PIPELINE_SET``: a field the pipeline sets for itself is rejected;
- section checks: each section is built on its own, and its range checks and
  the generation preset/override combination report in their own words;
- method requirements: a method or strategy may need a provider or a backend.

The resolved config hashes identically regardless of key order in the file;
any semantic change changes the hash. ``output_hash`` leaves out the
``EXECUTION_FIELDS``, which change how a run executes but not what it writes.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .axes import GENERATIVE_METHODS, METHODS, axis_problem
from .corpus import DATASET_FORMATS, split_fractions_problem
from .evaluation import BOOTSTRAP_METRICS
from .fusion import FusionConfig, MECHANISMS
from .generation import COST_MODES, GENERATION_PRESETS, GenerationParams, preset_params
from .prompting import DEFAULT_STYLE_LEXICON, STRATEGIES
from .storage import stable_key
from .training import TRAIN_PRESETS, TrainConfig


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in problems))


def _reject(*problems: str | bool | None) -> None:
    """Raise a :class:`ConfigError` of the ``problems`` that are messages, not ``False`` or ``None``."""
    problems = [p for p in problems if p]
    if problems:
        raise ConfigError(problems)


@dataclass(frozen=True)
class DatasetConfig:
    path: str
    format: str = "delimited_rows"
    max_text_tokens: int = 256
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    split_seed: int = 13

    def __post_init__(self):
        _reject(self.max_text_tokens < 1 and f"max_text_tokens must be >= 1, got {self.max_text_tokens}",
                split_fractions_problem(self.split_fractions, "split_fractions"))


@dataclass(frozen=True)
class ProvidersConfig:
    text: str = "hash-32"
    image: str = "hash-32"
    elaborator: str | None = None
    retrieval_corpus: str | None = None
    oracle_features: str | None = None
    text_endpoint: str | None = None
    image_endpoint: str | None = None
    chat_endpoint: str | None = None

    def __post_init__(self):
        _reject(*(f"{name} must be hash-<dim> with a positive integer dim, got {value!r}"
                  for name, value in (("text", self.text), ("image", self.image))
                  if value.startswith("hash-") and not (value[5:].isdecimal() and int(value[5:]) > 0)))


# The settings of a backend without a preset.
_NO_PRESET = GenerationParams("stub", steps=4, guidance_scale=0.0, width=512, height=512)


@dataclass(frozen=True)
class GenerationConfig:
    backend: str | None = None  # required by a method that generates
    preset: str | None = None
    steps: int | None = None
    guidance_scale: float | None = None
    width: int | None = None
    height: int | None = None
    scheduler_id: str | None = None
    seed: int = 0
    endpoint: str | None = None
    # image requests in flight; also encoder requests, for an encoder without batch methods
    concurrency: int = 2
    retries: int = 3  # attempts in all, for every remote request: images, encoders and chat

    def __post_init__(self):
        _reject(*(getattr(self, name) < 1 and f"{name} must be >= 1, got {getattr(self, name)}"
                  for name in ("concurrency", "retries")))

    def params(self, method: str) -> GenerationParams:
        """Generation parameters from preset and/or explicit overrides.

        ``backend`` is the logical backend id carried into cache keys, ledger
        records, and cost estimates (unset: the preset's, else ``stub``);
        whether a real endpoint or the offline stub executes the request is
        the registry's concern.
        """
        preset = self.preset
        if preset is None and self.backend in GENERATION_PRESETS:
            preset = self.backend
        overrides = {name: getattr(self, name) for name in ("steps", "guidance_scale", "width", "height",
                                                            "scheduler_id") if getattr(self, name) is not None}
        if method == "gen_image_fast":
            overrides["steps"] = 1  # strict-latency variant: single inference step
        base = preset_params(preset) if preset is not None else _NO_PRESET
        return dataclasses.replace(base, backend_id=self.backend or base.backend_id, seed=self.seed, **overrides)


@dataclass(frozen=True)
class EvalConfig:
    bootstrap_resamples: int = 200
    bootstrap_seed: int = 0
    bootstrap_metric: str = "macro_f1"

    def __post_init__(self):
        _reject(self.bootstrap_resamples < 2
                and f"bootstrap_resamples must be >= 2, got {self.bootstrap_resamples}")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    dataset: DatasetConfig
    output_dir: str
    method: str = "text_only"
    strategy: str = "keyword"
    task_id: str = "sentiment"
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    providers: ProvidersConfig = field(default_factory=ProvidersConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    seeds: tuple[int, ...] = (0, 1, 2)
    cache_dir: str | None = None
    offline: bool = True
    cost_mode: str = "estimated"
    sweep_axes: dict[str, tuple] = field(default_factory=dict)

    def resolved_cache_dir(self) -> Path:
        return Path(self.cache_dir) if self.cache_dir else Path(self.output_dir) / "cache"

    def generation_params(self) -> GenerationParams:
        return self.generation.params(self.method)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["seeds"] = list(self.seeds)
        data["sweep_axes"] = {k: list(v) for k, v in self.sweep_axes.items()}
        return data

    def config_hash(self) -> str:
        return stable_key(self.to_dict())

    def output_hash(self) -> str:
        """The hash of what decides the run's outputs: the config less its ``EXECUTION_FIELDS``."""
        return stable_key(without_fields(self.to_dict(), EXECUTION_FIELDS))


# Field path -> its allowed values; a value is checked here once it has its
# field's type. ``training.preset`` names a row of TRAIN_PRESETS.
CHOICES = {
    "method": METHODS,
    "strategy": STRATEGIES,
    "cost_mode": COST_MODES,
    "dataset.format": DATASET_FORMATS,
    "fusion.mechanism": MECHANISMS,
    "generation.preset": sorted(GENERATION_PRESETS),
    "training.preset": sorted(TRAIN_PRESETS),
    "evaluation.bootstrap_metric": BOOTSTRAP_METRICS,
}

# Field path -> what the pipeline sets it from; a config file may not set it,
# as the value it gave would change the config hash and nothing else.
PIPELINE_SET = {
    "fusion.num_classes": "the dataset's label count",
    "training.seed": "each value of seeds",
}

# Field path -> what it decides instead of a run's outputs; a run resumes
# across a change to any of them.
EXECUTION_FIELDS = {
    "output_dir": "where the run is written",
    "offline": "whether a remote call is refused",
    "generation.retries": "how often a failed request is tried",
    "generation.concurrency": "how many requests are in flight",
}


def without_fields(data: dict, paths) -> dict:
    """A copy of ``data``, a config's ``to_dict()``, less the fields at the dotted ``paths``."""
    out = dict(data)
    for path in paths:
        section, _, name = path.rpartition(".")
        if section and out[section] is data[section]:  # a section is copied once, if a path names it
            out[section] = dict(data[section])
        del (out[section] if section else out)[name]
    return out


_type_hints = functools.cache(typing.get_type_hints)  # each config class's, evaluated once


def is_field(path: str) -> bool:
    """Whether the dotted ``path`` names an ``ExperimentConfig`` field or section."""
    hint = ExperimentConfig
    for name in path.split("."):
        hints = _type_hints(hint) if dataclasses.is_dataclass(hint) else {}
        if name not in hints:
            return False
        hint = hints[name]
    return True


def _matches(value, hint) -> bool:
    """Whether a parsed YAML value fits a field annotation. An int fits a
    float field and is kept as an int, so the config hash does not change."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_matches(value, a) for a in args)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(_matches(v, a) for v, a in zip(value, args)))
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    return isinstance(value, origin or hint)


def _check_choice(value, path: str, problems: list[str]) -> bool:
    choices = CHOICES.get(path)
    if choices is None or value is None or value in choices:
        return True
    problems.append(f"{path}: unknown {path.rpartition('.')[2]} {value!r}; have {choices}")
    return False


def _lacks(data: Any, cls, key: str) -> bool:
    """Whether ``data`` gives field ``key`` of ``cls`` no value: the key is
    absent or its value empty. A value that fails its type check is already
    reported, so it does not count as absent."""
    if not isinstance(data, dict) or key not in data:
        return True
    return not data[key] and _matches(data[key], _type_hints(cls)[key])


def _parse_section(cls, data: Any, path: str, problems: list[str], skip=()) -> tuple[dict, bool]:
    """The well-typed, known, in-choice values ``data`` gives for ``cls``'s
    fields, and whether ``cls`` can be built from them (no ill-typed value or
    missing required field). Fields in ``skip`` have rules of their own. A
    section field is parsed as one (absent or empty: all defaults) and built
    when it can be, so its own range checks report too."""
    if not isinstance(data, dict):
        problems.append(f"{path}: expected a mapping, got {type(data).__name__}")
        return {}, False
    hints = _type_hints(cls)
    out: dict[str, Any] = {}
    buildable = True
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        hint = None if key in skip else hints.get(key)
        if where in PIPELINE_SET:
            problems.append(f"{where}: set by the pipeline from {PIPELINE_SET[where]}, not by the config")
        elif hint is None:
            problems.append(f"{where}: unknown key")
        elif not dataclasses.is_dataclass(hint):  # a section is parsed below
            if not _matches(value, hint):
                expected = hint.__name__ if isinstance(hint, type) and not typing.get_args(hint) else hint
                problems.append(f"{where}: expected {expected}, got {type(value).__name__}")
                buildable = False
            elif _check_choice(value, where, problems):
                out[key] = tuple(value) if typing.get_origin(hint) is tuple else value
    for f in dataclasses.fields(cls):
        where, hint = f"{path}.{f.name}" if path else f.name, hints[f.name]
        if dataclasses.is_dataclass(hint):
            section, section_buildable = _parse_section(hint, data.get(f.name) or {}, where, problems)
            if section_buildable:
                try:
                    out[f.name] = hint(**section)
                except ValueError as exc:  # a ConfigError carries several
                    problems.extend(getattr(exc, "problems", [str(exc)]))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING \
                and _lacks(data, cls, f.name):
            problems.append(f"{where}: required")
            buildable = False
    return out, buildable


def parse_config_data(data: dict, *, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a raw mapping and build the resolved config.

    Raises :class:`ConfigError` carrying every detected problem, not just the
    first. Relative dataset/feature paths, ``sweep.axes.dataset`` paths among
    them, resolve against ``base_dir``.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["config root must be a mapping"])
    data = dict(data)

    seeds = data.pop("seeds", [0, 1, 2])
    if _matches(seeds, int):
        seeds = [seeds]
    if not isinstance(seeds, list) or not seeds or not all(_matches(s, int) for s in seeds):
        problems.append("seeds: must be a non-empty list of integers")
    elif len(set(seeds)) < len(seeds):
        problems.append(f"seeds: must not repeat a seed, got {seeds}")

    sweep_raw = data.pop("sweep", None) or {}
    sweep_axes: dict[str, tuple] = {}
    if sweep_raw:
        axes = sweep_raw.get("axes") if isinstance(sweep_raw, dict) else None
        if not isinstance(axes, dict) or not axes:
            problems.append("sweep.axes: must be a non-empty mapping of axis -> values")
        else:
            for axis, values in axes.items():
                problem = axis_problem(axis, values)
                if problem:
                    problems.append(problem)
                else:
                    sweep_axes[axis] = tuple(values)

    training = data.get("training")
    if isinstance(training, dict) and "preset" in training:
        training = dict(training)
        preset = training.pop("preset")
        if _check_choice(preset, "training.preset", problems):
            training = {**TRAIN_PRESETS.get(preset, {}), **training}  # the section's own keys win
        data["training"] = training

    kwargs, _ = _parse_section(ExperimentConfig, data, "", problems, skip=("seeds", "sweep_axes"))
    method, strategy = kwargs.get("method", "text_only"), kwargs.get("strategy", "keyword")
    if "generation" in kwargs:
        try:
            kwargs["generation"].params(method)  # the preset/override combination
        except ValueError as exc:
            problems.append(str(exc))

    # method-dependent requirements
    providers, generation = data.get("providers") or {}, data.get("generation") or {}
    lacks_elaborator = _lacks(providers, ProvidersConfig, "elaborator")
    if method == "textual_expansion" and lacks_elaborator:
        problems.append("providers.elaborator: required for method textual_expansion")
    if method == "knowledge_retrieval" and _lacks(providers, ProvidersConfig, "retrieval_corpus"):
        problems.append("providers.retrieval_corpus: required for method knowledge_retrieval")
    if method == "oracle_image" and _lacks(providers, ProvidersConfig, "oracle_features"):
        problems.append("providers.oracle_features: required for method oracle_image")
    if method in GENERATIVE_METHODS and _lacks(generation, GenerationConfig, "backend"):
        problems.append(f"generation.backend: required for method {method}")
    if strategy == "elaborated" and method in GENERATIVE_METHODS and lacks_elaborator:
        problems.append("providers.elaborator: required for strategy elaborated")
    task_id, styled = kwargs.get("task_id", "sentiment"), DEFAULT_STYLE_LEXICON.tags_by_task
    if strategy == "stylized" and method in GENERATIVE_METHODS and task_id not in styled:
        problems.append(f"task_id: no style tags for task {task_id!r} under strategy stylized; "
                        f"have {tuple(styled)}")

    if problems:
        raise ConfigError(problems)

    if base_dir is not None:
        def resolve(path: str) -> str:
            return path if Path(path).is_absolute() else str(base_dir / path)

        dataset, providers = kwargs["dataset"], kwargs["providers"]
        kwargs["dataset"] = dataclasses.replace(dataset, path=resolve(dataset.path))
        kwargs["providers"] = dataclasses.replace(providers, **{
            key: resolve(getattr(providers, key))
            for key in ("retrieval_corpus", "oracle_features") if getattr(providers, key)
        })
        if "dataset" in sweep_axes:
            sweep_axes["dataset"] = tuple(resolve(str(v)) for v in sweep_axes["dataset"])
    return ExperimentConfig(**kwargs, seeds=tuple(seeds), sweep_axes=sweep_axes)


def parse_config(path: str | Path, *, overrides: dict | None = None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        raise ConfigError([f"{path}: empty config"])
    if overrides and isinstance(data, dict):  # top-level fields, as the CLI sets them
        data = {**data, **overrides}
    return parse_config_data(data, base_dir=path.parent)
