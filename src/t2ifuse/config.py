"""Experiment configuration: YAML parsing, validation, presets, stable hashing.

Config files are nested key-value YAML. Validation is strict (unknown keys
are errors) and exhaustive: every problem is collected and reported at once.
The resolved config hashes identically regardless of key order in the file;
any semantic change changes the hash.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .axes import GENERATIVE_METHODS, METHODS
from .corpus import DATASET_FORMATS
from .fusion import FusionConfig, MECHANISMS
from .generation import _PRESETS as GENERATION_PRESETS
from .generation import COST_MODES, GenerationParams, preset_params
from .prompting import STRATEGIES
from .storage import stable_key
from .training import TRAIN_PRESETS, TrainConfig


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in problems))


@dataclass(frozen=True)
class DatasetConfig:
    path: str
    format: str = "delimited_rows"
    max_text_tokens: int = 256
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    split_seed: int = 13


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


@dataclass(frozen=True)
class GenerationConfig:
    backend: str = "stub"
    preset: str | None = None
    steps: int | None = None
    guidance_scale: float | None = None
    width: int | None = None
    height: int | None = None
    scheduler_id: str | None = None
    seed: int = 0
    endpoint: str | None = None
    concurrency: int = 2
    retries: int = 3


@dataclass(frozen=True)
class EvalConfig:
    bootstrap_resamples: int = 200
    bootstrap_seed: int = 0
    bootstrap_metric: str = "macro_f1"


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
        """Generation parameters from preset and/or explicit overrides.

        ``generation.backend`` is the logical backend id carried into cache
        keys, ledger records, and cost estimates; whether a real endpoint or
        the offline stub executes the request is the registry's concern.
        """
        gen = self.generation
        preset = gen.preset
        if preset is None and gen.backend in GENERATION_PRESETS:
            preset = gen.backend
        if preset is not None:
            base = dataclasses.asdict(preset_params(preset, seed=gen.seed))
        else:
            base = dict(
                steps=4, guidance_scale=0.0, width=512, height=512,
                scheduler_id=None, seed=gen.seed, provider_managed=False,
            )
        for name, value in (
            ("steps", gen.steps),
            ("guidance_scale", gen.guidance_scale),
            ("width", gen.width),
            ("height", gen.height),
            ("scheduler_id", gen.scheduler_id),
        ):
            if value is not None:
                base[name] = value
        if self.method == "gen_image_fast":
            base["steps"] = 1  # strict-latency variant: single inference step
        base["backend_id"] = gen.backend
        return GenerationParams(**base)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["seeds"] = list(self.seeds)
        data["sweep_axes"] = {k: list(v) for k, v in self.sweep_axes.items()}
        return data

    def config_hash(self) -> str:
        return stable_key(self.to_dict())


def _with(config: ExperimentConfig, section: str | None, **changes) -> ExperimentConfig:
    """``config`` with fields of ``section`` (``None``: the top level) replaced."""
    if section:
        changes = {section: dataclasses.replace(getattr(config, section), **changes)}
    return dataclasses.replace(config, **changes)


# Sweep axis -> (its value in a config, the config with the axis set to a
# value). The manifest descriptor, sweep cells, the sweep.axes check and the
# combined tables all read this table; its order is their column order.
SWEEP_AXES = {
    "mechanism": (lambda c: c.fusion.mechanism, lambda c, v: _with(c, "fusion", mechanism=str(v))),
    "backend": (lambda c: c.generation.backend,
                lambda c, v: _with(c, "generation", backend=str(v), preset=None)),
    "strategy": (lambda c: c.strategy, lambda c, v: _with(c, None, strategy=str(v))),
    "method": (lambda c: c.method, lambda c, v: _with(c, None, method=str(v))),
    "dataset": (lambda c: Path(c.dataset.path).stem, lambda c, v: _with(c, "dataset", path=str(v))),
    "steps": (lambda c: c.generation_params().steps,
              lambda c, v: _with(c, "generation", steps=int(v))),
    "learning_rate": (lambda c: c.training.learning_rate,
                      lambda c, v: _with(c, "training", learning_rate=float(v))),
}


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


def _check_type(value, hint, path: str, problems: list[str]) -> bool:
    if _matches(value, hint):
        return True
    expected = hint.__name__ if isinstance(hint, type) and not typing.get_args(hint) else hint
    problems.append(f"{path}: expected {expected}, got {type(value).__name__}")
    return False


def _parse_section(cls, data: dict, path: str, problems: list[str]) -> dict:
    """The well-typed known keys of a section; every other key is a problem
    and is left out, so later checks only ever see values of the right type."""
    if not isinstance(data, dict):
        problems.append(f"{path}: expected a mapping, got {type(data).__name__}")
        return {}
    hints = typing.get_type_hints(cls)
    out: dict[str, Any] = {}
    for key, value in data.items():
        if key not in hints:
            problems.append(f"{path}.{key}: unknown key")
        elif _check_type(value, hints[key], f"{path}.{key}", problems):
            out[key] = value
    return out


def _lacks(kwargs: dict, raw: Any, key: str) -> bool:
    """Whether a required field is absent or empty. A value that failed its
    type check is already reported, so it does not count as absent."""
    return not kwargs.get(key) and (key in kwargs or not isinstance(raw, dict) or key not in raw)


def _parse_fusion(data: dict, problems: list[str]) -> dict:
    out = _parse_section(FusionConfig, data, "fusion", problems)
    mech = out.get("mechanism")
    if mech is not None and mech not in MECHANISMS:
        problems.append(f"fusion.mechanism: unknown mechanism {mech!r}; have {MECHANISMS}")
    return out


def _parse_training(data: dict, problems: list[str]) -> dict:
    if not isinstance(data, dict):
        return _parse_section(TrainConfig, data, "training", problems)
    data = dict(data)
    preset = data.pop("preset", None)
    out: dict[str, Any] = {}
    if preset is not None:
        if not isinstance(preset, str) or preset not in TRAIN_PRESETS:
            problems.append(
                f"training.preset: unknown preset {preset!r}; have {sorted(TRAIN_PRESETS)}"
            )
        else:
            out.update(TRAIN_PRESETS[preset])
    section = _parse_section(TrainConfig, data, "training", problems)
    if "betas" in section:
        section["betas"] = tuple(section["betas"])
    out.update(section)
    return out


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

    known_top = {
        "experiment_id", "dataset", "output_dir", "method", "strategy", "task_id",
        "generation", "providers", "fusion", "training", "evaluation", "seeds",
        "cache_dir", "offline", "cost_mode", "sweep",
    }
    for key in data:
        if key not in known_top:
            problems.append(f"{key}: unknown key")

    experiment_id = data.get("experiment_id")
    if not experiment_id or not isinstance(experiment_id, str):
        problems.append("experiment_id: required string")
    output_dir = data.get("output_dir")
    if not output_dir or not isinstance(output_dir, str):
        problems.append("output_dir: required string")

    dataset_raw = data.get("dataset")
    dataset_kwargs: dict[str, Any] = {}
    if not isinstance(dataset_raw, dict) or "path" not in dataset_raw:
        problems.append("dataset.path: required")
    else:
        dataset_kwargs = _parse_section(DatasetConfig, dataset_raw, "dataset", problems)
        fmt = dataset_kwargs.get("format", "delimited_rows")
        if fmt not in DATASET_FORMATS:
            problems.append(f"dataset.format: unknown format {fmt!r}")
        if "split_fractions" in dataset_kwargs:
            dataset_kwargs["split_fractions"] = tuple(dataset_kwargs["split_fractions"])

    method = data.get("method", "text_only")
    if method not in METHODS:
        problems.append(f"method: unknown method {method!r}; have {METHODS}")
    strategy = data.get("strategy", "keyword")
    if strategy not in STRATEGIES:
        problems.append(f"strategy: unknown strategy {strategy!r}; have {STRATEGIES}")

    providers_raw = data.get("providers", {}) or {}
    providers_kwargs = _parse_section(ProvidersConfig, providers_raw, "providers", problems)
    generation_raw = data.get("generation", {}) or {}
    generation_kwargs = _parse_section(GenerationConfig, generation_raw, "generation", problems)
    fusion_kwargs = _parse_fusion(data.get("fusion", {}) or {}, problems)
    training_kwargs = _parse_training(data.get("training", {}) or {}, problems)
    eval_kwargs = _parse_section(
        EvalConfig, data.get("evaluation", {}) or {}, "evaluation", problems
    )

    preset = generation_kwargs.get("preset")
    if preset is not None and preset not in GENERATION_PRESETS:
        problems.append(
            f"generation.preset: unknown preset {preset!r}; have {sorted(GENERATION_PRESETS)}"
        )

    seeds = data.get("seeds", [0, 1, 2])
    if _matches(seeds, int):
        seeds = [seeds]
    if not isinstance(seeds, list) or not seeds or not all(_matches(s, int) for s in seeds):
        problems.append("seeds: must be a non-empty list of integers")
        seeds = [0]

    cost_mode = data.get("cost_mode", "estimated")
    if cost_mode not in COST_MODES:
        problems.append(f"cost_mode: must be one of {COST_MODES}")
    hints = typing.get_type_hints(ExperimentConfig)
    for key in ("task_id", "cache_dir", "offline"):
        if key in data:
            _check_type(data[key], hints[key], key, problems)
    offline = data.get("offline", True)

    # method-dependent requirements
    lacks_elaborator = _lacks(providers_kwargs, providers_raw, "elaborator")
    if method == "textual_expansion" and lacks_elaborator:
        problems.append("providers.elaborator: required for method textual_expansion")
    if method == "knowledge_retrieval" and _lacks(providers_kwargs, providers_raw, "retrieval_corpus"):
        problems.append("providers.retrieval_corpus: required for method knowledge_retrieval")
    if method == "oracle_image" and _lacks(providers_kwargs, providers_raw, "oracle_features"):
        problems.append("providers.oracle_features: required for method oracle_image")
    if method in GENERATIVE_METHODS and _lacks(generation_kwargs, generation_raw, "backend"):
        problems.append(f"generation.backend: required for method {method}")
    if strategy == "elaborated" and method in GENERATIVE_METHODS and lacks_elaborator:
        problems.append("providers.elaborator: required for strategy elaborated")

    sweep_raw = data.get("sweep", {}) or {}
    sweep_axes: dict[str, tuple] = {}
    if sweep_raw:
        axes = sweep_raw.get("axes") if isinstance(sweep_raw, dict) else None
        if not isinstance(axes, dict) or not axes:
            problems.append("sweep.axes: must be a non-empty mapping of axis -> values")
        else:
            for axis, values in axes.items():
                if axis not in SWEEP_AXES:
                    problems.append(f"sweep.axes.{axis}: unknown axis; have {tuple(SWEEP_AXES)}")
                elif not isinstance(values, list) or not values:
                    problems.append(f"sweep.axes.{axis}: must be a non-empty list")
                else:
                    sweep_axes[axis] = tuple(values)

    if problems:
        raise ConfigError(problems)

    if base_dir is not None:
        def resolve(path: str) -> str:
            return path if Path(path).is_absolute() else str(base_dir / path)

        dataset_kwargs["path"] = resolve(dataset_kwargs["path"])
        for key in ("retrieval_corpus", "oracle_features"):
            if providers_kwargs.get(key):
                providers_kwargs[key] = resolve(providers_kwargs[key])
        if "dataset" in sweep_axes:
            sweep_axes["dataset"] = tuple(resolve(str(v)) for v in sweep_axes["dataset"])

    try:
        config = ExperimentConfig(
            experiment_id=experiment_id,
            dataset=DatasetConfig(**dataset_kwargs),
            output_dir=str(output_dir),
            method=method,
            strategy=strategy,
            task_id=data.get("task_id", "sentiment"),
            generation=GenerationConfig(**generation_kwargs),
            providers=ProvidersConfig(**providers_kwargs),
            fusion=FusionConfig(**fusion_kwargs),
            training=TrainConfig(**training_kwargs),
            evaluation=EvalConfig(**eval_kwargs),
            seeds=tuple(seeds),
            cache_dir=data.get("cache_dir"),
            offline=offline,
            cost_mode=cost_mode,
            sweep_axes=sweep_axes,
        )
        config.generation_params()  # validates preset/override combination
    except (TypeError, ValueError) as exc:
        raise ConfigError([str(exc)]) from exc
    return config


def parse_config(path: str | Path, *, overrides: dict | None = None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        raise ConfigError([f"{path}: empty config"])
    if overrides:
        data = _merge(data, overrides)
    return parse_config_data(data, base_dir=path.parent)


def _merge(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out
