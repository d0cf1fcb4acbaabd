"""The methods, sweep axes and the axes of each paper table: a leaf that the
other modules import. A run's descriptor is its value on each axis.

A sweep cell is named ``<axis>=<value name>`` per axis, joined by ``-``, where
a value's name is ``str(value)`` percent-encoded (:func:`value_name`), e.g.
``dataset=%2Fdata%2Fa_b.csv``; one axis's values must have distinct names.
"""

import dataclasses
from pathlib import Path
from typing import Callable, NamedTuple
from urllib.parse import quote

from .fusion import MECHANISMS
from .generation import GENERATION_PRESETS
from .prompting import STRATEGIES

# The experiment methods, in the order the main table lists them.
METHODS = ("text_only", "textual_expansion", "knowledge_retrieval",
           "gen_image", "gen_image_fast", "oracle_image")
GENERATIVE_METHODS = ("gen_image", "gen_image_fast")


def image_source(method: str) -> str:
    """Where a method's visual features come from: "generate", "oracle" or "none"."""
    return "generate" if method in GENERATIVE_METHODS else "oracle" if method == "oracle_image" else "none"


def _with(config, section: str | None, **changes):
    """``config`` with fields of ``section`` (``None``: the top level) replaced."""
    if section:
        changes = {section: dataclasses.replace(getattr(config, section), **changes)}
    return dataclasses.replace(config, **changes)


class SweepAxis(NamedTuple):
    value_of: Callable  # config -> its value on the axis
    set_to: Callable  # (config, value) -> the config with the axis set to the value
    order: tuple = ()  # known values in table order; other values sort after them


# The manifest descriptor, sweep cells, the sweep.axes check and the combined
# tables all read this table; its order is their column order.
AXES = {
    "mechanism": SweepAxis(lambda c: c.fusion.mechanism,
                           lambda c, v: _with(c, "fusion", mechanism=str(v)), MECHANISMS),
    "backend": SweepAxis(lambda c: c.generation_params().backend_id,
                         lambda c, v: _with(c, "generation", backend=str(v), preset=None),
                         tuple(dict.fromkeys(p.backend_id for p in GENERATION_PRESETS.values())) + ("stub",)),
    "strategy": SweepAxis(lambda c: c.strategy, lambda c, v: _with(c, None, strategy=str(v)), STRATEGIES),
    "method": SweepAxis(lambda c: c.method, lambda c, v: _with(c, None, method=str(v)), METHODS),
    "dataset": SweepAxis(lambda c: Path(c.dataset.path).stem, lambda c, v: _with(c, "dataset", path=str(v))),
    "steps": SweepAxis(lambda c: c.generation_params().steps, lambda c, v: _with(c, "generation", steps=int(v))),
    "learning_rate": SweepAxis(lambda c: c.training.learning_rate,
                               lambda c, v: _with(c, "training", learning_rate=float(v))),
}


def descriptor(config) -> dict:
    """The run's id and its value on every sweep axis, kept in its manifest."""
    return {"experiment_id": config.experiment_id, **{name: axis.value_of(config) for name, axis in AXES.items()}}


def value_name(value) -> str:
    """A sweep value's name in its cell's name: ``str(value)`` percent-encoded,
    so a value made only of ``[A-Za-z0-9_.~-]`` is named by itself, and two
    values share a name only when their strings are equal."""
    return quote(str(value), safe="")


def axis_problem(axis: str, values) -> str | None:
    """What keeps ``values`` from being a sweep over ``axis``, as the config
    reports it, or ``None``: an unknown axis, no values, or two values that
    :func:`value_name` names alike."""
    if axis not in AXES:
        return f"sweep.axes.{axis}: unknown axis; have {tuple(AXES)}"
    if not isinstance(values, (list, tuple)) or not values:
        return f"sweep.axes.{axis}: must be a non-empty list"
    if len({value_name(v) for v in values}) < len(values):
        return f"sweep.axes.{axis}: must not repeat a value, got {list(values)}"
    return None


# Paper table -> the axes of its cells, in cell-key order. Only
# evaluation.table_layout reads it; the fusion table's axes follow its own rule.
LAYOUT_AXES = {
    "main_table": ("method", "dataset"),
    "t2i_prompt_table": ("backend", "strategy"),
}
