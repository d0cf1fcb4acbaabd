"""Sweep axes and the axes of each paper table: a leaf that the other modules import."""

import dataclasses
from pathlib import Path
from typing import Callable, NamedTuple

from .fusion import MECHANISMS
from .generation import _PRESETS as GENERATION_PRESETS
from .prompting import STRATEGIES

# The experiment methods, in the order the main table lists them.
METHODS = ("text_only", "textual_expansion", "knowledge_retrieval",
           "gen_image", "gen_image_fast", "oracle_image")
GENERATIVE_METHODS = ("gen_image", "gen_image_fast")


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
    "backend": SweepAxis(lambda c: c.generation.backend,
                         lambda c, v: _with(c, "generation", backend=str(v), preset=None),
                         tuple(dict.fromkeys(p[0] for p in GENERATION_PRESETS.values())) + ("stub",)),
    "strategy": SweepAxis(lambda c: c.strategy, lambda c, v: _with(c, None, strategy=str(v)), STRATEGIES),
    "method": SweepAxis(lambda c: c.method, lambda c, v: _with(c, None, method=str(v)), METHODS),
    "dataset": SweepAxis(lambda c: Path(c.dataset.path).stem, lambda c, v: _with(c, "dataset", path=str(v))),
    "steps": SweepAxis(lambda c: c.generation_params().steps, lambda c, v: _with(c, "generation", steps=int(v))),
    "learning_rate": SweepAxis(lambda c: c.training.learning_rate,
                               lambda c, v: _with(c, "training", learning_rate=float(v))),
}


def repeats_a_value(values) -> bool:
    """Whether two values of a sweep axis name one cell, which ``str(value)`` names."""
    return len({str(v) for v in values}) < len(values)


# Paper table -> the axes of its cells, in cell-key order. Only
# evaluation.table_layout reads it; the fusion table's axes follow its own rule.
LAYOUT_AXES = {
    "main_table": ("method", "dataset"),
    "t2i_prompt_table": ("backend", "strategy"),
}
