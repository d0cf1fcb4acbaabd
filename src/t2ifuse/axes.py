"""Axis values in table order, and the axes of each paper table: a leaf that
``config`` and ``evaluation`` both import."""

from .fusion import MECHANISMS
from .generation import _PRESETS as GENERATION_PRESETS
from .prompting import STRATEGIES

# The experiment methods, in the order the main table lists them.
METHODS = ("text_only", "textual_expansion", "knowledge_retrieval",
           "gen_image", "gen_image_fast", "oracle_image")
GENERATIVE_METHODS = ("gen_image", "gen_image_fast")

# Axis -> its known values in table order; other values sort after them.
AXIS_ORDERS = {
    "method": METHODS,
    "backend": tuple(dict.fromkeys(p[0] for p in GENERATION_PRESETS.values())) + ("stub",),
    "strategy": STRATEGIES,
    "mechanism": MECHANISMS,
}

# Paper table -> the axes of its cells, in cell-key order.
LAYOUT_AXES = {
    "main_table": ("method", "dataset"),
    "t2i_prompt_table": ("backend", "strategy"),
    "fusion_table": ("mechanism",),
}
