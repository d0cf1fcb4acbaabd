"""t2ifuse: text classification augmented with on-the-fly generated images.

The package is organized as a library of independently testable stages:

- :mod:`t2ifuse.corpus` -- dataset loading, label spaces, deterministic splits.
- :mod:`t2ifuse.prompting` -- text-to-image prompt strategies and LLM rewrites.
- :mod:`t2ifuse.generation` -- image backends, content-addressed cache, cost ledger.
- :mod:`t2ifuse.embedding` -- encoder providers, embedding cache, CLIP-style scoring.
- :mod:`t2ifuse.tensorcore` -- batched, masked kernels with hand-written gradients.
- :mod:`t2ifuse.fusion` -- the three fusion heads mapping features to class logits.
- :mod:`t2ifuse.training` -- AdamW, early stopping, deterministic training loop.
- :mod:`t2ifuse.evaluation` -- metrics, confusion matrices, bootstrap, report tables.
- :mod:`t2ifuse.orchestrator` -- config-driven staged pipeline with resume and sweeps.
"""

__version__ = "0.1.0"
