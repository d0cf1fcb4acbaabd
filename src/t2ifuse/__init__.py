"""t2ifuse: text classification augmented with on-the-fly generated images.

The package is organized as a library of independently testable stages:

- :mod:`t2ifuse.storage` -- hashing, atomic writes, JSONL, the segment log caches keep.
- :mod:`t2ifuse.axes` -- the methods and their image sources, sweep axes, run descriptors, paper-table axes.
- :mod:`t2ifuse.corpus` -- dataset loading, label spaces, deterministic splits.
- :mod:`t2ifuse.synthetic` -- synthetic bimodal datasets and oracle features.
- :mod:`t2ifuse.prompting` -- text-to-image prompt strategies, LLM rewrites, each method's input text.
- :mod:`t2ifuse.generation` -- image backends, content-addressed cache, cost ledger.
- :mod:`t2ifuse.embedding` -- encoder providers, embedding cache, CLIP-style scoring.
- :mod:`t2ifuse.remotes` -- HTTP adapters for remote image, encoder and chat endpoints.
- :mod:`t2ifuse.tensorcore` -- batched, masked kernels with hand-written gradients.
- :mod:`t2ifuse.fusion` -- the three fusion heads mapping features to class logits.
- :mod:`t2ifuse.training` -- AdamW, early stopping, deterministic training loop.
- :mod:`t2ifuse.evaluation` -- metrics, confusion matrices, bootstrap, report tables.
- :mod:`t2ifuse.config` -- YAML config parsing and validation, presets, stable hashes.
- :mod:`t2ifuse.providers` -- which backend, encoder, chat client or retriever serves a name.
- :mod:`t2ifuse.orchestrator` -- config-driven staged pipeline with resume and reuse.
- :mod:`t2ifuse.sweep` -- sweeps over axis grids, and reports over finished runs.
- :mod:`t2ifuse.cli` -- the command line: run a stage, a sweep or a report.
"""

__version__ = "0.1.0"
