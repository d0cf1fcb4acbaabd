"""The package's import graph: each module imports only modules below it in
one declared order, uses every package name it imports at module level, and
imports no ``_``-prefixed name of another module, so a rule another module
needs is public where it is defined. The checks read the source with
``ast``, so they see a function-local import too (``providers`` imports
``remotes`` only when a name resolves to a remote adapter)."""

from __future__ import annotations

import ast
from pathlib import Path

import t2ifuse

PACKAGE = Path(t2ifuse.__file__).parent

# Bottom to top: a module may import only the modules before it. ``__init__``
# holds the version and imports nothing, so every module may import it.
ORDER = (
    "storage", "tensorcore", "fusion", "corpus", "prompting", "generation", "embedding", "remotes",
    "synthetic", "axes", "evaluation", "training", "config", "providers", "orchestrator", "sweep", "cli",
)

# Imported and not used, by design: the benchmark's tracer wraps these names
# in ``orchestrator``'s namespace (perfbench/tracing.py), so they must resolve there.
UNUSED_ALLOWED = {("orchestrator", "embed_text"), ("orchestrator", "generate_image")}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _relative_imports(tree: ast.Module):
    return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]


def _source(node: ast.ImportFrom, alias: ast.alias, modules) -> str:
    """The package module an imported name comes from: ``from . import name``
    names ``__init__`` when ``name`` is not a module."""
    if node.module:
        return node.module.split(".")[0]
    return alias.name if alias.name in modules else "__init__"


def _edges(modules) -> dict[str, set[str]]:
    return {name: {_source(node, alias, modules) for node in _relative_imports(tree) for alias in node.names}
            for name, tree in modules.items()}


def test_every_module_has_a_place_in_the_order():
    assert set(_modules()) - {"__init__"} == set(ORDER)


def test_each_module_imports_only_modules_below_it():
    modules = _modules()
    edges = _edges(modules)
    assert edges["__init__"] == set()
    upward = sorted(f"{name} imports {target}" for name, targets in edges.items() if name != "__init__"
                    for target in targets
                    if target != "__init__" and ORDER.index(target) >= ORDER.index(name))
    assert upward == []


def test_every_package_name_imported_at_module_level_is_used():
    unused = []
    for name, tree in _modules().items():
        bound = {}  # name bound by an import -> line
        for node in _relative_imports(tree):
            if node in tree.body:
                bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line}: {bound_name}" for bound_name, line in bound.items()
                   if bound_name not in used and (name, bound_name) not in UNUSED_ALLOWED]
    assert unused == []


def test_no_module_imports_another_modules_private_name():
    private = sorted(f"{name}:{node.lineno}: {alias.name}" for name, tree in _modules().items()
                     for node in _relative_imports(tree) for alias in node.names
                     if alias.name.startswith("_") and not alias.name.startswith("__"))
    assert private == []
