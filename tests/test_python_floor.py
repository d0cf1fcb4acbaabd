"""The declared Python floor: every file of the package, its tests and its
demos parses as the oldest Python that ``pyproject.toml`` accepts."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)


def test_the_floor_is_the_one_pyproject_declares():
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert declared and tuple(map(int, declared.groups())) == FLOOR


def test_every_source_file_parses_at_the_floor():
    sources = sorted(path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py"))
    failures = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert len(sources) > 30 and failures == []
