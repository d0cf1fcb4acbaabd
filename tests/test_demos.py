"""Smoke test: every demo script runs to completion and leaves the checkout as it was."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _checkout_files() -> dict[str, tuple[int, int]]:
    """Relative path -> (size, mtime) for every file outside .git."""
    files = {}
    for path in ROOT.rglob("*"):
        rel = path.relative_to(ROOT)
        if rel.parts[0] != ".git" and path.is_file():
            stat = path.stat()
            files[str(rel)] = (stat.st_size, stat.st_mtime_ns)
    return files


def test_demos_found():
    assert DEMOS, "no demos/0*.py found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_writes_nothing_into_checkout(demo):
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    before = _checkout_files()
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert _checkout_files() == before
