"""Every Python file of the project parses as the oldest Python it supports."""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_every_source_file_parses_as_the_oldest_supported_python():
    # best effort: ``feature_version`` rejects the newer syntax that the
    # parser gates (``except*`` among it), but not a newer standard-library name
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (REPO / "pyproject.toml").read_text())
    version = (3, int(floor.group(1)))
    sources = sorted(path for top in ("src", "tests", "tools", "perfbench")
                     for path in (REPO / top).rglob("*.py"))
    assert len(sources) >= 40
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
