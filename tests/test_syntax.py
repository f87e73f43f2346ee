"""Every Python file of the package, its tests and its benchmark parses with
the grammar of pyproject's ``requires-python`` floor."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_the_requires_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    sources = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert len(sources) >= 30
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=tuple(map(int, floor)))
