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


def test_the_package_calls_no_lapack_routine():
    """The kernels are numpy without LAPACK, so results are bit-reproducible:
    no module of the package reaches ``numpy.linalg`` for anything but
    ``norm``, by attribute or by import."""
    found = []
    for path in sorted((ROOT / "src" / "qhm").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute):
                lapack = ast.unparse(node.value) in ("np.linalg", "numpy.linalg") and node.attr != "norm"
            else:  # an absolute import of numpy.linalg; the package's own linalg is relative
                absolute = isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.level == 0)
                lapack = absolute and "linalg" in ast.unparse(node)
            if lapack:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []
