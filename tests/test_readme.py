"""The README's library quick tour, run as written."""

import ast
import math
import re
from pathlib import Path

import pytest

import qhm
import qhm.cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick tour") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_gives_its_commented_values():
    """Each statement of the block runs in order; each expression's value is
    kept under its source text and checked against its comment."""
    source = _quick_tour()
    scope: dict = {}
    values = {}
    for node in ast.parse(source).body:
        text = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[text] = eval(compile(ast.Expression(node.value), "README.md", "eval"), scope)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    assert values["qhm.compute_m(space)"].m_value == math.inf  # assouad5: M infinite
    assert values["qhm.classify_space(space, hyper_bound=3)"].quasihypermetric.holds
    assert values["qhm.compute_m(star).m_value"] == pytest.approx(1.5, rel=1e-12)
    assert values["qhm.compute_m_plus(star)"] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert values["emb.m_plus_geometric"] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert values["qhm.approx_m(desc, max_n=64).final"] == pytest.approx(2.0, rel=1e-12)


def _subclasses(cls):
    return [cls] + [c for sub in cls.__subclasses__() for c in _subclasses(sub)]


def test_exit_codes_are_listed_in_the_readme_and_the_cli_help():
    """README's exit-code list holds 0, 1 and the ``exit_code`` of every
    ``QhmError`` class, and nothing else; the ``cli`` docstring names each."""
    text = README.read_text(encoding="utf-8")
    start = text.index("- 0: ", text.index("Exit codes, "))
    block = text[start : text.index("\n\n", start)]
    listed = [int(code) for code in re.findall(r"^- (\d+): ", block, re.M)]
    codes = {cls.exit_code for cls in _subclasses(qhm.errors.QhmError)}
    assert sorted(listed) == listed and set(listed) == {0, 1} | codes
    for code in listed:
        assert re.search(rf"(?<![\d-]){code}(?![\d-])", qhm.cli.__doc__), code


def test_method_tags_are_listed_in_the_readme(one_point, non_quasihypermetric, assouad, star, cycle4):
    """README's tag list is every tag ``compute_m`` emits, and nothing else:
    one point, not quasihypermetric, zero mass, a unique and a basic
    maximal measure reach every branch."""
    text = README.read_text(encoding="utf-8")
    start = text.index("- `m:", text.index("`compute_m` emits"))
    block = text[start : text.index("\n\n", start)]
    listed = re.findall(r"^- `(m:[^`]+)`: ", block, re.M)
    seen = set()
    for space in (one_point, non_quasihypermetric, assouad, star, cycle4):
        seen.update(qhm.compute_m(space).method_tags)
    assert len(set(listed)) == len(listed) and set(listed) == seen
