"""The public API and the README agree: `ladderlab.__all__` is what the README documents."""

import ast
import re
from pathlib import Path

import ladderlab

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def tour_code() -> str:
    section = README.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def tour_imports() -> list[str]:
    return [alias.name for node in ast.walk(ast.parse(tour_code()))
            if isinstance(node, ast.ImportFrom) and node.module == "ladderlab"
            for alias in node.names]


def test_every_tour_import_is_public():
    names = tour_imports()
    assert names
    assert set(names) <= set(ladderlab.__all__)


def test_every_public_name_imports():
    namespace = {}
    exec("from ladderlab import *", namespace)
    assert set(ladderlab.__all__) <= namespace.keys()


def test_every_public_name_is_documented():
    assert [name for name in ladderlab.__all__ if f"`{name}`" not in README
            and name not in tour_imports()] == []


def test_tour_runs():
    exec(tour_code(), {})
