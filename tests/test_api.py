"""The public API and the README agree: `ladderlab.__all__` is what the README documents."""

import ast
import importlib
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


def test_every_public_name_is_its_modules_object():
    # the package reads each name from the submodule that defines it, on first use
    for name in ladderlab.__all__:
        value = getattr(ladderlab, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name
        assert value.__module__.startswith("ladderlab."), name
    assert ladderlab.touch_points is importlib.import_module("ladderlab.orbits").touch_points


def test_dir_lists_every_public_name():
    assert set(ladderlab.__all__) <= set(dir(ladderlab))


def test_an_unknown_name_is_an_attribute_error():
    try:
        ladderlab.no_such_name  # noqa: B018
    except AttributeError as exc:
        assert "'ladderlab'" in str(exc) and "'no_such_name'" in str(exc), exc
    else:
        raise AssertionError("ladderlab.no_such_name resolved")
