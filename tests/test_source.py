"""Rules the package source keeps, checked on its syntax trees."""

import ast
import importlib
from pathlib import Path

import qtensor

SOURCES = sorted(Path(qtensor.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # Runtime invariants raise real exceptions: `python -O` strips asserts.
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []


def test_every_exported_name_resolves():
    # a name left in an `__all__` after its definition is gone breaks
    # `from qtensor.<module> import *`
    modules = [importlib.import_module(f"qtensor.{path.stem}") for path in SOURCES if path.stem != "__init__"]
    missing = [f"{mod.__name__}.{name}" for mod in [qtensor, *modules]
               for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
