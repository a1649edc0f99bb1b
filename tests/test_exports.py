"""Every exported name resolves, and the package exports what it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import activetest

_MODULES = sorted(m.name for m in pkgutil.iter_modules(activetest.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", _MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"activetest.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [key for key in exported if not hasattr(module, key)] == []


def test_package_exports_exactly_its_imports():
    tree = ast.parse(Path(activetest.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported = set(activetest.__all__)
    assert len(exported) == len(activetest.__all__)
    assert [key for key in activetest.__all__ if not hasattr(activetest, key)] == []
    assert exported - {"__version__"} == imported
