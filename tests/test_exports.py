"""The public names: every module's `__all__` and every name the package
imports resolve, so a stale entry for a deleted function fails here and not
first in a user's `from ... import *`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dirichlet_curve

_MODULES = sorted(m.name for m in pkgutil.iter_modules(dirichlet_curve.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"dirichlet_curve.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from dirichlet_curve.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(dirichlet_curve.__file__).read_text())
    imports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(f"dirichlet_curve.{module}"), name)
        or not hasattr(dirichlet_curve, name)
    ]
    assert missing == []
