"""The public names: every module's `__all__` and every name the package
imports resolve, so a stale entry for a deleted function fails here and not
first in a user's `from ... import *`; and every module uses what it imports."""

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


# perfbench's test_every_import_site_is_patched expects these modules to bind
# these names as sites its tracer patches, though nothing in them calls them;
# they stay until the benchmark revision (ROADMAP item 7) drops that expectation
_PATCHED_SITES = {"cauchy.draw_measure", "stats.draw_measure", "stats.stick_mean_draws"}


@pytest.mark.parametrize("name", _MODULES)
def test_every_module_level_import_is_used(name):
    tree = ast.parse(Path(dirichlet_curve.__file__).with_name(f"{name}.py").read_text())
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {f"{name}.{n}" for n in imported if n not in used}
    assert unused - _PATCHED_SITES == set()
