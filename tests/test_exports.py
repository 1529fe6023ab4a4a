"""The public names: every module's `__all__` and every name the package
imports resolve, so a stale entry for a deleted function fails here and not
first in a user's `from ... import *`; every module uses what it imports;
every class name that README.md or a module docstring quotes resolves, so a
deleted class cannot stay documented; and every public name has a reader
outside the tests, so a function that only its tests call fails here."""

import ast
import builtins
import importlib
import pkgutil
import re
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
    # and each exempted site of this module is still an unused import, so the
    # exemptions go when the benchmark stops expecting them or the code uses them
    assert {site for site in _PATCHED_SITES if site.startswith(f"{name}.")} <= unused


# a CamelCase word: a capital, then letters and digits with at least one
# lower-case letter, not part of a longer word, so P_k, Q_k, X_t and PCG64DXSM
# are not names of this kind; one followed by a space and a lower-case letter
# is prose inside a formula, as "Dirichlet random" in `t -> law of the mean ...`
_CAMEL = re.compile(r"(?<!\w)[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*(?!\w)(?! [a-z])")


def _backticked_camel_names(text: str) -> set:
    """The CamelCase words inside the `...` spans of text, fenced code blocks left out."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return {word for span in re.findall(r"`([^`]+)`", text) for word in _CAMEL.findall(span)}


def _docs() -> dict:
    """README.md and the docstring of the package and of each module, by file name."""
    paths = [Path(dirichlet_curve.__file__).with_name(f"{m}.py") for m in ["__init__", *_MODULES]]
    texts = {"README.md": (Path(__file__).parents[1] / "README.md").read_text()}
    texts.update((path.name, ast.get_docstring(ast.parse(path.read_text())) or "") for path in paths)
    return texts


_DOCS = _docs()


@pytest.mark.parametrize("where, text", _DOCS.items(), ids=list(_DOCS))
def test_every_documented_class_name_resolves(where, text):
    bound = set(dir(builtins)) | set(dir(dirichlet_curve))
    for name in _MODULES:
        bound |= set(dir(importlib.import_module(f"dirichlet_curve.{name}")))
    assert sorted(_backticked_camel_names(text) - bound) == []


def _src_loads() -> set:
    """The names that the package's modules load, as a name or an attribute,
    outside the top-level definition that binds the name itself."""
    loads = set()
    for name in _MODULES:
        tree = ast.parse(Path(dirichlet_curve.__file__).with_name(f"{name}.py").read_text())
        for stmt in tree.body:
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            loads |= names - {getattr(stmt, "name", None)}
    return loads


def _readers() -> str:
    """README.md and the benchmark's files outside its tests."""
    root = Path(__file__).parents[1]
    bench = sorted(p for p in (root / "perfbench").rglob("*") if p.is_file() and "tests" not in p.parts)
    return "\n".join(p.read_text() for p in [root / "README.md", *bench] if p.suffix in (".md", ".py", ".json"))


@pytest.mark.parametrize("name", _MODULES)
def test_every_public_name_has_a_reader(name):
    # a public name that only its tests read is dead code with a test; the
    # package's own re-exports in __init__ are imports, not loads
    loads, readers = _src_loads(), _readers()
    module = importlib.import_module(f"dirichlet_curve.{name}")
    unread = [n for n in module.__all__ if n not in loads and not re.search(rf"\b{re.escape(n)}\b", readers)]
    assert unread == []
