"""Every name in a module's __all__ exists and is used outside the tests,
every name the package re-exports is the object its module exports under
that name, and no module imports a name it never uses."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import emodarts

MODULES = sorted(m.name for m in pkgutil.iter_modules(emodarts.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"emodarts.{name}")
    names = getattr(module, "__all__", [])
    stale = [n for n in names if not hasattr(module, n)]
    assert not stale, f"emodarts.{name}.__all__ lists missing names {stale}"
    assert len(set(names)) == len(names), f"duplicates in emodarts.{name}"


def test_package_reexports_resolve():
    tree = ast.parse(inspect.getsource(emodarts))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"emodarts.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(emodarts, name) is getattr(module, alias.name)
            if hasattr(module, "__all__"):
                assert alias.name in module.__all__, \
                    f"{alias.name} is re-exported but not in " \
                    f"emodarts.{node.module}.__all__"


def test_no_unused_imports():
    unused = []
    for name in MODULES:
        path = pathlib.Path(emodarts.__file__).with_name(f"{name}.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = \
                        node.lineno
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = set(getattr(importlib.import_module(f"emodarts.{name}"),
                               "__all__", []))
        unused += [f"{name}.py:{line} {n}" for n, line in imported.items()
                   if n not in used and n not in exported]
    assert not unused, f"unused imports: {unused}"


def _referenced_names(path: pathlib.Path, package_init: bool) -> set:
    """Names a file reads: loaded names, attribute names and imported names.
    A definition stores its name, so it does not count, and neither do the
    package's own re-exports (the imports in emodarts/__init__.py)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) \
                and not package_init:
            out.update(alias.name.split(".")[-1] for alias in node.names)
    return out


def test_every_exported_name_is_used_outside_the_tests():
    root = pathlib.Path(__file__).resolve().parent.parent
    package_init = root / "src" / "emodarts" / "__init__.py"
    used = set()
    for part in ("src", "perfbench", "demos"):
        for path in sorted((root / part).rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                used |= _referenced_names(path, path == package_init)
    unused = [f"{name}.{n}" for name in MODULES for n in getattr(
        importlib.import_module(f"emodarts.{name}"), "__all__", [])
        if n not in used]
    assert not unused, f"exported but used only by tests: {unused}"
