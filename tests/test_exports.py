"""Every name in a module's __all__ exists and is used outside the tests,
every name the package re-exports is the object its module exports under
that name, and no module imports a name it never uses."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import symtable

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


def _is_package(module: str, level: int) -> bool:
    return level > 0 or module.split(".")[0] == "emodarts"


def _module_expr(node, modules: set) -> bool:
    """Whether node names an emodarts module: a name bound to one, or an
    attribute of such a name that is one of the package's modules."""
    if isinstance(node, ast.Name):
        return node.id in modules
    return isinstance(node, ast.Attribute) and node.attr in MODULES \
        and _module_expr(node.value, modules)


def _global_loads(table: symtable.SymbolTable):
    """Names read at module level or, inside a function or class, read as
    globals: a function's own locals and its closure names do not count."""
    for sym in table.get_symbols():
        if sym.is_referenced() and (table.get_type() == "module"
                                    or sym.is_global()):
            yield sym.get_name()
    for child in table.get_children():
        yield from _global_loads(child)


def _referenced_names(path: pathlib.Path, in_package: bool) -> set:
    """Names a file reads that resolve to an emodarts export: a name
    imported from the package, under its original name whatever its alias;
    in the package's own modules, a load of a module-level name that is not
    an import from outside the package; and an attribute of a name bound
    to an emodarts module. So `np.stack` or a function's local `stack` list
    does not count. A definition stores its name, so it does not count, and
    neither do the package's own re-exports (the imports in
    emodarts/__init__.py)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    package_init = in_package and path.name == "__init__.py"
    out, modules, foreign = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound = alias.asname or top
                (modules if _is_package(top, 0) else foreign).add(bound)
        elif isinstance(node, ast.ImportFrom):
            if not _is_package(node.module or "", node.level):
                foreign.update(a.asname or a.name for a in node.names)
                continue
            for alias in node.names:
                if node.module in (None, "emodarts") and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                elif not package_init:
                    out.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _module_expr(node.value,
                                                            modules):
            out.add(node.attr)
    if in_package:
        out |= set(_global_loads(symtable.symtable(source, str(path),
                                                   "exec"))) - foreign
    return out


def test_every_exported_name_is_used_outside_the_tests():
    root = pathlib.Path(__file__).resolve().parent.parent
    package = root / "src" / "emodarts"
    used = set()
    for part in ("src", "perfbench", "demos"):
        for path in sorted((root / part).rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                used |= _referenced_names(path, package in path.parents)
    unused = [f"{name}.{n}" for name in MODULES for n in getattr(
        importlib.import_module(f"emodarts.{name}"), "__all__", [])
        if n not in used]
    assert not unused, f"exported but used only by tests: {unused}"
