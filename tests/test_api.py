"""Static guard on the package's names, read with ``ast`` (nothing is imported).

* No module imports a name it never uses (the package ``__init__`` excepted:
  its imports are the public API).
* Every ``__all__`` entry is defined in its module.
* Every name the package ``__init__`` imports from a module is in that
  module's ``__all__``, where the module has one.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "affmin"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import statement of the module -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def dunder_all(tree: ast.Module):
    """The literal ``__all__`` list of a module, or None if it has none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def top_level_names(tree: ast.Module) -> set:
    names = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = parse(path)
    exported = set(dunder_all(tree) or ())
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree) and name not in exported}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_entries_are_defined(path):
    tree = parse(path)
    missing = sorted(set(dunder_all(tree) or ()) - top_level_names(tree))
    assert not missing, f"{path.name} lists undefined names in __all__: {missing}"


def test_package_imports_only_public_names():
    strays = []
    for node in parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            public = dunder_all(parse(PACKAGE / f"{node.module}.py"))
            if public is not None:
                strays += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert not strays, f"affmin/__init__.py imports names outside __all__: {strays}"


def test_guard_sees_an_unused_import():
    tree = ast.parse("from .errors import DomainMismatch, DomainTooSmall\n"
                     "raise DomainMismatch('x')\n")
    assert set(imported_names(tree)) - used_names(tree) == {"DomainTooSmall"}
