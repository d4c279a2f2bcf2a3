"""Source hygiene of the package, checked with the standard library alone."""

import ast
import importlib
from pathlib import Path

import pytest

import gausskey

MODULES = sorted(Path(gausskey.__file__).parent.glob("*.py"))


def _module_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_module_all(tree))
    unused = [name for name in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports unused names {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_all_names_resolve(path):
    name = "gausskey" if path.stem == "__init__" else f"gausskey.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
