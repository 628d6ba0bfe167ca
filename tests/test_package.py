"""Every name that the package and its modules export exists, and the program runs it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import rotcouette

PACKAGE = Path(rotcouette.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_exports_resolve():
    submodules = pkgutil.iter_modules(rotcouette.__path__)
    modules = ["rotcouette"] + [f"rotcouette.{m.name}" for m in submodules]
    missing = {}
    for name in modules:
        module = importlib.import_module(name)
        if hasattr(module, "__all__"):
            missing[name] = [n for n in module.__all__ if not hasattr(module, n)]
    edited = {"rotcouette", "rotcouette.linear", "rotcouette.simulation", "rotcouette.spectral"}
    assert edited <= set(missing)
    assert missing == {name: [] for name in missing}


def _code_references(paths) -> set[str]:
    """Names read as code: loaded names and attributes, and the names of from-imports.

    A definition, an assignment or a string (an ``__all__`` entry, a layer
    name of ``perfbench/spans.py``) is no reference.
    """
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_exports_are_run():
    # an exported name that only the tests call belongs in tests/oracles.py
    program = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    used = _code_references(program)
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "rotcouette" if path.stem == "__init__" else f"rotcouette.{path.stem}"
        exported = getattr(importlib.import_module(name), "__all__", [])
        unused[name] = [n for n in exported if n not in used]
    assert unused == {name: [] for name in unused}
