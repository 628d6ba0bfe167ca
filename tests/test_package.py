"""Every name that the package and its modules export exists."""

import importlib
import pkgutil

import rotcouette


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
