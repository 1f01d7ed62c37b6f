"""The package's public names resolve: every __all__ entry and every package-level import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import liees

MODULES = sorted(m.name for m in pkgutil.iter_modules(liees.__path__)
                 if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"liees.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    # each name liees/__init__.py imports from a submodule resolves there and,
    # where the submodule declares __all__, is declared public in it
    tree = ast.parse(Path(liees.__file__).read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
               for alias in node.names]
    assert ("lie", "make_generating_pair") in imports
    for module_name, name in imports:
        module = importlib.import_module(f"liees.{module_name}")
        assert getattr(liees, name) is getattr(module, name)
        assert name in getattr(module, "__all__", (name,)), (module_name, name)


def test_moved_shapes_keep_their_sim_names():
    from liees import lie, sim

    assert sim.const_shape is lie.const_shape
    assert sim.linear_shape is lie.linear_shape
