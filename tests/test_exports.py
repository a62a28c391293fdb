"""The package's public names all resolve, so a deletion leaves no stale export."""

import ast
import importlib
import pkgutil

import pytest

import ptdecouple

MODULES = sorted(m.name for m in pkgutil.iter_modules(ptdecouple.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"ptdecouple.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []


def test_package_binds_every_name_it_imports():
    with open(ptdecouple.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"ptdecouple.{node.module}")
        for alias in node.names:
            # a package-level name is one of its module's public names
            assert alias.name in mod.__all__, (node.module, alias.name)
            assert getattr(ptdecouple, alias.asname or alias.name) is getattr(mod, alias.name)
