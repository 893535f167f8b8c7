import ast
import importlib
import inspect
import pkgutil

import pytest

import sure_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(sure_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"sure_lab.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(inspect.getsource(sure_lab))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"sure_lab.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in exported] == [], node.module
