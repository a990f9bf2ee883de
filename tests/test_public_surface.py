"""Every name the package exports resolves, so a stale export fails here
rather than at a user's ``from cvfmri.<module> import *``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cvfmri

MODULES = sorted(m.name for m in pkgutil.iter_modules(cvfmri.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"cvfmri.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(cvfmri.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"cvfmri.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert hasattr(cvfmri, alias.asname or alias.name), alias.name
