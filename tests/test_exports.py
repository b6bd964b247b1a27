"""Every exported name resolves: the benchmark tracer looks up each name of
a module's __all__, and the package imports its public names from them."""

from __future__ import annotations

import ast
import importlib
import pkgutil

import pytest

import foldoptics

MODULES = sorted(m.name for m in pkgutil.iter_modules(foldoptics.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"foldoptics.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_only_names_in_all():
    tree = ast.parse(open(foldoptics.__file__, encoding="utf-8").read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        public = importlib.import_module(f"foldoptics.{node.module}").__all__
        stray = [a.name for a in node.names if a.name not in public]
        assert not stray, (node.module, stray)
        assert all(hasattr(foldoptics, a.name) for a in node.names)
