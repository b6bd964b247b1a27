"""Every exported name resolves: the benchmark tracer looks up each name of
a module's __all__, and the package imports its public names from them.
Public names that no other module uses, and public methods and properties of
exported classes that no module reads, are listed with their reasons."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
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


# Public functions and classes that no other module of the package uses, and
# `Class.member` methods and properties that no module reads, each with the
# reason it stays.  A name missing here fails the guard below:
# use it, add it here with its reason, or delete it.
KEPT = {
    "ConfigError": "the usage error that main reports with exit 2",
    "RunConfig": "the one list of run options; main fills and validates it",
    "Leg": "one bound of a criterion, the unit CriterionResult is built from",
    "CriterionResult": "the record run_validation returns per criterion",
    "run_validation": "the validation suite in process (tests/test_acceptance.py)",
    "main": "the foldoptics console entry point",
    "KlCoordinates": "the type kl_coordinates returns",
    "KlAmplitudes": "the type kl_amplitudes returns",
    "RayPath": "the type integrate_hamiltonian returns",
    "constant_profile": "the homogeneous medium that tests ray and transport laws in",
    "AiryValues": "the type airy returns",
    "fourier_power_integral": "the closed-form reference of the standard_spa tests",
    "SmallAlphaPoints": "the type cfu_small_alpha returns",
    "standard_spa": "the interior leg a regional-recombination criterion would read",
    "cfu_small_alpha": "the xi -> 0 leg a uniform stationary-phase criterion would read",
    "NoStationaryPointWarning": "the category of diagonal_asymptotics' wrong-sign warning",
    "SingularCurvatureWarning": "the category of offdiagonal_asymptotics' x = 2k^2 warning",
    "WignerBranchIntegral": "the type wigner_branches returns",
    "StationaryTable": "the type stationary_table returns",
    "wigner_branches": "the paper's four branch integrals, the table's reference",
    "diagonal_asymptotics": "the surgery's diagonal leg, which no criterion sums yet",
    "offdiagonal_asymptotics": "the surgery's cross-term leg, which no criterion sums yet",
    "TruncationWarning": "the category of the k-moments' boundary-mass warning",
    "BranchField": "the type airy_wkb_branches returns",
    "WkbField": "the reference of test_field_value_equals_branch_sum",
    "source_amplitude": "the WKB amplitude at the source that the fields share",
}


def _referenced_names(name):
    """Identifiers that module `name` of the package reads: names,
    attributes and imported names, by its syntax tree."""
    path = os.path.join(os.path.dirname(foldoptics.__file__), f"{name}.py")
    tree = ast.parse(open(path, encoding="utf-8").read())
    return {
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


def _public_members(cls):
    """`Class.member` for each public method and property cls defines."""
    return {
        f"{cls.__name__}.{m}"
        for m, obj in vars(cls).items()
        if not m.startswith("_")
        and (inspect.isfunction(obj) or isinstance(obj, (property, staticmethod, classmethod)))
    }


def test_public_names_no_other_module_uses_are_kept_for_a_reason():
    refs = {name: _referenced_names(name) for name in MODULES}
    unused = set()
    for name in MODULES:
        module = importlib.import_module(f"foldoptics.{name}")
        for n in module.__all__:
            obj = getattr(module, n)
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and not any(
                n in refs[other] for other in MODULES if other != name
            ):
                unused.add(n)
            # a member is read as an attribute, in its own module too
            if inspect.isclass(obj):
                unused |= {
                    m for m in _public_members(obj)
                    if not any(m.split(".")[1] in refs[other] for other in MODULES)
                }
    assert not unused - KEPT.keys(), sorted(unused - KEPT.keys())
    assert not KEPT.keys() - unused, sorted(KEPT.keys() - unused)  # stale entries
