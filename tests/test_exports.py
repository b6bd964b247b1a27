"""Every exported name resolves: the benchmark tracer looks up each name of
a module's __all__, and the package exports exactly the names in the library
modules' __all__ (every module but the CLI), through star imports.
Public names that no other module uses, public methods and properties of
exported classes that no module reads, and fields of exported dataclasses
that no module reads as an attribute, are listed with their reasons.

Members and fields are matched by attribute name across the package, not
by the object they are read from: a field that shares its name with an
attribute of another object is counted as read (an unread `x0` field of a
record would be hidden by the reads of `cfg.x0`)."""

from __future__ import annotations

import ast
import dataclasses
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


def test_package_public_names_are_the_library_modules_all():
    library = [name for name in MODULES if name != "cli"]
    exported = set().union(*(importlib.import_module(f"foldoptics.{name}").__all__
                             for name in library))
    public = {n for n, obj in vars(foldoptics).items()
              if not n.startswith("_") and not inspect.ismodule(obj)}
    assert public == exported, sorted(public ^ exported)


# Public functions and classes that no other module of the package uses, and
# `Class.member` methods, properties and dataclass fields that no module
# reads, each with the reason it stays.  A name missing here fails the guard
# below: use it, add it here with its reason, or delete it.
KEPT = {
    "ConfigError": "the usage error that main reports with exit 2",
    "RunConfig": "the one list of run options; main fills and validates it",
    "Leg": "one bound of a criterion, the unit CriterionResult is built from",
    "CriterionResult": "the record run_validation returns per criterion",
    "CriterionResult.seconds": "written to the report through dataclasses.asdict",
    "run_validation": "the validation suite in process (tests/test_acceptance.py)",
    "main": "the foldoptics console entry point",
    "RayPath": "the type integrate_hamiltonian returns",
    "RayPath.t": "the sample times integrate_hamiltonian returns, read by tests",
    "RayPath.J": "the ray Jacobian integrate_hamiltonian returns, read by tests",
    "RayPath.S": "the accumulated phase integrate_hamiltonian returns, read by tests",
    "RayPath.truncated": "the domain-exit flag integrate_hamiltonian returns, read by tests",
    "constant_profile": "the homogeneous medium that tests ray and transport laws in",
    "AiryValues": "the type airy returns",
    "fourier_power_integral": "the closed-form reference of the standard_spa tests",
    "SmallAlphaPoints": "the type cfu_small_alpha returns",
    "SmallAlphaPoints.x1": "reserved for a uniform stationary-phase criterion (ROADMAP item 4)",
    "SmallAlphaPoints.x2": "reserved for a uniform stationary-phase criterion (ROADMAP item 4)",
    "SmallAlphaPoints.imaginary": "reserved for a uniform stationary-phase criterion "
                                  "(ROADMAP item 4)",
    "standard_spa": "the interior leg a regional-recombination criterion would read",
    "cfu_small_alpha": "the xi -> 0 leg a uniform stationary-phase criterion would read",
    "NoStationaryPointWarning": "the category of diagonal_asymptotics' wrong-sign warning",
    "SingularCurvatureWarning": "the category of offdiagonal_asymptotics' x = 2k^2 warning",
    "StationaryTable": "the type stationary_table returns",
    "StationaryTable.n_real": "the count the export's n_stationary column is tested against",
    "diagonal_asymptotics": "the surgery's diagonal leg, which no criterion sums yet",
    "offdiagonal_asymptotics": "the surgery's cross-term leg, which no criterion sums yet",
    "TruncationWarning": "the category of the k-moments' boundary-mass warning",
    "source_amplitude": "the WKB amplitude at the source that the fields share",
}


def _nodes(name):
    """Every node of the syntax tree of module `name` of the package."""
    path = os.path.join(os.path.dirname(foldoptics.__file__), f"{name}.py")
    return list(ast.walk(ast.parse(open(path, encoding="utf-8").read())))


def _referenced_names(nodes):
    """Identifiers a module reads: names, attributes and imported names."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in nodes
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


def _attribute_reads(nodes):
    """Attribute names a module reads (loads)."""
    return {
        node.attr for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
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
    nodes = {name: _nodes(name) for name in MODULES}
    refs = {name: _referenced_names(nodes[name]) for name in MODULES}
    reads = set().union(*(_attribute_reads(nodes[name]) for name in MODULES))
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
            if dataclasses.is_dataclass(obj):
                unused |= {
                    f"{obj.__name__}.{f.name}" for f in dataclasses.fields(obj)
                    if f.name not in reads
                }
    assert not unused - KEPT.keys(), sorted(unused - KEPT.keys())
    assert not KEPT.keys() - unused, sorted(KEPT.keys() - unused)  # stale entries
