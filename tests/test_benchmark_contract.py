"""The benchmark reaches into the package by (module, attribute) name: it
traces functions listed in ``run.TRACED``, breaks the ones in
``smoke.CORRUPTIONS`` on purpose, and calls others directly, such as
``estimators._validate_design``. A refactor that drops or renames one of them
breaks the benchmark, so every name it uses must resolve. The benchmark's
scripts are read as text, never imported."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_SCRIPT = PERFBENCH / "run.py"


def _package_modules(tree):
    """Local name -> package module, for ``import doublesparse`` and
    ``from doublesparse import estimators``."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "doublesparse":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"doublesparse.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "doublesparse":
                    modules[alias.asname or alias.name] = "doublesparse"
    return modules


def _traced_pairs():
    tree = ast.parse(BENCH_SCRIPT.read_text(encoding="utf-8"))
    modules = _package_modules(tree)
    traced = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    return [(modules[entry.elts[0].id], entry.elts[1].value) for entry in traced.elts]


def _names_used(path):
    """(module, attribute, must be callable) for every package name the
    script uses: ``(module, "attr")`` tuples, as in TRACED and CORRUPTIONS,
    which are patched and so must be functions; ``module.attr`` reads; and
    names imported from a package submodule."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = _package_modules(tree)
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                and isinstance(node.elts[0], ast.Name) and node.elts[0].id in modules
                and isinstance(node.elts[1], ast.Constant)
                and isinstance(node.elts[1].value, str)):
            used.add((modules[node.elts[0].id], node.elts[1].value, True))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add((modules[node.value.id], node.attr, False))
        elif (isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith("doublesparse.")):
            used.update((node.module, alias.name, False) for alias in node.names)
    return used


def test_traced_names_resolve_on_the_package():
    pairs = _traced_pairs()
    assert pairs
    missing = [
        f"{module}.{attr}"
        for module, attr in pairs
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"traced names missing from the package: {missing}"


def test_corrupted_and_called_names_are_seen():
    smoke = _names_used(PERFBENCH / "smoke.py")
    assert ("doublesparse.diagnostics", "_extreme_eigs", True) in smoke
    assert ("doublesparse.bounds", "_min_distance_exact", True) in smoke
    assert ("doublesparse.estimators", "_validate_design", False) in _names_used(
        PERFBENCH / "workloads.py"
    )


@pytest.mark.parametrize("script", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_benchmark_names_resolve_on_the_package(script):
    missing = []
    for module, attr, must_call in sorted(_names_used(PERFBENCH / script)):
        mod = importlib.import_module(module)
        if not hasattr(mod, attr) or (must_call and not callable(getattr(mod, attr))):
            missing.append(f"{module}.{attr}")
    assert not missing, f"{script} uses names missing from the package: {missing}"
