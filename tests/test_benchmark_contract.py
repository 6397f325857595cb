"""The benchmark traces package functions by (module, attribute) name. A
refactor that drops or renames one of them breaks the traced run, so every
pair it names must resolve. The benchmark script is read as text, never
imported."""

import ast
import importlib
from pathlib import Path

BENCH_SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _traced_pairs():
    tree = ast.parse(BENCH_SCRIPT.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: f"doublesparse.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "doublesparse"
        for alias in node.names
    }
    traced = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    return [(modules[entry.elts[0].id], entry.elts[1].value) for entry in traced.elts]


def test_traced_names_resolve_on_the_package():
    pairs = _traced_pairs()
    assert pairs
    missing = [
        f"{module}.{attr}"
        for module, attr in pairs
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"traced names missing from the package: {missing}"
