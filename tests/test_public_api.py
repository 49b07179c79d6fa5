"""The names the package exports and the benchmark harness reaches for all resolve.

The harness's traced pass wraps every (module, name) in perfbench/tracing.py's
TRACED table, and perfbench/checks.py imports its oracles from spinhv; a name
deleted from the package would otherwise fail only in that pass.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import spinhv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted(tracing.TRACED)


def _checks_imports() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    return sorted(
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinhv"
        for alias in node.names
    )


@pytest.mark.parametrize("module, name", _traced_names() + _checks_imports())
def test_harness_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_harness_names_are_read():
    # the table and the imports are found at all, so the check above is not vacuous
    assert len(_traced_names()) >= 10
    assert ("spinhv", "classical_bound_bruteforce") in _checks_imports()


@pytest.mark.parametrize("name", spinhv.__all__)
def test_exported_name_resolves(name):
    assert hasattr(spinhv, name)
