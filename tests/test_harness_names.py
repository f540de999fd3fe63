"""The traced benchmark swaps names of ``mtsens.cli`` and ``mtsens`` for
timed wrappers (``perfbench/workloads.py``); a rename there would only fail
in the benchmark's own smoke run. The name tables are read with ``ast`` so
that the harness is not imported."""
import ast
from pathlib import Path

import pytest

import mtsens
import mtsens.cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _span_names(table: str) -> list[str]:
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(getattr(t, "id", None) == table for t in node.targets)):
            return [key.value for key in node.value.keys]
    raise AssertionError(f"{table} not found in {WORKLOADS}")


@pytest.mark.parametrize("table, module", [("CLI_SPANS", mtsens.cli), ("API_SPANS", mtsens)])
def test_span_names_resolve(table, module):
    names = _span_names(table)
    assert names
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert not missing, f"{table} names missing from {module.__name__}: {missing}"
