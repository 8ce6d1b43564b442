"""Every function the benchmark tracer wraps must exist in dictpair.

The tracer in perfbench/tracer.py wraps package functions by name, so a
refactor that renames or removes one breaks the benchmark's traced runs. Its
target tables are read here from the source text, without importing or
executing the file.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _target_tables() -> dict[str, tuple]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("ROUND_TARGETS", "SETUP_TARGETS")
    }


def test_tracer_declares_both_target_tables():
    tables = _target_tables()
    assert set(tables) == {"ROUND_TARGETS", "SETUP_TARGETS"}
    assert all(tables.values())


@pytest.mark.parametrize("module_name, path", sorted({t for ts in _target_tables().values() for t in ts}))
def test_traced_target_resolves(module_name, path):
    owner = importlib.import_module(f"dictpair.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
