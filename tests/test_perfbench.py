"""Tests that the benchmark's tracer still finds what it wraps."""

import ast
import importlib
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _targets():
    """The TARGETS list of perfbench/trace.py, read without importing it."""
    for node in ast.parse(TRACE.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACE}")


def test_every_trace_target_resolves_in_its_home_module():
    """Each (layer, module, attribute, inside) entry names a callable that
    its module still binds, so no span silently reads zero after a rename."""
    targets = _targets()
    assert targets
    for layer, module_name, attribute, inside in targets:
        value = importlib.import_module(module_name)
        for name in attribute.split("."):
            assert hasattr(value, name), (module_name, attribute)
            value = getattr(value, name)
        assert callable(value), (module_name, attribute)
