"""The benchmark's layer tracer wraps cjt functions by name.

``perfbench/tracing.py`` names them in ``GROUPS`` (function groups of the
per-layer metrics) and ``ELEMENTWISE`` (``Field`` methods).  A rename or
deletion in cjt would otherwise surface only when the traced benchmark
runs.  The file is parsed, not imported, so nothing under ``perfbench/``
is written.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

from cjt.exactalg import Field

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _constant(name: str):
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING.name}")


def test_every_traced_function_exists():
    groups = _constant("GROUPS")
    assert groups
    for group, (layer, names) in groups.items():
        module = importlib.import_module(f"cjt.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{group}: cjt.{layer}.{name}"


def test_every_traced_field_method_exists():
    for name in _constant("ELEMENTWISE"):
        assert callable(getattr(Field, name, None)), f"Field.{name}"
