"""The names the benchmark's tracer looks up in the package must exist.

``perfbench/tracing.py`` fetches every function in ``SPANNED`` from its
layer module with ``getattr`` and every ``COUNTED`` method from
``PiecewiseSignal.__dict__`` when ``--trace 1`` installs; a rename or
deletion in the package would otherwise only show up there, as a crash.
The file is parsed rather than imported, so the check runs without it.
"""

import ast
import importlib
from pathlib import Path

from semicycles.signals import PiecewiseSignal

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _literal(name):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not assigned in {TRACING.name}")


def test_spanned_names_resolve():
    spanned = _literal("SPANNED")
    assert spanned
    missing = [f"{layer}.{fn}" for layer, names in spanned.items()
               for fn in names
               if not callable(getattr(
                   importlib.import_module(f"semicycles.{layer}"), fn, None))]
    assert missing == []


def test_counted_methods_are_on_piecewise_signal():
    counted = _literal("COUNTED")
    assert counted
    assert [a for a in counted.values()
            if a not in PiecewiseSignal.__dict__] == []
