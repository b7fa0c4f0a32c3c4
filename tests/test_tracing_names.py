"""The names the benchmark's tracer looks up in the package must exist.

``perfbench/tracing.py`` fetches every function in ``SPANNED`` from its
layer module with ``getattr`` and every ``COUNTED`` method from
``PiecewiseSignal.__dict__`` when ``--trace 1`` installs; a rename or
deletion in the package would otherwise only show up there, as a crash.
It also sorts ``NotApplicableError`` messages into reasons by the prefixes
in ``NA_REASONS``; a reworded message would silently move its count to
"other". The tracer is parsed rather than imported, so the checks run
without it; analysis.py is parsed to read its messages.
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


ANALYSIS = Path(__file__).resolve().parents[1] / "src" / "semicycles" / \
    "analysis.py"
# reason keys no message raises any more (their prefixes name a check that
# was removed); the tracer still reports them, always as 0
DEAD_REASONS = {"no_problem", "ascent_rho_hat_mismatch"}


def _not_applicable_prefixes():
    """The literal text each ``NotApplicableError(...)`` message in
    analysis.py begins with."""
    prefixes = []
    for node in ast.walk(ast.parse(ANALYSIS.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "NotApplicableError" and node.args):
            msg = node.args[0]
            if isinstance(msg, ast.JoinedStr):
                msg = msg.values[0]
            assert isinstance(msg, ast.Constant), ast.dump(node)
            prefixes.append(msg.value)
    return prefixes


def test_live_reason_prefixes_begin_an_analysis_message():
    reasons = _literal("NA_REASONS")
    messages = _not_applicable_prefixes()
    assert messages
    assert DEAD_REASONS <= {key for _, key in reasons}
    unmatched = [key for prefix, key in reasons if key not in DEAD_REASONS
                 and not any(m.startswith(prefix) for m in messages)]
    assert unmatched == []
    dead = [key for prefix, key in reasons if key in DEAD_REASONS
            and any(m.startswith(prefix) for m in messages)]
    assert dead == []
