"""scripts/integrator_digest.py hashes every byte of the integrator's
outputs, so one ulp anywhere changes a digest."""

import importlib.util
from pathlib import Path

import numpy as np

from semicycles.errors import HistoryDomainError

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / \
    "integrator_digest.py"
_SPEC = importlib.util.spec_from_file_location("integrator_digest", _SCRIPT)
integrator_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(integrator_digest)
digest = integrator_digest.digest


def _outputs():
    ts = np.linspace(0.0, 1.0, 7)
    pair = np.stack((np.cos(ts), np.sin(ts)), axis=1)
    return [(ts, pair, -pair), HistoryDomainError("delayed argument -2.0"),
            (ts, pair[:, :1], pair[:, 1:])]


def test_one_ulp_in_any_output_changes_the_digest():
    base = digest(_outputs())
    assert digest(_outputs()) == base
    for call in (0, 2):
        for k in range(3):
            outputs = _outputs()
            arr = outputs[call][k]
            arr.flat[3] = np.nextafter(arr.flat[3], np.inf)
            assert digest(outputs) != base, (call, k)


def test_signs_of_zero_exceptions_and_order_count():
    outputs = _outputs()
    outputs[0][1][0, 1] = -0.0
    negative = digest(outputs)
    outputs[0][1][0, 1] = 0.0
    assert digest(outputs) != negative
    outputs = _outputs()
    outputs[1] = HistoryDomainError("delayed argument -2.5")
    assert digest(outputs) != digest(_outputs())
    assert digest(_outputs()[::-1]) != digest(_outputs())
