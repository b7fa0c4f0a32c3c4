"""scripts/integrator_digest.py hashes every byte of the integrator's
outputs and of the Ψ solves, so one ulp anywhere changes a digest, and
records each trajectory once, whether its tree integrates a fundamental
pair as one two-column group or as two problems, and each Ψ solve a
workload runs."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from semicycles import DelayProblem, PiecewiseSignal
from semicycles.errors import DomainError, HistoryDomainError

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / \
    "integrator_digest.py"
_SPEC = importlib.util.spec_from_file_location("integrator_digest", _SCRIPT)
integrator_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(integrator_digest)
digest = integrator_digest.digest


def _outputs():
    ts = np.linspace(0.0, 1.0, 7)
    return [(ts, np.cos(ts), -np.sin(ts)),
            HistoryDomainError("delayed argument -2.0"),
            (ts, np.sin(ts), np.cos(ts))]


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
    outputs[0][2][0] = -0.0
    negative = digest(outputs)
    outputs[0][2][0] = 0.0
    assert digest(outputs) != negative
    outputs = _outputs()
    outputs[1] = HistoryDomainError("delayed argument -2.5")
    assert digest(outputs) != digest(_outputs())
    assert digest(_outputs()[::-1]) != digest(_outputs())


def test_lockstep_entry_records_each_group_in_submission_order():
    from semicycles import integrator

    const = PiecewiseSignal.constant
    groups = [(DelayProblem(const(0.9), const(tau), 0.0, const(0.3), 1.0,
                            0.0), 2.0, 0.01) for tau in (0.05, 1.0)]
    groups.insert(1, (groups[0][0], 2.0, -0.01))  # raises before it starts
    outputs = []
    got = list(integrator_digest._recording(integrator, outputs)(groups))
    assert len(got) == len(outputs) == 3
    assert isinstance(got[1], DomainError) and outputs[1] is got[1]
    for out, alone in zip(outputs[::2], (groups[0], groups[2])):
        want = next(integrator._integrate_many([alone]))
        assert digest([out]) == digest([want])


def test_two_column_group_records_one_entry_per_trajectory():
    """An older tree's (n, 2) pair output digests equal to the pair's two
    one-column outputs, and its exception counts once per problem."""
    ts = np.linspace(0.0, 1.0, 5)
    xs = np.stack((np.cos(ts), np.sin(ts)), axis=1)
    vs = np.stack((-np.sin(ts), np.cos(ts)), axis=1)
    error = HistoryDomainError("delayed argument -2.0")
    older = SimpleNamespace(_integrate_many=lambda groups: iter(
        [(ts, xs, vs), error]))
    newer = SimpleNamespace(_integrate_many=lambda groups: iter(
        [(ts, xs[:, 0], vs[:, 0]), (ts, xs[:, 1], vs[:, 1]), error, error]))
    old_out, new_out = [], []
    pair = ("z", "y")
    list(integrator_digest._recording(older, old_out)(
        [(pair, 1.0, 0.5), (pair, 1.0, 0.5)]))
    list(integrator_digest._recording(newer, new_out)(
        [(name, 1.0, 0.5) for name in pair * 2]))
    assert len(old_out) == len(new_out) == 4
    assert digest(old_out) == digest(new_out)
    assert all(a.flags.c_contiguous for out in old_out[:2] for a in out)


def test_psi_solves_recorded_with_their_limit_profiles():
    """Each solve's ω sequence, Ψ and limit profile bytes are recorded, or
    the exception it raised; one ulp of the profile changes the digest."""
    from semicycles import thresholds

    solves = []
    solve = integrator_digest._solving(thresholds, solves)
    res = solve(0.7, 0.9, 64)
    with pytest.raises(DomainError):
        solve(-1.0, 0.9, 64)
    assert len(solves) == 2 and isinstance(solves[1], DomainError)
    omegas, psi, profile = solves[0]
    assert omegas.tobytes() == np.array(res.omega_sequence).tobytes()
    assert psi.tobytes() == np.array([res.psi]).tobytes()
    assert profile.tobytes() == res.limit_profile.tobytes()
    base = digest(solves)
    bumped = profile.copy()
    bumped[5] = np.nextafter(bumped[5], np.inf)
    assert digest([(omegas, psi, bumped), solves[1]]) != base


def test_thresholds_run_records_every_table_solve(tmp_path, monkeypatch):
    """A ``thresholds`` run records the Ψ solve of each of the table's 217
    cells and of ``gamma_constant``, and integrates nothing; a second run
    records the same solves, though the first left them in Ψ's cache."""
    monkeypatch.syspath_prepend(str(_SCRIPT.parents[1] / "perfbench"))
    from semicycles import thresholds

    runs = []
    for k in range(2):
        # a fresh table cache, so that the CLI solves the table again
        monkeypatch.setenv("SEMICYCLE_CACHE_DIR", str(tmp_path / f"c{k}"))
        runs.append(integrator_digest._record("thresholds", 0, tmp_path))
        assert thresholds.beta_iterate.__name__ == "beta_iterate"
    (outputs, solves), (_, again) = runs
    assert outputs == []
    assert len(solves) > 217
    assert not any(isinstance(s, BaseException) for s in solves)
    assert digest(again) == digest(solves)
