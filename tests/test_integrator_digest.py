"""scripts/integrator_digest.py records each trajectory once, each Ψ solve
a workload runs, each trajectory's zero and extremum times, and ϑ at each
Δ solved, hashes every byte of the record, so one ulp anywhere changes a
digest, and compares two records kind by kind through one table."""

import hashlib
import importlib.util
from pathlib import Path

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
written = integrator_digest._written


def _outputs():
    ts = np.linspace(0.0, 1.0, 7)
    return [(ts, np.cos(ts), -np.sin(ts)),
            "HistoryDomainError: delayed argument -2.0",
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
    outputs[1] = "HistoryDomainError: delayed argument -2.5"
    assert digest(outputs) != digest(_outputs())
    assert digest(_outputs()[::-1]) != digest(_outputs())


def test_written_exception_hashes_as_the_exception_line():
    """An exception is recorded as "Type: message" and hashed as the line
    "raise Type: message", so the digests of records that held the
    exception objects stay the same."""
    error = HistoryDomainError("delayed argument -2.0")
    assert written(error) == "HistoryDomainError: delayed argument -2.0"
    line = b"raise HistoryDomainError: delayed argument -2.0\n"
    assert digest([written(error)]) == hashlib.sha256(line).hexdigest()


def test_lockstep_entry_records_each_group_in_submission_order():
    from semicycles import integrator

    const = PiecewiseSignal.constant
    groups = [(DelayProblem(const(0.9), const(tau), 0.0, const(0.3), 1.0,
                            0.0), 2.0, 0.01) for tau in (0.05, 1.0)]
    groups.insert(1, (groups[0][0], 2.0, -0.01))  # raises before it starts
    outputs = []
    got = list(integrator_digest._recording(integrator, outputs)(groups))
    assert len(got) == len(outputs) == 3
    assert isinstance(got[1], DomainError)
    assert outputs[1] == written(got[1])
    for out, alone in zip(outputs[::2], (groups[0], groups[2])):
        want = integrator._integrate_many([alone])[0]
        assert digest([out]) == digest([want])


def test_psi_solves_recorded_with_their_limit_profiles():
    """Each solve's ω sequence, Ψ and limit profile bytes are recorded, or
    the exception it raised; one ulp of the profile changes the digest."""
    from semicycles import thresholds

    solves, deltas = [], []
    solve = integrator_digest._solving(thresholds, solves, deltas)
    res = solve(0.7, 0.9, 64)
    with pytest.raises(DomainError) as refused:
        solve(-1.0, 0.9, 64)
    solve(0.7, delta=0.4, grid_size=64)
    assert len(solves) == 3 and solves[1] == written(refused.value)
    assert deltas == [0.9, 0.9, 0.4]
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
    records the same solves, though the first left them in Ψ's cache.  Its
    record holds ϑ at each distinct Δ solved, and every kind of ``KINDS``."""
    monkeypatch.syspath_prepend(str(_SCRIPT.parents[1] / "perfbench"))
    from semicycles import thresholds

    solving, thetas = integrator_digest._solving, integrator_digest._thetas
    run_deltas = []

    def kept(thresholds, solves, deltas):
        run_deltas.append(deltas)
        return solving(thresholds, solves, deltas)
    monkeypatch.setattr(integrator_digest, "_solving", kept)
    runs = []
    for k in range(2):
        # a fresh table cache, so that the CLI solves the table again
        monkeypatch.setenv("SEMICYCLE_CACHE_DIR", str(tmp_path / f"c{k}"))
        runs.append(integrator_digest._record("thresholds", 0, tmp_path))
        assert thresholds.beta_iterate.__name__ == "beta_iterate"
    record, again = runs
    assert list(record) == list(integrator_digest.KINDS)
    solves, deltas = record["beta_iterate"], run_deltas[0]
    assert record["integrate"] == record["scans"] == []
    assert len(solves) > 217 and len(deltas) == len(solves)
    assert not any(isinstance(s, str) for s in solves)
    assert digest(again["beta_iterate"]) == digest(solves)
    assert digest(record["theta"]) == digest(thetas(deltas))
    assert 1 < len(record["theta"]) == len(set(deltas))
    assert not any(isinstance(t, str) for t in record["theta"])


def test_scans_hash_each_trajectorys_zero_and_extremum_times():
    """Each recorded trajectory is scanned as ``_zero_scan`` scans it at
    the default tol; its zero times, their degenerate flags and its
    extremum times are hashed, one ulp or one flag of them changes the
    digest, and an integration's exception stands for its scan."""
    from semicycles import integrator

    const = PiecewiseSignal.constant
    problem = DelayProblem(const(1.0), const(0.5), 0.0, const(1.0), 1.0, 0.0)
    traj = integrator.integrate(problem, 20.0, step=0.01)
    # x = 1 − cos t touches zero at 0, 2π and 4π: degenerate zeros
    ts = np.linspace(0.0, 4.0 * np.pi, 801)
    touch = (ts, 1.0 - np.cos(ts), np.sin(ts))
    error = "HistoryDomainError: delayed argument -2.0"
    scans = integrator_digest._scans([(traj.ts, traj.xs, traj.vs), error,
                                      touch])
    assert scans[1] == error
    for scan, out in zip(scans[::2], ((traj.ts, traj.xs, traj.vs), touch)):
        zeros, extrema = integrator._zero_scan(
            integrator.Trajectory(*out, problem=None), integrator._SCAN_TOL)
        times, flags, peaks = scan
        assert times.tolist() == [t for t, _ in zeros] and len(zeros) >= 3
        assert flags.tolist() == [d for _, d in zeros]
        assert peaks.tolist() == extrema and len(extrema) >= 3
    assert not scans[0][1].any() and scans[2][1].all()
    base = digest(scans)
    for k in range(3):
        for i in (0, 2):
            changed = list(scans)
            changed[i] = tuple(a.copy() for a in scans[i])
            arr = changed[i][k]
            arr[1] = (not arr[1]) if k == 1 else np.nextafter(arr[1], np.inf)
            assert digest(changed) != base, (i, k)


def test_trajectories_run_scans_every_trajectory(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(_SCRIPT.parents[1] / "perfbench"))
    monkeypatch.setenv("SEMICYCLE_CACHE_DIR", str(tmp_path))
    record = integrator_digest._record("trajectories", 0, tmp_path)
    outputs, scans = record["integrate"], record["scans"]
    assert digest(scans) == digest(integrator_digest._scans(outputs))
    assert len(scans) == len(outputs) == 4
    assert all(isinstance(s, tuple) and s[0].size > 3 for s in scans)


def test_theta_hashed_once_per_distinct_delta_in_order():
    """ϑ is hashed with its Δ at each distinct Δ of the solves, in order of
    first appearance, or the exception ``theta`` raised; one ulp of ϑ or of
    Δ changes the digest."""
    from semicycles import thresholds

    thetas = integrator_digest._thetas([0.9, 0.0, 0.9, -1.0, 2.0, 0.0])
    assert [t[0].item() for t in thetas[:2]] == [0.9, 0.0]
    assert [t[1].item() for t in thetas[:2]] == [thresholds.theta(0.9),
                                                  thresholds.theta(0.0)]
    with pytest.raises(DomainError) as refused:
        thresholds.theta(-1.0)
    assert thetas[2] == written(refused.value)
    assert thetas[3][0].item() == 2.0 and len(thetas) == 4
    base = digest(thetas)
    for k in range(2):
        changed = list(thetas)
        changed[0] = tuple(a.copy() for a in thetas[0])
        changed[0][k][0] = np.nextafter(changed[0][k][0], np.inf)
        assert digest(changed) != base, k


def _kinds(**entries):
    """A record holding ``entries`` and no entries of the other kinds."""
    return {kind: entries.get(kind, []) for kind in integrator_digest.KINDS}


def _changes(parent, change):
    return integrator_digest.changes(_kinds(**parent), _kinds(**change))


def test_values_mode_measures_relative_changes_and_pairing():
    """``--values`` pairs entries as ``KINDS`` says and reports how far x,
    x′ and Ψ moved between paired outputs, relative to the parent's
    largest |x| and |x′|, and what does not pair up: another count, node
    grid or exception."""
    names = [name for *_, measured in integrator_digest.KINDS.values()
             for name, *_ in measured]
    assert names == ["x", "x'", "psi", "zeros", "extrema", "theta"]
    ts = np.linspace(0.0, 1.0, 5)
    xs, vs = 4.0 * np.cos(ts), -2.0 * np.sin(ts)
    history = written(HistoryDomainError("delayed argument -2.0"))
    assert history == "HistoryDomainError: delayed argument -2.0"
    finite = written(DomainError("delay must be finite"))
    assert finite == "DomainError: delay must be finite"

    def solve(psi):
        return np.array([1.0]), np.array([psi]), np.zeros(3)
    parent = {"integrate": [(ts, xs, vs), history],
              "beta_iterate": [solve(1.5), finite]}
    moved_x, moved_v = xs.copy(), vs.copy()
    moved_x[2] += 4e-12   # relative to max |x| = 4
    moved_v[3] -= 1e-13   # relative to max |x′| = 2 sin 0.75 = 1.36
    moved, unpaired = _changes(parent, {
        "integrate": [(ts, moved_x, moved_v), history],
        "beta_iterate": [solve(1.5 + 2e-13), finite]})
    assert unpaired == [] and list(moved) == names
    assert moved["x"] == pytest.approx(1e-12, rel=1e-3)
    assert moved["x'"] == pytest.approx(1e-13 / (2.0 * np.sin(0.75)),
                                        rel=1e-3)
    assert moved["psi"] == pytest.approx(2e-13, rel=1e-2)
    assert _changes(parent, parent) == (dict.fromkeys(names, 0.0), [])
    _, unpaired = _changes(parent, {
        "integrate": [(ts[:-1], xs[:-1], vs[:-1]), (ts, xs, vs)],
        "beta_iterate": parent["beta_iterate"][:1]})
    assert len(unpaired) == 3   # a node grid, an exception, a count
    _, unpaired = _changes(parent, {**parent,
                                    "integrate": [(ts + 0.1, xs, vs),
                                                  history]})
    assert unpaired == ["trajectories 0: another node grid"]


def test_values_mode_measures_zero_and_extremum_moves():
    """``--values`` reports the largest |Δt| of the paired zeros and of the
    paired extrema, and what does not pair up: another count of scans,
    zeros or extrema, another degenerate flag, or an exception."""
    zeros = np.array([1.0, 2.0, 3.0])
    flags = np.array([False, True, False])
    peaks = np.array([1.5, 2.5])
    error = "HistoryDomainError: delayed argument -2.0"
    parent = {"scans": [(zeros, flags, peaks), error]}
    moved, unpaired = _changes(parent, {"scans": [
        (zeros + [0.0, 3e-11, -5e-11], flags, peaks + [2e-11, 0.0]),
        error]})
    assert moved["zeros"] == pytest.approx(5e-11, rel=1e-3)
    assert moved["extrema"] == pytest.approx(2e-11, rel=1e-3)
    assert unpaired == []
    moved, unpaired = _changes(parent, parent)
    assert set(moved.values()) == {0.0} and unpaired == []
    _, unpaired = _changes(parent, {"scans": [(zeros[:2], flags[:2], peaks),
                                              (zeros, flags, peaks)]})
    assert len(unpaired) == 2   # a zero count, a scan against an exception
    _, unpaired = _changes(parent, {"scans": [(zeros, ~flags, peaks),
                                              error]})
    assert unpaired == ["scans 0: another degenerate flag"]
    _, unpaired = _changes(parent, {"scans": parent["scans"][:1]})
    assert unpaired == ["1 scans, parent 2"]


def test_values_mode_measures_theta_moves():
    """``--values`` reports the largest |Δϑ| over ϑ paired by Δ, and what
    does not pair up: another count, another Δ or an exception."""
    refused = "DomainError: delay must be finite and nonnegative, got -1.0"

    def theta(delta, value):
        return np.array([delta]), np.array([value])
    parent = {"theta": [theta(0.9, 1.45), refused, theta(2.0, 1.41)]}
    moved, unpaired = _changes(parent, {"theta": [
        theta(0.9, 1.45 + 3e-14), refused, theta(2.0, 1.41 - 1e-14)]})
    assert moved["theta"] == pytest.approx(3e-14, rel=1e-2)
    assert unpaired == []
    moved, unpaired = _changes(parent, parent)
    assert moved["theta"] == 0.0 and unpaired == []
    moved, unpaired = _changes(parent, {"theta": [
        theta(0.8, 1.45), theta(1.0, 1.5), parent["theta"][2]]})
    assert moved["theta"] == 0.0 and len(unpaired) == 2  # a Δ, an exception
    _, unpaired = _changes(parent, {"theta": parent["theta"][:2]})
    assert unpaired == ["2 thetas, parent 3"]


def test_hash_lines_name_each_kind_of_each_record():
    record = {"integrate": _outputs(), "beta_iterate": [],
              "scans": _outputs()[:1], "theta": ["DomainError: no"]}
    lines = integrator_digest._lines({"t@0": record, "s@1": record})
    assert lines[:4] == [f"t@0 {kind} {digest(entries)} {len(entries)}"
                         for kind, entries in record.items()]
    assert [line.split()[:2] for line in lines[4:]] == [
        ["s@1", kind] for kind in record]


def test_parent_mode_counts_differing_digests_by_kind():
    parent = ["t@0 integrate aa 4", "t@0 beta_iterate bb 9",
              "t@0 scans cc 4", "t@0 theta ff 3", "s@0 scans dd 4"]
    change = parent[:2] + ["t@0 scans ee 4", "t@0 theta gg 3", parent[4]]
    assert integrator_digest.differing(parent, change) == {
        "integrate": [0, 1], "beta_iterate": [0, 1], "scans": [1, 2],
        "theta": [1, 1]}
