"""Generator suites: seeded determinism and eigenmode fidelity.

Full-size suite runs live in the acceptance tests; here the counts are
kept small so the properties (reproducibility, mode accuracy, report
shape) stay cheap to check.
"""

import math

import numpy as np
import pytest

from semicycles import PiecewiseSignal, char_roots, cli, harness, integrate
from semicycles.errors import DomainError, HistoryDomainError, ResolutionError
from semicycles.integrator import DelayProblem
from semicycles.harness import (
    SUITE_NAMES,
    eigenmode_problem,
    mode_mixture_problem,
    run_suite,
)


def _decaying_root(c: float):
    return [r for r in char_roots(c, 1, (0, 1)) if r.value.real < -0.05][0]


def test_eigenmode_history_matches_mode():
    root = _decaying_root(4.0)
    lam = root.value
    prob = eigenmode_problem(4.0, root, phase=0.7)
    ts = np.linspace(-4.0, -1e-9, 400)
    for t in ts:
        want = (np.exp(1j * 0.7) * np.exp(lam * t)).real
        assert abs(prob.history(float(t)) - want) < 1e-10
    assert abs(prob.initial_value - math.cos(0.7)) < 1e-14
    assert abs(prob.initial_slope - (lam * np.exp(1j * 0.7)).real) < 1e-14


def test_eigenmode_trajectory_stays_on_mode():
    root = _decaying_root(4.0)
    lam = root.value
    prob = eigenmode_problem(4.0, root)
    traj = integrate(prob, 10.0, step=0.005)
    for t in np.linspace(0.0, 10.0, 200):
        want = (np.exp(lam * float(t))).real
        assert abs(traj.sample(float(t)) - want) < 1e-8


def test_mixture_rejects_mismatched_sign():
    plus = _decaying_root(4.0)
    minus = char_roots(math.pi, -1, (0,))[0]
    with pytest.raises(DomainError):
        mode_mixture_problem(4.0, 1, ((plus, 1.0, 0.0), (minus, 0.5, 0.0)))
    with pytest.raises(DomainError):
        mode_mixture_problem(4.0, 1, ())


@pytest.mark.parametrize("c, message", [
    (math.inf, "delay must be finite and positive"),
    (math.nan, "delay must be finite and positive"),
    (1e9, "more than the limit"),
])
def test_mixture_refuses_a_delay_before_building_the_history(monkeypatch, c,
                                                             message):
    # ∞ used to raise a bare OverflowError, 1e9 to allocate 24.8 GiB
    root = _decaying_root(4.0)

    def no_work(*args, **kwargs):
        raise AssertionError("the history was built before the refusal")

    monkeypatch.setattr(harness.np, "linspace", no_work)
    with pytest.raises(DomainError, match=message):
        mode_mixture_problem(c, 1, ((root, 1.0, 0.0),))


def test_suites_are_seed_deterministic():
    for suite, n in (("decay", 3), ("margins", 4), ("comparison", 4),
                     ("wronskian", 3)):
        a = run_suite(suite, seed=7, count=n)
        b = run_suite(suite, seed=7, count=n)
        assert a.rows == b.rows
        assert a.worst == b.worst
        if suite != "comparison":
            # these rows carry instance parameters, so a different seed
            # must draw different instances (comparison rows only hold
            # the violation, which is 0 either way)
            c = run_suite(suite, seed=8, count=n)
            assert c.rows != a.rows


def test_suite_reports_have_declared_columns():
    report = run_suite("comparison", seed=1, count=2)
    assert report.suite == "comparison"
    assert report.passed
    assert all(len(row) == len(report.columns) for row in report.rows)


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("nonexistent", seed=0)
    assert set(SUITE_NAMES) == {"decay", "margins", "comparison",
                                "wronskian"}


@pytest.mark.parametrize("kwargs", [{"count": 0}, {"count": -3},
                                    {"seed": -1, "count": 2}],
                         ids=["zero_count", "negative_count",
                              "negative_seed"])
def test_suite_without_instances_or_with_negative_seed_rejected(kwargs):
    # an empty run would pass vacuously; numpy refuses a negative seed
    with pytest.raises(DomainError):
        run_suite("comparison", **{"seed": 0, **kwargs})


def test_margins_instances_scan_the_slope_once(monkeypatch):
    """Each margins trajectory takes one scan of x and one of x′: the
    zeros' touch search and the semicycles' peaks share the x′ scan."""
    from semicycles import integrator
    scans = []
    scan = integrator._scan_sign_changes

    def counted(traj, derivative, tol):
        scans.append(derivative)
        return scan(traj, derivative, tol)

    monkeypatch.setattr(integrator, "_scan_sign_changes", counted)
    report = run_suite("margins", seed=0, count=4)
    assert report.checked > 0
    assert scans == [False, True] * 4


@pytest.mark.parametrize("suite, count", [
    ("decay", 3), ("margins", 5), ("comparison", 5), ("wronskian", 4)])
def test_reports_do_not_depend_on_windows_or_workers(monkeypatch, suite,
                                                     count):
    reports = set()
    for window in (1, 3, harness._WINDOW):
        monkeypatch.setattr(harness, "_WINDOW", window)
        for jobs in (1, 2):
            # repr keeps every float's bits, and NaN equal to itself
            reports.add(repr(run_suite(suite, seed=7, count=count,
                                       jobs=jobs)))
    assert len(reports) == 1


class _UncheckedDelay(DelayProblem):
    """A delay bound that understates τ, so the integrator's own history
    guard stops the run."""

    def tau_sup(self, horizon):
        return 0.3


@pytest.mark.parametrize("window", [1, 3, 8])
def test_lowest_failing_instance_raises_its_own_error(monkeypatch, window):
    const = PiecewiseSignal.constant
    bad = _UncheckedDelay(const(1.0), const(1.2), 0.0, const(0.5), 1.0, 0.0)
    with pytest.raises(HistoryDomainError) as alone:
        integrate(bad, 3.0, 0.01)
    instance, *rest = harness._SUITES["margins"]

    def failing(idx, rng):
        if idx == 2:  # raises in its integration
            yield [((bad,), 3.0, 0.01)]
        if idx == 4:  # raises before it integrates, yet comes later
            raise DomainError("instance 4")
        return (yield from instance(idx, rng))

    monkeypatch.setitem(harness._SUITES, "margins", (failing, *rest))
    monkeypatch.setattr(harness, "_WINDOW", window)
    with pytest.raises(HistoryDomainError) as got:
        run_suite("margins", seed=0, count=5)
    assert str(got.value) == str(alone.value)


def test_margins_instances_that_cannot_be_read_are_skipped(monkeypatch,
                                                            capsys):
    arcs = harness._arcs
    calls = []

    def unreadable(*args):
        calls.append(None)
        if len(calls) in (2, 4):
            raise ResolutionError("unreadable")
        return arcs(*args)

    want = run_suite("margins", seed=0, count=5)
    monkeypatch.setattr(harness, "_arcs", unreadable)
    got = run_suite("margins", seed=0, count=5)
    assert (want.skipped, got.skipped) == (0, 2)
    assert got.rows == tuple(r for r in want.rows if r[0] not in (1, 3))
    calls.clear()
    assert cli.main(["harness", "margins", "--instances", "5"]) == 0
    summary = capsys.readouterr().err.splitlines()[-1]
    assert summary.endswith(" skipped=2")


def test_worker_count_above_limit_rejected():
    # refused before any pool starts
    with pytest.raises(DomainError, match=f"limit of {harness._MAX_JOBS}"):
        run_suite("comparison", seed=0, count=2, jobs=harness._MAX_JOBS + 1)


@pytest.mark.parametrize("bad", [
    {"jobs": 0}, {"jobs": harness._MAX_JOBS + 1}, {"jobs": math.nan},
    {"jobs": True}, {"jobs": 2.0},
    {"count": 0}, {"count": harness._MAX_INSTANCES + 1}, {"count": 2.5},
    {"count": True},
    {"seed": -1}, {"seed": math.nan}, {"seed": True}, {"seed": 1.0},
], ids=["jobs_0", "jobs_above_limit", "jobs_nan", "jobs_bool", "jobs_float",
        "count_0", "count_above_limit", "count_float", "count_bool",
        "seed_negative", "seed_nan", "seed_bool", "seed_float"])
def test_bad_suite_arguments_refused_before_any_pool(no_pool, bad):
    # every other argument would start a two-worker pool
    with pytest.raises(DomainError):
        run_suite("comparison", **({"seed": 0, "count": 2, "jobs": 2} | bad))


def test_instance_count_limit_is_named():
    limit = harness._MAX_INSTANCES
    with pytest.raises(DomainError, match=f"limit of {limit}, got {limit + 1}"):
        run_suite("decay", seed=0, count=limit + 1)


def test_fan_out_runs_in_process_for_one_worker_or_one_task(no_pool):
    assert harness._fan_out(abs, [-1, 2, -3], 1) == [1, 2, 3]
    assert harness._fan_out(abs, [-4], harness._MAX_JOBS) == [4]
    assert harness._fan_out(abs, [], 2) == []


def test_fan_out_pool_has_at_most_one_worker_per_task(monkeypatch):
    built = []

    class Recording:
        def __init__(self, workers):
            built.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
    assert harness._fan_out(abs, [-1, -2, -3], 8) == [1, 2, 3]
    assert harness._fan_out(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert built == [3, 2]
