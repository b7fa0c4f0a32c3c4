"""Generator suites: seeded determinism and eigenmode fidelity.

Full-size suite runs live in the acceptance tests; here the counts are
kept small so the properties (reproducibility, mode accuracy, report
shape) stay cheap to check.
"""

import math

import numpy as np
import pytest

from semicycles import char_roots, harness, integrate
from semicycles.errors import DomainError
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


def test_worker_count_above_limit_rejected():
    # refused before any pool starts
    with pytest.raises(DomainError, match=f"limit of {harness._MAX_JOBS}"):
        run_suite("comparison", seed=0, count=2, jobs=harness._MAX_JOBS + 1)
