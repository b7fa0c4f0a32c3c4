"""Closed-form benchmarks: junction smoothness and integrator agreement."""

import math
import tracemalloc

import numpy as np
import pytest

from semicycles import DomainError, integrate, repro
from semicycles.repro import (
    ExampleSpec,
    build_example_problem,
    closed_form,
    example2_closed_form,
    example3_closed_form,
    example_horizon,
)

SQRT2 = math.sqrt(2.0)
EPSILONS = (0.0, 0.05, 0.2)


def _one_sided(f, t, side, h=1e-3):
    """(value, slope) limit at t from a quartic fit through 5 samples."""
    offs = np.arange(1, 6) * (h if side == "right" else -h)
    ys = [f(t + o) for o in offs]
    c = np.polyfit(offs, ys, 4)
    return float(np.polyval(c, 0.0)), float(np.polyval(np.polyder(c), 0.0))


def _junctions(which, eps, periods=3):
    ts = []
    if which == "example2":
        a = math.pi + eps - math.atan(math.tanh(eps))
        for n in range(periods):
            if n > 0:
                ts.append(n * a)
            if eps > 0.0:
                ts.append(n * a + eps)
    else:
        b = 2.0 * SQRT2 + 2.0 * eps
        for n in range(periods):
            if n > 0:
                ts.append(n * b)
            ts.append(n * b + SQRT2)
            if eps > 0.0:
                ts.append(n * b + SQRT2 + eps)
                ts.append(n * b + SQRT2 + 2.0 * eps)
    return ts


def test_example2_point_values():
    assert example2_closed_form(0.0, math.pi / 2) == pytest.approx(1.0, abs=1e-14)
    # reduces to sin at eps = 0
    ts = np.linspace(0.0, 10.0, 200)
    assert max(abs(example2_closed_form(0.0, t) - math.sin(t)) for t in ts) < 1e-12


def test_example2_growth_factor():
    eps = 0.1
    g = math.sqrt(math.sinh(eps) ** 2 + math.cosh(eps) ** 2)
    a = math.pi + eps - math.atan(math.tanh(eps))
    # sine-arc peak of consecutive periods
    peak = eps - math.atan(math.tanh(eps)) + math.pi / 2
    r0 = example2_closed_form(eps, peak)
    r1 = example2_closed_form(eps, peak + a)
    assert abs(r1 / r0) == pytest.approx(g, rel=1e-12)


def test_example3_point_values():
    assert example3_closed_form(0.0, SQRT2) == pytest.approx(1.0, abs=1e-14)
    # zeros sit exactly on the period grid: semicycle length 2√2 at eps = 0
    for n in range(4):
        assert abs(example3_closed_form(0.0, n * 2 * SQRT2)) < 1e-12
    # constant envelope at eps = 0
    peaks = [abs(example3_closed_form(0.0, SQRT2 + n * 2 * SQRT2))
             for n in range(4)]
    assert max(peaks) - min(peaks) < 1e-12


def test_example3_envelope_factor():
    eps = 0.1
    b = 2 * SQRT2 + 2 * eps
    v0 = example3_closed_form(eps, SQRT2 + 2 * eps + 1e-3)
    v1 = example3_closed_form(eps, SQRT2 + 2 * eps + 1e-3 + b)
    assert abs(v1 / v0) == pytest.approx(1.0 + eps ** 2, rel=1e-10)


@pytest.mark.parametrize("which", ["example2", "example3"])
@pytest.mark.parametrize("eps", EPSILONS)
def test_closed_forms_are_c1_at_junctions(which, eps):
    f = (example2_closed_form if which == "example2"
         else example3_closed_form)

    def g(t):
        return f(eps, t)

    for t in _junctions(which, eps):
        lv, ls = _one_sided(g, t, "left")
        rv, rs = _one_sided(g, t, "right")
        assert abs(lv - rv) < 1e-10, f"value jump at {t}"
        assert abs(ls - rs) < 1e-10, f"slope jump at {t}"


@pytest.mark.parametrize("which,eps", [
    ("example2", 0.0), ("example2", 0.05), ("example2", 0.2),
    ("example3", 0.0), ("example3", 0.05), ("example3", 0.2),
    ("sin_pi", 0.0),
])
def test_integration_matches_closed_form(which, eps):
    spec = ExampleSpec(which, eps, periods=3)
    traj = integrate(build_example_problem(spec), example_horizon(spec),
                     step=0.004)
    ts = np.linspace(0.0, example_horizon(spec), 1500)
    ref = np.array([closed_form(spec, float(t)) for t in ts])
    assert np.abs(traj.sample(ts) - ref).max() < 1e-6


def test_sin_history_accuracy():
    prob = build_example_problem(ExampleSpec("sin_pi"))
    us = np.linspace(-math.pi, 0.0, 400)
    err = max(abs(prob.history(float(u)) - math.sin(u)) for u in us)
    assert err < 1e-14


def test_example3_history_matches_displayed_conditions():
    prob = build_example_problem(ExampleSpec("example3", 0.1))
    assert prob.history(-SQRT2) == pytest.approx(-1.0, abs=1e-14)
    assert prob.history.eval_left(0.0) == pytest.approx(0.0, abs=1e-14)
    assert prob.initial_slope == pytest.approx(SQRT2)


def test_spec_validation():
    with pytest.raises(DomainError):
        ExampleSpec("example9")
    with pytest.raises(DomainError):
        ExampleSpec("example2", epsilon=-0.1)
    with pytest.raises(DomainError):
        ExampleSpec("example2", periods=0)
    with pytest.raises(DomainError):
        example2_closed_form(0.1, -0.5)


def _sin_pi(epsilon, t):
    return closed_form(ExampleSpec("sin_pi", epsilon), t)


@pytest.mark.parametrize("form, epsilon, t", [
    *((form, epsilon, t) for form in (example2_closed_form,
                                      example3_closed_form)
      for epsilon, t in ((0.1, math.nan), (0.1, math.inf), (0.1, -0.5),
                         (math.nan, 3.0), (math.inf, 3.0), (-0.5, 3.0))),
    *((_sin_pi, 0.0, t) for t in (math.nan, math.inf, -0.5))])
def test_closed_forms_refuse_t_and_epsilon_outside_their_domain(form,
                                                                epsilon, t):
    """t and ε must be finite and ≥ 0: NaN raised a bare ValueError, sin_pi
    returned NaN, and example3 at ε = −0.5 returned a value though
    ExampleSpec refuses that ε."""
    with pytest.raises(DomainError) as refused:
        form(epsilon, t)
    assert str(refused.value) == ("closed form defined for finite t ≥ 0 and "
                                  f"ε ≥ 0, got ε = {epsilon}, t = {t}")


@pytest.mark.parametrize("epsilon, periods", [
    (0.05, math.nan), (0.05, 2.5), (0.05, 3.0), (0.05, True), (0.05, "3"),
    (math.nan, 3), (math.inf, 3), ("0.1", 3), (None, 3),
])
def test_spec_refuses_non_int_periods_and_non_finite_epsilon(epsilon,
                                                             periods):
    with pytest.raises(DomainError):
        ExampleSpec("example3", epsilon, periods)


def test_periods_above_limit_refused_before_building():
    limit = repro._MAX_PERIODS
    assert build_example_problem(ExampleSpec("example3", 0.05, limit))
    tracemalloc.start()
    # no match= in the window: compiling its pattern can grow re's cache
    with pytest.raises(DomainError) as info:
        ExampleSpec("example3", 0.05, 10 ** 9)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 10_000
    assert f"above the limit of {limit}" in str(info.value)


@pytest.mark.parametrize("form, epsilon, periods", [
    (example2_closed_form, 700.0, 0.0),    # sinh and cosh of ε
    (example2_closed_form, 10.0, 99.5),    # g ** (n + 1)
    (example2_closed_form, 10.0, 73.0),    # g ** n finite, times sinh u
    (example3_closed_form, 30.0, 299.5),   # (1 + ε²) ** n
])
def test_overflowing_closed_form_refused_naming_epsilon_and_t(form, epsilon,
                                                              periods):
    period = (repro._period2 if form is example2_closed_form
              else repro._period3)(epsilon)
    t = periods * period + (9.0 if periods == 73.0 else 0.0)
    with pytest.raises(DomainError,
                       match=f"overflows at ε = {epsilon}, t = {t}$"):
        form(epsilon, t)
