"""Semicycle extraction, bound margins, classification, and criteria.

Closed-form anchors: the sine trajectory (zeros at kπ, unit peaks at
π/2 + kπ), the unit-history profile whose first zero is ϑ_Δ by
construction, and constant-coefficient criterion values computed by hand
(I = |p|·τ²/2 for the weighted integral criterion).
"""

import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semicycles import (
    Classification,
    DelayProblem,
    PiecewiseSignal,
    Semicycle,
    Trajectory,
    build_example_problem,
    char_roots,
    check_ascent,
    check_descent,
    classify,
    criterion_gustafson,
    criterion_myshkis,
    criterion_wronskian_2e,
    envelope_decay_ratio,
    eigenmode_problem,
    example_horizon,
    find_zeros,
    integrate,
    rescale,
    semicycle_threshold,
    semicycles,
    theta,
    verify_comparison,
)
from semicycles.errors import (
    DomainError,
    InsufficientWindowError,
    NotApplicableError,
    ResolutionError,
)
from semicycles import analysis, integrator
from semicycles.repro import ExampleSpec

SQRT2 = math.sqrt(2.0)
const = PiecewiseSignal.constant


def _sine_problem() -> DelayProblem:
    return DelayProblem(p=const(1.0), tau=const(0.0), start=0.0,
                        history=const(0.0), initial_value=0.0,
                        initial_slope=1.0)


def _unit_profile_problem(delta: float) -> DelayProblem:
    return DelayProblem(p=const(1.0), tau=const(delta), start=0.0,
                        history=const(1.0), initial_value=1.0,
                        initial_slope=0.0)


@pytest.fixture(scope="module")
def sine_traj():
    return integrate(_sine_problem(), 3.5 * math.pi, step=0.002)


def test_sine_zeros_on_pi_grid(sine_traj):
    zeros = find_zeros(sine_traj)
    assert len(zeros) == 4
    for k, (t, degenerate) in enumerate(zeros):
        assert abs(t - k * math.pi) < 1e-8
        assert not degenerate


def test_sine_semicycle_anatomy(sine_traj):
    arcs = semicycles(sine_traj, find_zeros(sine_traj))
    assert len(arcs) == 3
    for k, sc in enumerate(arcs):
        assert abs(sc.a - k * math.pi) < 1e-8
        assert abs(sc.b - (k + 1) * math.pi) < 1e-8
        assert abs(sc.w - (k + 0.5) * math.pi) < 1e-7
        assert abs(sc.peak - 1.0) < 1e-9
        assert sc.sign == (1 if k % 2 == 0 else -1)
        assert abs(sc.length - math.pi) < 1e-8


def test_constant_trajectory_has_no_zeros():
    prob = DelayProblem(p=const(0.0), tau=const(0.0), start=0.0,
                        history=const(1.0), initial_value=1.0,
                        initial_slope=0.0)
    traj = integrate(prob, 5.0, step=0.01)
    assert find_zeros(traj) == []
    assert semicycles(traj, []) == []


def test_unit_profile_zero_matches_descent_threshold():
    traj = integrate(_unit_profile_problem(2.0), 3.0, step=0.002)
    zeros = find_zeros(traj)
    assert abs(zeros[0][0] - theta(2.0)) < 1e-8


def test_descent_margin_zero_for_ode_arc(sine_traj):
    arcs = semicycles(sine_traj, find_zeros(sine_traj))
    ok, margin = check_descent(sine_traj, arcs[0], 0.0)
    assert ok
    assert abs(margin) < 1e-6


def test_descent_margin_zero_for_unit_profile():
    # extremum at the start: value 1 dominates the constant-1 history, and
    # the zero lands exactly ϑ after it
    traj = integrate(_unit_profile_problem(2.0), 3.0, step=0.002)
    b = find_zeros(traj)[0][0]
    sc = Semicycle(a=-1.0, b=b, w=0.0, peak=1.0, sign=1)
    ok, margin = check_descent(traj, sc, 2.0)
    assert ok
    assert abs(margin) < 1e-6


def test_ascent_margin_zero_for_ode_arc(sine_traj):
    arcs = semicycles(sine_traj, find_zeros(sine_traj))
    ok, margin = check_ascent(sine_traj, arcs[1], 0.0)
    assert ok
    assert abs(margin) < 1e-6


def test_ascent_first_arc_applies_with_total_history(sine_traj):
    # constant histories are data on the whole past, so the ρ̂ window of
    # the very first arc is available: everything below the start is 0
    arcs = semicycles(sine_traj, find_zeros(sine_traj))
    ok, margin = check_ascent(sine_traj, arcs[0], 0.0)
    assert ok and abs(margin) < 1e-6


def test_ascent_window_needs_declared_data():
    # non-constant declared data stops at −0.5; the first arc starts near
    # t ≈ 0.05, so its ρ̂ window [a − ϑ₀, a] reaches below the floor
    ramp = PiecewiseSignal((-0.5, 0.0), ((-0.45, 1.0),), -0.45, 0.05)
    prob = DelayProblem(p=const(1.0), tau=const(0.0), start=0.0,
                        history=ramp, initial_value=0.05,
                        initial_slope=-1.0)
    traj = integrate(prob, 2.5 * math.pi, step=0.005)
    arcs = semicycles(traj, find_zeros(traj))
    assert arcs[0].a < 0.06
    with pytest.raises(NotApplicableError):
        check_ascent(traj, arcs[0], 0.0)


def test_checks_reject_unnormalized_problem():
    prob = DelayProblem(p=const(4.0), tau=const(0.0), start=0.0,
                        history=const(0.0), initial_value=0.0,
                        initial_slope=1.0)
    traj = integrate(prob, 2.0 * math.pi, step=0.005)
    arcs = semicycles(traj, find_zeros(traj))
    with pytest.raises(NotApplicableError):
        check_descent(traj, arcs[0], 0.0)
    with pytest.raises(NotApplicableError):
        check_ascent(traj, arcs[1], 0.0)


def test_ascent_rejects_delta_below_delay_sup():
    traj = integrate(_unit_profile_problem(2.0), 6.0, step=0.005)
    sc = Semicycle(a=3.0, b=5.0, w=4.0, peak=1.0, sign=1)
    with pytest.raises(NotApplicableError):
        check_ascent(traj, sc, 1.0)


def test_example_semicycle_lengths_match_periods():
    for which, eps in (("example2", 0.07), ("example3", 0.05)):
        spec = ExampleSpec(which=which, epsilon=eps, periods=4)
        prob = build_example_problem(spec)
        traj = integrate(prob, example_horizon(spec), step=0.005)
        arcs = semicycles(traj, find_zeros(traj))
        if which == "example2":
            expected = math.pi + eps - math.atan(math.tanh(eps))
        else:
            expected = 2.0 * SQRT2 + 2.0 * eps
        assert arcs, which
        for sc in arcs:
            assert abs(sc.length - expected) < 1e-6


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def test_classify_growing_example_is_unbounded_observed():
    spec = ExampleSpec(which="example3", epsilon=0.1, periods=25)
    prob = build_example_problem(spec)
    traj = integrate(prob, example_horizon(spec), step=0.01)
    cls = classify(prob, traj, growth_factor=1.2)
    assert cls.verdict == "unbounded_observed"
    names = [name for name, _, _ in cls.evidence]
    assert "envelope_growth_ratio" in names


def test_classify_periodic_example_is_bounded_certified():
    spec = ExampleSpec(which="example3", epsilon=0.0, periods=6)
    prob = build_example_problem(spec)
    traj = integrate(prob, example_horizon(spec), step=0.01)
    cls = classify(prob, traj)
    assert cls.verdict == "bounded_certified"
    name, value, threshold = cls.evidence[0]
    assert name == "max_semicycle_length"
    assert abs(value - 2.0 * SQRT2) < 1e-8
    assert abs(threshold - 2.0 * SQRT2) < 1e-9


def test_classify_decaying_eigenmode_is_certified():
    root = [r for r in char_roots(4.0, 1, (0, 1)) if r.value.real < -0.05][0]
    prob = eigenmode_problem(4.0, root)
    traj = integrate(prob, 4.0 + 10.0 * root.semicycle, step=0.01)
    cls = classify(prob, traj)
    assert cls.verdict == "tends_to_zero_certified"
    _, value, threshold = cls.evidence[0]
    assert abs(value - root.semicycle) < 1e-3
    assert value < threshold


def test_classify_long_arcs_with_small_negative_coefficient():
    # decision-table check for the small-delay nonpositive-coefficient
    # certificate: semicycles longer than the threshold would otherwise
    # land in inconclusive (flat envelope), but τ̃ < γ certifies decay
    # the sine's nodes relabelled as this problem's trajectory: classify
    # refuses a trajectory of another problem, so the pairing is explicit
    problem = DelayProblem(p=const(-1.0), tau=const(1.2), start=0.0,
                           history=const(0.0), initial_value=0.0,
                           initial_slope=1.0)
    sine = integrate(_sine_problem(), 4.5 * math.pi, step=0.005)
    traj = Trajectory(sine.ts, sine.xs, sine.vs, problem=problem)
    cls = classify(problem, traj)
    assert cls.verdict == "tends_to_zero_certified"
    names = [name for name, _, _ in cls.evidence]
    assert "negative_coefficient_delay" in names
    assert math.pi > semicycle_threshold(1.2) + 1e-9


def test_classify_sine_under_p_negative_delay_pi_is_inconclusive():
    spec = ExampleSpec(which="sin_pi", epsilon=0.0, periods=5)
    prob = build_example_problem(spec)
    traj = integrate(prob, example_horizon(spec), step=0.01)
    cls = classify(prob, traj)
    assert cls.verdict == "inconclusive"


def test_classify_zero_free_window():
    prob = DelayProblem(p=const(-0.04), tau=const(1.0), start=0.0,
                        history=const(1.0), initial_value=1.0,
                        initial_slope=0.1)
    long_traj = integrate(prob, 40.0, step=0.01)
    cls = classify(prob, long_traj)
    assert cls.verdict == "nonoscillatory_observed"
    names = [name for name, _, _ in cls.evidence]
    assert "kamenskii_dichotomy" in names
    short_traj = integrate(prob, 5.0, step=0.01)
    with pytest.raises(InsufficientWindowError):
        classify(prob, short_traj)


def test_classify_returns_the_semicycles_it_read():
    spec = ExampleSpec(which="example3", epsilon=0.0, periods=6)
    prob = build_example_problem(spec)
    traj = integrate(prob, example_horizon(spec), step=0.01)
    cls = classify(prob, traj, tol=1e-9)
    assert cls.semicycles == tuple(semicycles(traj, find_zeros(traj, 1e-9),
                                              tol=1e-9))
    assert cls.evidence[0][1] == max(sc.length for sc in cls.semicycles)
    flat = DelayProblem(p=const(-0.04), tau=const(1.0), start=0.0,
                        history=const(1.0), initial_value=1.0,
                        initial_slope=0.1)
    assert classify(flat, integrate(flat, 40.0, step=0.01)).semicycles == ()


def test_classify_scans_extrema_once(monkeypatch):
    """The zeros' touch search and the semicycles' peaks read one scan of
    x′'s sign changes, with the arcs ``semicycles`` gives from its own."""
    from semicycles import integrator
    spec = ExampleSpec(which="example3", epsilon=0.1, periods=6)
    prob = build_example_problem(spec)
    traj = integrate(prob, example_horizon(spec), step=0.01)
    scans = []
    scan = integrator._scan_sign_changes

    def counted(traj, derivative, tol):
        scans.append(derivative)
        return scan(traj, derivative, tol)

    monkeypatch.setattr(integrator, "_scan_sign_changes", counted)
    cls = classify(prob, traj)
    assert scans == [False, True]
    assert cls.semicycles == tuple(semicycles(traj, find_zeros(traj)))


def test_classify_needs_three_semicycles(sine_traj):
    prob = _sine_problem()
    short = integrate(prob, 1.5 * math.pi, step=0.005)
    with pytest.raises(InsufficientWindowError):
        classify(prob, short)


def test_growing_solution_starts_at_a_peak_not_a_zero():
    # p ≡ −1: x grows like e^t, so a rounding floor scaled by the whole
    # window would dwarf x(0) = 1, the stationary start
    prob = DelayProblem(p=const(-1.0), tau=const(0.1), start=0.0,
                        history=const(1.0), initial_value=1.0,
                        initial_slope=0.0)
    traj = integrate(prob, 30.0, step=0.01)
    assert find_zeros(traj) == []
    assert classify(prob, traj).verdict == "nonoscillatory_observed"


def test_sine_swamped_by_growing_mode_is_not_certified():
    # at 20 periods the unstable real mode reaches ~1e13: the sine's early
    # peaks stay peaks instead of tangential zeros that cut the semicycles
    spec = ExampleSpec(which="sin_pi", epsilon=0.0, periods=20)
    prob = build_example_problem(spec)
    traj = integrate(prob, example_horizon(spec), step=0.005)
    assert not any(degenerate for _, degenerate in find_zeros(traj))
    assert classify(prob, traj).verdict == "inconclusive"


def _zeros_and_verdict(prob, horizon):
    traj = integrate(prob, horizon, step=0.05)
    try:
        verdict = classify(prob, traj).verdict
    except (InsufficientWindowError, ResolutionError) as exc:
        verdict = (type(exc).__name__, str(exc))
    return find_zeros(traj), verdict


@settings(max_examples=40, deadline=None)
@given(p=st.floats(min_value=-1.0, max_value=1.0),
       tau=st.floats(min_value=0.0, max_value=2.0),
       hist=st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)),
       x0=st.sampled_from([0.0, 1.0, -0.5]),
       v0=st.floats(min_value=-2.0, max_value=2.0),
       power=st.integers(min_value=-30, max_value=30))
@example(p=-1.0, tau=0.1, hist=(1.0, 0.0), x0=1.0, v0=0.0, power=7)
def test_zeros_and_verdict_invariant_under_power_of_two_scaling(
        p, tau, hist, x0, v0, power):
    # x ↦ 2^k·x maps solutions to solutions and is exact in floating point
    # while nothing underflows: a subnormal value scales exactly but has
    # fewer bits, so its products round differently (v0 = 2.2250738585e-313
    # at k = 1 moves the zeros by ~1e-10); 1e-200 leaves room for 2^-30 and
    # every decay over the horizon
    assume(all(v == 0.0 or abs(v) >= 1e-200 for v in (*hist, v0)))

    def problem(c):
        a, b = hist[0] * c, hist[1] * c
        return DelayProblem(
            p=const(p), tau=const(tau), start=0.0,
            history=PiecewiseSignal((-2.0, 0.0), ((a, b),), a, a + 2.0 * b),
            initial_value=x0 * c, initial_slope=v0 * c)
    assert _zeros_and_verdict(problem(2.0 ** power), 25.0) \
        == _zeros_and_verdict(problem(1.0), 25.0)


def test_classify_verdicts_enumerated():
    assert "inconclusive" in Classification.VERDICTS
    assert "bounded_certified" in Classification.VERDICTS


@settings(max_examples=10, deadline=None)
@given(k=st.floats(min_value=0.4, max_value=2.2))
def test_classify_invariant_under_time_scaling(k):
    spec = ExampleSpec(which="example3", epsilon=0.05, periods=4)
    prob = build_example_problem(spec)
    scaled = rescale(prob, k)
    traj = integrate(prob, example_horizon(spec), step=0.01)
    traj_scaled = integrate(scaled, example_horizon(spec) / k,
                            step=0.01 / k)
    cls = classify(prob, traj)
    cls_scaled = classify(scaled, traj_scaled)
    assert cls.verdict == cls_scaled.verdict
    assert abs(cls.evidence[0][1] - cls_scaled.evidence[0][1]) < 1e-6


# ----------------------------------------------------------------------
# envelope fit
# ----------------------------------------------------------------------

def test_envelope_ratio_matches_eigenvalue_decay():
    root = [r for r in char_roots(4.0, 1, (0, 1)) if r.value.real < -0.05][0]
    prob = eigenmode_problem(4.0, root)
    stride = 2.0 * root.semicycle
    traj = integrate(prob, 4.0 + 4.6 * stride, step=0.01)
    rho, peaks = envelope_decay_ratio(traj, stride, t0=4.0)
    assert len(peaks) >= 3
    assert abs(rho - math.exp(root.value.real * stride)) < 1e-4


def test_envelope_ratio_needs_three_windows(sine_traj):
    with pytest.raises(InsufficientWindowError):
        envelope_decay_ratio(sine_traj, 100.0)


@pytest.mark.parametrize("stride, t0, message", [
    (1e-300, None, "more than the limit"),
    (1.0, -1e300, "more than the limit"),
    (1e-7, None, "more than the limit"),
    (1.0, math.nan, "t0 must be finite"),
    (1.0, math.inf, "t0 must be finite"),
])
def test_envelope_window_count_refused_before_the_loop(stride, t0, message):
    # each of these used to loop without end (NaN: InsufficientWindowError)
    spec = ExampleSpec("example3", 0.05, 4)
    traj = integrate(build_example_problem(spec), example_horizon(spec),
                     step=0.01)
    began = time.perf_counter()
    with pytest.raises(DomainError, match=message):
        envelope_decay_ratio(traj, stride, t0=t0)
    assert time.perf_counter() - began < 1.0


def test_envelope_stride_below_float_spacing_refused():
    # near 1e6 floats are 1.2e-10 apart: lo + stride rounds back to lo
    # within two windows of the end, which no window count catches
    start = 1e6
    problem = DelayProblem(p=const(1.0), tau=const(0.0), start=start,
                           history=const(0.0), initial_value=0.0,
                           initial_slope=1.0)
    traj = integrate(problem, start + 10.0, step=0.01)
    spacing = math.ulp(traj.end)
    with pytest.raises(DomainError, match="below the float spacing"):
        envelope_decay_ratio(traj, 0.45 * spacing, t0=traj.end - spacing)


# ----------------------------------------------------------------------
# delay/coefficient criteria
# ----------------------------------------------------------------------

def test_small_delay_oscillation_criterion_values():
    mk = lambda tau: DelayProblem(p=const(1.0), tau=const(tau), start=0.0,
                                  history=const(1.0), initial_value=1.0,
                                  initial_slope=0.0)
    holds, strict, value = criterion_myshkis(mk(2.0))
    assert (holds, strict) == (True, True) and value == 2.0
    holds, strict, value = criterion_myshkis(mk(2.0 * SQRT2))
    assert (holds, strict) == (True, False)
    assert abs(value - 2.0 * SQRT2) < 1e-12
    holds, strict, value = criterion_myshkis(mk(3.0))
    assert (holds, strict) == (False, False)
    with pytest.raises(NotApplicableError):
        criterion_myshkis(DelayProblem(p=const(-1.0), tau=const(1.0),
                                       start=0.0, history=const(1.0),
                                       initial_value=1.0, initial_slope=0.0))


def test_weighted_integral_criterion_constant_cases():
    mk = lambda p, tau: DelayProblem(p=const(p), tau=const(tau), start=0.0,
                                     history=const(1.0), initial_value=1.0,
                                     initial_slope=0.0)
    holds, value = criterion_gustafson(mk(-1.0, 2.0), 10.0)
    assert holds and abs(value - 2.0) < 1e-10
    holds, value = criterion_gustafson(mk(-1.0, 1.0), 10.0)
    assert not holds and abs(value - 0.5) < 1e-10
    # |p|·τ²/2 exactly 1: the strict inequality fails on the boundary
    holds, value = criterion_gustafson(mk(-2.0, 1.0), 10.0)
    assert not holds and abs(value - 1.0) < 1e-10
    with pytest.raises(NotApplicableError):
        criterion_gustafson(mk(1.0, 1.0), 10.0)


def test_weighted_integral_exact_for_linear_coefficient():
    # p(s) = −(1 + s), τ ≡ 1: I(t) = t/2 + 1/3 for t ≥ 1, sup at horizon
    p = PiecewiseSignal((0.0, 6.0), ((-1.0, -1.0),), -1.0, -7.0)
    prob = DelayProblem(p=p, tau=const(1.0), start=0.0,
                        history=const(1.0), initial_value=1.0,
                        initial_slope=0.0)
    holds, value = criterion_gustafson(prob, 4.0)
    assert holds
    assert abs(value - (4.0 / 2.0 + 1.0 / 3.0)) < 1e-12


def test_weighted_integral_needs_monotone_lag():
    tau = PiecewiseSignal((0.0, 10.0), ((0.0, 2.0),), 0.0, 20.0)
    prob = DelayProblem(p=const(-1.0), tau=tau, start=0.0,
                        history=const(1.0), initial_value=1.0,
                        initial_slope=0.0)
    with pytest.raises(NotApplicableError):
        criterion_gustafson(prob, 10.0)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, 1.5,
                                     0.5], ids=["nan", "inf", "-inf",
                                                "start", "start-1"])
@pytest.mark.parametrize("measure", ["gustafson", "comparison", "integrate"])
def test_horizon_not_finite_or_not_after_start_refused(measure, horizon):
    """A sampled window needs a finite end after its start: NaN gave a
    verdict from no data, ±∞ leaked numpy warnings, the start sampled one
    point 801 times, and a horizon before it was misread as a hypothesis
    failure. The integrator names a horizon that is not finite as such."""
    prob = DelayProblem(p=const(-1.0) if measure == "gustafson" else
                        const(1.0), tau=const(2.0), start=1.5,
                        history=const(1.0), initial_value=1.0,
                        initial_slope=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as refused:
            if measure == "gustafson":
                criterion_gustafson(prob, horizon)
            elif measure == "comparison":
                verify_comparison(prob, prob, horizon)
            else:
                integrate(prob, horizon)
    assert str(refused.value) == (f"horizon {horizon} must be finite and "
                                  "exceed start 1.5")


def test_wronskian_positivity_bound_values():
    mk = lambda p, tau: DelayProblem(p=const(p), tau=const(tau), start=0.0,
                                     history=const(0.0), initial_value=0.0,
                                     initial_slope=0.0)
    holds, value = criterion_wronskian_2e(mk(-0.25, 1.4))
    assert holds and abs(value - 0.7) < 1e-12
    holds, value = criterion_wronskian_2e(mk(-1.0, 0.8))
    assert not holds and abs(value - 0.8) < 1e-12


# ----------------------------------------------------------------------
# comparison of solutions
# ----------------------------------------------------------------------

def test_comparison_identical_pair_has_no_violation():
    prob = _unit_profile_problem(2.0)
    ok, worst = verify_comparison(prob, prob, 2.0)
    assert ok and worst == 0.0


def test_comparison_smaller_delay_stays_above():
    minor = _unit_profile_problem(1.0)
    major = _unit_profile_problem(2.0)
    ok, worst = verify_comparison(minor, major, 2.0)
    assert ok
    assert worst <= 1e-9
    # and the first zeros are ordered the way the profiles predict
    assert theta(1.0) > theta(2.0)


def _exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def test_comparison_rejects_broken_hypotheses():
    minor = _unit_profile_problem(2.0)
    major_small_p = DelayProblem(p=const(0.5), tau=const(2.0), start=0.0,
                                 history=const(1.0), initial_value=1.0,
                                 initial_slope=0.0)
    with pytest.raises(NotApplicableError, match=_exactly(
            "majorant coefficient 0.5 < |1.0| at t = 0.0")):
        verify_comparison(minor, major_small_p, 2.0)
    major_shifted = DelayProblem(p=const(1.0), tau=const(2.0), start=1.0,
                                 history=const(1.0), initial_value=1.0,
                                 initial_slope=0.0)
    with pytest.raises(NotApplicableError, match=_exactly(
            "problems must share their start time")):
        verify_comparison(minor, major_shifted, 3.0)
    rising = PiecewiseSignal((-2.0, 0.0), ((0.5, 0.25),), 0.5, 1.0)
    major_rising_data = DelayProblem(p=const(1.0), tau=const(2.0), start=0.0,
                                     history=rising, initial_value=1.0,
                                     initial_slope=0.0)
    with pytest.raises(NotApplicableError, match=_exactly(
            "majorant history must be nonincreasing")):
        verify_comparison(minor, major_rising_data, 2.0)
    big_z = DelayProblem(p=const(1.0), tau=const(2.0), start=0.0,
                         history=const(3.0), initial_value=1.0,
                         initial_slope=0.0)
    with pytest.raises(NotApplicableError, match=_exactly(
            "minorant data exceeds the majorant bound at t = -2.0")):
        verify_comparison(big_z, _unit_profile_problem(2.0), 2.0)
    # the first failing grid time is named: the delay drops below the
    # minorant's at t = 0.5, before the coefficient does at t = 1
    p_drops_at_1 = PiecewiseSignal((0.0, 1.0), ((1.0,),), 1.0, 0.5)
    delay_first = DelayProblem(
        p=p_drops_at_1, tau=PiecewiseSignal((0.0, 0.5), ((2.0,),), 2.0, 1.5),
        start=0.0, history=const(1.0), initial_value=1.0, initial_slope=0.0)
    with pytest.raises(NotApplicableError, match=_exactly(
            "majorant delay below minorant at 0.5")):
        verify_comparison(minor, delay_first, 2.0)
    # both fail from t = 1 on: the coefficient check comes first
    both_at_1 = DelayProblem(
        p=p_drops_at_1, tau=PiecewiseSignal((0.0, 1.0), ((2.0,),), 2.0, 1.5),
        start=0.0, history=const(1.0), initial_value=1.0, initial_slope=0.0)
    with pytest.raises(NotApplicableError, match=_exactly(
            "majorant coefficient 0.5 < |1.0| at t = 1.0")):
        verify_comparison(minor, both_at_1, 2.0)


# each public scan, given the trajectory, its zeros and the tol
_SCANS = {
    "zero_crossings": lambda traj, _, tol: integrator.zero_crossings(traj, tol),
    "extremum_events": lambda traj, _, tol: integrator.extremum_events(traj,
                                                                       tol),
    "find_zeros": lambda traj, _, tol: find_zeros(traj, tol),
    "semicycles": lambda traj, zeros, tol: semicycles(traj, zeros, tol),
    "classify": lambda traj, _, tol: classify(traj.problem, traj, tol=tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("zero", [False, True], ids=["sine", "zero"])
@pytest.mark.parametrize("scan", sorted(_SCANS))
def test_every_public_scan_refuses_a_bad_tol(monkeypatch, scan, zero, tol):
    problem = DelayProblem(p=const(1.0), tau=const(0.5), start=0.0,
                           history=const(0.0), initial_value=0.0,
                           initial_slope=0.0 if zero else 1.0)
    traj = integrate(problem, 12.0, step=0.01)
    assert traj.xs.any() != zero
    zeros = find_zeros(traj)

    def no_work(*args):
        raise AssertionError("the scan did work before refusing its tol")

    # the refinement and classify's threshold are the work a refusal skips
    for owner, name in ((integrator, "_refine"),
                        (analysis, "semicycle_threshold")):
        monkeypatch.setattr(owner, name, no_work)
    with pytest.raises(DomainError, match="tol must be finite and positive"):
        _SCANS[scan](traj, zeros, tol)


@pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
def test_classify_refuses_a_bad_growth_factor(monkeypatch, factor):
    # 0 and −1 used to read x = sin t as unbounded_observed, NaN gave
    # inconclusive with NaN evidence
    traj = integrate(_sine_problem(), 6.5 * math.pi, step=0.01)

    def no_work(*args):
        raise AssertionError("classify scanned before refusing its factor")

    monkeypatch.setattr(analysis, "_zero_scan", no_work)
    with pytest.raises(DomainError, match="growth_factor must be finite"):
        classify(traj.problem, traj, growth_factor=factor)


def test_classify_refuses_another_problems_trajectory():
    # x = sin t solves p ≡ 1; against p ≡ 0.25 its arcs of length π would
    # read as 1.5708 normalized, under Θ, and certify decay
    sine = _sine_problem()
    traj = integrate(sine, 6.5 * math.pi, step=0.01)
    quarter = DelayProblem(p=const(0.25), tau=sine.tau, start=sine.start,
                           history=sine.history, initial_value=0.0,
                           initial_slope=1.0)
    with pytest.raises(DomainError, match="problem the trajectory solves"):
        classify(quarter, traj)
    assert classify(sine, traj).verdict == "inconclusive"
    # an equal problem built separately is the same problem
    assert classify(_sine_problem(), traj).verdict == "inconclusive"


# ----------------------------------------------------------------------
# semicycle peaks: one sample call against the per-arc loop
# ----------------------------------------------------------------------

def _arcs_per_arc(traj, times, stationary, tol):
    """``analysis._arcs`` as it was: every stationary point tested and a
    full-length node mask built for each arc, one ``sample`` call per
    peak."""
    out = []
    for a, b in zip(times[:-1], times[1:]):
        if b - a < 10.0 * tol:
            raise ResolutionError(
                f"adjacent zeros at {a} and {b} are separated by less than "
                f"10·tol = {10 * tol}")
        interior = [w for w in stationary if a + tol < w < b - tol]
        if interior:
            w = interior[0]
        else:
            mask = (traj.ts > a) & (traj.ts < b)
            if not mask.any():
                raise ResolutionError(
                    f"no trajectory nodes inside semicycle ({a}, {b})")
            w = float(traj.ts[mask][np.abs(traj.xs[mask]).argmax()])
        value = traj.sample(w)
        out.append(Semicycle(a=a, b=b, w=w, peak=abs(value),
                             sign=1 if value >= 0.0 else -1))
    return out


def _same_arcs(traj, times, stationary, tol):
    """``_arcs`` and the per-arc loop give equal semicycles, down to the
    types of their fields, or raise the same error for the same arc."""
    try:
        want = _arcs_per_arc(traj, times, stationary, tol)
    except ResolutionError as exc:
        with pytest.raises(ResolutionError) as got:
            analysis._arcs(traj, times, stationary, tol)
        assert str(got.value) == str(exc)
        return None
    got = analysis._arcs(traj, times, stationary, tol)
    assert repr(got) == repr(want)
    return got


@pytest.mark.parametrize("which", ["example2", "example3"])
@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_arcs_equal_the_per_arc_loop_on_examples(which, tol):
    spec = ExampleSpec(which=which, epsilon=0.15, periods=20)
    traj = integrate(build_example_problem(spec), example_horizon(spec),
                     step=0.01)
    zeros, stationary = integrator._zero_scan(traj, tol)
    times = [t for t, _ in zeros]
    arcs = _same_arcs(traj, times, stationary, tol)
    assert len(arcs) == 19 and all(sc.w in stationary for sc in arcs)
    # without the stationary points every arc takes its node of largest |x|
    fallback = _same_arcs(traj, times, [], tol)
    assert all(sc.w in traj.ts for sc in fallback)
    # a third of the stationary points: arcs take either branch
    mixed = _same_arcs(traj, times, stationary[::3], tol)
    assert {sc.w in traj.ts for sc in mixed} == {False, True}


def test_arcs_exclude_stationary_points_at_a_plus_and_b_minus_tol(
        sine_traj):
    tol = 1e-3
    a, b = 0.25, 3.0
    at_a, at_b = a + tol, b - tol
    ts = sine_traj.ts
    # the fallback: the node of largest |x| inside (a, b)
    inside = (ts > a) & (ts < b)
    node = float(ts[inside][np.abs(sine_traj.xs[inside]).argmax()])
    for stationary, w in (([at_a, at_b], node),
                          ([0.1, at_a, at_b, 3.1], node),
                          ([at_a, 1.5, at_b], 1.5),
                          ([np.nextafter(at_a, 4.0), 1.5], np.nextafter(
                              at_a, 4.0)),
                          ([np.nextafter(at_b, 0.0)], np.nextafter(at_b,
                                                                   0.0))):
        stationary = [float(s) for s in stationary]
        (arc,) = _same_arcs(sine_traj, [a, b], stationary, tol)
        assert arc.w == w


def test_arcs_raise_the_same_error_for_the_same_arc(sine_traj):
    h = float(sine_traj.ts[1] - sine_traj.ts[0])
    t5, t6 = float(sine_traj.ts[5]), float(sine_traj.ts[6])
    # zeros closer than 10·tol, and arcs with no node strictly inside (one
    # between two adjacent nodes): each refused at its own arc, the first
    # of them wherever both occur
    for times in ([0.5, 1.0, 1.0 + 5e-11, 2.0], [0.005, t5, t6, 2.0],
                  [0.5, t5 + 0.1 * h, t5 + 0.6 * h, 2.0],
                  [0.5, t5 + 0.1 * h, t5 + 0.6 * h, t5 + 0.6 * h + 1e-11],
                  [0.5, 0.9, 0.9 + 1e-11, 1.2, 1.2 + 0.1 * h,
                   1.2 + 0.5 * h]):
        with pytest.raises(ResolutionError):
            analysis._arcs(sine_traj, times, [], 1e-10)
        assert _same_arcs(sine_traj, times, [], 1e-10) is None
