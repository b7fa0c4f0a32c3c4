"""Integrator checks against closed-form solutions and scheme invariants."""

import bisect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semicycles import (
    DelayProblem,
    DomainError,
    PiecewiseSignal,
    eval_r,
    fundamental_system,
    integrate,
    problem_from_dict,
    problem_to_dict,
    rescale,
    signal_range,
    wronskian,
    zero_crossings,
)
from semicycles.analysis import find_zeros, semicycles
from semicycles.errors import HistoryDomainError, SemicycleError
from semicycles import integrator
from semicycles.harness import eigenmode_problem, mode_mixture_problem
from semicycles.integrator import (
    _forced_nodes,
    _lag_crossings,
    _scan_sign_changes,
)
from semicycles.repro import (
    ExampleSpec,
    build_example_problem,
    closed_form,
    example_horizon,
)
from semicycles.signals import _trim_for_roots
from semicycles.spectral import char_roots

SQRT2 = math.sqrt(2.0)


def _const_problem(p, tau, hist, x0, v0):
    return DelayProblem(
        p=PiecewiseSignal.constant(p),
        tau=PiecewiseSignal.constant(tau),
        start=0.0,
        history=PiecewiseSignal.constant(hist),
        initial_value=x0,
        initial_slope=v0,
    )


def test_ode_cosine_oracle():
    traj = integrate(_const_problem(1.0, 0.0, 0.0, 1.0, 0.0), 10.0, step=1e-3)
    ts = np.linspace(0.0, 10.0, 777)
    assert np.abs(traj.sample(ts) - np.cos(ts)).max() < 1e-10
    assert np.abs(traj.sample_slope(ts) + np.sin(ts)).max() < 1e-9
    zeros = [t for t, deg in zero_crossings(traj) if not deg]
    expected = [math.pi / 2 + k * math.pi for k in range(3)]
    assert len(zeros) == 3
    assert max(abs(z - e) for z, e in zip(zeros, expected)) < 1e-8


def test_unit_delay_matches_series_profile():
    # p ≡ 1, τ ≡ 1, unit history: the solution past 0 is the Δ = 1
    # piecewise-polynomial profile, which RK4 with aligned nodes hits
    # essentially exactly.
    traj = integrate(_const_problem(1.0, 1.0, 1.0, 1.0, 0.0), 6.0, step=1e-3)
    ts = np.linspace(0.0, 6.0, 555)
    ref = np.array([eval_r(1.0, float(t)) for t in ts])
    assert np.abs(traj.sample(ts) - ref).max() < 1e-12


def test_fourth_order_convergence():
    # a genuinely delay-coupled smooth regime: errors shrink ~16× per halving
    # compare at the final node: dense-output comparison at an arbitrary
    # interior point can see interpolation/node error cancellation
    prob = _const_problem(0.8, 0.6, 1.0, 1.0, 0.0)
    fine = integrate(prob, 6.0, step=5e-4).xs[-1]
    errs = [abs(integrate(prob, 6.0, step=s).xs[-1] - fine)
            for s in (0.04, 0.02, 0.01)]
    assert 11.0 < errs[0] / errs[1] < 21.0
    assert 11.0 < errs[1] / errs[2] < 21.0


def _closed_form_case(regime, size, step):
    """(problem, horizon, exact solution) in one regime: sin t (no delay),
    an eigenmode with τ ≡ size (delayed) or τ ≡ size·step (overlap, τ/h
    fixed), or example2 with ε = size (a piecewise coefficient whose
    breakpoints are forced nodes)."""
    if regime == "ode":
        return _const_problem(1.0, 0.0, 0.0, 0.0, 1.0), 20.0, np.sin
    if regime == "forced_nodes":
        spec = ExampleSpec("example2", size, 4)
        return (build_example_problem(spec), example_horizon(spec),
                np.vectorize(lambda t: closed_form(spec, float(t))))
    c = size if regime == "delayed" else size * step
    root = next(r for r in char_roots(c, 1, (0,)) if r.value.imag > 0.0)
    return (eigenmode_problem(c, root), 20.0,
            lambda t: np.exp(root.value * t).real)


@pytest.mark.parametrize("regime, size, steps", [
    ("ode", None, (0.08, 0.04, 0.02)),
    ("delayed", 1.0, (0.04, 0.02, 0.01)),
    ("delayed", 3.0, (0.04, 0.02, 0.01)),
    ("overlap", 0.25, (0.1, 0.05, 0.025)),
    ("forced_nodes", 0.1, (0.08, 0.04, 0.02)),
])
def test_observed_order_four_against_closed_forms(regime, size, steps):
    errors = []
    for step in steps:
        problem, horizon, exact = _closed_form_case(regime, size, step)
        traj = integrate(problem, horizon, step=step)
        errors.append(float(np.abs(traj.xs - exact(traj.ts)).max()))
    # 50× the ~1e-10 tails of the eigenmode histories, so the ratios
    # measure the scheme
    assert min(errors) > 5e-9
    for coarse, fine in zip(errors, errors[1:]):
        assert abs(math.log2(coarse / fine) - 4.0) <= 0.3


def test_piecewise_coefficient_alignment():
    # square-wave coefficient, no delay: cos arc then a cosh/sinh arc
    p = PiecewiseSignal((0.0, 2.0, 4.0), ((1.0,), (-1.0,)), 1.0, -1.0)
    prob = DelayProblem(p, PiecewiseSignal.constant(0.0), 0.0,
                        PiecewiseSignal.constant(0.0), 1.0, 0.0)
    traj = integrate(prob, 4.0, step=2e-3)
    t = 3.5
    ref = math.cos(2.0) * math.cosh(t - 2.0) - math.sin(2.0) * math.sinh(t - 2.0)
    assert abs(traj.sample(t) - ref) < 1e-9


def test_constant_delayed_argument_segment():
    # τ(t) = t + √2 pins the delayed argument at −√2; the response is an
    # exact quadratic arch peaking at 1, reproduced to rounding by the
    # aligned scheme (identically-zero crossing polynomials are skipped).
    tau = PiecewiseSignal((0.0, SQRT2), ((SQRT2, 1.0),), SQRT2, 0.0)
    hist = PiecewiseSignal((-SQRT2, 0.0), ((-1.0, 0.0, 0.5),), -1.0, 0.0)
    prob = DelayProblem(PiecewiseSignal.constant(-1.0), tau, 0.0,
                        hist, 0.0, SQRT2)
    traj = integrate(prob, SQRT2, step=0.05)
    assert abs(traj.sample(SQRT2) - 1.0) < 1e-12
    assert abs(traj.sample_slope(SQRT2)) < 1e-12


def test_small_delay_overlap_subiteration():
    # delay shorter than the step: the provisional-interpolant sweeps keep
    # the result consistent with a fully resolved integration
    prob = _const_problem(1.0, 0.004, 1.0, 1.0, 0.0)
    ref = integrate(prob, 4.0, step=2e-4).sample(4.0)
    got = integrate(prob, 4.0, step=1e-2).sample(4.0)
    assert abs(got - ref) < 1e-8


def test_wronskian_constant_without_delay():
    z, y = fundamental_system(PiecewiseSignal.constant(2.0),
                              PiecewiseSignal.constant(0.0),
                              0.0, 8.0, step=5e-3)
    ws = [wronskian(z, y, t) for t in np.linspace(0.0, 8.0, 41)]
    assert max(abs(w - 1.0) for w in ws) < 1e-9


def test_fundamental_system_jump_conventions():
    z, y = fundamental_system(PiecewiseSignal.constant(0.5),
                              PiecewiseSignal.constant(1.0),
                              0.0, 3.0, step=1e-2)
    assert z.sample(0.0) == 1.0 and z.sample_slope(0.0) == 0.0
    assert y.sample(0.0) == 0.0 and y.sample_slope(0.0) == 1.0
    assert abs(wronskian(z, y, 0.0) - 1.0) == 0.0
    # zero history: on [0, 1) the delayed term vanishes, so z ≡ 1, y ≡ t
    assert abs(z.sample(0.7) - 1.0) < 1e-12
    assert abs(y.sample(0.7) - 0.7) < 1e-12


@settings(max_examples=20, deadline=None)
@given(k=st.floats(min_value=0.3, max_value=2.5))
def test_rescale_equivalence(k):
    base = _const_problem(1.0, 1.0, 1.0, 1.0, 0.0)
    ref = integrate(base, 5.0, step=1e-2)
    scaled = integrate(rescale(base, k), 5.0 / k, step=1e-2 / k)
    for t in (1.3, 2.9, 4.6):
        assert abs(scaled.sample(t / k) - ref.sample(t)) < 1e-9
        assert abs(scaled.sample_slope(t / k) - k * ref.sample_slope(t)) < 1e-9


def test_rescale_normalizes_coefficient():
    p = PiecewiseSignal((0.0, 3.0), ((4.0, -0.5),), 4.0, 2.5)
    prob = DelayProblem(p, PiecewiseSignal.constant(1.0), 0.0,
                        PiecewiseSignal.constant(1.0), 1.0, 0.0)
    bound = max(map(abs, signal_range(prob.p, 0.0, 3.0)))
    k = 1.0 / math.sqrt(bound)
    scaled = rescale(prob, k)
    assert abs(max(map(abs, signal_range(scaled.p, 0.0, 3.0 / k))) - 1.0) \
        < 1e-12
    # τ_m·√(esssup|p|) is scale-invariant
    assert abs(scaled.tau_sup(3.0 / k) * 1.0 - prob.tau_sup(3.0) * math.sqrt(bound)) < 1e-12


def test_degenerate_touch_flagged():
    # x″ = 2 via a far-away constant history: x = (t−1)², tangent zero at 1
    prob = _const_problem(-1.0, 10.0, 2.0, 1.0, -2.0)
    traj = integrate(prob, 2.0, step=1e-2)
    zeros = zero_crossings(traj)
    assert len(zeros) == 1
    t, degenerate = zeros[0]
    assert degenerate
    assert abs(t - 1.0) < 1e-6


def test_degenerate_touch_flagged_at_fine_step():
    # the touch's height is rounding left over from x(0) = 1, while |x| at
    # the nodes beside it shrinks like the step squared: the floor must
    # scale with what x has been, not only with its neighbourhood
    prob = _const_problem(-1.0, 10.0, 2.0, 1.0, -2.0)
    traj = integrate(prob, 2.0, step=1e-3)
    [(t, degenerate)] = zero_crossings(traj)
    assert degenerate
    assert abs(t - 1.0) < 1e-6


@pytest.mark.parametrize("step", [2e-4, 1e-4])
def test_touch_with_rounding_dip_is_one_zero(step):
    # rounding dips x below zero on either side of the touch: the two sign
    # changes bound an arc with no node inside, which is not a semicycle
    prob = _const_problem(-1.0, 10.0, 2.0, 1.0, -2.0)
    traj = integrate(prob, 2.0, step=step)
    [(t, degenerate)] = zero_crossings(traj)
    assert degenerate
    assert abs(t - 1.0) < 1e-6
    assert semicycles(traj, find_zeros(traj)) == []


def test_validation_errors():
    prob = _const_problem(1.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate(prob, 5.0, step=0.0)
    with pytest.raises(DomainError):
        integrate(prob, -1.0, step=0.01)
    bad = _const_problem(1.0, -0.5, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate(bad, 5.0, step=0.01)


def test_trajectory_domain_checked():
    traj = integrate(_const_problem(1.0, 0.0, 0.0, 1.0, 0.0), 2.0, step=1e-2)
    with pytest.raises(DomainError):
        traj.sample(2.5)
    with pytest.raises(DomainError):
        traj.sample(np.array([-0.5, 1.0]))


def test_trajectory_rejects_nan_time():
    z, y = fundamental_system(PiecewiseSignal.constant(1.0),
                              PiecewiseSignal.constant(0.5), 0.0, 2.0)
    for read in (z.sample, z.sample_slope, lambda t: wronskian(z, y, t)):
        with pytest.raises(DomainError):
            read(math.nan)
    with pytest.raises(DomainError):
        z.sample(np.array([1.0, math.nan]))


def test_problem_dict_round_trip():
    tau = PiecewiseSignal((0.0, 1.0), ((0.5, 0.25),), 0.5, 0.75)
    prob = DelayProblem(PiecewiseSignal.constant(-1.0), tau, 0.0,
                        PiecewiseSignal.constant(0.3), 0.3, 1.0)
    again = problem_from_dict(problem_to_dict(prob))
    assert again == prob
    with pytest.raises(DomainError):
        problem_from_dict({"p": {}})


# ----------------------------------------------------------------------
# the block integrator against a step-by-step reference
# ----------------------------------------------------------------------

def _scalar_reference(problem, horizon, step):
    """One step at a time through closures, every stage resolved when it is
    reached and the output held in lists: the scheme the block integrator
    must reproduce bit for bit."""
    s = problem.start
    tau_m = problem.tau_sup(horizon)
    time_scale = max(1.0, abs(s), abs(horizon))
    hist_floor = s - tau_m - 1e-9 * max(1.0, tau_m, time_scale)
    history = problem.history
    hist_at_start = history.eval_left(s)
    ts, xs, vs = [s], [problem.initial_value], [problem.initial_slope]

    def dense_past(u):
        j = bisect.bisect_right(ts, u) - 1
        if j >= len(ts) - 1:
            j = len(ts) - 2
        h = ts[j + 1] - ts[j]
        sig = (u - ts[j]) / h
        if sig < 0.0:
            sig = 0.0
        elif sig > 1.0:
            sig = 1.0
        s2, s3 = sig * sig, sig * sig * sig
        return (xs[j] * (2 * s3 - 3 * s2 + 1)
                + vs[j] * h * (s3 - 2 * s2 + sig)
                + xs[j + 1] * (-2 * s3 + 3 * s2)
                + vs[j + 1] * h * (s3 - s2))

    nodes = _forced_nodes(problem, horizon)
    for a, b in zip(nodes[:-1], nodes[1:]):
        span = b - a
        n_sub = max(1, math.ceil(span / step - 1e-9))
        h = span / n_sub
        mid_global = a + 0.5 * span
        i_p = problem.p.segment_index(mid_global)
        i_tau = problem.tau.segment_index(mid_global)

        def p_at(sigma):
            return problem.p.eval_in_segment(i_p, sigma)

        def tau_at(sigma):
            return problem.tau.eval_in_segment(i_tau, sigma)

        for i_sub in range(n_sub):
            t0 = ts[-1]
            t1 = b if i_sub == n_sub - 1 else a + (i_sub + 1) * h
            hh = t1 - t0
            x0, v0 = xs[-1], vs[-1]
            mid_u = (t0 + 0.5 * hh) - tau_at(t0 + 0.5 * hh)
            right_of_start = mid_u > s
            prov = None
            overlap = False

            def delayed(sigma, x_stage):
                nonlocal overlap
                tv = tau_at(sigma)
                if tv < 0.0:
                    if tv < -1e-12:
                        raise DomainError(
                            f"delay {tv} negative at t = {sigma}")
                    tv = 0.0
                if tv <= 1e-13 * max(1.0, abs(sigma)):
                    return x_stage
                u = sigma - tv
                if u > t0:
                    overlap = True
                    if prov is None:
                        return x0 + v0 * (u - t0)
                    px0, pv0, px1, pv1 = prov
                    sg = (u - t0) / hh
                    s2 = sg * sg
                    s3 = s2 * sg
                    return (px0 * (2 * s3 - 3 * s2 + 1)
                            + pv0 * hh * (s3 - 2 * s2 + sg)
                            + px1 * (-2 * s3 + 3 * s2)
                            + pv1 * hh * (s3 - s2))
                if u > s:
                    return dense_past(u)
                if u == s:
                    return dense_past(u) if right_of_start else hist_at_start
                if u < hist_floor:
                    raise HistoryDomainError(
                        f"delayed argument {u} reaches below "
                        f"start − τ_m = {s - tau_m}")
                return history(u)

            def rk4_once():
                k1x = v0
                k1v = -p_at(t0) * delayed(t0, x0)
                tm = t0 + 0.5 * hh
                k2x = v0 + 0.5 * hh * k1v
                k2v = -p_at(tm) * delayed(tm, x0 + 0.5 * hh * k1x)
                k3x = v0 + 0.5 * hh * k2v
                k3v = -p_at(tm) * delayed(tm, x0 + 0.5 * hh * k2x)
                k4x = v0 + hh * k3v
                k4v = -p_at(t1) * delayed(t1, x0 + hh * k3x)
                x1 = x0 + (hh / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
                v1 = v0 + (hh / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
                return x1, v1

            x1, v1 = rk4_once()
            if overlap:
                for _ in range(2):
                    prov = (x0, v0, x1, v1)
                    x1, v1 = rk4_once()
            ts.append(t1)
            xs.append(x1)
            vs.append(v1)
    return np.asarray(ts), np.asarray(xs), np.asarray(vs)


def _same_bytes(got, want):
    """Equal shapes and bytes: unlike ``==``, −0.0 differs from 0.0."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_bit_identical(problem, horizon, step):
    traj = integrate(problem, horizon, step)
    ref = _scalar_reference(problem, horizon, step)
    for got, want in zip((traj.ts, traj.xs, traj.vs), ref):
        assert _same_bytes(got, want)


def _signed_zero_problems():
    """(problem, horizon, step) whose outputs hold zeros of both signs: −0.0
    initial data at τ = 0.5 (102 nodes of −0.0), and a coefficient whose
    first segment is the constant −0.0."""
    const = PiecewiseSignal.constant
    p_neg_zero = PiecewiseSignal((0.0, 6.0), ((-0.0,),), 1.0, 1.0)
    return [(_const_problem(-0.8, 0.5, -0.0, -0.0, -0.0), 3.0, 0.01),
            (DelayProblem(p_neg_zero, const(0.5), 0.0, const(-0.0), -0.0,
                          -0.0), 8.0, 0.01)]


def _piecewise_problem(tau_segments, start=0.0, x0=0.4, v0=-0.3):
    p = PiecewiseSignal((0.0, 1.3, 2.9, 4.6),
                        ((1.0, -0.2), (-0.5,), (0.7, 0.1, -0.05)), 1.0, 0.3)
    tau = PiecewiseSignal((0.0, 1.1, 2.5, 3.7), tau_segments, 0.8, 0.6)
    hist = PiecewiseSignal((-3.0, -1.7, -0.4, 0.0),
                           ((0.2, 0.1), (-0.3, 0.5, -0.2), (0.1, -0.4)),
                           0.25, -0.1)
    return DelayProblem(p, tau, start, hist, x0, v0)


@pytest.mark.parametrize("tau, step", [
    (0.0, 0.01),     # ODE: every stage reads its own value
    (0.6, 0.01),     # τ ≥ step: blocks of steps
    (0.01, 0.01),    # τ = step: one-step blocks
    (0.004, 0.01),   # τ < step: overlap sub-iteration
    (0.003, 0.01),   # stages read (dense, overlap, overlap)
    (0.007, 0.01),   # stages read (dense, dense, overlap)
])
def test_block_integrator_matches_reference_constant_delay(tau, step):
    _assert_bit_identical(_const_problem(0.8, tau, 1.0, 1.0, 0.0), 5.0, step)


@pytest.mark.parametrize("tau_segments", [
    # large delays, a zero-delay stretch, an overlap stretch
    ((0.9, -0.3), (0.0,), (0.004, 0.001)),
    # quadratic delay crossing the step size, affine growth
    ((0.005, 0.02, 0.1), (1.2, -0.3), (0.3, 0.2)),
    # a sawtooth from 0: each piece's first step reads its own x at t₀ and
    # the step itself at the midpoint and the end
    ((0.0, 0.004), (0.0, 0.003), (0.0, 0.002)),
])
def test_block_integrator_matches_reference_piecewise(tau_segments):
    _assert_bit_identical(_piecewise_problem(tau_segments), 6.0, 0.01)
    _assert_bit_identical(_piecewise_problem(tau_segments), 6.0, 0.037)


def test_block_integrator_matches_reference_jump_history():
    p = PiecewiseSignal((0.0, 2.0, 5.0), ((-0.5, 0.1), (0.3,)), -0.5, 0.3)
    zero = PiecewiseSignal.constant(0.0)
    # the second delay is below the step: two columns of overlap steps
    for tau in (PiecewiseSignal((0.0, 3.0), ((0.2, 0.3),), 0.2, 1.1),
                PiecewiseSignal.constant(0.008)):
        z, y = fundamental_system(p, tau, 0.0, 6.0, step=0.02)
        for traj, (x0, v0) in ((z, (1.0, 0.0)), (y, (0.0, 1.0))):
            ref = _scalar_reference(DelayProblem(p, tau, 0.0, zero, x0, v0),
                                    6.0, 0.02)
            for got, want in zip((traj.ts, traj.xs, traj.vs), ref):
                assert _same_bytes(got, want)


@pytest.mark.parametrize("case", range(2))
def test_block_integrator_matches_reference_signed_zeros(case):
    _assert_bit_identical(*_signed_zero_problems()[case])


def test_block_integrator_matches_reference_delayed_argument_on_start():
    # τ ≡ 1 puts u = s exactly at the node t = 1, from both sides; τ(t) = t
    # pins u = s on a whole segment, left of the jump
    hist = PiecewiseSignal((-2.0, 0.0), ((0.3, -0.2),), 0.3, -0.1)
    prob = DelayProblem(PiecewiseSignal.constant(0.9),
                        PiecewiseSignal.constant(1.0), 0.0, hist, 1.0, 0.2)
    _assert_bit_identical(prob, 4.0, 0.01)
    pinned = PiecewiseSignal((0.0, 1.5), ((0.0, 1.0),), 0.0, 1.5)
    prob = DelayProblem(PiecewiseSignal.constant(0.9), pinned, 0.0, hist,
                        1.0, 0.2)
    _assert_bit_identical(prob, 4.0, 0.01)


def test_block_integrator_matches_reference_mode_mixture_history():
    c = 1.0
    roots = [r for r in char_roots(c, 1, (0, 1)) if r.value.imag > 0.0]
    prob = mode_mixture_problem(c, 1, ((roots[0], 1.0, 0.3),
                                       (roots[1], 0.5, 1.1)))
    assert len(prob.history.segments) > 1
    _assert_bit_identical(prob, 8.0, 0.01)


class _UncheckedDelay(DelayProblem):
    """A problem whose delay bound skips the sign check and understates τ,
    so the integrator's own guards are what stop it."""

    def tau_sup(self, horizon):
        return 0.3


def _outcome(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("tau", [
    PiecewiseSignal((0.0, 1.0, 2.0), ((0.2,), (0.2, -1.0)), 0.2, 0.0),
    PiecewiseSignal.constant(1.2),
])
def test_block_integrator_raises_like_reference(tau):
    hist = PiecewiseSignal.constant(0.5)
    prob = _UncheckedDelay(PiecewiseSignal.constant(1.0), tau, 0.0, hist,
                           1.0, 0.0)
    got = _outcome(lambda: integrate(prob, 3.0, 0.01))
    want = _outcome(lambda: _scalar_reference(prob, 3.0, 0.01))
    assert want is not None
    assert got == want


def test_block_integrator_matches_reference_piecewise_ode_across_chunks():
    # τ ≡ 0 under a piecewise p: 3000 scalar ODE steps over six chunks
    p = PiecewiseSignal((0.0, 1.3, 2.9, 4.6),
                        ((1.0, -0.2), (-0.5,), (0.7, 0.1, -0.05)), 1.0, 0.3)
    prob = DelayProblem(p, PiecewiseSignal.constant(0.0), 0.0,
                        PiecewiseSignal.constant(0.25), 0.4, -0.3)
    _assert_bit_identical(prob, 6.0, 0.002)


def test_block_integrator_matches_reference_overlap_into_delay():
    # τ grows from 0.002 past the step 0.01: steps with three, two, one and
    # then no stage inside the step, the last ones in blocks
    tau = PiecewiseSignal((0.0, 5.0), ((0.002, 0.004),), 0.002, 0.022)
    hist = PiecewiseSignal((-1.0, 0.0), ((0.3, -0.2),), 0.3, -0.1)
    prob = DelayProblem(PiecewiseSignal.constant(0.9), tau, 0.0, hist,
                        1.0, 0.2)
    _assert_bit_identical(prob, 6.0, 0.01)


def _deep_read_tau():
    """A delay that rises from 0 to 0.5 over one step at t = 1 and t = 2
    and stays 0.5 between: each rising step reads its own x at t₀ and
    output 25 and 50 nodes back at its later stages, in a run of its own."""
    bps = (0.0, 0.01, 1.0, 1.01, 2.0, 2.01)
    return PiecewiseSignal(bps, ((0.0, 50.0), (0.5,)) * 2 + ((0.0, 50.0),),
                           0.0, 0.5)


def test_block_integrator_matches_reference_deep_reads_of_a_lone_step(
        monkeypatch):
    deep = []  # runs reading more than six nodes per step below their start
    take = integrator._take_steps

    def recording(plan, b, e, xs, vs):
        if plan.kind is not None:
            first = min(plan.scalar[1][b:e])
            deep.append(plan.c0 + b - first > 6 * (e - b))
        take(plan, b, e, xs, vs)

    monkeypatch.setattr(integrator, "_take_steps", recording)
    p, tau = PiecewiseSignal.constant(0.9), _deep_read_tau()
    hist = PiecewiseSignal((-1.0, 0.0), ((0.3, -0.2),), 0.3, -0.1)
    _assert_bit_identical(DelayProblem(p, tau, 0.0, hist, 1.0, 0.2), 3.0,
                          0.01)
    zero = PiecewiseSignal.constant(0.0)
    z, y = fundamental_system(p, tau, 0.0, 3.0, step=0.01)
    for traj, (x0, v0) in ((z, (1.0, 0.0)), (y, (0.0, 1.0))):
        ref = _scalar_reference(DelayProblem(p, tau, 0.0, zero, x0, v0), 3.0,
                                0.01)
        for got, want in zip((traj.ts, traj.xs, traj.vs), ref):
            assert _same_bytes(got, want)
    # each rising step with the step before it, and the last step, in one
    # column and in two
    assert deep.count(True) == 6


@pytest.mark.parametrize("tau, error", [
    # τ ≡ 0.004 < step, then falling through 0: the step that raises reads
    # its midpoint inside itself and its end at a negative delay
    (PiecewiseSignal((0.0, 2.0, 3.0), ((0.004,), (0.006, -0.5)), 0.004, 0.0),
     DomainError),
    # τ ≡ 0.004 < step, then growing until u falls below the history
    (PiecewiseSignal((0.0, 2.0, 3.0), ((0.004,), (0.004, 0.0, 40.0)), 0.004,
                     0.0),
     HistoryDomainError),
])
def test_block_integrator_raises_like_reference_after_overlap(tau, error):
    prob = _UncheckedDelay(PiecewiseSignal.constant(1.0), tau, 0.0,
                           PiecewiseSignal.constant(0.5), 1.0, 0.0)
    got = _outcome(lambda: integrate(prob, 3.0, 0.01))
    assert got is not None and got[0] is error
    assert got == _outcome(lambda: _scalar_reference(prob, 3.0, 0.01))


def test_negative_and_history_errors_named():
    hist = PiecewiseSignal.constant(0.5)
    neg = PiecewiseSignal((0.0, 1.0, 2.0), ((0.2,), (0.2, -1.0)), 0.2, 0.0)
    with pytest.raises(DomainError, match="negative at t ="):
        integrate(_UncheckedDelay(PiecewiseSignal.constant(1.0), neg, 0.0,
                                  hist, 1.0, 0.0), 3.0, 0.01)
    with pytest.raises(HistoryDomainError, match="reaches below"):
        integrate(_UncheckedDelay(PiecewiseSignal.constant(1.0),
                                  PiecewiseSignal.constant(1.2), 0.0, hist,
                                  1.0, 0.0), 3.0, 0.01)


def test_lag_crossing_survives_negligible_leading_coefficient():
    # a cubic term far below float precision on the segment must not cost
    # np.roots the real crossing t − τ(t) = 0 at t = 0.5
    tau = PiecewiseSignal((0.0, 2.0), ((0.5, 0.5, -1.0, 6.6e-236),), 0.5, 0.5)
    assert _lag_crossings(tau, 0.0, -1.0, 5.0) == [0.5]


def _lag_crossings_per_target(tau, c, lo, hi):
    """t − τ(t) = c in (lo, hi): every τ segment solved for one target."""
    out = []
    bps = tau.breakpoints
    scale = max(1.0, abs(c), abs(lo), abs(hi))

    def consider(t):
        if lo < t < hi:
            out.append(t)

    t_left = c + tau.left_extension
    if t_left < bps[0]:
        consider(t_left)
    t_right = c + tau.right_extension
    if t_right >= bps[-1]:
        consider(t_right)
    for i, seg in enumerate(tau.segments):
        length = bps[i + 1] - bps[i]
        q = list(-np.asarray(seg, dtype=float))
        q[0] += bps[i] - c
        if len(q) < 2:
            q.append(1.0)
        else:
            q[1] += 1.0
        if all(abs(ci) <= 1e-13 * scale for ci in q):
            continue
        trimmed = _trim_for_roots(q, length)
        if len(trimmed) == 1:
            continue
        if len(trimmed) == 2:
            roots = [-trimmed[0] / trimmed[1]]
        else:
            roots = [r.real for r in np.roots(trimmed[::-1])
                     if abs(r.imag) < 1e-9 * scale]
        for u in roots:
            if -1e-12 * scale <= u <= length + 1e-12 * scale:
                consider(bps[i] + u)
    return out


def _forced_nodes_per_target(problem, horizon):
    s = problem.start
    nodes = {s, horizon}
    for sig in (problem.p, problem.tau):
        nodes.update(b for b in sig.breakpoints if s < b < horizon)
    targets = set(problem.p.breakpoints) | set(problem.tau.breakpoints) \
        | set(problem.history.breakpoints) | {s}
    for c in targets:
        nodes.update(_lag_crossings_per_target(problem.tau, c, s, horizon))
    arr = np.array(sorted(nodes))
    tol = 1e-12 * max(1.0, abs(s), abs(horizon))
    keep = [arr[0]]
    for t in arr[1:]:
        if t - keep[-1] > tol:
            keep.append(t)
    keep[-1] = horizon
    return np.asarray(keep)


def _random_crossing_problem(rng):
    """A delay whose pieces are random polynomials of degree 0–3, affine of
    unit slope (t − τ(t) constant), affine with t − τ(t) ≡ a target, or the
    negligible-lead cubic; breakpoints often on a 0.25 grid, so targets and
    crossings land on breakpoints."""
    grid = rng.random() < 0.5

    def points(lo, hi, n):
        pts = rng.uniform(lo, hi, n)
        return np.unique(np.round(pts * 4) / 4 if grid else pts)

    p_bps = points(-1.0, 8.0, int(rng.integers(1, 5)))
    h_bps = points(-3.0, 0.0, int(rng.integers(1, 4)))
    t_bps = points(-1.0, 8.0, int(rng.integers(2, 7)))
    targets = np.concatenate((p_bps, h_bps, t_bps, [0.0]))
    segs = []
    for b in t_bps[:-1]:
        kind = int(rng.integers(0, 5))
        if kind == 0:
            seg = tuple(rng.uniform(-1.0, 2.0, int(rng.integers(1, 5))))
        elif kind == 1:
            seg = (float(rng.uniform(0.0, 2.0)), 1.0)
        elif kind == 2:
            seg = (float(b - rng.choice(targets)), 1.0)
        elif kind == 3:
            seg = (0.5, 0.5, -1.0, 6.6e-236)
        else:
            seg = (float(rng.uniform(0.0, 1.0)),
                   float(1.0 + rng.choice([-1.0, 1.0]) * 1e-15))
        segs.append(tuple(float(c) for c in seg))
    tau = PiecewiseSignal(tuple(map(float, t_bps)), tuple(segs),
                          float(rng.uniform(0.0, 2.0)),
                          float(rng.uniform(0.0, 2.0)))
    p = PiecewiseSignal(tuple(map(float, p_bps)), ((1.0,),) * (p_bps.size - 1),
                        1.0, 1.0)
    hist = PiecewiseSignal(tuple(map(float, h_bps)),
                           ((0.0,),) * (h_bps.size - 1), 0.0, 0.0)
    return DelayProblem(p, tau, 0.0, hist, 1.0, 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_forced_nodes_match_per_target_solves(seed):
    rng = np.random.default_rng([seed, 11])
    for _ in range(100):
        prob = _random_crossing_problem(rng)
        horizon = float(rng.choice([5.0, 7.75, 12.0]))
        got = _forced_nodes(prob, horizon)
        want = _forced_nodes_per_target(prob, horizon)
        assert got.shape == want.shape and (got == want).all()
        targets = sorted(set(prob.p.breakpoints) | set(prob.tau.breakpoints)
                         | set(prob.history.breakpoints) | {0.0})
        per_target = [t for c in targets
                      for t in _lag_crossings_per_target(prob.tau, c, 0.0,
                                                         horizon)]
        assert sorted(_lag_crossings(prob.tau, targets, 0.0, horizon)) \
            == sorted(per_target)


def test_forced_nodes_skip_unit_slope_segments(monkeypatch):
    # every piece of example3's delay is affine with unit slope: no
    # (target, segment) pair needs a root solve, not even the target s = 0
    # onto which the middle piece maps
    calls = []
    monkeypatch.setattr(integrator, "_segment_crossings",
                        lambda *args: calls.append(args) or [])
    tau = PiecewiseSignal((0.0, 1.0, 2.0, 3.0),
                          ((0.5, 1.0), (1.0, 1.0), (0.25, 1.0)), 0.5, 0.5)
    prob = DelayProblem(PiecewiseSignal((0.0, 1.5), ((1.0,),), -1.0, 1.0),
                        tau, 0.0, PiecewiseSignal.constant(0.0), 1.0, 0.0)
    assert (_forced_nodes(prob, 3.0)
            == _forced_nodes_per_target(prob, 3.0)).all()
    assert calls == []


def test_step_count_bounded_before_allocation():
    prob = _const_problem(1.0, 0.0, 0.0, 1.0, 0.0)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="more than the limit"):
            integrate(prob, 30.0, step=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_step_count_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(integrator, "_MAX_STEPS", 100)
    prob = _const_problem(1.0, 0.0, 0.0, 1.0, 0.0)
    assert integrate(prob, 1.0, step=0.01).ts.size == 101
    with pytest.raises(DomainError, match="needs 102 steps"):
        integrate(prob, 1.0, step=0.0099)


@pytest.mark.parametrize("field", ["start", "initial_value", "initial_slope"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_problem_rejected(field, bad):
    data = problem_to_dict(_const_problem(1.0, 0.5, 0.0, 1.0, 0.0))
    data[field] = bad
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        problem_from_dict(data)


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=4)),
    max_leaves=10)
_SIGNAL_KEYS = ("breakpoints", "segments", "left", "right")


@st.composite
def _problem_documents(draw):
    """A valid problem document with one entry replaced by arbitrary JSON
    or dropped, or arbitrary JSON in its place."""
    tau = PiecewiseSignal((0.0, 1.0), ((0.5, 0.25),), 0.5, 0.75)
    data = problem_to_dict(DelayProblem(
        PiecewiseSignal.constant(-1.0), tau, 0.0,
        PiecewiseSignal.constant(0.3), 0.3, 1.0))
    how = draw(st.sampled_from(("whole", "replace", "drop", "keep")))
    if how == "whole":
        return draw(_JSON)
    owner = data
    key = draw(st.sampled_from(sorted(data)))
    if key in ("p", "tau", "history") and draw(st.booleans()):
        owner, key = data[key], draw(st.sampled_from(_SIGNAL_KEYS))
    if how == "replace":
        owner[key] = draw(_JSON)
    elif how == "drop":
        del owner[key]
    return data


@settings(max_examples=300, deadline=None)
@given(data=_problem_documents())
@example(data=[1.0])
@example(data={"start": "abc"})
@example(data={"p": {"breakpoints": [0.0], "segments": 5, "left": 1.0,
                     "right": 1.0}})
@example(data={"p": 1, "tau": 1, "start": 2 ** 1100, "history": 1,
               "initial_value": 1, "initial_slope": 0})
def test_arbitrary_json_gives_problem_or_semicycle_error(data):
    try:
        prob = problem_from_dict(data)
    except SemicycleError:
        return
    assert isinstance(prob, DelayProblem)


def test_first_step_reads_right_limit_at_start():
    # t − τ(t) = 0.5t − t² leaves the start s = 0 and comes back to it at
    # t = 0.5: the first step [0, 0.5] ends on a stage that reads x at s from
    # the right, x(s⁺) = x(0), before any step has been accepted
    tau = PiecewiseSignal((0.0, 1.0), ((0.0, 0.5, 1.0),), 0.0, 1.5)
    prob = DelayProblem(PiecewiseSignal.constant(1.0), tau, 0.0,
                        PiecewiseSignal.constant(0.3), 1.0, 0.0)
    traj = integrate(prob, 3.0, step=0.6)
    assert np.isfinite(traj.xs).all() and np.isfinite(traj.vs).all()
    assert traj.ts[1] == 0.5

    # the step by hand: x″ = −x(u); u = t at t = 0 (no delay), u − t₀ =
    # 1/16 at the midpoint (an overlap: a linear first pass, then two passes
    # on the step's own Hermite interpolant) and u = 0⁺ at t = 0.5
    x0, v0, h = 1.0, 0.0, 0.5

    def rk4(mid):
        k1v = -1.0 * x0
        k2x = v0 + 0.5 * h * k1v
        k2v = -1.0 * mid
        k3x = v0 + 0.5 * h * k2v
        k4x = v0 + h * k2v
        k4v = -1.0 * x0  # x(s⁺)
        return (x0 + h / 6.0 * (v0 + 2 * k2x + 2 * k3x + k4x),
                v0 + h / 6.0 * (k1v + 2 * k2v + 2 * k2v + k4v))

    x1, v1 = rk4(x0 + v0 * 0.0625)
    sg = 0.0625 / h
    s2 = sg * sg
    s3 = s2 * sg
    for _ in range(2):
        x1, v1 = rk4(x0 * (2 * s3 - 3 * s2 + 1) + v0 * h * (s3 - 2 * s2 + sg)
                     + x1 * (-2 * s3 + 3 * s2) + v1 * h * (s3 - s2))
    assert traj.xs[1] == x1 and traj.vs[1] == v1


def _scalar_scan(ts, ys, f, tol):
    """Node-by-node sign-change scan with one scalar bisection per bracket."""
    out, prev_idx, prev_sign, zero_since_prev = [], None, 0, False
    for j in range(ts.size):
        if ys[j] == 0.0:
            if not (out and abs(out[-1][0] - ts[j]) <= tol):
                out.append((float(ts[j]), True))
            zero_since_prev = True
            continue
        sign = 1 if ys[j] > 0.0 else -1
        if prev_idx is not None and sign != prev_sign and not zero_since_prev:
            lo, hi = float(ts[prev_idx]), float(ts[j])
            f_lo = f(lo)
            if f_lo == 0.0:
                t_star = lo
            else:
                while hi - lo > tol:
                    mid = 0.5 * (lo + hi)
                    fm = f(mid)
                    if fm == 0.0:
                        break
                    if (fm > 0.0) == (f_lo > 0.0):
                        lo = mid
                    else:
                        hi = mid
                else:
                    mid = 0.5 * (lo + hi)
                t_star = mid
            out.append((t_star, False))
        prev_idx, prev_sign = j, sign
        zero_since_prev = False
    return out


def _zero_run_problem():
    # x ≡ 0 exactly while p = 0 on [0, 1) (a run of exact-zero nodes), then
    # oscillation driven by the history
    p = PiecewiseSignal((0.0, 1.0), ((0.0,),), 0.0, 4.0)
    hist = PiecewiseSignal((-2.0, 0.0), ((1.0, 0.5),), 1.0, 0.0)
    prob = DelayProblem(p, PiecewiseSignal.constant(1.05), 0.0, hist, 0.0,
                        0.0)
    return integrate(prob, 12.0, step=0.01), 3


def _midpoint_zero_problem():
    # x = t − 0.375 on a 0.25 grid: the first bisection midpoint of the
    # bracket [0.25, 0.5] is an exact zero of the dense output
    traj = integrate(_const_problem(0.0, 0.0, 0.0, -0.375, 1.0), 1.0,
                     step=0.25)
    assert traj.sample(0.375) == 0.0
    return traj, 1


def _trajectories_seed0_draws():
    """ε, c and the phase that the benchmark's ``trajectories`` workload
    draws at seed 0."""
    rng = np.random.default_rng([0, 2])
    return tuple(float(rng.uniform(lo, hi))
                 for lo, hi in ((0.1, 0.2), (0.002, 0.008),
                                (0.0, 2.0 * math.pi)))


def _example3_problem():
    # 50 periods of example3 at step 0.005, as in the benchmark
    eps, _, _ = _trajectories_seed0_draws()
    spec = ExampleSpec("example3", eps, 50)
    return integrate(build_example_problem(spec), example_horizon(spec),
                     step=0.005), 49


def _eigenmode_overlap_problem():
    # τ ≡ c < step: every step takes the overlap sub-iteration
    _, c, phase = _trajectories_seed0_draws()
    root = next(r for r in char_roots(c, 1, (0,)) if r.value.imag > 0.0)
    return integrate(eigenmode_problem(c, root, phase), 60.0,
                     step=0.01), 19


@pytest.mark.parametrize("make", [_zero_run_problem, _midpoint_zero_problem,
                                  _example3_problem,
                                  _eigenmode_overlap_problem])
@pytest.mark.parametrize("tol", [1e-10, 1e-3])
def test_vectorized_sign_scan_matches_scalar_bisection(make, tol):
    traj, brackets = make()
    got = _scan_sign_changes(traj, False, tol)
    assert got == _scalar_scan(traj.ts, traj.xs, traj.sample, tol)
    assert sum(1 for _, exact in got if not exact) >= brackets
    got = _scan_sign_changes(traj, True, tol)
    assert got == _scalar_scan(traj.ts, traj.vs, traj.sample_slope, tol)


def _product_hermite(traj, q):
    """x(q) from the nodes in plain Python floats: the step of q by
    bisection, the cube of its fraction by products."""
    ts, xs, vs = traj.ts.tolist(), traj.xs.tolist(), traj.vs.tolist()
    j = min(max(bisect.bisect_right(ts, q) - 1, 0), len(ts) - 2)
    h = ts[j + 1] - ts[j]
    sg = min(max((q - ts[j]) / h, 0.0), 1.0)
    s2 = sg * sg
    s3 = s2 * sg
    return (xs[j] * (2 * s3 - 3 * s2 + 1) + vs[j] * h * (s3 - 2 * s2 + sg)
            + xs[j + 1] * (-2 * s3 + 3 * s2) + vs[j + 1] * h * (s3 - s2))


@pytest.mark.parametrize("tau", [0.7, 0.004])
def test_dense_output_is_product_form_hermite(tau):
    # numpy's vectorized power can round s³ differently from s·s·s on some
    # hosts; the dense output must be the product form everywhere
    traj = integrate(_const_problem(1.0, tau, 1.0, 1.0, 0.0), 20.0,
                     step=0.01)
    q = np.random.default_rng(5).uniform(0.0, 20.0, 5000)
    got = traj.sample(q).tolist()
    assert got == [_product_hermite(traj, t) for t in q.tolist()]


# ----------------------------------------------------------------------
# the two-column fundamental system against two single-column runs
# ----------------------------------------------------------------------

def _random_pieces(rng, lo, hi, t0, t1):
    """Piecewise-linear signal with 1–3 pieces and values in [lo, hi]."""
    pieces = int(rng.integers(1, 4))
    bps = np.linspace(t0, t1, pieces + 1)
    vals = rng.uniform(lo, hi, pieces + 1)
    segs = tuple((float(vals[i]),
                  float((vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i])))
                 for i in range(pieces))
    return PiecewiseSignal(tuple(map(float, bps)), segs, float(vals[0]),
                           float(vals[-1]))


_REGIMES = ("ode", "delayed", "overlap", "mixed", "back_to_start",
            "first_step_at_start")


def _fundamental_case(seed):
    """(p, τ, s, horizon, step) of one seeded Wronskian-type problem; the
    delay regime cycles through ``_REGIMES`` with the seed."""
    rng = np.random.default_rng([seed, 11])
    regime = _REGIMES[seed % len(_REGIMES)]
    s = float(rng.choice([0.0, 0.7, -1.3]))
    horizon = s + float(rng.uniform(3.0, 7.0))
    step = float(rng.choice([0.01, 0.02, 0.05]))
    p = _random_pieces(rng, -1.2, 1.2, s, horizon)
    if regime == "ode":
        tau = PiecewiseSignal.constant(0.0)
    elif regime == "delayed":
        tau = PiecewiseSignal.constant(float(rng.uniform(step, 2.0)))
    elif regime == "overlap":
        tau = PiecewiseSignal.constant(float(rng.uniform(0.1, 0.9)) * step)
    elif regime == "mixed":
        tau = _random_pieces(rng, 0.0, 1.5 * step + 0.5, s, horizon)
    elif regime == "back_to_start":
        # u = t − τ(t) rises to s + 0.7, then falls back through s at
        # t = s + 1 + 0.7/(k − 1), inside the second piece
        k = float(rng.uniform(1.5, 2.5))
        tau = PiecewiseSignal((s, s + 1.0, s + 3.0),
                              ((0.3,), (0.3, k)), 0.3, 0.3 + 2.0 * k)
    else:
        # u = 0.5t − t² is back at s = 0 at the end of the first step, which
        # reads each column's own x(s⁺) (test_first_step_reads_right_limit_
        # at_start)
        s, horizon, step = 0.0, horizon - s, 0.6
        p = _random_pieces(rng, -1.2, 1.2, s, horizon)
        tau = PiecewiseSignal((0.0, 1.0), ((0.0, 0.5, 1.0),), 0.0, 1.5)
    return p, tau, s, horizon, step


def _single_runs(p, tau, s, horizon, step):
    zero = PiecewiseSignal.constant(0.0)
    return (integrate(DelayProblem(p, tau, s, zero, 1.0, 0.0), horizon, step),
            integrate(DelayProblem(p, tau, s, zero, 0.0, 1.0), horizon, step))


@pytest.mark.parametrize("seed", range(36))
def test_fundamental_system_columns_match_single_runs(seed):
    case = _fundamental_case(seed)
    pair = fundamental_system(*case)
    for got, want, x0, v0 in zip(pair, _single_runs(*case), (1.0, 0.0),
                                 (0.0, 1.0)):
        for a, b in ((got.ts, want.ts), (got.xs, want.xs),
                     (got.vs, want.vs)):
            assert _same_bytes(a, b)
        assert got.problem == want.problem
        assert (got.problem.initial_value, got.problem.initial_slope) == \
            (x0, v0)


def test_fundamental_system_corpus_covers_every_regime():
    """The seeded corpus above holds each delay regime, steps whose delay
    is below the step, and delayed arguments landing back on the start."""
    regimes = set()
    for seed in range(36):
        p, tau, s, horizon, step = _fundamental_case(seed)
        ts = np.linspace(s, horizon, 2001)
        tv = tau(ts)
        if not tv.any():
            regimes.add("ode")
        if ((tv > 0.0) & (tv < step)).any():
            regimes.add("overlap")
        if (tv >= step).any():
            regimes.add("delayed")
        u = ts - tv
        if ((u[:-1] > s) & (u[1:] < s)).any():
            regimes.add("back_to_start")
    assert regimes == {"ode", "overlap", "delayed", "back_to_start"}


@pytest.mark.parametrize("tau", [
    PiecewiseSignal((0.0, 1.0, 2.0), ((0.2,), (0.2, -1.0)), 0.2, 0.0),
    PiecewiseSignal.constant(1.2),
    PiecewiseSignal((0.0, 2.0, 3.0), ((0.004,), (0.004, 0.0, 40.0)), 0.004,
                    0.0),
], ids=["negative_delay", "below_history", "below_history_after_overlap"])
def test_fundamental_system_raises_like_single_runs(monkeypatch, tau):
    # an understated delay bound lets a _RAISE stage reach the chunk plan
    monkeypatch.setattr(DelayProblem, "tau_sup", lambda self, horizon: 0.3)
    p = PiecewiseSignal.constant(1.0)
    got = _outcome(lambda: fundamental_system(p, tau, 0.0, 3.0, 0.01))
    assert got is not None and got[0] in (DomainError, HistoryDomainError)
    zero = PiecewiseSignal.constant(0.0)
    for x0, v0 in ((1.0, 0.0), (0.0, 1.0)):
        assert got == _outcome(lambda: integrate(
            DelayProblem(p, tau, 0.0, zero, x0, v0), 3.0, 0.01))


# ----------------------------------------------------------------------
# the trajectory does not depend on how the steps are grouped
# ----------------------------------------------------------------------

def _grouping_corpus():
    """Groups (problems, horizon, step), one problem for ``integrate`` or
    the pair of ``fundamental_system``, whose stages read every source:
    their own x, the step's interpolant (overlap), accepted output, the
    history across a start jump, x(s⁻) and x(s⁺) at u = s, and stages that
    raise; the last entries are seeded."""
    hist = PiecewiseSignal((-2.0, 0.0), ((0.3, -0.2),), 0.3, -0.1)
    const = PiecewiseSignal.constant
    neg = PiecewiseSignal((0.0, 1.0, 2.0), ((0.2,), (0.2, -1.0)), 0.2, 0.0)
    deep = PiecewiseSignal((0.0, 2.0, 3.0), ((0.004,), (0.004, 0.0, 40.0)),
                           0.004, 0.0)
    into = PiecewiseSignal((0.0, 5.0), ((0.002, 0.004),), 0.002, 0.022)
    back = PiecewiseSignal((0.0, 1.0), ((0.0, 0.5, 1.0),), 0.0, 1.5)
    pinned = PiecewiseSignal((0.0, 1.5), ((0.0, 1.0),), 0.0, 1.5)
    sawtooth = PiecewiseSignal((0.0, 1.0, 2.0), ((0.0, 0.004),
                                                  (0.0, 0.003)), 0.0, 0.003)
    pair = integrator._fundamental_problems
    groups = [
        ((_const_problem(0.8, 0.0, 1.0, 1.0, 0.0),), 3.0, 0.01),
        ((_const_problem(0.8, 0.004, 0.3, 1.0, 0.0),), 3.0, 0.01),
        ((_const_problem(0.8, 0.007, 0.3, 1.0, 0.0),), 3.0, 0.01),
        ((DelayProblem(const(0.9), sawtooth, 0.0, hist, 1.0, 0.2),), 3.0,
         0.01),
        (pair(const(0.9), const(0.004), 0.0), 3.0, 0.01),
        (pair(const(0.9), _deep_read_tau(), 0.0), 3.0, 0.01),
        ((DelayProblem(const(0.9), const(1.0), 0.0, hist, 1.0, 0.2),), 4.0,
         0.01),
        ((DelayProblem(const(0.9), pinned, 0.0, hist, 1.0, 0.2),), 4.0,
         0.01),
        ((DelayProblem(const(0.9), into, 0.0, hist, 1.0, 0.2),), 6.0, 0.01),
        ((DelayProblem(const(1.0), back, 0.0, hist, 1.0, 0.0),), 3.0, 0.6),
        ((_piecewise_problem(((0.9, -0.3), (0.0,), (0.004, 0.001))),), 6.0,
         0.037),
        ((_piecewise_problem(((0.005, 0.02, 0.1), (1.2, -0.3),
                              (0.3, 0.2))),), 6.0, 0.01),
    ]
    groups.extend(((prob,), horizon, step)
                  for prob, horizon, step in _signed_zero_problems())
    for tau in (neg, const(1.2), deep):
        groups.append(((_UncheckedDelay(const(1.0), tau, 0.0, const(0.5),
                                        1.0, 0.0),), 3.0, 0.01))
        groups.append((tuple(_UncheckedDelay(**vars(prob))
                             for prob in pair(const(1.0), tau, 0.0)),
                       3.0, 0.01))
    for seed in range(len(_REGIMES)):
        p, tau, s, horizon, step = _fundamental_case(seed)
        rng = np.random.default_rng([seed, 17])
        history = _random_pieces(rng, -1.0, 1.0, s - 2.0, s)
        x0, v0 = rng.uniform(-1.0, 1.0, 2).tolist()
        groups.append((pair(p, tau, s), horizon, step))
        groups.append(((DelayProblem(p, tau, s, history, x0, v0),), horizon,
                       step))
    return groups


def _grouping_outcome(group):
    """Every trajectory's nodes, x and x′, or the exception raised, from
    ``integrate`` or ``fundamental_system``."""
    problems, horizon, step = group
    try:
        if len(problems) == 1:
            out = (integrate(problems[0], horizon, step),)
        else:
            z = problems[0]
            with pytest.MonkeyPatch.context() as mp:
                if isinstance(z, _UncheckedDelay):
                    # fundamental_system builds its own problems
                    mp.setattr(DelayProblem, "tau_sup", z.tau_sup.__func__)
                out = fundamental_system(z.p, z.tau, z.start, horizon, step)
    except SemicycleError as exc:
        return type(exc), str(exc)
    return [(t.ts, t.xs, t.vs) for t in out]


def test_grouping_corpus_reads_every_stage_source(monkeypatch):
    seen = set()
    shapes = set()  # (stage kinds of a step, solution columns)

    class Recording(integrator._ChunkPlan):
        def __init__(self, problem, ts, *args):
            try:
                super().__init__(problem, ts, *args)
            finally:
                self.record(problem, len(args[-1]))

        def record(self, problem, columns):
            if self.kind is None:  # a chunk with no delayed stage
                seen.add((integrator._ODE, False))
                shapes.add(("no delay", columns))
                return
            at_s = self.u == problem.start
            seen.update(zip(self.kind.ravel().tolist(), at_s.ravel().tolist()))
            shapes.update((tuple(k), columns) for k in self.kind.T.tolist())

    monkeypatch.setattr(integrator, "_ChunkPlan", Recording)
    for group in _grouping_corpus():
        _grouping_outcome(group)
    kinds = {k for k, _ in seen}
    assert kinds == {integrator._ODE, integrator._OVERLAP, integrator._DENSE,
                     integrator._VALUE, integrator._RAISE}
    # u = s read as a known value (x(s⁻) or, on the first step, x(s⁺)) and
    # through dense output (x(s⁺) right of the jump)
    assert {(integrator._VALUE, True), (integrator._DENSE, True),
            (integrator._VALUE, False)} <= seen
    # every step shape the scalar loop meets: a chunk with no delay, a step
    # with no delay among delayed ones, reads from the step itself beside
    # accepted output or beside a stage-0 read with no delay, in one column
    # and in two
    ode, over, dense = integrator._ODE, integrator._OVERLAP, \
        integrator._DENSE
    assert {("no delay", 1), ("no delay", 2), ((ode, ode, ode), 1),
            ((dense, over, over), 1), ((dense, dense, over), 1),
            ((ode, over, over), 1), ((dense, over, over), 2)} <= shapes


@pytest.mark.parametrize("chunk", [7, 64, 512])
@pytest.mark.parametrize("min_block", [1, 3, 10 ** 9])
def test_trajectory_independent_of_step_grouping(monkeypatch, min_block,
                                                  chunk):
    corpus = _grouping_corpus()
    want = [_grouping_outcome(group) for group in corpus]
    monkeypatch.setattr(integrator, "_MIN_BLOCK", min_block)
    monkeypatch.setattr(integrator, "_CHUNK", chunk)
    raised = 0
    for group, ref in zip(corpus, want):
        got = _grouping_outcome(group)
        if isinstance(ref, tuple):
            raised += 1
            assert got == ref
            continue
        assert len(got) == len(ref)
        for arrays, ref_arrays in zip(got, ref):
            for a, b in zip(arrays, ref_arrays):
                assert _same_bytes(a, b)
    assert raised == 6


def _columns_alone(group):
    """One ``_integrate_columns`` run on arrays of its own, each block taken
    by ``_ChunkPlan.advance``: (nodes, x, x′), or the exception raised."""
    problems, horizon, step = group
    run = integrator._integrate_columns(problems, horizon, step)
    try:
        n = next(run)
        xs, vs = np.zeros((n, len(problems))), np.zeros((n, len(problems)))
        plan, b, e = run.send((xs, vs))
        while True:
            plan.advance(b, e, xs, vs)
            plan, b, e = next(run)
    except StopIteration as stop:
        return stop.value, xs, vs
    except SemicycleError as exc:
        return type(exc), str(exc)


def _assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for out, ref in zip(got, want):
        if isinstance(ref[0], type):
            assert (type(out), str(out)) == ref
            continue
        for a, b in zip(out, ref):
            assert _same_bytes(a, b)


@pytest.mark.parametrize("chunk", [7, 512])
@pytest.mark.parametrize("min_block", [1, 3])
@pytest.mark.parametrize("window", [1, 3, None])
def test_lockstep_equals_one_run_per_group(monkeypatch, window, min_block,
                                           chunk):
    monkeypatch.setattr(integrator, "_MIN_BLOCK", min_block)
    monkeypatch.setattr(integrator, "_CHUNK", chunk)
    # one column count after the other, so that most windows share one
    corpus = sorted(_grouping_corpus(), key=lambda g: len(g[0]))
    want = [_columns_alone(group) for group in corpus]
    assert sum(isinstance(ref[0], type) for ref in want) == 6
    rounds = []
    advance = integrator._advance_blocks

    def recording(blocks, xs, vs):
        rounds.append(len(blocks))
        advance(blocks, xs, vs)

    monkeypatch.setattr(integrator, "_advance_blocks", recording)
    size = window or len(corpus)
    got = []
    for lo in range(0, len(corpus), size):
        # a raising group leaves the others of its window as they are alone
        got.extend(integrator._integrate_many(corpus[lo:lo + size]))
    _assert_same_outcomes(got, want)
    assert (max(rounds) > 1) == (window != 1)


def test_lockstep_batches_hold_at_most_the_step_limit(monkeypatch):
    const = PiecewiseSignal.constant
    good = [((DelayProblem(const(0.9), const(tau), 0.0, const(0.3), 1.0,
                           0.0),), 3.0, 0.01) for tau in (0.05, 0.5, 1.0)]
    # 300 steps each; one raises in its plans, one before its first step
    groups = [good[0],
              ((_UncheckedDelay(const(1.0), const(1.2), 0.0, const(0.5), 1.0,
                                0.0),), 3.0, 0.01),
              good[1], (good[2][0], 3.0, -0.01), good[2]]
    want = [_columns_alone(group) for group in groups]
    monkeypatch.setattr(integrator, "_MAX_STEPS", 650)
    got = list(integrator._integrate_many(groups))
    _assert_same_outcomes(got, want)
    assert [type(out) for out in got[1::2]] == [HistoryDomainError,
                                                DomainError]
    # the third group would pass the limit: it starts the second buffer
    x0, x2, x4 = (got[i][1] for i in (0, 2, 4))
    assert x0.base is not x2.base and x2.base is x4.base


# ----------------------------------------------------------------------
# bracket refinement: plain floats against a numpy bisection
# ----------------------------------------------------------------------

# bracket count above which a numpy round of all open brackets pays for its
# calls; the corpus has scans on both sides of it
_MANY_BRACKETS = 40


def _refine_arrays(traj, derivative, left, tol):
    """Reference for ``integrator._refine``: all brackets at once, one numpy
    evaluation of dense output per round for the brackets still open."""
    ts, xs, vs = traj.ts, traj.xs, traj.vs

    def dense(j, q):
        h = ts[j + 1] - ts[j]
        s = np.clip((q - ts[j]) / h, 0.0, 1.0)
        x0, x1, v0, v1 = xs[j], xs[j + 1], vs[j], vs[j + 1]
        if derivative:
            return integrator._hermite_slope(x0, v0, x1, v1, h, s)
        return integrator._hermite(x0, v0, x1, v1, h,
                                   integrator._hermite_weights(s))

    lo, hi = ts[left], ts[left + 1]
    f_lo = dense(left, lo)
    out = lo.copy()
    live = f_lo != 0.0
    lo_pos = f_lo > 0.0
    while True:
        idx = np.flatnonzero(live & (hi - lo > tol))
        if idx.size == 0:
            break
        lo_i, hi_i = lo[idx], hi[idx]
        mid = 0.5 * (lo_i + hi_i)
        fm = dense(left[idx], mid)
        hit = (fm == 0.0) | (mid <= lo_i) | (mid >= hi_i)
        out[idx[hit]] = mid[hit]
        live[idx[hit]] = False
        same = (fm > 0.0) == lo_pos[idx]
        lo[idx[~hit & same]] = mid[~hit & same]
        hi[idx[~hit & ~same]] = mid[~hit & ~same]
    out[live] = 0.5 * (lo[live] + hi[live])
    return out.tolist()

def _refinement_corpus():
    """(trajectory, left) pairs: every bracket of x and of x′, seeded
    subsets of them, and node indices where x or x′ is exactly zero."""
    rng = np.random.default_rng(23)
    trajs = [_zero_run_problem()[0], _midpoint_zero_problem()[0],
             _example3_problem()[0]]
    spec = ExampleSpec("example2", 0.15, 30)
    trajs.append(integrate(build_example_problem(spec),
                           example_horizon(spec), step=0.01))
    for seed in range(4):
        p, tau, s, horizon, step = _fundamental_case(seed)
        trajs.extend(fundamental_system(p, tau, s, horizon, step))
    out = []
    for traj in trajs:
        for ys in (traj.xs, traj.vs):
            nonzero = ys != 0.0
            pos = ys > 0.0
            left = np.flatnonzero(nonzero[:-1] & nonzero[1:]
                                  & (pos[:-1] != pos[1:]))
            out.append((traj, left))
            if left.size > 4:
                size = int(rng.integers(1, left.size))
                out.append((traj, np.sort(rng.choice(left, size, False))))
            zeros = np.flatnonzero(~nonzero[:-1])
            if zeros.size:
                out.append((traj, np.concatenate((zeros[:3], left[:3]))))
    return out


@pytest.mark.parametrize("tol", [1e-10, 1e-3])
def test_plain_refinement_matches_numpy_refinement(tol):
    corpus = _refinement_corpus()
    sizes = [left.size for _, left in corpus]
    assert min(sizes) < _MANY_BRACKETS < max(sizes)
    ends = set()
    for traj, left in corpus:
        for derivative in (False, True):
            plain = integrator._refine(traj, derivative, left, tol)
            arrays = _refine_arrays(traj, derivative, left, tol)
            assert plain == arrays
            for t, j in zip(plain, left.tolist()):
                if t == traj.ts[j]:
                    ends.add("left_node_zero")
                elif (traj.sample_slope(t) if derivative
                      else traj.sample(t)) == 0.0:
                    ends.add("midpoint_zero")
    assert ends == {"left_node_zero", "midpoint_zero"}


@pytest.mark.parametrize("tol", [1e-300, 5e-324])
def test_refinement_below_float_spacing_ends_equal_on_both_paths(tol):
    # no float lies strictly between two adjacent ones, so a bisection
    # asked for a width below their spacing stops there, on either path
    for traj, left in _refinement_corpus():
        for derivative in (False, True):
            plain = integrator._refine(traj, derivative, left, tol)
            assert plain == _refine_arrays(traj, derivative, left, tol)
            coarse = integrator._refine(traj, derivative, left, 1e-10)
            assert np.allclose(plain, coarse, rtol=0.0, atol=1e-10)


def test_scans_end_where_the_default_tol_is_below_float_spacing():
    # floats near 1e7 are 1.9e-9 apart, wider than the default 1e-10
    shift = 1e7
    runs = []
    const = PiecewiseSignal.constant
    for start in (0.0, shift):
        problem = DelayProblem(const(1.0), const(0.5), start, const(1.0),
                               1.0, 0.0)
        traj = integrate(problem, start + 20.0, step=0.01)
        runs.append((find_zeros(traj), integrator.extremum_events(traj)))
    (zeros, peaks), (zeros_far, peaks_far) = runs
    assert len(zeros) == len(zeros_far) > 3
    assert len(peaks) == len(peaks_far) > 3
    assert np.allclose([t for t, _ in zeros_far], [t + shift for t, _ in zeros],
                       rtol=0.0, atol=1e-6)
    assert np.allclose(peaks_far, np.add(peaks, shift), rtol=0.0, atol=1e-6)
