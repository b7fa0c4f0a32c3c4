"""Integrator checks against closed-form solutions and scheme invariants."""

import bisect
import math
import tracemalloc
import warnings

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
from semicycles.analysis import classify, find_zeros, semicycles
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
    fixed), example2 with ε = size (a piecewise coefficient whose
    breakpoints are forced nodes), or e^{−t} under a piecewise constant
    delay (its jumps and their delayed crossings are forced nodes)."""
    if regime == "ode":
        return _const_problem(1.0, 0.0, 0.0, 0.0, 1.0), 20.0, np.sin
    if regime == "piecewise_delay":
        # τ = 0.6, 1.4, 0.9 split at 3 and 7, and p = −e^{−τ} on each piece,
        # so that p·x(t − τ) = −e^{−t}; the history is the degree-19 Taylor
        # polynomial of e^{−t} about −1.4, exact to rounding on [−1.4, 0]
        taylor = tuple(math.exp(1.4) * (-1.0) ** j / math.factorial(j)
                       for j in range(20))
        return (DelayProblem(
            PiecewiseSignal((3.0, 7.0), ((-math.exp(-1.4),),),
                            -math.exp(-0.6), -math.exp(-0.9)),
            PiecewiseSignal((3.0, 7.0), ((1.4,),), 0.6, 0.9), 0.0,
            PiecewiseSignal((-1.4, 0.0), (taylor,), taylor[0], 1.0), 1.0,
            -1.0), 12.0, lambda t: np.exp(-t))
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
    ("piecewise_delay", None, (0.08, 0.04, 0.02)),
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


def _decaying_real_mode(tau):
    """x″ = x(t − τ) (p ≡ −1) started on its decaying real mode e^{λt},
    λ² = e^{−λτ}, λ < 0: the problem and λ. The history is the mode's
    Taylor polynomial about −τ, exact to rounding on [−τ, 0]."""
    lam = -1.0
    for _ in range(30):
        lam -= ((lam * lam - math.exp(-lam * tau))
                / (2.0 * lam + tau * math.exp(-lam * tau)))
    taylor = tuple(math.exp(-lam * tau) * lam ** j / math.factorial(j)
                   for j in range(12))
    return DelayProblem(PiecewiseSignal.constant(-1.0),
                        PiecewiseSignal.constant(tau), 0.0,
                        PiecewiseSignal((-tau, 0.0), (taylor,), taylor[0],
                                        1.0), 1.0, lam), lam


def test_overlap_error_constant_depends_on_tau_over_h_alone():
    # with the delay below the step, err/h⁴ is a function of ρ = τ/h: equal
    # at equal ρ for two delays (within 0.7 % measured), while it grows
    # sevenfold from ρ = 0.1 to 0.4, so at a fixed τ a shrinking h climbs
    # that hump and the error looks like order 2 over a stretch of steps
    constants = {}
    for tau in (0.004, 0.002):
        problem, lam = _decaying_real_mode(tau)
        for rho in (0.1, 0.2, 0.4):
            # the steps are uniform but for the first, [0, τ], which ends
            # on the forced node t − τ = s
            traj = integrate(problem, 3.0, step=tau / rho)
            h = float(np.diff(traj.ts).max())
            err = np.abs(traj.xs - np.exp(lam * traj.ts)).max()
            constants[tau, rho] = err / h ** 4
    for rho in (0.1, 0.2, 0.4):
        assert constants[0.004, rho] == pytest.approx(constants[0.002, rho],
                                                      rel=0.02)
    assert constants[0.002, 0.4] > 5.0 * constants[0.002, 0.1]


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

def _step_map(hh, neg_p):
    """The linear map (a, c, f, g) of a step whose stages read their own x,
    x₁ = a·x₀ + c·x′₀ and x′₁ = f·x₀ + g·x′₀, in Python floats: its whole
    RK4 body on x₀ = 1, x′₀ = 0 and on x₀ = 0, x′₀ = 1, whose bits the
    plan's shorter form keeps."""
    hh2, hh6 = 0.5 * hh, hh / 6.0
    n0, nm, n1 = neg_p
    out = []
    for x, v in ((1.0, 0.0), (0.0, 1.0)):
        k1v = n0 * x
        k2x = v + hh2 * k1v
        k2v = nm * (x + hh2 * v)
        k3x = v + hh2 * k2v
        k3v = nm * (x + hh2 * k2x)
        k4x = v + hh * k3v
        k4v = n1 * (x + hh * k3x)
        out.append((x + hh6 * (v + 2 * k2x + 2 * k3x + k4x),
                    v + hh6 * (k1v + 2 * k2v + 2 * k3v + k4v)))
    (a, f), (c, g) = out
    return a, c, f, g


def test_step_maps_are_the_rk4_body_on_unit_inputs():
    # the plan's maps leave out the body's products by 1 and 0 and its sums
    # with 0, yet keep its bits, signed zeros included (−p = −0.0 where
    # p = 0), over step widths and coefficients of many scales
    rng = np.random.default_rng(3)
    hh = np.exp(rng.uniform(-9.0, 1.0, 512))
    neg_p = rng.choice([-0.0, 0.0, 1.0, -1.0], (3, 512)) \
        * np.exp(rng.uniform(-30.0, 30.0, (3, 512)))
    neg_p[:, 0] = -0.0
    table = np.vstack((hh, 0.5 * hh, hh / 6.0, neg_p))
    got = integrator._step_maps(table)
    want = [_step_map(step[0], step[3:]) for step in table.T.tolist()]
    assert got.T.copy().tobytes() == np.array(want).tobytes()


def _reference(problem, horizon, step, maps):
    """One step at a time through closures, every stage resolved when it is
    reached and the output held in lists, by RK4; with ``maps`` a step whose
    stages all read their own x by its linear map, as the integrator takes
    it."""
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

            def reads_own(sigma):
                return -1e-12 <= tau_at(sigma) <= 1e-13 * max(1.0, abs(sigma))

            sigmas = (t0, t0 + 0.5 * hh, t1)
            if maps and all(map(reads_own, sigmas)):
                m = _step_map(hh, [-p_at(sigma) for sigma in sigmas])
                ts.append(t1)
                xs.append(m[0] * x0 + m[1] * v0)
                vs.append(m[2] * x0 + m[3] * v0)
                continue
            x1, v1 = rk4_once()
            if overlap:
                for _ in range(2):
                    prov = (x0, v0, x1, v1)
                    x1, v1 = rk4_once()
            ts.append(t1)
            xs.append(x1)
            vs.append(v1)
    return np.asarray(ts), np.asarray(xs), np.asarray(vs)


def _scalar_reference(problem, horizon, step):
    """The scheme the integrator must reproduce bit for bit: a step whose
    stages all read their own x by its map, any other by RK4."""
    return _reference(problem, horizon, step, maps=True)


def _rk4_reference(problem, horizon, step):
    """Every step by RK4 in Python floats, one at a time: the integrator's
    scheme before steps with no delay ran by their maps, equal to it up to
    rounding."""
    return _reference(problem, horizon, step, maps=False)


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
    # the second delay is below the step: z and y both take overlap steps
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
    # how far below its run's first node each rising step, from node 100
    # or node 200, reads when it is taken one step at a time
    depths = []
    take = integrator._take_steps

    def recording(plan, b, e, xs, vs):
        for k in range(plan.c0 + b, plan.c0 + e):
            if plan.kind is not None and k in (100, 200):
                depths.append(plan.c0 + b - plan.jj[:, k - plan.c0].min())
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
    # both rising steps of each of the three runs, reading 25 and 50 nodes
    # back at their later stages
    assert len(depths) == 6 and min(depths) >= 25


def _reference_corpus():
    """The (problem, horizon, step) of every comparison with
    ``_scalar_reference`` above."""
    const, zero = PiecewiseSignal.constant, PiecewiseSignal.constant(0.0)
    hist = PiecewiseSignal((-2.0, 0.0), ((0.3, -0.2),), 0.3, -0.1)
    short = PiecewiseSignal((-1.0, 0.0), ((0.3, -0.2),), 0.3, -0.1)
    pinned = PiecewiseSignal((0.0, 1.5), ((0.0, 1.0),), 0.0, 1.5)
    into = PiecewiseSignal((0.0, 5.0), ((0.002, 0.004),), 0.002, 0.022)
    jump_p = PiecewiseSignal((0.0, 2.0, 5.0), ((-0.5, 0.1), (0.3,)), -0.5, 0.3)
    ode_p = PiecewiseSignal((0.0, 1.3, 2.9, 4.6),
                            ((1.0, -0.2), (-0.5,), (0.7, 0.1, -0.05)), 1.0,
                            0.3)
    roots = [r for r in char_roots(1.0, 1, (0, 1)) if r.value.imag > 0.0]
    corpus = [(_const_problem(0.8, tau, 1.0, 1.0, 0.0), 5.0, 0.01)
              for tau in (0.0, 0.6, 0.01, 0.004, 0.003, 0.007)]
    corpus += [(_piecewise_problem(segs), 6.0, step) for segs in (
        ((0.9, -0.3), (0.0,), (0.004, 0.001)),
        ((0.005, 0.02, 0.1), (1.2, -0.3), (0.3, 0.2)),
        ((0.0, 0.004), (0.0, 0.003), (0.0, 0.002))) for step in (0.01, 0.037)]
    corpus += [(DelayProblem(jump_p, tau, 0.0, zero, x0, v0), 6.0, 0.02)
               for tau in (PiecewiseSignal((0.0, 3.0), ((0.2, 0.3),), 0.2,
                                           1.1), const(0.008))
               for x0, v0 in ((1.0, 0.0), (0.0, 1.0))]
    corpus += _signed_zero_problems()
    corpus += [(DelayProblem(const(0.9), tau, 0.0, hist, 1.0, 0.2), 4.0, 0.01)
               for tau in (const(1.0), pinned)]
    corpus += [(mode_mixture_problem(1.0, 1, ((roots[0], 1.0, 0.3),
                                              (roots[1], 0.5, 1.1))), 8.0,
                0.01),
               (DelayProblem(ode_p, const(0.0), 0.0, const(0.25), 0.4, -0.3),
                6.0, 0.002),
               (DelayProblem(const(0.9), into, 0.0, short, 1.0, 0.2), 6.0,
                0.01),
               (DelayProblem(const(0.9), _deep_read_tau(), 0.0, short, 1.0,
                             0.2), 3.0, 0.01)]
    corpus += [(DelayProblem(const(0.9), _deep_read_tau(), 0.0, zero, x0, v0),
                3.0, 0.01) for x0, v0 in ((1.0, 0.0), (0.0, 1.0))]
    return corpus


def test_maps_move_the_trajectory_only_at_rounding_level():
    # every step by RK4 against the integrator, whose steps that read their
    # own x at every stage run by their maps: measured max |Δ|/max|x| over
    # this corpus is 9.1e-15 for x and 3.8e-14 for x′ (τ ≡ 0 under a
    # piecewise p, 3000 steps); the bound leaves a factor 2.6
    worst = [0.0, 0.0]
    for problem, horizon, step in _reference_corpus():
        traj = integrate(problem, horizon, step)
        ref = _rk4_reference(problem, horizon, step)
        assert _same_bytes(traj.ts, ref[0])
        for k, (got, want) in enumerate(((traj.xs, ref[1]),
                                         (traj.vs, ref[2]))):
            scale = np.abs(want).max()
            if scale:
                worst[k] = max(worst[k], np.abs(got - want).max() / scale)
            else:
                assert not got.any()
    assert max(worst) <= 1e-13
    assert max(worst) > 0.0  # the maps do move bits


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


@pytest.mark.parametrize("start, horizon", [
    (0.0, 1e-300), (0.0, 1e-13), (0.0, 5e-13), (1e6, 1e6 + 5e-7)])
def test_horizon_inside_node_merge_tolerance_refused(start, horizon):
    # the start and the horizon would merge into one node and no step
    const = PiecewiseSignal.constant
    prob = DelayProblem(const(1.0), const(0.5), start, const(0.0), 1.0, 0.0)
    refusal = f"must exceed start {start} by more than"
    with pytest.raises(DomainError, match=refusal):
        integrate(prob, horizon)
    with pytest.raises(DomainError, match=refusal):
        fundamental_system(const(1.0), const(0.5), start, horizon)


@pytest.mark.parametrize("p, tau, horizon", [(1.0, 1.9, 3000.0),
                                               (-4.0, 0.1, 400.0)])
def test_solution_leaving_float_range_refused(p, tau, horizon):
    # x grows past 1.8e308: no node may hold inf or NaN, and numpy's
    # overflow warnings stay quiet
    const = PiecewiseSignal.constant
    refusal = (r"x or x′ is not finite at t = [0-9.]+: the solution left "
               r"the float range; a shorter horizon avoids it")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=refusal):
            integrate(_const_problem(p, tau, 1.0, 1.0, 0.0), horizon)
        with pytest.raises(DomainError, match=refusal):
            fundamental_system(const(p), const(tau), 0.0, horizon)


def test_lone_run_leaving_float_range_stops_at_next_chunk(monkeypatch):
    # x is first non-finite at node 189,339 (t = 1893.39), in the 93rd of
    # the 147 chunks of 2048 steps: the run plans no chunk past the 94th
    # and names the same node as a run to the horizon would
    built = _built_chunks(monkeypatch)
    with pytest.raises(DomainError, match=r"not finite at t = 1893\.39: "):
        integrate(_const_problem(1.0, 1.9, 1.0, 1.0, 0.0), 3000.0, 0.01)
    assert len(built) <= 94


def test_fundamental_pair_leaving_float_range_stops_at_next_chunk(
        monkeypatch):
    # z and y are first non-finite at t = 1895.29, in the 93rd of the 147
    # chunks of 2048 steps: the pair, one run, plans no chunk past the 94th,
    # and z's refusal names the same node as a run to the horizon would
    const = PiecewiseSignal.constant
    built = _built_chunks(monkeypatch)
    with pytest.raises(DomainError, match=r"not finite at t = 1895\.29"):
        fundamental_system(const(1.0), const(1.9), 0.0, 3000.0)
    assert len(built) <= 94


def test_fast_growth_inside_float_range_stays_unbounded_observed():
    prob = _const_problem(100.0, 0.5, 1.0, 1.0, 0.0)
    traj = integrate(prob, 200.0)
    assert np.isfinite(traj.xs).all() and np.isfinite(traj.vs).all()
    assert classify(prob, traj).verdict == "unbounded_observed"


def test_horizon_just_past_node_merge_tolerance_takes_one_step():
    const = PiecewiseSignal.constant
    prob = DelayProblem(const(1.0), const(0.5), 0.0, const(0.0), 1.0, 0.0)
    assert integrate(prob, 2e-12).ts.tolist() == [0.0, 2e-12]


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


def _valid_document() -> dict:
    tau = PiecewiseSignal((0.0, 1.0), ((0.5, 0.25),), 0.5, 0.75)
    return problem_to_dict(DelayProblem(
        PiecewiseSignal.constant(-1.0), tau, 0.0,
        PiecewiseSignal.constant(0.3), 0.3, 1.0))


def _edited(signal, key, value) -> dict:
    """The valid document with ``key`` of ``signal`` (or of the problem,
    for None) set to ``value``."""
    data = _valid_document()
    (data if signal is None else data[signal])[key] = value
    return data


def _schema_values(data: dict):
    """Every value the problem schema reads as a number."""
    for name in ("p", "tau", "history"):
        signal = data[name]
        yield from signal["breakpoints"]
        for seg in signal["segments"]:
            yield from seg
        yield signal["left"]
        yield signal["right"]
    yield from (data["start"], data["initial_value"], data["initial_slope"])


@st.composite
def _problem_documents(draw):
    """A valid problem document with one entry replaced by arbitrary JSON
    or dropped, or arbitrary JSON in its place."""
    data = _valid_document()
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
@example(data=_edited(None, "start", "0"))
@example(data=_edited(None, "initial_value", True))
@example(data=_edited("tau", "segments", ["12"]))
@example(data=_edited("tau", "breakpoints", "01"))
def test_arbitrary_json_gives_problem_or_semicycle_error(data):
    """A document loads only if every number in it is a JSON number."""
    try:
        prob = problem_from_dict(data)
    except SemicycleError:
        return
    assert isinstance(prob, DelayProblem)
    assert all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in _schema_values(data))


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


def test_fundamental_pair_integrated_apart_plans_the_same_bytes(
        monkeypatch):
    # the first step of z and of y reads x(s⁺) at its t₁ (the problem of
    # test_first_step_reads_right_limit_at_start): an overlap read of width
    # 0 on node 0, so a plan holds nothing of x(s⁺) and x′(s⁺)
    tau = PiecewiseSignal((0.0, 1.0), ((0.0, 0.5, 1.0),), 0.0, 1.5)
    pair = integrator._fundamental_problems(PiecewiseSignal.constant(1.0),
                                            tau, 0.0)
    built = []

    class Recording(integrator._ChunkPlan):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(integrator, "_ChunkPlan", Recording)
    plans = []
    for prob in pair:
        integrate(prob, 3.0, step=0.6)
        plans.append(built[:])
        built.clear()
    z_plans, y_plans = plans
    assert len(z_plans) == len(y_plans) == 1
    for z, y in zip(z_plans, y_plans):
        for name in ("table", "kind", "jj", "hv", "coefs"):
            a, b = getattr(z, name), getattr(y, name)
            assert a is b is None or _same_bytes(a, b), name
    assert z_plans[0].kind[2, 0] == integrator._OVERLAP


def _bisect(f, lo, hi, tol):
    """The bisection the scans used before Illinois: the oracle that every
    refined time stays within tol of."""
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _illinois(f, lo, hi, tol):
    """Illinois regula falsi on [lo, hi], written out here: f negated where
    it is negative at lo; each probe the secant point, or the midpoint when
    that is not strictly inside or the end values are equal; the value at
    the end not replaced twice in a row halved. It ends at lo where f
    vanishes, at a probe where f vanishes, at the midpoint of adjacent
    floats, or at the centre of the first bracket no wider than tol."""
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    sign = 1.0 if f_lo > 0.0 else -1.0
    f_lo, f_hi = sign * f_lo, sign * f(hi)
    side = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        x = mid
        if f_lo != f_hi:
            secant = hi + (hi - lo) * f_hi / (f_lo - f_hi)
            if lo < secant < hi:
                x = secant
        fx = sign * f(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            lo, f_lo = x, fx
            if side > 0:
                f_hi *= 0.5
            side = 1
        else:
            hi, f_hi = x, fx
            if side < 0:
                f_lo *= 0.5
            side = -1
    return 0.5 * (lo + hi)


def _scalar_scan(ts, ys, f, tol, solve):
    """Node-by-node sign-change scan with one scalar ``solve`` per
    bracket."""
    out, prev_idx, prev_sign, zero_since_prev = [], None, 0, False
    for j in range(ts.size):
        if ys[j] == 0.0:
            if not (out and abs(out[-1][0] - ts[j]) <= tol):
                out.append((float(ts[j]), True))
            zero_since_prev = True
            continue
        sign = 1 if ys[j] > 0.0 else -1
        if prev_idx is not None and sign != prev_sign and not zero_since_prev:
            out.append((solve(f, float(ts[prev_idx]), float(ts[j]), tol),
                         False))
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
    """The scan equals a node-by-node scan with the Illinois loop above,
    bit for bit, and lies within tol of one with the bisection it
    replaced, event for event."""
    traj, brackets = make()
    for derivative, ys, f in ((False, traj.xs, traj.sample),
                              (True, traj.vs, traj.sample_slope)):
        got = _scan_sign_changes(traj, derivative, tol)
        assert got == _scalar_scan(traj.ts, ys, f, tol, _illinois)
        bisected = _scalar_scan(traj.ts, ys, f, tol, _bisect)
        assert [exact for _, exact in got] == [e for _, e in bisected]
        assert np.allclose([t for t, _ in got], [t for t, _ in bisected],
                           rtol=0.0, atol=tol)
        if not derivative:
            assert sum(1 for _, exact in got if not exact) >= brackets


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
# the fundamental system in lockstep against two single runs
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
        # reads each problem's own x(s⁺) (test_first_step_reads_right_limit_
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
    """Groups (problem, horizon, step), single problems and the pairs of
    ``fundamental_system`` one after the other, whose stages read every
    source: their own x, the step's interpolant (overlap), accepted output,
    the history across a start jump, x(s⁻) and x(s⁺) at u = s, and stages
    that raise; the last entries are seeded."""
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
        (_const_problem(0.8, 0.0, 1.0, 1.0, 0.0), 3.0, 0.01),
        (_const_problem(0.8, 0.004, 0.3, 1.0, 0.0), 3.0, 0.01),
        (_const_problem(0.8, 0.007, 0.3, 1.0, 0.0), 3.0, 0.01),
        (DelayProblem(const(0.9), sawtooth, 0.0, hist, 1.0, 0.2), 3.0, 0.01),
        *((prob, 3.0, 0.01) for tau in (const(0.004), _deep_read_tau())
          for prob in pair(const(0.9), tau, 0.0)),
        (DelayProblem(const(0.9), const(1.0), 0.0, hist, 1.0, 0.2), 4.0,
         0.01),
        (DelayProblem(const(0.9), pinned, 0.0, hist, 1.0, 0.2), 4.0, 0.01),
        (DelayProblem(const(0.9), into, 0.0, hist, 1.0, 0.2), 6.0, 0.01),
        (DelayProblem(const(1.0), back, 0.0, hist, 1.0, 0.0), 3.0, 0.6),
        (_piecewise_problem(((0.9, -0.3), (0.0,), (0.004, 0.001))), 6.0,
         0.037),
        (_piecewise_problem(((0.005, 0.02, 0.1), (1.2, -0.3), (0.3, 0.2))),
         6.0, 0.01),
    ]
    groups.extend(_signed_zero_problems())
    for tau in (neg, const(1.2), deep):
        groups.append((_UncheckedDelay(const(1.0), tau, 0.0, const(0.5), 1.0,
                                       0.0), 3.0, 0.01))
        groups.extend((_UncheckedDelay(**vars(prob)), 3.0, 0.01)
                      for prob in pair(const(1.0), tau, 0.0))
    for seed in range(len(_REGIMES)):
        p, tau, s, horizon, step = _fundamental_case(seed)
        rng = np.random.default_rng([seed, 17])
        history = _random_pieces(rng, -1.0, 1.0, s - 2.0, s)
        x0, v0 = rng.uniform(-1.0, 1.0, 2).tolist()
        groups.extend((prob, horizon, step) for prob in pair(p, tau, s))
        groups.append((DelayProblem(p, tau, s, history, x0, v0), horizon,
                       step))
    return groups


def _grouping_outcome(group):
    """The nodes, x and x′ of ``integrate``, or the exception raised."""
    try:
        traj = integrate(*group)
    except SemicycleError as exc:
        return type(exc), str(exc)
    return traj.ts, traj.xs, traj.vs


def test_grouping_corpus_reads_every_stage_source(monkeypatch):
    seen = set()
    shapes = set()  # the stage kinds of a step

    class Recording(integrator._ChunkPlan):
        def __init__(self, problem, ts, c0, c1, seg_p, seg_tau, *args):
            try:
                super().__init__(problem, ts, c0, c1, seg_p, seg_tau, *args)
            finally:
                self.record(problem, ts[c0:c1 + 1], seg_tau)

        def record(self, problem, nodes, seg_tau):
            if self.kind is None:  # a chunk with no delayed stage
                seen.add((integrator._ODE, False))
                shapes.add("no delay")
                return
            # the plan's stage times and delayed arguments u = σ − τ(σ)
            t0, t1 = nodes[:-1], nodes[1:]
            sigma = np.array((t0, t0 + 0.5 * (t1 - t0), t1))
            tau = problem.tau.eval_in_segment(seg_tau, sigma)
            at_s = sigma - np.where(tau < 0.0, 0.0, tau) == problem.start
            seen.update(zip(self.kind.ravel().tolist(), at_s.ravel().tolist()))
            shapes.update(tuple(k) for k in self.kind.T.tolist())

    monkeypatch.setattr(integrator, "_ChunkPlan", Recording)
    for group in _grouping_corpus():
        _grouping_outcome(group)
    kinds = {k for k, _ in seen}
    assert kinds == {integrator._ODE, integrator._OVERLAP, integrator._DENSE,
                     integrator._VALUE, integrator._RAISE}
    # u = s read as a known value (x(s⁻), left of the jump) and, right of
    # it, x(s⁺) at node 0: through dense output, or on the first step by an
    # overlap read of width 0
    assert {(integrator._VALUE, True), (integrator._DENSE, True),
            (integrator._OVERLAP, True), (integrator._VALUE, False)} <= seen
    # every step shape the scalar loop meets: a chunk with no delay, a step
    # with no delay among delayed ones, reads from the step itself beside
    # accepted output or beside a stage-0 read with no delay
    ode, over, dense = integrator._ODE, integrator._OVERLAP, \
        integrator._DENSE
    assert {"no delay", (ode, ode, ode), (dense, over, over),
            (dense, dense, over), (ode, over, over)} <= shapes


def _plan_chunks(monkeypatch, chunk):
    """Chunks of ``chunk`` steps for a batch of more than two groups and four
    times that for fewer, as at the package's 512 and 2048."""
    monkeypatch.setattr(integrator, "_CHUNK_MANY", chunk)
    monkeypatch.setattr(integrator, "_CHUNK", 4 * chunk)


@pytest.mark.parametrize("chunk", [7, 64, 512])
@pytest.mark.parametrize("min_block", [1, 3, 10 ** 9])
def test_trajectory_independent_of_step_grouping(monkeypatch, min_block,
                                                  chunk):
    corpus = _grouping_corpus()
    want = [_grouping_outcome(group) for group in corpus]
    monkeypatch.setattr(integrator, "_MIN_BLOCK", min_block)
    _plan_chunks(monkeypatch, chunk)
    raised = 0
    for group, ref in zip(corpus, want):
        got = _grouping_outcome(group)
        if isinstance(ref[0], type):
            raised += 1
            assert got == ref
            continue
        for a, b in zip(got, ref):
            assert _same_bytes(a, b)
    assert raised == 9


def _alone(group):
    """One ``_integration`` run of one member on arrays of its own, planning
    chunks of a lone run's length, each block taken as a round of its own by
    ``_advance_blocks``: (nodes, x, x′), or the exception raised or
    returned."""
    run = integrator._integration(*group)
    try:
        n = next(run)
        xs, vs = np.zeros(n), np.zeros(n)
        xs[0], vs[0] = group[0].initial_value, group[0].initial_slope
        plan, b, e = run.send(([(xs, vs)], integrator._CHUNK))
        while True:
            integrator._advance_blocks([(plan, b, e, 0)], xs, vs)
            plan, b, e = next(run)
    except StopIteration as stop:
        (out,) = stop.value
    except SemicycleError as exc:
        out = exc
    return (type(out), str(out)) if isinstance(out, SemicycleError) else out


def _assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for out, ref in zip(got, want):
        if isinstance(ref[0], type):
            assert (type(out), str(out)) == ref
            continue
        for a, b in zip(out, ref):
            assert _same_bytes(a, b)


def _counting_rounds(monkeypatch) -> list:
    """The number of blocks of each ``_advance_blocks`` round, from now."""
    rounds = []
    advance = integrator._advance_blocks

    def recording(blocks, xs, vs):
        rounds.append(len(blocks))
        advance(blocks, xs, vs)

    monkeypatch.setattr(integrator, "_advance_blocks", recording)
    return rounds


@pytest.mark.parametrize("chunk", [7, 512])
@pytest.mark.parametrize("min_block", [1, 3])
@pytest.mark.parametrize("window", [1, 3, None])
def test_lockstep_equals_one_run_per_group(monkeypatch, window, min_block,
                                           chunk):
    monkeypatch.setattr(integrator, "_MIN_BLOCK", min_block)
    _plan_chunks(monkeypatch, chunk)
    corpus = _grouping_corpus()
    want = [_alone(group) for group in corpus]
    assert sum(isinstance(ref[0], type) for ref in want) == 9
    rounds = _counting_rounds(monkeypatch)
    size = window or len(corpus)
    got = []
    for lo in range(0, len(corpus), size):
        # a raising group leaves the others of its window as they are alone
        got.extend(integrator._integrate_many(corpus[lo:lo + size]))
    _assert_same_outcomes(got, want)
    assert (max(rounds) > 1) == (window != 1)


def test_fundamental_pair_shares_a_batch_with_single_problems(monkeypatch):
    const = PiecewiseSignal.constant
    single = (DelayProblem(const(0.9), const(0.5), 0.0, const(0.3), 1.0,
                           0.2), 3.0, 0.01)
    p, tau = const(-0.4), const(0.7)
    groups = [single, *((prob, 4.0, 0.02)
                        for prob in integrator._fundamental_problems(
                            p, tau, 0.0)), single]
    want = [_alone(group) for group in groups]
    rounds = _counting_rounds(monkeypatch)
    got = list(integrator._integrate_many(groups))
    _assert_same_outcomes(got, want)
    # one buffer, and the pair's blocks in the singles' rounds
    assert all(out[k].base is got[0][k].base for out in got for k in (1, 2))
    assert max(rounds) == 4
    for traj, out in zip(fundamental_system(p, tau, 0.0, 4.0, 0.02),
                         got[1:3]):
        for a, b in zip((traj.ts, traj.xs, traj.vs), out):
            assert _same_bytes(a, b)


@pytest.mark.parametrize("tau, max_steps", [
    pytest.param(tau, cap, id=name if cap is None else f"{name}-cap{cap}")
    for cap in (None, 8000)
    for tau, name in ((0.0, "no_delay"), (0.007, "overlap"),
                      (0.7, "delayed"))])
def test_fundamental_pair_shares_plans_with_or_without_blocks(monkeypatch,
                                                              tau,
                                                              max_steps):
    # 5000 steps in 3 chunks, as one run's: a pair builds each chunk's plan
    # once, also when every step runs scalar and no chunk makes a block,
    # and also under a step limit below the pair's 10,000 steps together
    p, delay = PiecewiseSignal.constant(1.0), PiecewiseSignal.constant(tau)
    want = [integrate(prob, 50.0, 0.01)
            for prob in integrator._fundamental_problems(p, delay, 0.0)]
    if max_steps is not None:
        monkeypatch.setattr(integrator, "_MAX_STEPS", max_steps)
    built = _built_chunks(monkeypatch)
    got = fundamental_system(p, delay, 0.0, 50.0, 0.01)
    assert [c0 for c0, _ in built] == [0, 2048, 4096]
    for traj, ref in zip(got, want):
        for a, b in zip((traj.ts, traj.xs, traj.vs),
                        (ref.ts, ref.xs, ref.vs)):
            assert _same_bytes(a, b)


@pytest.mark.parametrize("tau, horizon, initial, plans", [
    (0.7, 50.0, [(1.0, 0.0), (0.0, 1.0), (0.5, -0.25)], 10),
    (1.9, 3000.0, [(1.0, 0.0), (0.0, 0.0)], None)])
def test_groups_sharing_one_key_share_one_plan_stream(monkeypatch, tau,
                                                      horizon, initial,
                                                      plans):
    # groups in a row with the same p, τ and history objects, start,
    # horizon and step are one run whatever their count: three of them
    # build one plan a chunk of 512 steps; a member that leaves the float
    # range is refused, and a zero member beside it runs to the horizon,
    # each as it would alone
    const = PiecewiseSignal.constant
    p, delay, hist = const(1.0), const(tau), const(0.0)
    groups = [(DelayProblem(p, delay, 0.0, hist, x0, v0), horizon, 0.01)
              for x0, v0 in initial]
    want = [_grouping_outcome(group) for group in groups]
    built = _built_chunks(monkeypatch)
    got = integrator._integrate_many(groups)
    _assert_same_outcomes(got, want)
    if plans is not None:
        assert len(built) == plans
    else:
        assert [type(out) for out in got] == [DomainError, tuple]
        assert not got[1][1].any()


def _built_chunks(monkeypatch) -> list:
    """The steps (c0, c1) of each chunk plan built, from now."""
    built = []

    class Counting(integrator._ChunkPlan):
        def __init__(self, problem, ts, c0, c1, *args):
            built.append((c0, c1))
            super().__init__(problem, ts, c0, c1, *args)

    monkeypatch.setattr(integrator, "_ChunkPlan", Counting)
    return built


def test_lone_run_plans_2048_steps_at_once(monkeypatch):
    built = _built_chunks(monkeypatch)
    integrate(_const_problem(1.0, 0.7, 0.0, 1.0, 0.0), 50.0, 0.01)
    assert built == [(0, 2048), (2048, 4096), (4096, 5000)]


@pytest.mark.parametrize("singles, pair, chunk", [
    (0, True, 2048), (1, False, 2048), (2, False, 2048), (1, True, 512),
    (3, False, 512), (4, True, 512)])
def test_batches_of_more_than_two_groups_plan_short_chunks(monkeypatch,
                                                           singles, pair,
                                                           chunk):
    # about 1500 steps a run; a fundamental pair builds one plan a chunk
    groups = [(_const_problem(1.0, tau, 0.0, 1.0, 0.0), 15.0, 0.01)
              for tau in [0.0, 0.007, 0.7] * 2][:singles]
    if pair:
        groups += [(prob, 15.0, 0.01) for prob in
                   integrator._fundamental_problems(
                       PiecewiseSignal.constant(1.0),
                       PiecewiseSignal.constant(0.7), 0.0)]
    built = _built_chunks(monkeypatch)
    list(integrator._integrate_many(groups))
    assert sorted(c0 for c0, _ in built) \
        == sorted(list(range(0, 1500, chunk)) * (singles + pair))


def test_planning_memory_follows_the_chunk_not_the_run():
    problem = _const_problem(1.0, 0.7, 0.3, 1.0, 0.0)
    integrate(problem, 3.0, 0.01)
    peaks, nodes = [], []
    for horizon in (60.0, 120.0):
        tracemalloc.start()
        try:
            nodes.append(integrate(problem, horizon, 0.01).ts.size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # twice the run adds its node arrays ts, xs and x′s, and within a slack
    # of 64 kB nothing else: a plan of the whole run would add about 3 MB
    assert peaks[1] - peaks[0] <= 3 * 8 * (nodes[1] - nodes[0]) + (64 << 10)


def test_lockstep_round_holds_all_groups_in_one_buffer():
    const = PiecewiseSignal.constant
    good = [(DelayProblem(const(0.9), const(tau), 0.0, const(0.3), 1.0, 0.0),
             3.0, 0.01) for tau in (0.05, 0.5, 1.0)]
    # 300 steps each; one raises in its plans, one before its first step
    groups = [good[0],
              (_UncheckedDelay(const(1.0), const(1.2), 0.0, const(0.5), 1.0,
                               0.0), 3.0, 0.01),
              good[1], (good[2][0], 3.0, -0.01), good[2]]
    want = [_alone(group) for group in groups]
    got = integrator._integrate_many(groups)
    _assert_same_outcomes(got, want)
    assert [type(out) for out in got[1::2]] == [HistoryDomainError,
                                                DomainError]
    x0, x2, x4 = (got[i][1] for i in (0, 2, 4))
    assert x0.base is x2.base is x4.base


# ----------------------------------------------------------------------
# bracket refinement: Illinois in plain floats against a numpy bisection
# ----------------------------------------------------------------------

# bracket count above which a numpy round of all open brackets pays for its
# calls; the corpus has scans on both sides of it
_MANY_BRACKETS = 40


def _refine_arrays(traj, derivative, left, tol):
    """The bisection ``integrator._refine`` ran before Illinois, all
    brackets at once, one numpy evaluation of dense output per round for
    the brackets still open: the oracle it stays within tol of."""
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


def _illinois_each(traj, derivative, left, tol):
    """``_illinois`` on each bracket [ts[j], ts[j + 1]] of dense output."""
    f = traj.sample_slope if derivative else traj.sample
    ts = traj.ts.tolist()
    return [_illinois(f, ts[j], ts[j + 1], tol) for j in left.tolist()]


@pytest.mark.parametrize("tol", [1e-10, 1e-3])
def test_plain_refinement_matches_numpy_refinement(tol):
    """``_refine`` is the Illinois loop above bit for bit, and within tol
    of the numpy bisection; both of its early exits are reached."""
    corpus = _refinement_corpus()
    sizes = [left.size for _, left in corpus]
    assert min(sizes) < _MANY_BRACKETS < max(sizes)
    ends = set()
    for traj, left in corpus:
        for derivative in (False, True):
            plain = integrator._refine(traj, derivative, left, tol)
            assert plain == _illinois_each(traj, derivative, left, tol)
            arrays = _refine_arrays(traj, derivative, left, tol)
            assert np.allclose(plain, arrays, rtol=0.0, atol=tol)
            for t, j in zip(plain, left.tolist()):
                if t == traj.ts[j]:
                    ends.add("left_node_zero")
                elif (traj.sample_slope(t) if derivative
                      else traj.sample(t)) == 0.0:
                    ends.add("probe_zero")
    assert ends == {"left_node_zero", "probe_zero"}


@pytest.mark.parametrize("tol", [1e-300, 5e-324])
def test_refinement_below_float_spacing_ends_equal_on_both_paths(tol):
    """Asked for a width below float spacing, each bracket ends where f
    vanishes or on two adjacent floats that hold its sign change, no more
    than 1e-10 from where it ends at the default tol, on the Illinois
    loop above as in ``_refine``."""
    for traj, left in _refinement_corpus():
        ts, xs, vs = traj.ts, traj.xs, traj.vs
        for derivative, ys, f in ((False, xs, traj.sample),
                                  (True, vs, traj.sample_slope)):
            plain = integrator._refine(traj, derivative, left, tol)
            assert plain == _illinois_each(traj, derivative, left, tol)
            coarse = integrator._refine(traj, derivative, left, 1e-10)
            for t, c, j in zip(plain, coarse, left.tolist()):
                assert abs(t - c) <= 1e-10
                if f(t) == 0.0 or (ys[j] > 0.0) == (ys[j + 1] > 0.0):
                    continue  # a zero, or no sign change to hold
                # the pair's other float: right of t while t keeps the
                # left node's sign, else left of it
                right = (f(t) > 0.0) == (ys[j] > 0.0)
                other = float(np.nextafter(t, math.inf if right
                                           else -math.inf))
                assert ts[j] <= other <= ts[j + 1]
                assert (f(other) > 0.0) != (f(t) > 0.0)


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
