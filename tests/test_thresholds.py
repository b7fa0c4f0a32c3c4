"""Descent profile, ascent iteration, shooting oracle, and their constants.

Expected values marked "independent oracle" were frozen from
scripts/crosscheck_constants.py (mpmath series bisection + scipy shooting)
before this module's implementation existed.
"""

import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicycles import (
    DomainError,
    beta_iterate,
    eval_r,
    gamma_constant,
    psi,
    psi_oracle_bvp,
    semicycle_threshold,
    theta,
)
from semicycles import cli, thresholds
from semicycles.thresholds import (
    _NO_WINDOW,
    _SweepGrid,
    _beta_step,
    _descent_shape,
    _forcing_grid,
    _moment_at,
    _moment_partials,
    _next_beta,
    _r_array,
    _r_scalar,
    _root_window,
    _split,
)

SQRT2 = math.sqrt(2.0)
HALF_PI = math.pi / 2.0

# independent oracle values (40-digit series bisection)
THETA_ANCHORS = {
    0.5: 1.4367105452556626,
    1.0: 1.4150879419269059,
    1.2: 1.4142756715370552,
}

# independent oracle values (scipy adaptive shooting, rtol 1e−11)
PSI_ANCHORS = {
    (1.0, 1.0): 1.526823759190,
    (0.7, 0.9): 1.554455882145,
    (2.0, 1.0): 1.417797795393,
    (1.0, 2.0): 1.432028657598,
    (1.0, 0.5): 1.563677193639,
    (1.5, 1.5): 1.344134361687,
    (0.5, 2.5): 1.551214721353,
    (2.0, 3.0): 1.000000000000,
}

GAMMA_ORACLE = 1.4760044


# ----------------------------------------------------------------------
# descent profile
# ----------------------------------------------------------------------

def test_r_first_segment_value():
    assert eval_r(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_r_zero_at_sqrt2_for_large_delay():
    assert eval_r(2.0, SQRT2) == pytest.approx(0.0, abs=1e-12)


def test_r_cosine_limit():
    assert eval_r(0.0, HALF_PI) == pytest.approx(0.0, abs=1e-12)
    assert eval_r(0.0, 1.0) == pytest.approx(math.cos(1.0), abs=1e-15)


def test_r_is_one_for_nonpositive_times():
    for d in (0.0, 0.5, 3.0):
        assert eval_r(d, 0.0) == 1.0
        assert eval_r(d, -2.7) == 1.0


def test_r_negative_delay_rejected():
    with pytest.raises(DomainError):
        eval_r(-0.1, 1.0)
    with pytest.raises(DomainError):
        theta(-1.0)


@pytest.mark.parametrize("delta, t, message", [
    (0.5, math.nan, "time must be finite"),
    (0.5, math.inf, "time must be finite"),
    # the 84th term is about 1e−4: the sum would be −3.3e18
    (0.5, 100.0, "needs more than 84 terms"),
    (1e-3, 80.0, "term 82 overflows"),
])
def test_r_refuses_what_its_series_cannot_sum(delta, t, message):
    """A non-finite t, terms still above the floor at the series' last
    one, and a power past float range raise DomainError, not 1.0, NaN, a
    truncated sum or a bare OverflowError."""
    with pytest.raises(DomainError, match=message):
        eval_r(delta, t)


@pytest.mark.parametrize("delta, t", [(1e-3, 40.0), (1e-3, 30.0),
                                      (0.1, 35.0)])
def test_r_refuses_sums_that_cancellation_swamps(delta, t):
    """Terms up to about cosh t against a sum near 1: the plain-float sum
    is off by 370 %, 1.0 % and 0.2 % of an 80-digit one."""
    with pytest.raises(DomainError, match="rounding bound"):
        eval_r(delta, t)


@pytest.mark.parametrize("delta, t, want", [
    # three terms, 1 − 1800 + 33750, with no rounding at all
    (30.0, 60.0, 31951.0),
    # three terms again; cosh t overflows past t ≈ 710
    (500.0, 800.0, 337180001.0),
    (400.0, 710.5, 1.0 - 710.5 ** 2 / 2 + 310.5 ** 4 / 24),
])
def test_r_bounds_rounding_by_the_terms_it_summed(delta, t, want):
    """The rounding bound sums the magnitudes of the terms ``_r_scalar``
    added, not cosh t: a few large terms that cancel little are kept."""
    assert eval_r(delta, t) == want == _r_scalar(delta, t)[0]


def test_r_rounding_check_keeps_every_value_up_to_six():
    """Up to t = 6, the reach of every other test, no Δ is refused and
    each value is the series' own."""
    rng = np.random.default_rng(29)
    deltas = [0.0, 1e-300, 1e-12, 1e-3, 1.0, 2 * SQRT2]
    deltas += rng.uniform(0.0, 3.5, 50).tolist()
    for d in deltas:
        for t in np.linspace(-1.0, 6.0, 141).tolist():
            assert eval_r(d, t) == _r_scalar(d, t)[0]


def test_r_second_segment_series():
    # on [Δ, 2Δ] the profile is 1 − t²/2 + (t−Δ)⁴/24
    d, t = 1.0, 1.3
    expected = 1 - t**2 / 2 + (t - d)**4 / 24
    assert eval_r(d, t) == pytest.approx(expected, rel=1e-14)


def test_scalar_series_within_two_ulps_of_vector_series():
    """The plain-float series behind ``eval_r`` agrees with ``_r_array``
    within 2 ulps of cosh(t), which bounds the sum of its terms'
    magnitudes: they differ only in how a power is rounded, by numpy's
    vector ``power`` or by the C library's ``pow``. The corpus holds Δ = 0,
    Δ about ϑ's 1e−12 cut-off, the plateau Δ ≥ 2√2 and t ≤ 0."""
    rng = np.random.default_rng(19)
    deltas = [0.0, 5e-13, 9.9e-13, 1e-12, 1.1e-12, 2 * SQRT2, 3.0, 4.5]
    deltas += rng.uniform(0.0, 3.5, 200).tolist()
    for d in deltas:
        ts = np.concatenate((rng.uniform(-1.0, 3.2, 40),
                             [-2.7, -0.0, 0.0, 1e-300, 1.0, HALF_PI]))
        for t, want in zip(ts.tolist(), _r_array(d, ts).tolist()):
            got = _r_scalar(d, t)[0]
            assert got == eval_r(d, t)
            assert abs(got - want) <= 2 * math.ulp(math.cosh(t)), (d, t)
            if t <= 0.0:
                assert got == want == 1.0


def test_r_strictly_decreasing_to_first_zero():
    for d in (0.2, 1.0, 2.0):
        ts = np.linspace(0.0, theta(d), 400)
        vals = np.array([eval_r(d, float(t)) for t in ts])
        assert np.all(np.diff(vals) < 0.0)


def test_r_uniform_cos_limit_small_delay():
    ts = np.linspace(0.0, HALF_PI, 200)
    dev = max(abs(eval_r(1e-3, float(t)) - math.cos(float(t))) for t in ts)
    assert dev < 1e-2


def test_theta_special_values():
    assert theta(0.0) == pytest.approx(HALF_PI, abs=1e-12)
    for d in (1.5, 2.0, 5.0):
        assert theta(d) == pytest.approx(SQRT2, abs=1e-12)


def test_theta_derived_anchors():
    for d, want in THETA_ANCHORS.items():
        assert theta(d) == pytest.approx(want, abs=1e-12)


def test_theta_monotone_grid():
    """Nonincreasing overall; strictly decreasing on [0, √2]; √2 beyond."""
    deltas = np.linspace(0.0, 3.0, 100)
    vals = np.array([theta(float(d)) for d in deltas])
    assert np.all(np.diff(vals) <= 1e-13)
    inside = deltas < SQRT2 - 0.02
    assert np.all(np.diff(vals[inside]) < 0.0)
    assert np.all(np.abs(vals[deltas >= SQRT2] - SQRT2) < 1e-10)
    assert np.all(vals >= SQRT2 - 1e-12) and np.all(vals <= HALF_PI + 1e-12)


def _loop_theta(delta):
    """ϑ_Δ by the bisection loop written out in place, as ``theta`` found
    it before ``_root``: its oracle, within the 1e−13 bracket width."""
    if delta < 1e-12:
        return HALF_PI
    lo, hi = 1.0, HALF_PI
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if eval_r(delta, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_THETA_DELTAS = ([0.0, 1e-13] + [round(0.05 * k, 12) for k in range(1, 61)]
                 + [2 * SQRT2]
                 + [float(d) for d in np.geomspace(1.1e-12, 200.0, 120)])


def test_theta_within_bracket_width_of_inline_bisection(monkeypatch):
    """``_root`` gives ϑ within the 1e−13 bracket width of the bisection,
    at most 40 series evaluations at any Δ (both ends included) and 15 on
    average, against 45 for the bisection."""
    calls = []
    r_scalar = thresholds._r_scalar
    monkeypatch.setattr(thresholds, "_r_scalar",
                        lambda d, t: calls.append(d) or r_scalar(d, t))
    counts = []
    for d in _THETA_DELTAS:
        calls.clear()
        got = theta.__wrapped__(d)
        counts.append(len(calls))
        assert abs(got - _loop_theta(d)) <= 1e-13, d
    assert max(counts) <= 40
    assert sum(counts) / len(counts) <= 15


def test_theta_noise_positive_end_counts_as_not_above(monkeypatch):
    """The bracket check accepts r(π/2) less than 1e−14 above 0; that end is
    then a "not above" end, and the root stays in [1, π/2]."""
    r_scalar = thresholds._r_scalar

    def noisy(d, t):
        return (5e-15, 0.0) if t == HALF_PI else r_scalar(d, t)

    ends = []
    root = thresholds._root

    def spy(f, lo, hi, f_lo, f_hi, width):
        ends.append(f_hi)
        return root(f, lo, hi, f_lo, f_hi, width)

    monkeypatch.setattr(thresholds, "_r_scalar", noisy)
    monkeypatch.setattr(thresholds, "_root", spy)
    d = 1.1e-12
    assert thresholds.eval_r(d, HALF_PI) == 5e-15
    got = theta.__wrapped__(d)
    assert ends == [0.0]
    assert 1.0 <= got <= HALF_PI
    assert abs(got - _loop_theta(d)) <= 1e-13


# ----------------------------------------------------------------------
# forcing term
# ----------------------------------------------------------------------

def _forcing_at(rho, delta, w):
    """The forcing at one point, through the grid evaluator."""
    (value,) = _forcing_grid(rho, delta, np.array([w]))
    return value


def test_forcing_zero_delay_empty_support():
    for w in (-1.5, -0.3, -1e-9):
        assert _forcing_at(1.0, 0.0, w) == 0.0


def test_forcing_plateau_at_origin():
    # Δ = ϑ_Δ = √2 makes the shifted argument 0, where the profile is 1
    assert _forcing_at(1.0, SQRT2, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_forcing_vanishes_at_left_edge():
    assert _forcing_at(2.0, 1.0, -1.0) == pytest.approx(0.0, abs=1e-12)


def test_forcing_outside_support():
    assert _forcing_at(1.0, 1.0, -1.2) == 0.0
    with pytest.raises(DomainError):
        beta_iterate(-1.0, 1.0)


# ----------------------------------------------------------------------
# the ascent iteration
# ----------------------------------------------------------------------

def test_iteration_zero_delay_course():
    """With no forcing the first sweep lands exactly on √2, the second on
    √(7/3), and the limit is π/2 with the cosine profile."""
    res = beta_iterate(1.0, 0.0)
    assert res.omega_sequence[0] == pytest.approx(SQRT2, abs=1e-11)
    assert res.omega_sequence[1] == pytest.approx(math.sqrt(7.0 / 3.0),
                                                  abs=1e-6)
    assert res.psi == pytest.approx(HALF_PI, abs=2e-3)
    prof = res.limit_profile
    grid = np.linspace(-res.psi, 0.0, prof.size)
    dev = np.abs(prof - np.cos(grid + HALF_PI)).max()
    assert dev < 2e-3


def test_iteration_saturated_delay_closed_form():
    res = beta_iterate(1.0, 3.0)
    assert res.psi == pytest.approx(SQRT2, abs=2e-3)
    prof = res.limit_profile
    grid = np.linspace(-res.psi, 0.0, prof.size)
    dev = np.abs(prof - (1 - (grid + SQRT2) ** 2 / 2)).max()
    assert dev < 2e-3
    assert res.iterations <= 5  # forcing plateau fixes the profile at once


def test_omega_sequence_monotone_and_capped():
    for rho, d in ((1.0, 0.0), (1.0, 1.0), (0.5, 0.4), (2.0, 1.2)):
        res = beta_iterate(rho, d)
        seq = res.omega_sequence
        assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))
        assert res.psi <= HALF_PI + 1e-9


def test_beta_profiles_pointwise_nonincreasing_in_n():
    w = np.linspace(-HALF_PI, 0.0, 1024)
    grid = _SweepGrid(w.size)
    forcing = _forcing_grid(1.0, 1.0, w)
    beta = np.ones_like(w)
    prev = beta
    for _ in range(8):
        _, beta, _ = _step(grid, prev, forcing)
        # slack = the ϖ-bisection width (β(0) carries exactly that noise)
        assert np.all(beta <= prev + 1e-11)
        prev = beta


def _step(grid, beta, forcing):
    """One sweep of ``beta_iterate`` and the profile it rebuilds, into a new
    array: (ϖ, next β, the sweep's internals)."""
    sweep = _beta_step(grid, beta, forcing)
    beta_next = np.empty_like(beta)
    _next_beta(grid, sweep, beta_next)
    return -sweep[3], beta_next, sweep


def _bits(*values):
    """The bytes of floats, so that comparisons tell −0.0 from 0.0."""
    return np.array(values, dtype=float).tobytes()


def test_iteration_rebuilds_beta_only_for_another_sweep(monkeypatch):
    """The converged sweep's profile is never built: a solve of n sweeps
    rebuilds β n − 1 times."""
    calls = []
    rebuild = thresholds._next_beta
    monkeypatch.setattr(thresholds, "_next_beta",
                        lambda *args: calls.append(1) or rebuild(*args))
    for rho, d, n in ((1.0, 0.0, 4096), (0.7, 0.9, 1000),
                      (1.0, 2 * SQRT2, 64), (2.5, 3.0, 1000)):
        calls.clear()
        res = beta_iterate(rho, d, n)
        assert len(calls) == res.iterations - 1 >= 1, (rho, d, n)


def _cumulative_moments(w: np.ndarray, g: np.ndarray):
    """Node values of I0(v)=∫_{w0}^{v} g and I1(v)=∫_{w0}^{v} w·g(w) dw for
    the piecewise-linear carrier g — exact per cell (trapezoid is exact for
    the 0th moment of a linear function, Simpson for the 1st).

    The reference form: a sweep computes the same floats in the same order
    into its grid's buffers (``thresholds._SweepGrid.moments``)."""
    h = w[1] - w[0]
    g0, g1 = g[:-1], g[1:]
    i0 = np.concatenate(([0.0], np.cumsum(0.5 * h * (g0 + g1))))
    wm = 0.5 * (w[:-1] + w[1:])
    gm = 0.5 * (g0 + g1)
    i1 = np.concatenate(([0.0], np.cumsum(
        (h / 6.0) * (w[:-1] * g0 + 4.0 * wm * gm + w[1:] * g1))))
    return i0, i1



def _oracle_step(w, beta, forcing):
    """The sweep with every bisection probe on the vector moment path."""
    g = np.maximum(beta, forcing)
    i0, i1 = _cumulative_moments(w, g)

    def moments(v):
        m0, m1 = _moment_partials(np.array([v]), w, g, i0, i1)
        return m0[0], m1[0]

    def h_of(v):
        return moments(v)[1] - i1[-1]

    if h_of(w[0]) < 1.0:
        v_root = w[0]
    else:
        lo, hi = w[0], 0.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if h_of(mid) >= 1.0:
                lo = mid
            else:
                hi = mid
        v_root = 0.5 * (lo + hi)
    i0_v, i1_v = moments(v_root)
    beta_next = np.ones_like(beta)
    mask = w > v_root
    beta_next[mask] = 1.0 - (w[mask] * (i0[mask] - i0_v) - (i1[mask] - i1_v))
    return -v_root, beta_next, (g, i0, i1, v_root, i0_v, i1_v)


def _oracle_iterate(rho, delta, grid_size=4096, tol=1e-10):
    w = np.linspace(-HALF_PI, 0.0, grid_size)
    forcing = _forcing_grid(rho, delta, w)
    beta = np.ones_like(w)
    omegas = []
    while True:
        omega, beta, sweep = _oracle_step(w, beta, forcing)
        omegas.append(omega)
        if len(omegas) >= 2 and abs(omegas[-1] - omegas[-2]) < tol:
            g, i0, i1, v_root, i0_v, i1_v = sweep
            ts = np.linspace(-omega, 0.0, grid_size)
            i0_t, i1_t = _moment_partials(ts, w, g, i0, i1)
            profile = 1.0 - (ts * (i0_t - i0_v) - (i1_t - i1_v))
            profile[ts <= v_root] = 1.0
            return omega, omegas, profile


def test_scalar_moments_bit_identical_to_vector_path():
    """_moment_at returns the vector path's floats exactly, at random probe
    points, at the nodes, at both ends and past them (clamped cells)."""
    rng = np.random.default_rng(4096)
    w = np.linspace(-HALF_PI, 0.0, 4096)
    grid = _SweepGrid(w.size)
    for rho, d in ((1.0, 0.0), (1.0, 1.0), (2.5, 0.4), (0.3, 2.7)):
        forcing = _forcing_grid(rho, d, w)
        beta = np.ones_like(w)
        for _ in range(3):
            _, beta, _ = _step(grid, beta, forcing)
        g = np.maximum(beta, forcing)
        i0, i1 = _cumulative_moments(w, g)
        vs = np.concatenate((rng.uniform(-HALF_PI, 0.0, 2000), w[::97],
                             [w[0], w[-1], w[0] - 1e-3, 1e-3]))
        m0, m1 = _moment_partials(vs, w, g, i0, i1)
        for v, a0, a1 in zip(vs.tolist(), m0.tolist(), m1.tolist()):
            assert _bits(*_moment_at(v, w, g, i0, i1)) == _bits(a0, a1), \
                (rho, d, v)


def _sweep_corpus():
    """(ρ, Δ, grid) cells for the bit-identity tests: the edge cases — Δ = 0,
    Δ below ϑ's 1e−12 cut-off, saturated Δ ≥ 2√2, ρ > 1 — and seeded random
    cells, at grid sizes 64, 1000 and 4096."""
    cells = [(1.0, 0.0, 4096), (0.5, 0.0, 64), (2.0, 0.0, 1000),
             (1.0, 1e-13, 4096), (2.0, 1e-13, 1000), (1.0, 2 * SQRT2, 4096),
             (2.5, 3.0, 1000), (0.7, 4.0, 64), (3.0, 1.2, 4096)]
    rng = np.random.default_rng(20230623)
    for n in (64, 1000, 4096):
        cells += [(float(r), float(d), n) for r, d in
                  zip(rng.uniform(0.2, 3.0, 11), rng.uniform(0.0, 3.2, 11))]
    return cells


SWEEP_CORPUS = _sweep_corpus()


def test_root_search_bit_identical_to_vector_probes():
    """The buffered sweep with its plain-float root search reproduces the
    vector-path oracle exactly: same ϖ sequence, same Ψ, same limit profile
    bytes (built when first read)."""
    assert len(SWEEP_CORPUS) >= 40
    for rho, d, n in SWEEP_CORPUS:
        res = beta_iterate(rho, d, n)
        assert "limit_profile" not in vars(res)
        omega, omegas, profile = _oracle_iterate(rho, d, n)
        assert _bits(*res.omega_sequence) == _bits(*omegas), (rho, d, n)
        assert res.iterations == len(omegas), (rho, d, n)
        assert _bits(res.psi) == _bits(omega), (rho, d, n)
        assert res.limit_profile.tobytes() == profile.tobytes(), (rho, d, n)
        assert res.limit_profile is res.limit_profile


def test_single_sweeps_bit_identical_to_vector_probes():
    """Single sweeps agree exactly with the vector-path oracle, including a
    saturated one: a domain holding less than a unit moment gives ϖ = π/2."""
    w = np.linspace(-HALF_PI, 0.0, 4096)
    beta = np.full_like(w, 0.5)  # ∫(−u)·½ du over [−π/2, 0] = π²/16 < 1
    forcing = np.zeros_like(w)
    omega, beta_next, _ = _step(_SweepGrid(w.size), beta, forcing)
    ref_omega, ref_next, _ = _oracle_step(w, beta, forcing)
    assert omega == ref_omega == HALF_PI
    assert beta_next.tobytes() == ref_next.tobytes()
    for rho, d, n in SWEEP_CORPUS:
        w = np.linspace(-HALF_PI, 0.0, n)
        grid = _SweepGrid(n)  # one grid, its buffers reused by every sweep
        assert np.array_equal(grid.w, w)
        forcing = _forcing_grid(rho, d, w)
        prev = np.ones_like(w)
        for _ in range(4):
            omega, nxt, sweep = _step(grid, prev, forcing)
            ref_omega, ref_next, ref_sweep = _oracle_step(w, prev, forcing)
            assert _bits(omega) == _bits(ref_omega), (rho, d, n)
            assert nxt.tobytes() == ref_next.tobytes(), (rho, d, n)
            for got, want in zip(sweep[:3], ref_sweep[:3]):  # g, I0, I1
                assert got.tobytes() == want.tobytes(), (rho, d, n)
            assert _bits(*sweep[3:]) == _bits(*ref_sweep[3:]), (rho, d, n)
            prev = nxt


def _plain_root(grid, i1_total):
    """v = −ϖ of the sweep just run on ``grid`` by the bisection without a
    root window: 41 probes, each read from its cell's moments in plain
    floats. The oracle of the filtered bisection, which must match it bit
    for bit."""
    w0, h, last = grid.w0, grid.h, grid.last
    w_at, g_at, i1_at = grid.w.item, grid.g.item, grid.i1.item
    if -i1_total < 1.0:
        return w0
    lo, hi = w0, 0.0
    cell = -1
    while hi - lo > 1e-12:
        v = 0.5 * (lo + hi)
        j = int((v - w0) / h)
        if j > last:
            j = last
        if j != cell:
            cell = j
            t0 = w_at(j)
            gj = g_at(j)
            dg = g_at(j + 1) - gj
            t0_gj = t0 * gj
            i1_j = i1_at(j)
        dv = v - t0
        gv = gj + dg * (dv / h)
        vm = t0 + 0.5 * dv
        gm = 0.5 * (gj + gv)
        p1 = (dv / 6.0) * (t0_gj + 4.0 * vm * gm + v * gv)
        if (i1_j + p1) - i1_total >= 1.0:
            lo = v
        else:
            hi = v
    return 0.5 * (lo + hi)


def _table_cells(seed):
    """The (ρ, Δ, grid) cells of the CLI table that perfbench's
    ``thresholds`` workload solves at ``seed`` (its setup_thresholds)."""
    rng = np.random.default_rng([seed, 1])
    d0 = round(float(rng.uniform(0.0, 0.1)), 4)
    r0 = round(float(rng.uniform(0.5, 0.75)), 4)
    deltas = cli._range_values(cli._parse_range(f"{d0}:{d0 + 3.05:.4f}:0.1"))
    rhos = cli._range_values(cli._parse_range(f"{r0}:{r0 + 1.625:.4f}:0.25"))
    return [(r, d, 4096) for d in deltas for r in rhos]


def test_filtered_root_is_the_plain_bisections(monkeypatch):
    """Every sweep of the corpus and of the benchmark's table cells at
    seeds 0–5 finds the plain bisection's root bit for bit. Its I1 never
    increases, which the root window's bound assumes, and the rebuild's
    split index is ``np.searchsorted``'s."""
    cells = SWEEP_CORPUS + [c for seed in range(6) for c in _table_cells(seed)]
    assert len(cells) == len(SWEEP_CORPUS) + 6 * 217
    step = thresholds._beta_step
    checked = []

    def spy(grid, beta, forcing):
        sweep = step(grid, beta, forcing)
        i1, v_root = grid.i1, sweep[3]
        assert np.all(np.diff(i1) <= 0.0)
        assert _bits(v_root) == _bits(_plain_root(grid, i1.item(-1)))
        assert _split(grid, v_root) == np.searchsorted(grid.w, v_root,
                                                       side="right")
        checked.append(1)
        return sweep

    monkeypatch.setattr(thresholds, "_beta_step", spy)
    sweeps = 0
    for rho, d, n in cells:
        sweeps += beta_iterate(rho, d, n).iterations
        assert len(checked) == sweeps, (rho, d, n)


def test_sweeps_evaluate_few_probes(monkeypatch):
    """Over the corpus a sweep evaluates under one bisection probe on
    average (about 0.03): the root window decides the rest. Each sweep
    also reads its root's moments once."""
    calls = []
    moment_at = thresholds._moment_at
    monkeypatch.setattr(thresholds, "_moment_at",
                        lambda *args: calls.append(1) or moment_at(*args))
    sweeps = sum(beta_iterate(rho, d, n).iterations
                 for rho, d, n in SWEEP_CORPUS)
    assert len(calls) - sweeps <= sweeps


def _zero_node_sweep():
    """A sweep at grid 1000 whose root cell has g = 0 at a node: the
    first sweep's root cell, with β zeroed at its left node."""
    grid, forcing = _SweepGrid(1000), np.zeros(1000)
    _beta_step(grid, np.ones(1000), forcing)
    beta = np.ones(1000)
    beta[grid.cell] = 0.0
    return grid, beta, forcing


def _last_cell_sweep():
    """A sweep at grid 64 whose root lies in the last cell, [−h, 0], where
    the least slope |0|·g is zero: g ≡ 10⁴ puts it at −√2·10⁻²."""
    return _SweepGrid(64), np.full(64, 1e4), np.zeros(64)


def _nan_sweep():
    grid, beta, forcing = _SweepGrid(1000), np.ones(1000), np.zeros(1000)
    forcing[500] = math.nan
    return grid, beta, forcing


@pytest.mark.parametrize("make", [_zero_node_sweep, _last_cell_sweep,
                                  _nan_sweep])
def test_sweep_without_root_window_is_the_plain_bisection(monkeypatch,
                                                          make):
    """Where no bound can be made — a zero slope bound on the root's cell,
    at a node where g = 0 or at w = 0, or NaN data — the window decides
    nothing, no division raises, all 41 probes are evaluated and the root
    is the plain bisection's."""
    grid, beta, forcing = make()
    calls = []
    moment_at = thresholds._moment_at
    monkeypatch.setattr(thresholds, "_moment_at",
                        lambda *args: calls.append(1) or moment_at(*args))
    sweep = _beta_step(grid, beta, forcing)
    c, g = grid.cell, grid.g
    i1_total = grid.i1.item(-1)
    assert math.isnan(i1_total) or min(g[c], g[c + 1]) * grid.w[c + 1] == 0.0
    assert _root_window(grid, i1_total) == _NO_WINDOW
    assert len(calls) == 41 + 1
    assert _bits(sweep[3]) == _bits(_plain_root(grid, i1_total))


def test_split_index_is_searchsorted_from_any_cell():
    """``_split`` counts the nodes at or below v from whichever cell it
    starts: at nodes, a rounding step either side of them, midpoints, both
    ends and past them; a NaN v leaves an empty suffix."""
    grid = _SweepGrid(64)
    w = grid.w
    vs = np.concatenate((w, np.nextafter(w, -np.inf), np.nextafter(w, np.inf),
                         0.5 * (w[:-1] + w[1:]), [w[0] - 1.0, 1.0]))
    for cell in (0, 31, grid.last):
        grid.cell = cell
        for v in vs.tolist():
            assert _split(grid, v) == np.searchsorted(w, v, side="right")
        assert _split(grid, math.nan) == w.size


def test_descent_shape_scaled_by_rho_is_the_forcing():
    """Two ρ at one Δ share one cached shape, and ρ times it is
    ``_forcing_grid`` bit for bit."""
    for d, n in ((0.0, 64), (1e-13, 4096), (0.9, 1000), (1.7, 4096),
                 (3.0, 64)):
        w = np.linspace(-HALF_PI, 0.0, n)
        shape = _descent_shape(d, n)
        assert not shape.flags.writeable
        for rho in (0.6, 2.35):
            assert np.array_equal(rho * _descent_shape(d, n),
                                  _forcing_grid(rho, d, w)), (rho, d, n)
        assert _descent_shape(d, n) is shape


def test_limit_profile_shape():
    res = beta_iterate(1.3, 0.8)
    vals = res.limit_profile
    assert vals.shape == (4096,) and not vals.flags.writeable
    assert vals[0] == pytest.approx(1.0, abs=1e-9)
    assert vals[-1] == pytest.approx(0.0, abs=1e-7)
    assert np.all(np.diff(vals) <= 1e-9)  # strictly decreasing up to interp


def test_limit_profile_residual():
    """The converged profile satisfies y″ + max{y, forcing} ≈ 0."""
    for rho, d in ((1.0, 0.0), (1.0, 1.0), (2.0, 1.5), (0.5, 0.7)):
        res = beta_iterate(rho, d)
        y = res.limit_profile
        h = res.psi / (y.size - 1)
        F = _forcing_grid(rho, d, np.linspace(-res.psi, 0.0, y.size))
        resid = (y[:-2] - 2 * y[1:-1] + y[2:]) / h**2 \
            + np.maximum(y[1:-1], F[1:-1])
        assert np.abs(resid).max() < 1e-3


def test_iteration_limit_error_carries_last_omegas(monkeypatch):
    from semicycles import IterationLimitError
    monkeypatch.setattr(thresholds, "_MAX_SWEEPS", 3)
    with pytest.raises(IterationLimitError) as info:
        beta_iterate(1.0, 0.0)
    assert info.value.omega_last >= info.value.omega_prev
    assert info.value.omega_last < HALF_PI


def test_argument_validation():
    with pytest.raises(DomainError):
        beta_iterate(0.0, 1.0)
    with pytest.raises(DomainError):
        beta_iterate(1.0, -0.5)
    with pytest.raises(DomainError):
        beta_iterate(1.0, 1.0, grid_size=32)


_HISTORY = "history bound must be finite and positive"
_DELAY = "delay must be finite and nonnegative"
_GRID = "grid_size must be an integer"


@pytest.mark.parametrize("name, args, message", [
    ("beta_iterate", (math.nan, 1.0), _HISTORY),
    ("psi", (math.nan, 1.0), _HISTORY),
    ("psi", (math.inf, 1.0), _HISTORY),
    ("psi", (-math.inf, 1.0), _HISTORY),
    ("psi_oracle_bvp", (math.inf, 1.0), _HISTORY),
    ("beta_iterate", (1.0, math.inf), _DELAY),
    ("psi", (1.0, math.nan), _DELAY),
    ("psi_oracle_bvp", (1.0, math.nan), _DELAY),
    ("theta", (math.nan,), _DELAY),
    ("semicycle_threshold", (math.nan,), _DELAY),
    ("semicycle_threshold", (math.inf,), _DELAY),
    ("eval_r", (math.nan, 1.0), _DELAY),
    ("psi", (1.0, 1.0, math.nan), _GRID),
    ("beta_iterate", (1.0, 1.0, math.nan), _GRID),
    ("psi", (1.0, 1.0, math.inf), _GRID),
    ("psi", (1.0, 1.0, 100.7), _GRID),
])
def test_non_finite_arguments_rejected(name, args, message):
    """A NaN or infinite ρ or Δ, or a grid size that is not an integer, is
    refused before any work: no warning, no Ψ cache entry (Ψ(∞, Δ) used to
    come out as π/2, a grid of 100.7 was solved at 100)."""
    before = thresholds._psi_cached.cache_info()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            getattr(thresholds, name)(*args)
    assert thresholds._psi_cached.cache_info() == before


def test_sweep_whose_moments_overflow_is_refused():
    """ρ near the float limit overflows a sweep's moments; Ψ used to come
    out as π/2, the largest Ψ there is, with three numpy warnings. It is
    refused naming ρ and Δ: no warning, no Ψ cache entry. The largest ρ
    whose sweeps stay finite keeps its Ψ."""
    before = thresholds._psi_cached.cache_info().currsize
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho, delta in ((1e308, 1.0), (1.7e308, 1.0), (1e308, 3.0),
                           (5e307, 3.0)):
            with pytest.raises(DomainError, match=re.escape(
                    f"ρ = {rho}, Δ = {delta} leaves the float range")):
                psi(rho, delta)
        assert thresholds._psi_cached.cache_info().currsize == before
        assert psi(9e307, 1.0) == 7.71853579371157e-09


# ----------------------------------------------------------------------
# psi and the oracle
# ----------------------------------------------------------------------

def test_psi_special_values():
    for rho in (0.5, 1.0, 2.0, 5.0):
        assert psi(rho, 0.0) == pytest.approx(HALF_PI, abs=2e-3)
    for d in (2 * SQRT2, 3.0, 4.0):
        assert psi(1.0, d) == pytest.approx(SQRT2, abs=2e-3)


def test_psi_matches_independent_oracle():
    for (rho, d), want in PSI_ANCHORS.items():
        assert psi(rho, d) == pytest.approx(want, abs=1e-6), (rho, d)


def test_bvp_oracle_matches_independent_oracle():
    for (rho, d), want in PSI_ANCHORS.items():
        assert psi_oracle_bvp(rho, d) == pytest.approx(want, abs=1e-6), \
            (rho, d)


def test_psi_below_sqrt2_only_above_unit_history():
    """ρ ≤ 1 keeps Ψ ≥ √2; ρ > 1 with room to spare drops to √(2/ρ)."""
    assert psi(1.0, 2.0) >= SQRT2 - 1e-6
    assert psi(0.6, 1.7) >= SQRT2 - 1e-6
    assert psi(2.0, 3.0) == pytest.approx(math.sqrt(2.0 / 2.0), abs=1e-6)
    assert psi(4.0, 4.0) == pytest.approx(math.sqrt(2.0 / 4.0), abs=1e-4)


def test_psi_monotone_grid():
    rhos = (0.5, 1.0, 1.5, 2.0)
    deltas = (0.0, 0.75, 1.5, 2.25, 3.0)
    table = {(r, d): psi(r, d) for r in rhos for d in deltas}
    for r in rhos:  # nonincreasing in Δ
        for d0, d1 in zip(deltas, deltas[1:]):
            assert table[(r, d1)] <= table[(r, d0)] + 1e-9
    for d in deltas:  # nonincreasing in ρ
        for r0, r1 in zip(rhos, rhos[1:]):
            assert table[(r1, d)] <= table[(r0, d)] + 1e-9


@settings(max_examples=25, deadline=None)
@given(rho=st.floats(min_value=0.3, max_value=2.5),
       delta=st.floats(min_value=0.0, max_value=3.5))
def test_psi_bounds_property(rho, delta):
    val = psi(rho, delta)
    assert val <= HALF_PI + 1e-9
    assert val > 0.0
    if rho <= 1.0:
        assert val >= SQRT2 - 1e-9


# ----------------------------------------------------------------------
# derived constants
# ----------------------------------------------------------------------

def test_gamma_constant():
    g = gamma_constant()
    assert SQRT2 <= g <= HALF_PI
    assert g == pytest.approx(GAMMA_ORACLE, abs=2e-5)
    assert abs(psi(1.0, g) - g) < 1e-5
    assert psi(1.0, g - 0.1) > g - 0.1  # below the fixed point Ψ exceeds Δ


def test_gamma_within_tolerance_of_inline_bisection():
    """``_root`` gives γ within _GAMMA_TOL of the bisection it replaced,
    in at most 8 Ψ solves (both ends included) against 20."""
    thresholds._psi_cached.cache_clear()
    g = gamma_constant()
    assert thresholds._psi_cached.cache_info().misses <= 8
    lo, hi = SQRT2, HALF_PI
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if psi(1.0, mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(g - 0.5 * (lo + hi)) <= 1e-6


def _root_before_exits(f, lo, hi, f_lo, f_hi, width):
    """``thresholds._root`` before its exits for a vanishing probe, adjacent
    floats and equal end values, written out."""
    side = 0
    while hi - lo > width:
        x = hi + (hi - lo) * f_hi / (f_lo - f_hi)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
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


def test_root_exits_leave_theta_and_gamma_bits(monkeypatch):
    """No ϑ probe and no γ probe meets a new exit of ``_root``: both are
    the same bits as before the exits were added."""
    got = [theta.__wrapped__(d) for d in _THETA_DELTAS]
    gamma = gamma_constant()
    monkeypatch.setattr(thresholds, "_root", _root_before_exits)
    assert got == [theta.__wrapped__(d) for d in _THETA_DELTAS]
    assert gamma_constant() == gamma


def test_root_exits_keep_the_benchmark_tables_and_their_tag(tmp_path,
                                                           monkeypatch):
    """The threshold tables the benchmark's ``thresholds`` workload prints
    at seeds 0–5 are the same bytes as with ``_root``'s loop before its
    exits, so the tag of stored tables stays."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    import workloads

    assert cli._TABLE_ALGORITHM == "theta-series+psi-beta-iterate/3"
    tables = {}
    try:
        for side in ("now", "before"):
            theta.cache_clear()
            if side == "before":
                monkeypatch.setattr(thresholds, "_root", _root_before_exits)
            monkeypatch.setenv("SEMICYCLE_CACHE_DIR", str(tmp_path / side))
            for seed in range(6):
                state = workloads.setup_thresholds(seed, tmp_path, 1)
                out = tmp_path / f"{side}-{seed}.csv"
                assert cli.main(state.argv(out)) == 0
                tables[side, seed] = out.read_bytes()
    finally:
        theta.cache_clear()
    for seed in range(6):
        assert tables["now", seed] == tables["before", seed], seed


def _counted(f, limit=200):
    """f, refusing to be called more than ``limit`` times."""
    calls = []

    def g(x):
        calls.append(x)
        assert len(calls) <= limit, "the root loop does not stop"
        return f(x)
    return g, calls


def test_root_returns_a_probe_where_f_vanishes():
    # the first secant point of 0.375 − x on [0.25, 0.5] is its root; the
    # loop used to replace hi with it and go on to a bracket centre
    f, calls = _counted(lambda x: 0.375 - x)
    assert thresholds._root(f, 0.25, 0.5, 0.125, -0.125, 1e-3) == 0.375
    assert calls == [0.375]
    assert _root_before_exits(lambda x: 0.375 - x, 0.25, 0.5, 0.125,
                              -0.125, 1e-3) != 0.375


def test_root_stops_on_adjacent_floats():
    one_up = float(np.nextafter(1.0, 2.0))
    f, calls = _counted(lambda x: 1.0 - x)
    assert thresholds._root(f, 1.0, one_up, 1.0, -1.0, 0.0) in (1.0, one_up)
    assert calls == []
    # a step at c, asked for a width below float spacing: the loop ends on
    # the two floats around the step (it used to run on forever)
    c = 1.3
    f, calls = _counted(lambda x: 1.0 if x < c else -1.0)
    got = thresholds._root(f, 1.0, 2.0, 1.0, -1.0, 5e-324)
    assert got in (float(np.nextafter(c, 0.0)), c)


def test_root_takes_the_midpoint_when_end_values_are_equal():
    """Equal end values, as where a bracket without a sign change (an x
    bracket read on x′) is refined, or where both ends' subnormal values
    are halved, have no secant point: the probe is the midpoint, where the
    secant formula divided by zero."""
    tiny = 5e-324
    for f_lo, f_hi in ((tiny, tiny), (1.0, 1.0), (0.0, -0.0)):
        f, calls = _counted(lambda x: tiny)
        with pytest.raises(ZeroDivisionError):
            _root_before_exits(f, 0.0, 1.0, f_lo, f_hi, 1e-3)
        got = thresholds._root(f, 0.0, 1.0, f_lo, f_hi, 1e-3)
        assert calls[0] == 0.5 and 1.0 - 1e-3 <= got <= 1.0
    # subnormal values on both sides of a root: halving f_hi to −0.0 does
    # not stop the loop short of the root
    f, calls = _counted(lambda x: tiny if x < 0.9 else -tiny)
    assert abs(thresholds._root(f, 0.0, 1.0, tiny, -tiny, 1e-12) - 0.9
               ) <= 1e-12


def test_semicycle_threshold_values():
    assert semicycle_threshold(0.0) == pytest.approx(math.pi, abs=1e-9)
    assert semicycle_threshold(4.0) == pytest.approx(2 * SQRT2, abs=1e-6)
    expected = theta(1.0) + psi(1.0, 1.0)
    assert semicycle_threshold(1.0) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(DomainError):
        semicycle_threshold(-1.0)


@pytest.mark.parametrize("name", ["beta_iterate", "psi"])
def test_grid_above_limit_rejected_before_allocating(name):
    before = thresholds._psi_cached.cache_info()
    tracemalloc.start()
    try:
        with pytest.raises(DomainError,
                           match=f"above the limit of {thresholds._MAX_GRID}"):
            getattr(thresholds, name)(1.0, 1.0,
                                      grid_size=thresholds._MAX_GRID + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert thresholds._psi_cached.cache_info() == before
