"""Descent profile, ascent iteration, shooting oracle, and their constants.

Expected values marked "independent oracle" were frozen from
scripts/crosscheck_constants.py (mpmath series bisection + scipy shooting)
before this module's implementation existed.
"""

import math
import tracemalloc
import warnings

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
from semicycles import thresholds
from semicycles.thresholds import (
    _SweepGrid,
    _beta_step,
    _cumulative_moments,
    _descent_shape,
    _forcing_grid,
    _moment_at,
    _moment_partials,
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


def test_r_second_segment_series():
    # on [Δ, 2Δ] the profile is 1 − t²/2 + (t−Δ)⁴/24
    d, t = 1.0, 1.3
    expected = 1 - t**2 / 2 + (t - d)**4 / 24
    assert eval_r(d, t) == pytest.approx(expected, rel=1e-14)


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
    """ϑ_Δ by the bisection loop written out in place, as before the shared
    root finder: the oracle of ``theta``."""
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


def test_theta_bit_identical_to_inline_bisection():
    deltas = [0.0, 1e-13] + [round(0.05 * k, 12) for k in range(1, 61)]
    deltas.append(2 * SQRT2)
    for d in deltas:
        assert theta(d) == _loop_theta(d), d


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
        _, beta, _ = _beta_step(grid, prev, forcing)
        # slack = the ϖ-bisection width (β(0) carries exactly that noise)
        assert np.all(beta <= prev + 1e-11)
        prev = beta


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
            _, beta, _ = _beta_step(grid, beta, forcing)
        g = np.maximum(beta, forcing)
        i0, i1 = _cumulative_moments(w, g)
        vs = np.concatenate((rng.uniform(-HALF_PI, 0.0, 2000), w[::97],
                             [w[0], w[-1], w[0] - 1e-3, 1e-3]))
        m0, m1 = _moment_partials(vs, w, g, i0, i1)
        for v, a0, a1 in zip(vs.tolist(), m0.tolist(), m1.tolist()):
            assert _moment_at(v, w, g, i0, i1) == (a0, a1), (rho, d, v)


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
        assert res.omega_sequence == tuple(omegas), (rho, d, n)
        assert res.iterations == len(omegas), (rho, d, n)
        assert res.psi == omega, (rho, d, n)
        assert np.array_equal(res.limit_profile, profile), (rho, d, n)
        assert res.limit_profile is res.limit_profile


def test_single_sweeps_bit_identical_to_vector_probes():
    """Single sweeps agree exactly with the vector-path oracle, including a
    saturated one: a domain holding less than a unit moment gives ϖ = π/2."""
    w = np.linspace(-HALF_PI, 0.0, 4096)
    beta = np.full_like(w, 0.5)  # ∫(−u)·½ du over [−π/2, 0] = π²/16 < 1
    forcing = np.zeros_like(w)
    omega, beta_next, _ = _beta_step(_SweepGrid(w.size), beta, forcing)
    ref_omega, ref_next, _ = _oracle_step(w, beta, forcing)
    assert omega == ref_omega == HALF_PI
    assert np.array_equal(beta_next, ref_next)
    for rho, d, n in SWEEP_CORPUS:
        w = np.linspace(-HALF_PI, 0.0, n)
        grid = _SweepGrid(n)  # one grid, its buffers reused by every sweep
        assert np.array_equal(grid.w, w)
        forcing = _forcing_grid(rho, d, w)
        prev = np.ones_like(w)
        for _ in range(4):
            omega, nxt, (g, i0, i1, *_) = _beta_step(grid, prev, forcing)
            ref_omega, ref_next, (rg, ri0, ri1, *_) = _oracle_step(
                w, prev, forcing)
            assert omega == ref_omega, (rho, d, n)
            assert np.array_equal(nxt, ref_next), (rho, d, n)
            assert np.array_equal(g, rg) and np.array_equal(i0, ri0) \
                and np.array_equal(i1, ri1), (rho, d, n)
            prev = nxt


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
])
def test_non_finite_arguments_rejected(name, args, message):
    """A NaN or infinite ρ or Δ is refused before any work: no warning, no
    Ψ cache entry (Ψ(∞, Δ) used to come out as π/2)."""
    before = thresholds._psi_cached.cache_info()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            getattr(thresholds, name)(*args)
    assert thresholds._psi_cached.cache_info() == before


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


def test_gamma_bit_identical_to_inline_bisection():
    lo, hi = SQRT2, HALF_PI
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if psi(1.0, mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    assert gamma_constant() == 0.5 * (lo + hi)


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
