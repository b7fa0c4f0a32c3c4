"""Piecewise-signal evaluation, essential ranges, and the JSON schema."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semicycles import (
    DomainError,
    PiecewiseSignal,
    signal_from_dict,
    signal_range,
    signal_to_dict,
)

SQRT2 = math.sqrt(2.0)


def _sup_abs(sig, lo, hi):
    """Essential supremum of |sig| over [lo, hi], from its essential range."""
    r_lo, r_hi = signal_range(sig, lo, hi)
    return max(abs(r_lo), abs(r_hi))


def test_constant_signal_everywhere():
    sig = PiecewiseSignal.constant(1.0)
    for t in (-1e6, -1.0, 0.0, 0.5, 3.0, 1e6):
        assert sig(t) == 1.0


def test_right_continuity_at_switch():
    # −1 on [0, ε), +1 on [ε, A); value at the switch is the right segment's
    eps, A = 0.1, 3.2
    sig = PiecewiseSignal((0.0, eps, A), ((-1.0,), (1.0,)), -1.0, 1.0)
    assert sig(eps) == 1.0
    assert sig(eps - 1e-12) == -1.0
    assert sig.eval_left(eps) == -1.0


def test_affine_delay_segment_value():
    # delay growing affinely from √2: τ(t) = t + √2 on [0, B)
    B = 2 * SQRT2
    sig = PiecewiseSignal((0.0, B), ((SQRT2, 1.0),), SQRT2, SQRT2)
    assert sig(0.0) == pytest.approx(SQRT2, abs=1e-15)
    assert sig(1.0) == pytest.approx(1.0 + SQRT2, abs=1e-15)


def test_esssup_constant():
    sig = PiecewiseSignal.constant(1.0)
    assert _sup_abs(sig, 0.0, 10.0) == 1.0


def test_esssup_alternating_signs():
    eps, A = 0.1, 3.2
    sig = PiecewiseSignal((0.0, eps, A), ((-1.0,), (1.0,)), -1.0, 1.0)
    assert _sup_abs(sig, 0.0, A) == 1.0


def test_esssup_linear_endpoint():
    sig = PiecewiseSignal((0.0, 3.0), ((0.0, 2.0),), 0.0, 6.0)
    assert _sup_abs(sig, 0.0, 3.0) == pytest.approx(6.0, abs=1e-12)


def test_esssup_interior_critical_point():
    # u² − 2u on [0, 2]: endpoints 0, interior minimum −1 at u = 1
    sig = PiecewiseSignal((0.0, 2.0), ((0.0, -2.0, 1.0),), 0.0, 0.0)
    assert _sup_abs(sig, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert signal_range(sig, 0.0, 2.0) == pytest.approx((-1.0, 0.0), abs=1e-12)


def test_esssup_empty_interval_is_domain_error():
    sig = PiecewiseSignal.constant(1.0)
    with pytest.raises(DomainError):
        _sup_abs(sig, 1.0, 0.0)


def test_esssup_ignores_breakpoint_value():
    # right-continuity puts value 5 at the single point t = 1, but the
    # essential supremum over [0, 1] ignores measure-zero sets
    sig = PiecewiseSignal((0.0, 1.0), ((0.5,),), 0.5, 5.0)
    assert _sup_abs(sig, 0.0, 1.0) == 0.5
    assert _sup_abs(sig, 0.0, 1.1) == 5.0


def test_invalid_construction():
    with pytest.raises(DomainError):
        PiecewiseSignal((1.0, 0.0), ((1.0,),), 0.0, 0.0)
    with pytest.raises(DomainError):
        PiecewiseSignal((0.0, 1.0), (), 0.0, 0.0)


@pytest.mark.parametrize("bps, segs, left, right", [
    ((0.0, math.nan), ((1.0,),), 0.0, 0.0),
    ((-math.inf, 0.0), ((1.0,),), 0.0, 0.0),
    ((0.0, 1.0), ((1.0, math.inf),), 0.0, 0.0),
    ((0.0, 1.0), ((math.nan,),), 0.0, 0.0),
    ((0.0, 1.0), ((1.0,),), math.nan, 0.0),
    ((0.0, 1.0), ((1.0,),), 0.0, -math.inf),
])
def test_non_finite_signal_rejected(bps, segs, left, right):
    with pytest.raises(DomainError, match="finite"):
        PiecewiseSignal(bps, segs, left, right)


def _searchsorted_segment(sig, t):
    """Segment lookup through np.searchsorted, the reference for bisect."""
    bps = sig.breakpoints
    if t < bps[0]:
        return -1
    if t >= bps[-1]:
        return len(sig.segments)
    return int(np.searchsorted(bps, t, side="right")) - 1


def _searchsorted_eval_left(sig, t):
    bps = sig.breakpoints
    if t <= bps[0]:
        return sig.left_extension
    if t > bps[-1]:
        return sig.right_extension
    idx = int(np.searchsorted(bps, t, side="left")) - 1
    return sig.eval_in_segment(idx, t)


@st.composite
def _signal(draw):
    bps = sorted(set(draw(st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1,
        max_size=6))))
    segs = tuple(tuple(draw(st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1,
        max_size=3))) for _ in bps[1:])
    return PiecewiseSignal(tuple(bps), segs, draw(st.floats(-3, 3)),
                           draw(st.floats(-3, 3)))


def _times_near(sig):
    """Breakpoints, their neighbours, NaN, ±inf and times on both tails."""
    b = st.sampled_from(sig.breakpoints)
    return st.one_of(
        b,
        b.map(lambda x: float(np.nextafter(x, -math.inf))),
        b.map(lambda x: float(np.nextafter(x, math.inf))),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.floats(min_value=-60, max_value=60))


@st.composite
def _signal_and_time(draw):
    sig = draw(_signal())
    return sig, draw(_times_near(sig))


@settings(max_examples=300, deadline=None)
@given(_signal_and_time())
def test_bisect_lookup_matches_searchsorted(case):
    sig, t = case
    assert sig.segment_index(t) == _searchsorted_segment(sig, t)
    got, want = sig.eval_left(t), _searchsorted_eval_left(sig, t)
    assert got == want or (math.isnan(got) and math.isnan(want))


def _same_float(a, b):
    """Equal with equal sign (so 0.0 is not -0.0), or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_array_evaluation_equals_scalar_calls(data):
    # segments of degree 0–2 side by side: the array path pads the shorter
    sig = data.draw(_signal())
    points = data.draw(st.lists(_times_near(sig), min_size=1, max_size=12))
    ts = np.array(points)
    idx = sig.segment_index(ts)
    assert idx.tolist() == [sig.segment_index(t) for t in points]
    assert all(map(_same_float, sig(ts).tolist(), map(sig, points)))
    # every segment and both extensions at every point (one-sided limits)
    for k in range(-1, len(sig.segments) + 1):
        assert all(_same_float(v, sig.eval_in_segment(k, t)) for v, t in
                   zip(sig.eval_in_segment(k, ts).tolist(), points))
    # an index row broadcast against stacked stage times, as in a chunk plan
    stacked = sig.eval_in_segment(idx, np.stack((ts, ts)))
    assert all(_same_float(v, sig.eval_in_segment(k, t)) for row in
               stacked.tolist() for v, k, t in zip(row, idx.tolist(), points))


def _pointwise(sig, index, t):
    """``eval_in_segment`` one scalar call per point, broadcast like the
    array call."""
    idx, tt = np.broadcast_arrays(index, t)
    return [sig.eval_in_segment(k, x)
            for k, x in zip(idx.ravel().tolist(), tt.ravel().tolist())]


_RUN_SIGNALS = {
    "segments": PiecewiseSignal((0.0, 1.0, 2.5, 4.0),
                                ((0.3, -1.2, 0.7), (2.0,), (-0.4, 0.9)),
                                1.5, -2.5),
    "no_segments": PiecewiseSignal((0.5,), (), 0.25, -0.75),
}


@pytest.mark.parametrize("runs", ["one", "few", "many"])
@pytest.mark.parametrize("name", sorted(_RUN_SIGNALS))
def test_run_wise_evaluation_equals_scalar_calls(name, runs):
    sig = _RUN_SIGNALS[name]
    n = len(sig.segments)
    rng = np.random.default_rng([n, len(runs)])
    m = 120
    # every index from the left extension (−1) to the right one (n)
    if runs == "one":
        index = np.full(m, n // 2)
    elif runs == "few":
        index = np.repeat(np.arange(-1, n + 1), -(-m // (n + 2)))[:m]
    else:
        index = rng.integers(-1, n + 1, m)
    cuts = np.count_nonzero(np.diff(index))
    assert (cuts == 0) if runs == "one" else (
        cuts > 4 * (n + 2) if runs == "many" else 0 < cuts <= n + 1)
    t = rng.uniform(-1.0, 5.0, (3, m))
    t[0, :3] = (math.nan, math.inf, -math.inf)
    # an (m,) index against (3, m) stage times, as in a chunk plan; the
    # same index per point; one row; and one int index for every point
    for idx, times in ((index, t), (np.broadcast_to(index, t.shape), t),
                       (index, t[1]), (np.intp(n), t), (-1, t[2])):
        got = sig.eval_in_segment(idx, times)
        assert got.shape == np.broadcast_shapes(np.shape(idx), times.shape)
        assert all(map(_same_float, got.ravel().tolist(),
                       _pointwise(sig, idx, times)))


def test_run_wise_evaluation_of_empty_arrays():
    sig = _RUN_SIGNALS["segments"]
    for idx, times in ((np.zeros(0, dtype=np.intp), np.zeros((3, 0))),
                       (0, np.zeros(0))):
        assert sig.eval_in_segment(idx, times).shape == times.shape


coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1,
    max_size=5)


@settings(max_examples=200, deadline=None)
@given(coeffs=coeff_lists,
       width=st.floats(min_value=0.1, max_value=5.0),
       frac=st.floats(min_value=0.0, max_value=0.999),
       t0=st.floats(min_value=-5.0, max_value=5.0))
def test_eval_matches_direct_polynomial(coeffs, width, frac, t0):
    sig = PiecewiseSignal((t0, t0 + width), (tuple(coeffs),), 0.0, 0.0)
    t = t0 + frac * width
    u = t - t0
    direct = float(np.polyval(list(reversed(coeffs)), u))
    assert sig(t) == pytest.approx(direct, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(coeffs=coeff_lists,
       lo=st.floats(min_value=-3.0, max_value=3.0),
       w1=st.floats(min_value=0.01, max_value=2.0),
       w2=st.floats(min_value=0.01, max_value=2.0),
       shrink=st.floats(min_value=0.0, max_value=0.49))
# a 6.6e-236 lead used to reach np.roots, which then lost the critical
# point u = √(2/3): the subinterval reported 1.08 against 1.0 for the interval
@example(coeffs=[0.0, 2.0, 0.0, -1.0, 6.6e-236], lo=0.0, w1=1.0, w2=1.0,
         shrink=0.375)
def test_esssup_monotone_under_inclusion(coeffs, lo, w1, w2, shrink):
    """esssup over a subinterval never exceeds esssup over the interval."""
    sig = PiecewiseSignal((lo, lo + w1), (tuple(coeffs),), 0.3, -0.7)
    big = (lo - w2, lo + w1 + w2)
    width = big[1] - big[0]
    small = (big[0] + shrink * width, big[1] - shrink * width)
    assert _sup_abs(sig, *small) <= _sup_abs(sig, *big) + 1e-12


def test_esssup_survives_subnormal_leading_coefficient():
    # found by the inclusion property test: a subnormal quadratic term used
    # to overflow the companion matrix inside the critical-point scan
    sig = PiecewiseSignal((0.0, 1.0), ((0.0, 1.0, 2.225073858507e-311),),
                          0.3, -0.7)
    assert _sup_abs(sig, -1.0, 2.0) == pytest.approx(1.0, rel=1e-9)


def test_esssup_finds_critical_point_behind_negligible_lead():
    # 2u − u³ peaks at u = √(2/3); the quartic term is far below float
    # precision on [0, 1] and must not hide that critical point
    sig = PiecewiseSignal((0.0, 1.0), ((0.0, 2.0, 0.0, -1.0, 6.6e-236),),
                          0.3, -0.7)
    peak = 2.0 * math.sqrt(2.0 / 3.0) - (2.0 / 3.0) ** 1.5
    assert _sup_abs(sig, -1.0, 2.0) == pytest.approx(peak, rel=1e-12)


def test_json_round_trip():
    sig = PiecewiseSignal((0.0, 1.0, 2.5), ((1.0, -2.0), (0.0, 0.0, 3.0)),
                          -4.0, 2.0)
    again = signal_from_dict(signal_to_dict(sig))
    assert again == sig
    with pytest.raises(DomainError):
        signal_from_dict({"breakpoints": [0.0]})

