"""Semicycle extraction, bound verification, and trajectory classification.

A semicycle is a maximal interval between adjacent zeros. For normalized
problems (esssup|p| ≤ 1) the theory bounds each semicycle's anatomy: the
ascent from the left zero to the extremum takes at least Ψ(ρ̂, Δ) and the
descent from a dominating extremum to the next zero at least ϑ_{τ_m} —
together L ≤ Ψ(1,τ_m) + ϑ_{τ_m} =: Θ is the boundary between decay and
possible growth. ``classify`` turns those bounds into honest finite-window
verdicts: *certified* verdicts invoke a theorem whose hypotheses were
verified on the window; *observed* verdicts only describe the window.

All margins carry a −1e−3 numerical allowance; hypothesis failures raise
NotApplicableError rather than producing a failing margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InsufficientWindowError,
    NotApplicableError,
    ResolutionError,
)
from .integrator import (
    _SCAN_TOL,
    DelayProblem,
    Trajectory,
    _zero_scan,
    extremum_events,
    fundamental_system,
    integrate,
    wronskian,
)
from .signals import PiecewiseSignal, signal_range
from .thresholds import gamma_constant, psi, semicycle_threshold, theta

__all__ = [
    "Semicycle",
    "Classification",
    "find_zeros",
    "semicycles",
    "check_descent",
    "check_ascent",
    "classify",
    "envelope_decay_ratio",
    "criterion_myshkis",
    "criterion_gustafson",
    "criterion_wronskian_2e",
    "verify_comparison",
    "wronskian_min",
]

_TWO_SQRT2 = 2.0 * math.sqrt(2.0)
_TWO_OVER_E = 2.0 / math.e
# most windows one envelope fit may take: about 100× the largest count in
# use (4.6, the decay suite's); each window masks every node once
_MAX_WINDOWS = 500
# the steps of verify_comparison's and wronskian_min's integrations
_COMPARISON_STEP = 0.01
_WRONSKIAN_STEP = 0.02


@dataclass(frozen=True)
class Semicycle:
    """One arch between adjacent zeros: a < w < b, |x(w)| = peak."""

    a: float
    b: float
    w: float
    peak: float
    sign: int

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Classification:
    """Verdict plus the (criterion, value, threshold) records behind it and
    the semicycles it was read from (empty when the window has no zeros)."""

    verdict: str
    evidence: tuple
    semicycles: tuple

    VERDICTS = (
        "tends_to_zero_certified",
        "bounded_certified",
        "unbounded_observed",
        "nonoscillatory_observed",
        "inconclusive",
    )


def find_zeros(traj: Trajectory, tol: float = _SCAN_TOL) -> list[tuple]:
    """All zeros of x as (time, degenerate) pairs refined to tol.

    Sign-change zeros are bisected on dense output; tangential touches
    (x = 0 with x′ = 0, no sign change) carry degenerate=True and still
    split semicycles.
    """
    return _zero_scan(traj, tol)[0]


def semicycles(traj: Trajectory, zeros, tol: float = _SCAN_TOL
               ) -> list[Semicycle]:
    """Semicycles between the adjacent (time, degenerate) zeros that
    ``find_zeros`` returns, peaks at the first interior stationary point
    (x′ sign change)."""
    times = [float(t) for t, _ in zeros]
    if sorted(times) != times:
        raise DomainError("zeros must be sorted")
    return _arcs(traj, times, extremum_events(traj, tol), tol)


def _arcs(traj: Trajectory, times: list, stationary: list, tol: float
          ) -> list[Semicycle]:
    """``semicycles`` between sorted zero times, given the stationary
    points to take the peaks from."""
    out: list[Semicycle] = []
    for a, b in zip(times[:-1], times[1:]):
        if b - a < 10.0 * tol:
            raise ResolutionError(
                f"adjacent zeros at {a} and {b} are separated by less than "
                f"10·tol = {10 * tol}")
        interior = [w for w in stationary if a + tol < w < b - tol]
        if interior:
            w = interior[0]
        else:
            # no slope sign change resolved: fall back to the sampled peak
            mask = (traj.ts > a) & (traj.ts < b)
            if not mask.any():
                raise ResolutionError(
                    f"no trajectory nodes inside semicycle ({a}, {b})")
            w = float(traj.ts[mask][np.abs(traj.xs[mask]).argmax()])
        value = traj.sample(w)
        out.append(Semicycle(a=a, b=b, w=w, peak=abs(value),
                             sign=1 if value >= 0.0 else -1))
    return out


# ----------------------------------------------------------------------
# windows spanning trajectory and pre-start history
# ----------------------------------------------------------------------

def _global_p_range(problem: DelayProblem) -> tuple:
    return signal_range(problem.p, problem.start, math.inf)


def _require_normalized(problem: DelayProblem):
    lo, hi = _global_p_range(problem)
    if max(abs(lo), abs(hi)) > 1.0 + 1e-9:
        raise NotApplicableError(
            f"problem is not normalized: esssup|p| = {max(abs(lo), abs(hi))}")


def _data_floor(problem: DelayProblem) -> float:
    """Earliest time with specified data. A constant history is data on
    the whole past; otherwise the history's own domain may still reach
    deeper than the start − τ_m slice the integrator consults."""
    if problem.history.is_constant():
        return -math.inf
    return min(problem.start - problem.tau_sup(math.inf),
               problem.history.breakpoints[0])


def _window_abs_max(traj: Trajectory, problem: DelayProblem,
                    lo: float, hi: float, n: int = 2048) -> float:
    """max |x| over [lo, hi], reading pre-start times from the history."""
    ts = np.linspace(lo, hi, n)
    split = np.searchsorted(ts, traj.start)
    best = float(np.abs(problem.history(ts[:split])).max(initial=0.0))
    if split < n:
        best = max(best, float(np.abs(traj.sample(ts[split:])).max()))
    return best


def check_descent(traj: Trajectory, sc: Semicycle, tau_m: float
                  ) -> tuple:
    """(satisfied, margin) for the descent bound b − w ≥ ϑ_{τ_m}.

    Applies to normalized problems whose extremum dominates the preceding
    [w − τ_m − ϑ, w] window; anything else raises NotApplicableError.
    """
    problem = traj.problem
    _require_normalized(problem)
    if not tau_m >= 0.0:
        raise DomainError(f"tau_m must be ≥ 0, got {tau_m}")
    th = theta(tau_m)
    lo = sc.w - tau_m - th
    floor = _data_floor(problem)
    if lo < floor - 1e-9:
        raise NotApplicableError(
            f"domination window [{lo}, {sc.w}] reaches below the history "
            f"domain floor {floor}")
    window_max = _window_abs_max(traj, problem, lo, sc.w)
    if window_max > sc.peak * (1.0 + 1e-6) + 1e-12:
        raise NotApplicableError(
            f"extremum {sc.peak} does not dominate its window "
            f"(max {window_max})")
    margin = (sc.b - sc.w) - th
    return margin >= -1e-3, margin


def check_ascent(traj: Trajectory, sc: Semicycle, delta: float) -> tuple:
    """(satisfied, margin) for the ascent bound w − a ≥ Ψ(ρ̂, Δ).

    ρ̂ is the pre-window max of |x| over [a − Δ − ϑ_Δ, a] relative to the
    semicycle peak. Δ must bound the delay.
    """
    problem = traj.problem
    _require_normalized(problem)
    tau_sup = problem.tau_sup(math.inf)
    if delta + 1e-9 < tau_sup:
        raise NotApplicableError(
            f"delta = {delta} does not bound the delay sup {tau_sup}")
    th = theta(delta)
    lo = sc.a - delta - th
    floor = _data_floor(problem)
    if lo < floor - 1e-9:
        raise NotApplicableError(
            f"pre-window [{lo}, {sc.a}] reaches below the history floor "
            f"{floor}")
    rho_hat = _window_abs_max(traj, problem, lo, sc.a) / sc.peak
    margin = (sc.w - sc.a) - psi(max(rho_hat, 1e-9), delta)
    return margin >= -1e-3, margin


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def envelope_decay_ratio(traj: Trajectory, stride: float,
                         t0: float | None = None) -> tuple:
    """Per-window geometric envelope ratio fitted over [t0 + n·stride].

    Returns (rho, peaks). Needs at least 3 full windows. Raises DomainError
    for a non-finite t0, for more than ``_MAX_WINDOWS`` windows, and for a
    stride too small to move a window end at the scale of t0 and the end.
    """
    if not stride > 0.0:
        raise DomainError(f"stride must be positive, got {stride}")
    if t0 is None:
        t0 = traj.start
    if not math.isfinite(t0):
        raise DomainError(f"t0 must be finite, got {t0}")
    end = traj.end + 1e-12
    count = (end - t0) / stride
    if count > _MAX_WINDOWS:
        raise DomainError(
            f"envelope fit from {t0} to {traj.end} with stride {stride} "
            f"needs {count:.3g} windows, more than the limit of "
            f"{_MAX_WINDOWS}")
    scale = max(abs(t0), abs(end))
    # below this, lo + stride can round back to lo and the windows stall
    if stride < 2.0 * math.ulp(scale):
        raise DomainError(f"stride {stride} is below the float spacing of "
                          f"the window ends, near {scale}")
    peaks = []
    lo = t0
    while lo + stride <= end:
        mask = (traj.ts >= lo) & (traj.ts <= lo + stride)
        if mask.any():
            peaks.append(float(np.abs(traj.xs[mask]).max()))
        lo += stride
    if len(peaks) < 3:
        raise InsufficientWindowError(
            f"only {len(peaks)} envelope windows of stride {stride} fit")
    arr = np.asarray(peaks)
    if arr.min() <= 0.0:
        raise DomainError("envelope fit needs strictly positive peaks")
    slope = np.polyfit(np.arange(arr.size), np.log(arr), 1)[0]
    return float(math.exp(slope)), peaks


def classify(problem: DelayProblem, traj: Trajectory, *,
             growth_factor: float = 1.5, tol: float = _SCAN_TOL
             ) -> Classification:
    """Finite-window verdict per the semicycle-length threshold Θ.

    In normalized units (multiply times by √esssup|p|): every observed
    semicycle strictly shorter than Θ certifies decay; lengths ≤ Θ with a
    positive delay certify boundedness; a nonpositive coefficient with
    normalized delay below γ certifies decay for oscillatory trajectories.
    Otherwise the window is described: no zeros → nonoscillatory_observed,
    a monotone peak envelope growing by ≥ growth_factor → unbounded_observed,
    else inconclusive. ``problem`` must be the one ``traj`` solves, and
    ``growth_factor`` finite and positive (DomainError otherwise).
    """
    if not 0.0 < growth_factor < math.inf:
        raise DomainError(
            f"growth_factor must be finite and positive, got {growth_factor}")
    if problem != traj.problem:
        raise DomainError("classify needs the problem the trajectory "
                          "solves; got another one")
    zeros, stationary = _zero_scan(traj, tol)
    p_lo, p_hi = _global_p_range(problem)
    p_bound = max(abs(p_lo), abs(p_hi))
    sqrt_p = math.sqrt(p_bound)
    tau_m = problem.tau_sup(math.inf)
    tau_norm = tau_m * sqrt_p
    theta_big = float(semicycle_threshold(tau_norm))
    window_norm = (traj.end - traj.start) * sqrt_p

    if not zeros:
        needed = tau_norm + 2.0 * theta_big
        if window_norm < needed:
            raise InsufficientWindowError(
                f"zero-free window of normalized length {window_norm} is "
                f"shorter than the certificate length {needed}")
        mid = 0.5 * (traj.start + traj.end)
        head = float(np.abs(traj.xs[traj.ts <= mid]).max())
        tail = float(np.abs(traj.xs[traj.ts >= mid]).max())
        evidence = (
            ("window_length_normalized", window_norm, needed),
            ("kamenskii_dichotomy", tail / max(head, 1e-300), 1.0),
        )
        return Classification("nonoscillatory_observed", evidence, ())

    arcs = tuple(_arcs(traj, [t for t, _ in zeros], stationary, tol))
    if len(arcs) < 3:
        raise InsufficientWindowError(
            f"only {len(arcs)} semicycles in the window; need ≥ 3")

    length_norm = max(sc.length for sc in arcs) * sqrt_p
    evidence = [("max_semicycle_length", length_norm, theta_big)]

    if theta_big - length_norm > 1e-9:
        return Classification("tends_to_zero_certified", tuple(evidence),
                              arcs)
    if length_norm <= theta_big + 1e-9 and tau_norm > 1e-12:
        return Classification("bounded_certified", tuple(evidence), arcs)
    if p_hi <= 1e-12:
        gamma = gamma_constant()
        evidence.append(("negative_coefficient_delay", tau_norm, gamma))
        if gamma - tau_norm > 1e-9:
            return Classification("tends_to_zero_certified",
                                  tuple(evidence), arcs)

    peaks = [sc.peak for sc in arcs]
    diffs = np.diff(peaks)
    ratio = peaks[-1] / max(peaks[0], 1e-300)
    evidence.append(("envelope_growth_ratio", ratio, growth_factor))
    if diffs.min(initial=0.0) >= -1e-9 * max(peaks) and ratio >= growth_factor:
        return Classification("unbounded_observed", tuple(evidence), arcs)
    return Classification("inconclusive", tuple(evidence), arcs)


# ----------------------------------------------------------------------
# closed-form criteria on the raw problem
# ----------------------------------------------------------------------

def criterion_myshkis(problem: DelayProblem) -> tuple:
    """(holds, strict, value) for τ_m·√(sup p) ≤ 2√2 with p ≥ 0."""
    p_lo, p_hi = _global_p_range(problem)
    if p_lo < -1e-12:
        raise NotApplicableError(
            f"criterion needs a nonnegative coefficient; min p = {p_lo}")
    value = problem.tau_sup(math.inf) * math.sqrt(max(p_hi, 0.0))
    return (value <= _TWO_SQRT2 + 1e-12,
            value < _TWO_SQRT2 - 1e-12,
            value)


def _weighted_abs_integral(p: PiecewiseSignal, a: float, lo: float,
                           hi: float) -> float:
    """∫_lo^hi (s − a)·(−p(s)) ds for nonpositive p, segment-exact."""
    if hi <= lo:
        return 0.0
    cuts = [lo] + [b for b in p.breakpoints if lo < b < hi] + [hi]
    total = 0.0
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (c0 + c1)
        idx = p.segment_index(mid)
        if idx < 0:
            coeffs, anchor = (p.left_extension,), 0.0
        elif idx >= len(p.segments):
            coeffs, anchor = (p.right_extension,), 0.0
        else:
            coeffs, anchor = p.segments[idx], p.breakpoints[idx]
        # product (u + anchor − a)·(−p_seg(u)) in local u = s − anchor
        neg = [-c for c in coeffs]
        prod = [0.0] * (len(neg) + 1)
        for j, c in enumerate(neg):
            prod[j] += (anchor - a) * c
            prod[j + 1] += c
        u0, u1 = c0 - anchor, c1 - anchor
        total += sum(c / (j + 1) * (u1 ** (j + 1) - u0 ** (j + 1))
                     for j, c in enumerate(prod))
    return total


def criterion_gustafson(problem: DelayProblem, horizon: float) -> tuple:
    """(holds, sup_value) for sup_t ∫_{t−τ}^{t}(s−t+τ(t))|p(s)|ds > 1.

    Needs p ≤ 0 and a nondecreasing delayed argument t − τ(t); the sup is
    taken over 801 evenly spaced points of [start, horizon] — a surrogate
    for the limsup, reported as such, never a certificate.
    """
    p_lo, p_hi = _global_p_range(problem)
    if p_hi > 1e-12:
        raise NotApplicableError(
            f"criterion needs a nonpositive coefficient; max p = {p_hi}")
    ts = np.linspace(problem.start, horizon, 801)
    lags = ts - problem.tau(ts)
    scale = max(1.0, abs(problem.start), abs(horizon))
    if np.diff(lags).min(initial=0.0) < -1e-9 * scale:
        raise NotApplicableError("delayed argument t − τ(t) is not "
                                 "nondecreasing on the grid")
    sup_value = 0.0
    for t, lag in zip(ts, lags):
        sup_value = max(sup_value,
                        _weighted_abs_integral(problem.p, float(lag),
                                               float(lag), float(t)))
    return sup_value > 1.0 + 1e-12, sup_value


def criterion_wronskian_2e(problem: DelayProblem) -> tuple:
    """(holds, value) for the no-zeros bound τ_m·√(esssup|p|) ≤ 2/e."""
    p_lo, p_hi = _global_p_range(problem)
    value = problem.tau_sup(math.inf) * math.sqrt(max(abs(p_lo), abs(p_hi)))
    return value <= _TWO_OVER_E + 1e-12, value


# ----------------------------------------------------------------------
# comparison of minorant/majorant pairs
# ----------------------------------------------------------------------

def verify_comparison(minorant: DelayProblem, majorant: DelayProblem,
                      horizon: float) -> tuple:
    """(ok, worst_violation) for the ratio comparison z/z(0) ≥ y/y(0).

    The majorant y must have P ≥ |p| and T ≥ τ, positive nonincreasing
    initial data, and the minorant data must satisfy |z(t)/z(0)| ≤ y(t)/y(0)
    on [s−τ_m, s] (slope condition instead when τ_m = 0). Violated
    hypotheses raise NotApplicableError. Both are integrated at step 0.01
    and compared up to y's first zero; worst_violation is 0 when the
    conclusion never fails.
    """
    _check_comparison(minorant, majorant, horizon)
    return _comparison_violation(
        integrate(minorant, horizon, _COMPARISON_STEP),
        integrate(majorant, horizon, _COMPARISON_STEP), horizon)


def _check_comparison(minorant: DelayProblem, majorant: DelayProblem,
                      horizon: float) -> None:
    """``verify_comparison``'s hypotheses: NotApplicableError if one fails."""
    s = minorant.start
    if abs(majorant.start - s) > 1e-12:
        raise NotApplicableError("problems must share their start time")

    ts = np.linspace(s, horizon, 1001)
    pz, py = minorant.p(ts), majorant.p(ts)
    low_p = py < np.abs(pz) - 1e-9
    low_tau = majorant.tau(ts) < minorant.tau(ts) - 1e-9
    i = int(np.argmax(low_p | low_tau))  # the first failing t, if any
    if low_p[i]:
        raise NotApplicableError(f"majorant coefficient {py.item(i)} < "
                                 f"|{pz.item(i)}| at t = {ts[i]}")
    if low_tau[i]:
        raise NotApplicableError(f"majorant delay below minorant at {ts[i]}")

    big_tau = majorant.tau_sup(math.inf)
    small_tau = minorant.tau_sup(math.inf)
    y0 = majorant.initial_value
    if not y0 > 0.0:
        raise NotApplicableError(f"majorant must start positive, y(0) = {y0}")
    if majorant.initial_slope > 1e-9:
        raise NotApplicableError(
            f"majorant must start nonincreasing, y′(0) = "
            f"{majorant.initial_slope}")
    if big_tau > 1e-12:
        hist_ts = np.linspace(s - big_tau, s, 400)
        hist_vals = majorant.history(hist_ts)
        if hist_vals.min() <= 0.0:
            raise NotApplicableError("majorant history must be positive")
        if np.diff(hist_vals).max(initial=0.0) > 1e-9 * hist_vals.max():
            raise NotApplicableError("majorant history must be nonincreasing")
        if abs(majorant.history.eval_left(s) - y0) > 1e-9 * max(1.0, abs(y0)):
            raise NotApplicableError("majorant data jumps at the start time")

    z0 = minorant.initial_value
    if z0 == 0.0:
        raise NotApplicableError("minorant must have z(0) ≠ 0")
    if small_tau > 1e-12:
        data_ts = np.linspace(s - small_tau, s, 400)
        zb = np.abs(minorant.history(data_ts)) / abs(z0)
        yb = majorant.history(data_ts) / y0
        above = zb > yb + 1e-9
        if above.any():
            raise NotApplicableError(f"minorant data exceeds the majorant "
                                     f"bound at t = {data_ts[above.argmax()]}")
    else:
        if (minorant.initial_slope / z0
                < majorant.initial_slope / y0 - 1e-12):
            raise NotApplicableError(
                "zero-delay comparison needs z′(0)/z(0) ≥ y′(0)/y(0)")


def _comparison_violation(z_traj: Trajectory, y_traj: Trajectory,
                          horizon: float) -> tuple:
    """``verify_comparison``'s (ok, worst_violation) from the minorant's and
    the majorant's trajectories."""
    s = z_traj.problem.start
    z0 = z_traj.problem.initial_value
    y0 = y_traj.problem.initial_value
    y_zeros = find_zeros(y_traj)
    t_end = y_zeros[0][0] if y_zeros else horizon
    if t_end <= s:
        return True, 0.0
    qs = np.linspace(s, t_end - 1e-9 * (t_end - s), 2000)
    ratio_z = z_traj.sample(qs) / z0
    ratio_y = y_traj.sample(qs) / y0
    worst = float(np.maximum(ratio_y - ratio_z, 0.0).max())
    return worst <= 1e-6, worst


# ----------------------------------------------------------------------
# Wronskian positivity helper (2/e regime)
# ----------------------------------------------------------------------

def wronskian_min(problem: DelayProblem, horizon: float) -> float:
    """min W(t) of the fundamental system (integrated at step 0.02) over
    400 evenly spaced points of [start, horizon]."""
    z, y = fundamental_system(problem.p, problem.tau, problem.start,
                              horizon, _WRONSKIAN_STEP)
    return _least_wronskian(z, y, horizon)


def _least_wronskian(z: Trajectory, y: Trajectory, horizon: float) -> float:
    """``wronskian_min`` from the fundamental system (z, y)."""
    ts = np.linspace(z.problem.start, horizon, 400)
    return float(wronskian(z, y, ts).min())
