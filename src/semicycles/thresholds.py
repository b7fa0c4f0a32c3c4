"""Descent/ascent thresholds for normalized delay oscillations.

The quantities computed here calibrate how fast an oscillatory solution of
x″(t) + p(t)·x(t−τ(t)) = 0 with esssup|p| ≤ 1 can traverse a semicycle:

* ``eval_r`` / ``theta`` — the extremal descent profile r_Δ (unit maximum,
  history ≡ 1, delay Δ) and its first zero ϑ_Δ ∈ [√2, π/2]. No solution can
  fall from a dominating extremum to a zero faster than r_Δ does.
* ``beta_iterate`` / ``psi`` — the minimal ascent time Ψ(ρ, Δ) from a zero to
  the semicycle extremum, when the pre-zero history is bounded by ρ relative
  to the extremum. Computed as the limit of a monotone profile iteration.
* ``psi_oracle_bvp`` — an independent check of Ψ by shooting on the limit
  boundary-value problem y″ + max{y, forcing} = 0.
* ``gamma_constant`` — the unique fixed point Ψ(1, γ) = γ.
* ``semicycle_threshold`` — Ψ(1, τ_m) + ϑ_{τ_m}, the ceiling on semicycle
  length compatible with non-growing oscillations.

ϑ, the ϖ of each ascent sweep and γ are roots of monotone functions on a
known bracket, all found by the one bisection ``_bisect`` (inlined in plain
floats for ϖ, which the sweeps probe most); the oracle keeps its own loops
so that it shares no code with the path it checks.

Cost. A Ψ solve takes about ten sweeps of about 100 µs each at the default
grid of 4096 nodes. The grid and its constants are built once per grid
size (a cache of 8 read-only entries) and the descent shape
r_Δ(ϑ_Δ − w − Δ) once per run of solves at one (Δ, grid size) (a cache of
one); each solve allocates its sweep buffers once; the limit profile is
built only when ``limit_profile`` is read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IterationLimitError, ShootingError

__all__ = [
    "ThresholdResult",
    "eval_r",
    "theta",
    "beta_iterate",
    "psi",
    "psi_oracle_bvp",
    "gamma_constant",
    "semicycle_threshold",
]

_SQRT2 = math.sqrt(2.0)
_HALF_PI = math.pi / 2.0

# series terms with peak magnitude below this are dropped; far below every
# tolerance used downstream, far above float64 noise accumulation
_SERIES_FLOOR = 1e-22
_SERIES_MAX_TERMS = 84  # (2k)! overflows float64 past k ≈ 85 anyway

# the fixed schemes behind Ψ, its oracle and γ
_SWEEP_TOL = 1e-10    # sweeps stop once consecutive ϖ differ by less
_MAX_SWEEPS = 500     # IterationLimitError past this many sweeps
_ORACLE_MESH = 4096   # RK4 steps of the shooting oracle over [0, 2]
_GAMMA_TOL = 1e-6     # width of γ's final bisection bracket
# largest Ψ sweep grid: 100× the largest grid_size the package's tests,
# scripts and README use (4096); a solve there peaks at about 50 MB
_MAX_GRID = 409_600


def _r_array(delta: float, ts: np.ndarray) -> np.ndarray:
    """Vectorized descent profile r_Δ(t) for t ≥ 0 (1 returned for t ≤ 0).

    r solves r″(t) + r(t−Δ) = 0 with r ≡ 1 for t ≤ 0 and r′(0) = 0; on each
    step interval the method-of-steps solution is the partial sum
    Σ_k (−1)^k·(t−(k−1)Δ)^{2k}/(2k)!, each term active where its base is
    positive, so one masked series covers every interval at once.
    """
    ts = np.asarray(ts, dtype=float)
    if delta == 0.0:
        return np.where(ts <= 0.0, 1.0, np.cos(ts))
    out = np.zeros_like(ts)
    pos = ts > 0.0
    if not np.any(pos):
        return np.ones_like(ts)
    t_pos = ts[pos]
    t_max = float(t_pos.max())
    acc = np.zeros_like(t_pos)
    sign = 1.0
    for k in range(_SERIES_MAX_TERMS):
        base = t_pos - (k - 1) * delta
        live = base > 0.0
        if not live.any():
            break
        max_base = t_max + delta if k == 0 else t_max - (k - 1) * delta
        if k > 2 and max_base ** (2 * k) / math.factorial(2 * k) < _SERIES_FLOOR:
            break
        term = np.zeros_like(t_pos)
        b = base[live]
        term[live] = b ** (2 * k) / math.factorial(2 * k)
        acc += sign * term
        sign = -sign
    out[pos] = acc
    out[~pos] = 1.0
    return out


def _bisect(above, lo: float, hi: float, width: float) -> float:
    """Midpoint of the first bracket [lo, hi] no wider than ``width``; each
    halving keeps the upper half (lo = mid) where ``above(mid)`` holds."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_rho(rho: float) -> None:
    if not (math.isfinite(rho) and rho > 0.0):
        raise DomainError(
            f"history bound must be finite and positive, got {rho}")


def _check_grid(grid_size: int) -> None:
    if grid_size < 64:
        raise DomainError(f"grid_size must be ≥ 64, got {grid_size}")
    if grid_size > _MAX_GRID:
        raise DomainError(f"grid_size {grid_size} is above the limit of "
                          f"{_MAX_GRID}")


def _check_delay(delta: float) -> None:
    if not (math.isfinite(delta) and delta >= 0.0):
        raise DomainError(
            f"delay must be finite and nonnegative, got {delta}")


def eval_r(delta: float, t: float) -> float:
    """Descent profile r_Δ at a single time (1 for t ≤ 0; cos(t) when Δ=0)."""
    delta = float(delta)
    _check_delay(delta)
    return float(_r_array(delta, np.asarray([t]))[0])


@functools.lru_cache(maxsize=8192)
def theta(delta: float) -> float:
    """First positive zero ϑ_Δ of the descent profile, in [√2, π/2].

    Bracketed on [1, π/2] (the profile starts at 1 and is negative at π/2 for
    every Δ > 0) and bisected on the series to ~1e−13.
    """
    delta = float(delta)
    _check_delay(delta)
    if delta < 1e-12:
        # ϑ_Δ → π/2 at rate O(Δ); below this the series value at π/2 is
        # indistinguishable from rounding noise, so take the limit directly
        return _HALF_PI
    lo, hi = 1.0, _HALF_PI
    f_lo = eval_r(delta, lo)
    f_hi = eval_r(delta, hi)
    if not (f_lo > 0.0 > f_hi - 1e-14):
        raise DomainError(
            f"descent profile bracket failed for delta={delta}: "
            f"r({lo})={f_lo}, r({hi})={f_hi}")
    return _bisect(lambda t: eval_r(delta, t) > 0.0, lo, hi, 1e-13)


# ----------------------------------------------------------------------
# the monotone profile iteration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the ascent iteration.

    psi : limit ascent time Ψ(ρ, Δ)
    iterations : number of profile sweeps taken
    omega_sequence : the nondecreasing ϖ_n values, one per sweep
    limit_profile : the limiting ascent profile, read-only, sampled on
        ``np.linspace(−Ψ, 0, grid_size)`` (1 at −Ψ, 0 at 0); built from the
        last sweep when first read
    """

    psi: float
    iterations: int
    omega_sequence: tuple
    # (w, g, I0, I1, root, I0(root), I1(root)) of the converged sweep
    _last_sweep: tuple = field(repr=False, compare=False)

    @functools.cached_property
    def limit_profile(self) -> np.ndarray:
        # sample the converged profile from its integral representation
        # (C² between carrier nodes), not by re-interpolating node values
        w, g, i0, i1, v_root, i0_v, i1_v = self._last_sweep
        ts = np.linspace(-self.psi, 0.0, w.size)
        i0_t, i1_t = _moment_partials(ts, w, g, i0, i1)
        profile = 1.0 - (ts * (i0_t - i0_v) - (i1_t - i1_v))
        profile[ts <= v_root] = 1.0
        profile.flags.writeable = False
        return profile


def _cumulative_moments(w: np.ndarray, g: np.ndarray):
    """Node values of I0(v)=∫_{w0}^{v} g and I1(v)=∫_{w0}^{v} w·g(w) dw for
    the piecewise-linear carrier g — exact per cell (trapezoid is exact for
    the 0th moment of a linear function, Simpson for the 1st).

    The reference form: a sweep computes the same floats in the same order
    into its grid's buffers (``_SweepGrid.moments``)."""
    h = w[1] - w[0]
    g0, g1 = g[:-1], g[1:]
    i0 = np.concatenate(([0.0], np.cumsum(0.5 * h * (g0 + g1))))
    wm = 0.5 * (w[:-1] + w[1:])
    gm = 0.5 * (g0 + g1)
    i1 = np.concatenate(([0.0], np.cumsum(
        (h / 6.0) * (w[:-1] * g0 + 4.0 * wm * gm + w[1:] * g1))))
    return i0, i1


def _moment_partials(v: np.ndarray, w: np.ndarray, g: np.ndarray,
                     i0: np.ndarray, i1: np.ndarray):
    """I0(v), I1(v) at an array of off-node points, exact for the linear
    carrier."""
    h = w[1] - w[0]
    vv = np.asarray(v, dtype=float)
    j = np.clip(np.floor((vv - w[0]) / h).astype(int), 0, w.size - 2)
    t0 = w[j]
    dv = vv - t0
    gv = g[j] + (g[j + 1] - g[j]) * (dv / h)
    p0 = 0.5 * dv * (g[j] + gv)
    vm = t0 + 0.5 * dv
    gm = 0.5 * (g[j] + gv)
    p1 = (dv / 6.0) * (t0 * g[j] + 4.0 * vm * gm + vv * gv)
    return i0[j] + p0, i1[j] + p1


def _moment_at(v: float, w: np.ndarray, g: np.ndarray,
               i0: np.ndarray, i1: np.ndarray):
    """Scalar ``_moment_partials`` in Python floats.

    Same operations in the same order, so every result is bit-identical to
    the vector path; ``item`` reads single nodes without converting arrays.
    """
    w0 = w.item(0)
    h = w.item(1) - w0
    j = min(max(math.floor((v - w0) / h), 0), w.size - 2)
    t0 = w.item(j)
    gj = g.item(j)
    dv = v - t0
    gv = gj + (g.item(j + 1) - gj) * (dv / h)
    p0 = 0.5 * dv * (gj + gv)
    vm = t0 + 0.5 * dv
    gm = 0.5 * (gj + gv)
    p1 = (dv / 6.0) * (t0 * gj + 4.0 * vm * gm + v * gv)
    return i0.item(j) + p0, i1.item(j) + p1


@functools.lru_cache(maxsize=8)
def _grid_constants(grid_size: int) -> tuple:
    """The sweep grid w = linspace(−π/2, 0, grid_size), read-only, and what
    every sweep reads of it: w0, the cell width h, the last cell index,
    4·(cell midpoints), h/2 and h/6."""
    w = np.linspace(-_HALF_PI, 0.0, grid_size)
    wm4 = 4.0 * (0.5 * (w[:-1] + w[1:]))
    w.flags.writeable = wm4.flags.writeable = False
    w0 = w.item(0)
    h = w.item(1) - w0
    return w, w0, h, grid_size - 2, wm4, 0.5 * h, h / 6.0


class _SweepGrid:
    """One solve's sweep grid: its constants (``_grid_constants``) and the
    buffers for g, I0, I1 and two scratch rows, which every sweep
    overwrites."""

    __slots__ = ("w", "w0", "h", "last", "wm4", "half_h", "h_6",
                 "g", "i0", "i1", "s", "t")

    def __init__(self, grid_size: int):
        (self.w, self.w0, self.h, self.last, self.wm4,
         self.half_h, self.h_6) = _grid_constants(grid_size)
        self.g = np.empty(grid_size)
        self.i0 = np.zeros(grid_size)
        self.i1 = np.zeros(grid_size)
        self.s = np.empty(grid_size - 1)
        self.t = np.empty(grid_size - 1)

    def moments(self) -> None:
        """``_cumulative_moments`` of the carrier in ``g``, into I0 and I1
        (whose first entries stay 0). Products are taken with the scalar
        on the right, which IEEE multiplication does not distinguish."""
        w, g, s, t = self.w, self.g, self.s, self.t
        g0, g1 = g[:-1], g[1:]
        np.add(g0, g1, out=s)
        np.multiply(s, self.half_h, out=t)
        t.cumsum(out=self.i0[1:])
        np.multiply(s, 0.5, out=s)            # gm
        np.multiply(self.wm4, s, out=s)       # 4·wm·gm
        np.multiply(w[:-1], g0, out=t)
        np.add(t, s, out=t)
        np.multiply(w[1:], g1, out=s)
        np.add(t, s, out=t)
        np.multiply(t, self.h_6, out=t)
        t.cumsum(out=self.i1[1:])


def _beta_step(grid: _SweepGrid, beta: np.ndarray, forcing: np.ndarray):
    """One sweep: integrand g = max{β, forcing}; find ϖ with
    ∫_{−ϖ}^0 (−u)·g(u) du = 1; rebuild β(t) = 1 − ∫_{−ϖ}^t (t−u)·g(u) du.

    Returns (ϖ, next β, the sweep internals (g, moments, root)); g and the
    moments are the grid's buffers, valid until its next sweep, from which
    the converged iteration samples its limit profile off-grid.

    A sweep makes three O(grid) passes into those buffers — g, the two
    cumulative moments of g, the rebuild of the suffix w > root — and a
    bisection of 41 plain-float probes, each an O(1) read of one cell's
    moments (``_moment_at`` inlined, bit-identical to it). At grid 4096 on
    a 2-vCPU x86-64 VM it takes about 100 µs, half of it in the moments,
    against 280 µs when every array operation allocated its result and
    each probe made three calls.
    """
    w = grid.w
    g = np.maximum(beta, forcing, out=grid.g)
    grid.moments()
    i0, i1 = grid.i0, grid.i1
    w_at, g_at, i1_at = w.item, g.item, i1.item
    i1_total = i1_at(-1)
    w0, h, last = grid.w0, grid.h, grid.last

    if _moment_at(w0, w, g, i0, i1)[1] - i1_total < 1.0:
        v_root = w0  # saturated: the whole domain cannot absorb a unit
    else:
        # ``_bisect`` on ∫_v^0 (−u)·g(u) du ≥ 1, read from the first moment
        # as in ``_moment_at``; v > w0, so truncation is its floor, and the
        # last ~30 probes share one cell, whose node reads are kept
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
        v_root = 0.5 * (lo + hi)

    i0_v, i1_v = _moment_at(v_root, w, g, i0, i1)
    # w ascends, so w > v_root is a suffix (empty for a NaN root)
    k = int(np.searchsorted(w, v_root, side="right"))
    m = w.size - k
    beta_next = np.empty_like(beta)
    beta_next[:k] = 1.0
    a, b = grid.s[:m], grid.t[:m]
    np.subtract(i0[k:], i0_v, out=a)
    np.multiply(w[k:], a, out=a)
    np.subtract(i1[k:], i1_v, out=b)
    np.subtract(a, b, out=a)
    np.subtract(1.0, a, out=beta_next[k:])
    return -v_root, beta_next, (g, i0, i1, v_root, i0_v, i1_v)


def _forcing_grid(rho: float, delta: float, w: np.ndarray) -> np.ndarray:
    """History forcing ρ·r_Δ(ϑ_Δ − w − Δ) on [−Δ, 0], zero left of −Δ.

    This is the upper envelope the pre-zero history contributes to the ascent
    profile equation; it vanishes at w = −Δ (the profile's zero) and plateaus
    at ρ once the shifted argument leaves the profile's support.
    """
    if delta == 0.0:
        return np.zeros_like(w)
    th = theta(delta)
    vals = rho * _r_array(delta, th - w - delta)
    vals[w < -delta] = 0.0
    return vals


# one entry: Ψ's callers solve the ρ of one Δ in a run (the CLI table row
# by row), and in every perfbench workload a larger cache adds no hit but
# holds one more grid of floats (32 KB at 4096 nodes) per entry
@functools.lru_cache(maxsize=1)
def _descent_shape(delta: float, grid_size: int) -> np.ndarray:
    """The forcing at ρ = 1 on the sweep grid, read-only. It does not
    depend on ρ, and ρ times it is ``_forcing_grid(ρ, Δ, w)`` bit for bit
    (ρ·1·r = ρ·r, ρ·0 = 0 for finite ρ > 0), so the cells of one Δ share
    one series evaluation."""
    shape = _forcing_grid(1.0, delta, _grid_constants(grid_size)[0])
    shape.flags.writeable = False
    return shape


def beta_iterate(rho: float, delta: float, grid_size: int = 4096
                 ) -> ThresholdResult:
    """Monotone ascent-profile iteration for Ψ(ρ, Δ) on a [−π/2, 0] grid.

    Starting from β₀ ≡ 1, each sweep finds the unique ϖ_n where the unit-mass
    condition holds and rebuilds the profile; ϖ_n increases monotonically to
    Ψ ≤ π/2. Stops when consecutive ϖ differ by less than 1e−10.

    Raises IterationLimitError (carrying the last two ϖ) past 500 sweeps.
    """
    rho, delta = float(rho), float(delta)
    _check_rho(rho)
    _check_delay(delta)
    _check_grid(grid_size)

    n = int(grid_size)
    grid = _SweepGrid(n)
    forcing = rho * _descent_shape(delta, n)
    beta = np.ones(n)
    omegas: list[float] = []
    for _ in range(_MAX_SWEEPS):
        omega, beta, sweep = _beta_step(grid, beta, forcing)
        omegas.append(omega)
        if len(omegas) >= 2 and abs(omegas[-1] - omegas[-2]) < _SWEEP_TOL:
            return ThresholdResult(psi=omega, iterations=len(omegas),
                                   omega_sequence=tuple(omegas),
                                   _last_sweep=(grid.w, *sweep))
    raise IterationLimitError(
        f"ascent iteration did not converge within {_MAX_SWEEPS} sweeps "
        f"(last ϖ: {omegas[-2]:.12f} → {omegas[-1]:.12f})",
        omega_prev=omegas[-2], omega_last=omegas[-1])


@functools.lru_cache(maxsize=8192)
def _psi_cached(rho: float, delta: float, grid_size: int) -> float:
    return beta_iterate(rho, delta, grid_size).psi


def psi(rho: float, delta: float, grid_size: int = 4096) -> float:
    """Minimal ascent time Ψ(ρ, Δ) — wrapper over beta_iterate.

    Always ≤ π/2 (+ grid tolerance); ≥ √2 whenever ρ ≤ 1. For ρ > 1 the
    plateau forcing exceeds the profile's own ceiling and Ψ drops below √2
    (down to √(2/ρ) for large Δ), so no lower clamp is applied.
    """
    rho, delta = float(rho), float(delta)
    _check_rho(rho)
    _check_delay(delta)
    _check_grid(grid_size)
    return _psi_cached(rho, delta, int(grid_size))


# ----------------------------------------------------------------------
# independent shooting oracle on the limit boundary-value problem
# ----------------------------------------------------------------------

_SHOOT_SPAN = 2.0  # the unit-peak profile peaks no later than π/2 < 2


def psi_oracle_bvp(rho: float, delta: float) -> float:
    """Ψ(ρ, Δ) by shooting on y″ + max{y, forcing} = 0.

    Written against the backward-time profile u ∈ [0, Ψ] (u = distance back
    from the zero): integrate y(0) = 0, y′(0) = m with a fixed-step 4th-order
    scheme (4096 steps over [0, 2]), locate the first stationary point, and
    bisect on m until the peak value is 1; Ψ is the stationary location.
    Completely independent of the profile iteration (different formulation,
    discretization and unknown).
    """
    rho, delta = float(rho), float(delta)
    _check_rho(rho)
    _check_delay(delta)
    n = _ORACLE_MESH
    h = _SHOOT_SPAN / n
    us = np.linspace(0.0, _SHOOT_SPAN, n + 1)
    if delta > 0.0:
        th = theta(delta)
        f_nodes = rho * _r_array(delta, th + us - delta)
        f_nodes[us > delta] = 0.0
        mid_us = us[:-1] + 0.5 * h
        f_mid = rho * _r_array(delta, th + mid_us - delta)
        f_mid[mid_us > delta] = 0.0
    else:
        f_nodes = np.zeros(n + 1)
        f_mid = np.zeros(n)

    def shoot(m: float):
        """Integrate until y′ crosses zero; return (peak value, location)."""
        y, v = 0.0, m
        for i in range(n):
            fn0, fm, fn1 = f_nodes[i], f_mid[i], f_nodes[i + 1]
            k1y = v
            k1v = -max(y, fn0)
            k2y = v + 0.5 * h * k1v
            k2v = -max(y + 0.5 * h * k1y, fm)
            k3y = v + 0.5 * h * k2v
            k3v = -max(y + 0.5 * h * k2y, fm)
            k4y = v + h * k3v
            k4v = -max(y + h * k3y, fn1)
            y1 = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            v1 = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if v1 <= 0.0 < v:
                # stationary point inside this step: bisect the Hermite slope
                lo_x, hi_x = 0.0, h
                for _ in range(60):
                    xm = 0.5 * (lo_x + hi_x)
                    s = xm / h
                    # derivative of the cubic Hermite interpolant of y
                    dy = (y * (6 * s * s - 6 * s) / h
                          + v * (3 * s * s - 4 * s + 1)
                          + y1 * (6 * s - 6 * s * s) / h
                          + v1 * (3 * s * s - 2 * s))
                    if dy > 0.0:
                        lo_x = xm
                    else:
                        hi_x = xm
                xs = 0.5 * (lo_x + hi_x)
                s = xs / h
                h00 = 2 * s ** 3 - 3 * s ** 2 + 1
                h10 = s ** 3 - 2 * s ** 2 + s
                h01 = -2 * s ** 3 + 3 * s ** 2
                h11 = s ** 3 - s ** 2
                peak = h00 * y + h10 * h * v + h01 * y1 + h11 * h * v1
                return peak, us[i] + xs
            y, v = y1, v1
        raise ShootingError(
            f"no stationary point before u = {_SHOOT_SPAN} (slope {m})")

    lo_m, hi_m = 0.25, 4.0
    while shoot(hi_m)[0] < 1.0:
        lo_m = hi_m
        hi_m *= 2.0
        if hi_m > 64.0:
            raise ShootingError("peak bracket failed: upper slope exhausted")
    while shoot(lo_m)[0] >= 1.0:
        hi_m = lo_m
        lo_m *= 0.5
        if lo_m < 1e-6:
            raise ShootingError("peak bracket failed: lower slope exhausted")
    for _ in range(60):
        mid = 0.5 * (lo_m + hi_m)
        if shoot(mid)[0] < 1.0:
            lo_m = mid
        else:
            hi_m = mid
    return shoot(0.5 * (lo_m + hi_m))[1]


# ----------------------------------------------------------------------
# derived constants
# ----------------------------------------------------------------------

def gamma_constant() -> float:
    """The unique fixed point Ψ(1, γ) = γ, bisected on [√2, π/2] to a
    1e−6 bracket; its 20 Ψ solves are held by ``psi``'s cache.

    g ↦ Ψ(1, g) is nonincreasing, so g ↦ Ψ(1, g) − g is strictly decreasing
    and the bracket endpoints have opposite signs (Ψ(1,√2) > √2 because √2
    is below the fixed point; Ψ(1,π/2) ≤ π/2 with equality only at Δ = 0).
    """
    lo, hi = _SQRT2, _HALF_PI
    if not (psi(1.0, lo) - lo > 0.0 >= psi(1.0, hi) - hi):
        raise ShootingError("fixed-point bracket failed on [√2, π/2]")
    return _bisect(lambda g: psi(1.0, g) - g > 0.0, lo, hi, _GAMMA_TOL)


def semicycle_threshold(tau_m: float) -> float:
    """Ψ(1, τ_m) + ϑ_{τ_m}: the semicycle-length ceiling for a normalized
    problem with delays bounded by τ_m."""
    return psi(1.0, tau_m) + theta(tau_m)
