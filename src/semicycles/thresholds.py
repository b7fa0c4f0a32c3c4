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
known bracket. ϑ and γ are found by the one Illinois regula falsi ``_root``
(about 11 series evaluations per ϑ, 5 Ψ solves for γ, against 45 and 20
by bisection), and so is every zero and extremum of the integrator's
scans, on its step's cubic; each sweep bisects ϖ to a 1e−12 bracket, but
reads the moments only at the probes within a stated rounding bound of the
root, which a Newton solve on the root's cell finds first
(``_root_window``), so that ϖ is the plain bisection's bit for bit. The
oracle keeps its own loops, Illinois on its launch slope, so that it
shares no code with the path it checks.

Cost. A Ψ solve takes about ten sweeps of about 60 µs each at the default
grid of 4096 nodes, 37 µs of each in the moments; finding ϖ takes about
8 µs of it, against 30 µs when every probe read the moments, as about one
sweep in 30 evaluates a probe. The grid and its constants are built once
per grid size (a cache of 8 read-only entries) and the descent shape
r_Δ(ϑ_Δ − w − Δ) once per run of solves at one (Δ, grid size) (a cache of
one); each solve allocates its sweep buffers once; the limit profile is
built only when ``limit_profile`` is read. ϑ's series is summed in Python
floats, 1–6 µs per evaluation, whatever SIMD kernels numpy dispatches.
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
# (2k)! for the series' 84 terms; it overflows float64 past k ≈ 85 anyway
_FACTORIALS = tuple(float(math.factorial(2 * k)) for k in range(84))

# the fixed schemes behind Ψ, its oracle and γ
_SWEEP_TOL = 1e-10    # sweeps stop once consecutive ϖ differ by less
_MAX_SWEEPS = 500     # IterationLimitError past this many sweeps
_ORACLE_MESH = 4096   # RK4 steps of the shooting oracle over [0, 2]
_GAMMA_TOL = 1e-6     # width of γ's final root bracket
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
    out = np.ones_like(ts)
    pos = ts > 0.0
    if not np.any(pos):
        return out
    t_pos = ts[pos]
    t_max = float(t_pos.max())
    acc = np.zeros_like(t_pos)
    sign = 1.0
    for k, fact in enumerate(_FACTORIALS):
        base = t_pos - (k - 1) * delta
        live = base > 0.0
        if not live.any():
            break
        max_base = t_max + delta if k == 0 else t_max - (k - 1) * delta
        if k > 2 and max_base ** (2 * k) / fact < _SERIES_FLOOR:
            break
        term = np.zeros_like(t_pos)
        b = base[live]
        term[live] = b ** (2 * k) / fact
        acc += sign * term
        sign = -sign
    out[pos] = acc
    return out


def _r_scalar(delta: float, t: float) -> tuple:
    """``_r_array`` at one time in Python floats, and 2⁻⁵³·n·Σ|term|, which
    bounds the rounding of the n terms it summed (0 where it sums no
    series: t ≤ 0 or Δ = 0): the same terms in the same order, each power
    by the C library's ``pow``, which does not change with the SIMD kernel
    numpy dispatches on a host (on AVX-512 its vector power rounds some
    powers differently).

    Raises DomainError where the series cannot be summed: a power that
    overflows, or terms still above ``_SERIES_FLOOR`` at the last one."""
    if not t > 0.0:
        return 1.0, 0.0
    if delta == 0.0:
        return math.cos(t), 0.0
    acc, sign, size = 0.0, 1.0, 0.0
    for k, fact in enumerate(_FACTORIALS):
        base = t - (k - 1) * delta
        if not base > 0.0:
            break
        try:
            term = base ** (2 * k) / fact
        except OverflowError:
            raise DomainError(
                f"descent profile series at t={t}, delta={delta}: term "
                f"{k} overflows") from None
        if k > 2 and term < _SERIES_FLOOR:
            break
        acc += sign * term
        sign = -sign
        size += term
    else:
        raise DomainError(
            f"descent profile series at t={t}, delta={delta} needs more "
            f"than {len(_FACTORIALS)} terms")
    # k terms summed: the break is at term k
    return acc, 2.0 ** -53 * k * size


def _root(f, lo: float, hi: float, f_lo: float, f_hi: float,
          width: float) -> float:
    """Midpoint of the first bracket [lo, hi] no wider than ``width``, by
    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): ϑ, γ and every
    zero and extremum scan (``integrator._refine``) are solved by it.

    ``f`` is positive at lo and not at hi (``f_lo`` > 0 ≥ ``f_hi``, the
    values already known); a probe where ``f`` is positive replaces lo,
    any other replaces hi. Each probe is the secant point of the bracket,
    or its midpoint when that point is not strictly inside or the two end
    values are equal (no secant point); when two probes in a row
    replace the same end, the other end's value is halved. A probe where
    ``f`` is exactly 0 is returned, and so is the midpoint of adjacent
    floats, which no probe can split.
    """
    side = 0
    while hi - lo > width:
        x = 0.5 * (lo + hi)
        if not lo < x < hi:
            return x  # lo and hi are adjacent floats
        if f_lo != f_hi:
            secant = hi + (hi - lo) * f_hi / (f_lo - f_hi)
            if lo < secant < hi:
                x = secant
        fx = f(x)
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


def _check_rho(rho: float) -> None:
    if not (math.isfinite(rho) and rho > 0.0):
        raise DomainError(
            f"history bound must be finite and positive, got {rho}")


def _check_grid(grid_size: int) -> None:
    # NaN and ±∞ are no integers either; 100.7 would be solved at grid 100
    if not float(grid_size).is_integer():
        raise DomainError(f"grid_size must be an integer, got {grid_size}")
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
    """Descent profile r_Δ at a single time (1 for t ≤ 0; cos(t) when Δ=0).

    Raises DomainError for a non-finite t, where the series cannot be
    summed at t, and where ``_r_scalar``'s bound on the rounding of the
    terms it summed exceeds 1e−6 of max(1, |r|): from about t = 20 at small
    Δ (Σ|term| ≈ cosh t), far beyond ϑ_Δ + 2, the latest time the package
    reads.
    """
    delta, t = float(delta), float(t)
    _check_delay(delta)
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t}")
    r, bound = _r_scalar(delta, t)
    if not bound <= 1e-6 * max(1.0, abs(r)):
        raise DomainError(
            f"descent profile series at t={t}, delta={delta}: rounding "
            f"bound {bound:.3g} exceeds 1e-6·max(1, |r|), r = {r:.6g}")
    return r


@functools.lru_cache(maxsize=8192)
def theta(delta: float) -> float:
    """First positive zero ϑ_Δ of the descent profile, in [√2, π/2].

    Bracketed on [1, π/2] (the profile starts at 1 and is negative at π/2 for
    every Δ > 0) and found on the series by ``_root`` to a 1e−13 bracket.
    """
    delta = float(delta)
    _check_delay(delta)
    if delta < 1e-12:
        # ϑ_Δ → π/2 at rate O(Δ); below this the series value at π/2 is
        # indistinguishable from rounding noise, so take the limit directly
        return _HALF_PI
    lo, hi = 1.0, _HALF_PI
    f_lo = _r_scalar(delta, lo)[0]
    f_hi = _r_scalar(delta, hi)[0]
    if not (f_lo > 0.0 > f_hi - 1e-14):
        raise DomainError(
            f"descent profile bracket failed for delta={delta}: "
            f"r({lo})={f_lo}, r({hi})={f_hi}")
    # a value at π/2 within 1e−14 above 0 is rounding noise: that end is a
    # "not above" end, as the check accepts it
    return _root(lambda t: _r_scalar(delta, t)[0], lo, hi, f_lo,
                 min(f_hi, 0.0), 1e-13)


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
    the sums of adjacent nodes (2·(cell midpoints), bit for bit), h/2 and
    h/6."""
    w = np.linspace(-_HALF_PI, 0.0, grid_size)
    w_pair = w[:-1] + w[1:]
    w.flags.writeable = w_pair.flags.writeable = False
    w0 = w.item(0)
    h = w.item(1) - w0
    return w, w0, h, grid_size - 2, w_pair, 0.5 * h, h / 6.0


class _SweepGrid:
    """One solve's sweep grid: its constants (``_grid_constants``) and the
    buffers every sweep overwrites: g, w·g, two scratch rows, the moments'
    cell increments and their running sums I0 + i·I1 (``i0`` and ``i1``
    are views of its parts), and the cell its last root was sought in."""

    __slots__ = ("w", "w0", "h", "last", "w_pair", "half_h", "h_6",
                 "g", "wg", "s", "t", "d", "m", "i0", "i1", "cell")

    def __init__(self, grid_size: int):
        (self.w, self.w0, self.h, self.last, self.w_pair,
         self.half_h, self.h_6) = _grid_constants(grid_size)
        self.g = np.empty(grid_size)
        self.wg = np.empty(grid_size)
        self.s = np.empty(grid_size - 1)
        self.t = np.empty(grid_size - 1)
        self.d = np.empty(grid_size - 1, dtype=complex)
        self.m = np.zeros(grid_size, dtype=complex)
        self.i0, self.i1 = self.m.real, self.m.imag
        self.cell = 0

    def moments(self) -> None:
        """The node values I0(v) = ∫_{w0}^{v} g and I1(v) = ∫_{w0}^{v} w·g(w)
        dw of the piecewise-linear carrier in ``g``, into I0 and I1 (whose
        first entries stay 0), exact per cell: the trapezoid rule for I0,
        Simpson's for I1, whose 4·wm·gm is ``w_pair``·(g0 + g1), scalings by
        powers of two being exact. The running sum of a complex row adds its
        real and imaginary parts as two independent float sums."""
        g, wg, s, t, d = self.g, self.wg, self.s, self.t, self.d
        np.multiply(self.w, g, out=wg)
        np.add(g[:-1], g[1:], out=s)
        np.multiply(s, self.half_h, out=d.real)
        np.multiply(self.w_pair, s, out=t)
        np.add(wg[:-1], t, out=t)
        np.add(t, wg[1:], out=t)
        np.multiply(t, self.h_6, out=d.imag)
        np.add.accumulate(d, out=self.m[1:])


# a root window that decides nothing: every bisection probe is evaluated
_NO_WINDOW = (-math.inf, math.inf)
_EPS = 2.0 ** -53      # float64 unit roundoff
_NEWTON_STEPS = 6      # from the chord point; 2–4 reach rounding level
_NEWTON_TOL = 1e-15    # a step this short is rounding noise


def _root_window(grid: _SweepGrid, i1_total: float) -> tuple:
    """(a, b): every probe v < a of a sweep's root bisection reads
    ∫_v^0 (−u)·g(u) du ≥ 1 and every v > b reads less, so only probes in
    [a, b] need evaluating; ``_NO_WINDOW`` where no bound can be made.

    The root's cell [t0, t1], whose node values F_i = I1(t_i) − I1(0)
    bracket the unit level, is found by bisection on the node index: I1
    never increases, as each increment sums products w·g with w ≤ 0 ≤ g.
    There a probe computes, up to rounding, the cubic Φ(v) = F_0 +
    ∫_{t0}^{v} u·ĝ(u) du (ĝ linear through g0 and g1; Simpson is exact),
    whose derivative is v·ĝ(v). Newton steps from the chord point end at
    a point r with computed residual f = Φ(r) − 1.

    The bound, in units u = 2⁻⁵³, with A = −I1(0), G the largest g on the
    cell and its neighbours, |w| ≤ π/2 and h ≤ π/126: a probe's two
    additions err by u·(A + 2) and its cell formula by 32u·h·|w|·G. A
    probe read from a neighbouring cell's cubic (near a node, or placed
    there by the float cell index, up to n·u off) meets the root cell's
    cubic within u·A (the running sum), 32u·h·|w|·G (the increment),
    3·|Δt − h|·|w|·G (cell widths spread by ≤ 4u about h) and 2n³u²·G (the
    cubics' curvature, ≤ 16u·G up to ``_MAX_GRID``); forming r ± M rounds
    by u·|w|·G more. B = u·(8·(A + 1) + 128·G) is over twice their sum.
    With s = |t1|·min(g0, g1), the least slope on the cell, every probe
    further than M = (|f| + B)/s from r decides as Φ does: inside the cell
    by the slope, beyond it as I1 is monotone (two or more cells away, by
    a whole cell's moment).

    No window when the node values do not bracket the level, when s is
    not positive and finite (a zero g at a node, NaN data), when Newton's
    slope v·ĝ(v) is not negative, or when r ± M leaves the cell.
    """
    w_at, g_at, i1_at = grid.w.item, grid.g.item, grid.i1.item
    a, b = 0, grid.last + 1  # F(0) = −I1(0) ≥ 1 > F(n − 1) = 0
    while b - a > 1:
        mid = (a + b) >> 1
        if i1_at(mid) - i1_total >= 1.0:
            a = mid
        else:
            b = mid
    grid.cell = a
    t0, t1, g0, g1, i1_0 = w_at(a), w_at(b), g_at(a), g_at(b), i1_at(a)
    f0, f1 = i1_0 - i1_total, i1_at(b) - i1_total
    s = -t1 * min(g0, g1)
    if not (f0 >= 1.0 > f1 and 0.0 < s < math.inf):
        return _NO_WINDOW
    h, dg, t0_g0 = grid.h, g1 - g0, t0 * g0
    v = t0 + (t1 - t0) * ((f0 - 1.0) / (f0 - f1))
    for _ in range(_NEWTON_STEPS):
        # ``_moment_at``'s formula on the cell, and its derivative v·ĝ(v)
        dv = v - t0
        gv = g0 + dg * (dv / h)
        p1 = (dv / 6.0) * (t0_g0 + 4.0 * (t0 + 0.5 * dv) * (0.5 * (g0 + gv))
                           + v * gv)
        r, f, slope = v, ((i1_0 + p1) - i1_total) - 1.0, v * gv
        if not slope < 0.0:
            return _NO_WINDOW
        step = f / slope
        v = min(max(v - step, t0), t1)
        if abs(step) <= _NEWTON_TOL:
            break
    g_max = max(g_at(max(a - 1, 0)), g0, g1, g_at(min(b + 1, grid.last + 1)))
    m = (abs(f) + _EPS * (8.0 * (1.0 - i1_total) + 128.0 * g_max)) / s
    if t0 <= r - m and r + m <= t1:
        return r - m, r + m
    return _NO_WINDOW


def _beta_step(grid: _SweepGrid, beta: np.ndarray, forcing: np.ndarray):
    """One sweep's root: integrand g = max{β, forcing}; find ϖ with
    ∫_{−ϖ}^0 (−u)·g(u) du = 1.

    Returns (g, I0, I1, v = −ϖ, I0(v), I1(v)): g and the moments are the
    grid's buffers, valid until its next sweep, from which ``_next_beta``
    rebuilds the profile and the converged iteration samples its limit
    profile off-grid.

    The sweep fills those buffers — g, then the moments (seven array
    operations and one running sum) — and bisects v to a 1e−12 bracket
    (41 probes). A probe reads one cell's moments (``_moment_at``) only
    inside the window ``_root_window`` leaves in doubt, a few 1e−14 wide
    around the root; every other probe is decided by where it lies, as its
    moments would decide it, so ϖ is the bisection's bit for bit. At grid
    4096 on a 2-vCPU x86-64 VM the sweep and its rebuild take about 60 µs,
    37 µs of it in the moments and 6 µs in the root window.
    """
    w = grid.w
    g = np.maximum(beta, forcing, out=grid.g)
    grid.moments()
    i0, i1 = grid.i0, grid.i1
    i1_total = i1.item(-1)

    # ∫_{w0}^0 (−u)·g(u) du; ``_moment_at(w0)`` adds only ±0 to I1(w0) = 0
    if -i1_total < 1.0:
        v_root = grid.w0  # saturated: the whole domain cannot absorb a unit
        grid.cell = 0
    else:
        # bisection on ∫_v^0 (−u)·g(u) du ≥ 1, read from the first moment
        # only where the root window leaves the side of v in doubt
        sure_lo, sure_hi = _root_window(grid, i1_total)
        lo, hi = grid.w0, 0.0
        while hi - lo > 1e-12:
            v = 0.5 * (lo + hi)
            if v < sure_lo:
                lo = v
            elif v > sure_hi:
                hi = v
            elif _moment_at(v, w, g, i0, i1)[1] - i1_total >= 1.0:
                lo = v
            else:
                hi = v
        v_root = 0.5 * (lo + hi)

    return (g, i0, i1, v_root) + _moment_at(v_root, w, g, i0, i1)


def _split(grid: _SweepGrid, v: float) -> int:
    """The number of grid nodes at or below v, ``np.searchsorted(w, v,
    side="right")``: w ascends, so the nodes above v are a suffix (empty
    for a NaN v). A sweep's root lies in or within 1e−12 of its cell
    (``grid.cell``), so the walk from there takes a step or none."""
    w_at, n = grid.w.item, grid.w.size
    if v != v:
        return n
    k = grid.cell + 1
    while k < n and w_at(k) <= v:
        k += 1
    while k > 0 and w_at(k - 1) > v:
        k -= 1
    return k


def _next_beta(grid: _SweepGrid, sweep: tuple, out: np.ndarray) -> None:
    """The next profile β(t) = 1 − ∫_{−ϖ}^t (t−u)·g(u) du of a sweep
    (``_beta_step``), into ``out``, which may be the β the sweep read."""
    _, i0, i1, v_root, i0_v, i1_v = sweep
    w = grid.w
    k = _split(grid, v_root)
    m = w.size - k
    out[:k] = 1.0
    a, b = grid.s[:m], grid.t[:m]
    np.subtract(i0[k:], i0_v, out=a)
    np.multiply(w[k:], a, out=a)
    np.subtract(i1[k:], i1_v, out=b)
    np.subtract(a, b, out=a)
    np.subtract(1.0, a, out=out[k:])


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

    Raises IterationLimitError (carrying the last two ϖ) past 500 sweeps,
    and DomainError where a sweep's moments leave the float range.
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
    # an overflow is refused at the sweep that meets it: both running sums
    # are monotone (g ≥ 0, w ≤ 0), so a non-finite cell leaves its total
    # non-finite, and a non-finite β reaches the next sweep's g
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_SWEEPS):
            sweep = _beta_step(grid, beta, forcing)
            if not (math.isfinite(grid.i0.item(-1))
                    and math.isfinite(grid.i1.item(-1))):
                raise DomainError(f"Ψ sweep at ρ = {rho}, Δ = {delta} "
                                  "leaves the float range")
            omegas.append(-sweep[3])
            if len(omegas) >= 2 and abs(omegas[-1] - omegas[-2]) < _SWEEP_TOL:
                return ThresholdResult(psi=omegas[-1], iterations=len(omegas),
                                       omega_sequence=tuple(omegas),
                                       _last_sweep=(grid.w, *sweep))
            _next_beta(grid, sweep, beta)  # β is read only by the next sweep
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
    solve peak(m) = 1 for m by Illinois regula falsi until the bracket of m
    is 4 ulps wide; Ψ is the stationary location.
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
    # the shots read single values: Python floats, not numpy scalars
    f_nodes, f_mid, us = f_nodes.tolist(), f_mid.tolist(), us.tolist()

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

    # Illinois regula falsi on peak(m) − 1, which increases with m; its own
    # loop, so that the oracle shares no root finder with the path it checks
    lo_m, hi_m = 0.25, 4.0
    while (f_hi := shoot(hi_m)[0] - 1.0) < 0.0:
        lo_m = hi_m
        hi_m *= 2.0
        if hi_m > 64.0:
            raise ShootingError("peak bracket failed: upper slope exhausted")
    while (f_lo := shoot(lo_m)[0] - 1.0) >= 0.0:
        hi_m, f_hi = lo_m, f_lo
        lo_m *= 0.5
        if lo_m < 1e-6:
            raise ShootingError("peak bracket failed: lower slope exhausted")
    side = 0
    while hi_m - lo_m > 4.0 * math.ulp(hi_m):
        m = lo_m - (hi_m - lo_m) * f_lo / (f_hi - f_lo)
        if not lo_m < m < hi_m:
            m = 0.5 * (lo_m + hi_m)
        f_m = shoot(m)[0] - 1.0
        if f_m < 0.0:
            lo_m, f_lo = m, f_m
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            hi_m, f_hi = m, f_m
            if side > 0:
                f_lo *= 0.5
            side = 1
    return shoot(0.5 * (lo_m + hi_m))[1]


# ----------------------------------------------------------------------
# derived constants
# ----------------------------------------------------------------------

def gamma_constant() -> float:
    """The unique fixed point Ψ(1, γ) = γ, found by ``_root`` on [√2, π/2]
    to a 1e−6 bracket; its Ψ solves (about 5) are held by ``psi``'s cache.

    g ↦ Ψ(1, g) is nonincreasing, so g ↦ Ψ(1, g) − g is strictly decreasing
    and the bracket endpoints have opposite signs (Ψ(1,√2) > √2 because √2
    is below the fixed point; Ψ(1,π/2) ≤ π/2 with equality only at Δ = 0).
    """
    lo, hi = _SQRT2, _HALF_PI
    f_lo, f_hi = psi(1.0, lo) - lo, psi(1.0, hi) - hi
    if not f_lo > 0.0 >= f_hi:
        raise ShootingError("fixed-point bracket failed on [√2, π/2]")
    return _root(lambda g: psi(1.0, g) - g, lo, hi, f_lo, f_hi, _GAMMA_TOL)


def semicycle_threshold(tau_m: float) -> float:
    """Ψ(1, τ_m) + ϑ_{τ_m}: the semicycle-length ceiling for a normalized
    problem with delays bounded by τ_m."""
    return psi(1.0, tau_m) + theta(tau_m)
