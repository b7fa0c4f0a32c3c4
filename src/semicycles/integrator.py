"""Method-of-steps integration of x″(t) + p(t)·x(t−τ(t)) = 0.

Fixed-step classical RK4 on the first-order system (x, x′), with step
endpoints aligned to every breakpoint of the coefficient and delay signals
and to the first-generation discontinuity points {t : t−τ(t) = breakpoint
or = start}. The whole step grid is known before the first step: the forced
nodes, each gap subdivided uniformly.

The delayed value of a stage at σ is read at u = σ − τ(σ): from the initial
history (u ≤ s), from dense output of accepted steps (cubic Hermite per
step), or, when the delay is shorter than the step, from a provisional
interpolant of the step itself that is sub-iterated twice.

Steps run in blocks (the classical method of steps, Bellen & Zennaro 2003).
For each chunk of steps, numpy evaluates p and τ at the three stage times
of every step and sorts each stage by where its delayed value comes from.
A block is a maximal run of steps whose stages all read the history or
output accepted before the block's first node. Inside a block no v-stage
depends on the block's own x, so one vectorized Hermite gather gives the
v increments, running sums give v, and then x follows the same way. Every
other step (a zero delay, an overlap with the step, a stage that must
raise, or a run of steps too short to pay for numpy) is taken alone, each
stage resolved when it is reached. Both paths perform the same
floating-point operations in the same order, so the trajectory does not
depend on how the steps were grouped.

Two conventions matter and are deliberate:

* Within a step, p and τ are evaluated from the segment owning the step's
  interior. A step that ends exactly on a breakpoint therefore reads its
  right-endpoint stage from the left segment (one-sided limit); plain
  right-continuous evaluation would poison the last stage of every boundary
  step with the next segment's value and destroy the scheme's order.
* The history is read with the left-limit convention at s, honoring initial
  data with a jump (the fundamental-system construction). When the delayed
  argument of a step sitting just right of a crossing lands exactly on s,
  the step's interior side (u > s) wins instead.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, HistoryDomainError
from .signals import (
    PiecewiseSignal,
    _trim_for_roots,
    signal_from_dict,
    signal_range,
    signal_to_dict,
)

__all__ = [
    "DelayProblem",
    "Trajectory",
    "Event",
    "rescale",
    "integrate",
    "fundamental_system",
    "wronskian",
    "problem_from_dict",
    "problem_to_dict",
]


@dataclass(frozen=True)
class DelayProblem:
    """One initial-value problem for x″ + p·x(t−τ) = 0.

    history supplies x on [s−τ_m, s); initial_value/initial_slope give the
    right limits x(s⁺), x′(s⁺) — a jump against the history is allowed.
    """

    p: PiecewiseSignal
    tau: PiecewiseSignal
    start: float
    history: PiecewiseSignal
    initial_value: float
    initial_slope: float

    def tau_sup(self, horizon: float) -> float:
        """Essential supremum of the delay over [start, horizon]."""
        lo, hi = signal_range(self.tau, self.start, horizon)
        if lo < -1e-12:
            raise DomainError(f"delay signal reaches {lo} < 0 on the horizon")
        return max(0.0, hi)


def problem_to_dict(problem: DelayProblem) -> dict:
    return {
        "p": signal_to_dict(problem.p),
        "tau": signal_to_dict(problem.tau),
        "start": problem.start,
        "history": signal_to_dict(problem.history),
        "initial_value": problem.initial_value,
        "initial_slope": problem.initial_slope,
    }


def problem_from_dict(data: dict) -> DelayProblem:
    try:
        return DelayProblem(
            p=signal_from_dict(data["p"]),
            tau=signal_from_dict(data["tau"]),
            start=float(data["start"]),
            history=signal_from_dict(data["history"]),
            initial_value=float(data["initial_value"]),
            initial_slope=float(data["initial_slope"]),
        )
    except KeyError as exc:
        raise DomainError(f"problem object missing key {exc}") from exc


@dataclass(frozen=True)
class Event:
    kind: str  # "zero" | "extremum"
    t: float
    degenerate: bool = False


@dataclass(frozen=True)
class Trajectory:
    """Dense numerical solution: nodes plus per-step cubic Hermite output."""

    ts: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    problem: DelayProblem | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("ts", "xs", "vs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def start(self) -> float:
        return float(self.ts[0])

    @property
    def end(self) -> float:
        return float(self.ts[-1])

    def _check_domain(self, t):
        tol = 1e-9 * max(1.0, abs(self.start), abs(self.end))
        if np.any(t < self.start - tol) or np.any(t > self.end + tol):
            raise DomainError(
                f"time outside trajectory domain [{self.start}, {self.end}]")

    def sample(self, t) -> np.ndarray:
        """Vectorized dense-output values."""
        return self._eval(t, derivative=False)

    def sample_slope(self, t) -> np.ndarray:
        return self._eval(t, derivative=True)

    def _eval(self, t, derivative: bool):
        self._check_domain(t)
        q = np.atleast_1d(np.asarray(t, dtype=float))
        j = np.clip(np.searchsorted(self.ts, q, side="right") - 1,
                    0, self.ts.size - 2)
        h = self.ts[j + 1] - self.ts[j]
        s = np.clip((q - self.ts[j]) / h, 0.0, 1.0)
        x0, x1 = self.xs[j], self.xs[j + 1]
        v0, v1 = self.vs[j], self.vs[j + 1]
        if derivative:
            out = (x0 * (6 * s * s - 6 * s) / h
                   + v0 * (3 * s * s - 4 * s + 1)
                   + x1 * (6 * s - 6 * s * s) / h
                   + v1 * (3 * s * s - 2 * s))
        else:
            out = (x0 * (2 * s ** 3 - 3 * s ** 2 + 1)
                   + v0 * h * (s ** 3 - 2 * s ** 2 + s)
                   + x1 * (-2 * s ** 3 + 3 * s ** 2)
                   + v1 * h * (s ** 3 - s ** 2))
        return out if np.ndim(t) else float(out[0])

    def value(self, t: float) -> float:
        return self._eval(float(t), derivative=False)

    def slope(self, t: float) -> float:
        return self._eval(float(t), derivative=True)


# ----------------------------------------------------------------------
# scaling normalization
# ----------------------------------------------------------------------

def _scale_signal(sig: PiecewiseSignal, k: float, value_scale: float
                  ) -> PiecewiseSignal:
    """Signal t ↦ value_scale·f(kt): breakpoints divide by k, local
    coefficient j picks up k^j (then the overall value factor)."""
    bps = tuple(b / k for b in sig.breakpoints)
    segs = tuple(
        tuple(value_scale * c * k ** j for j, c in enumerate(seg))
        for seg in sig.segments)
    return PiecewiseSignal(bps, segs, value_scale * sig.left_extension,
                           value_scale * sig.right_extension)


def rescale(problem: DelayProblem, k: float) -> DelayProblem:
    """Time-compressed problem whose solutions satisfy x̃(t) = x(kt).

    The coefficient becomes k²·p(kt) and the delay τ(kt)/k; with
    k = 1/√(esssup|p|) the coefficient normalizes to essential bound 1.
    """
    if not k > 0.0:
        raise DomainError(f"scale factor must be positive, got {k}")
    return DelayProblem(
        p=_scale_signal(problem.p, k, k * k),
        tau=_scale_signal(problem.tau, k, 1.0 / k),
        start=problem.start / k,
        history=_scale_signal(problem.history, k, 1.0),
        initial_value=problem.initial_value,
        initial_slope=k * problem.initial_slope,
    )


# ----------------------------------------------------------------------
# forced nodes (breakpoints + first-generation delayed crossings)
# ----------------------------------------------------------------------

def _lag_crossings(tau: PiecewiseSignal, c: float, lo: float, hi: float
                   ) -> list[float]:
    """Solutions of t − τ(t) = c in (lo, hi), handled per τ-segment.

    A segment on which t − τ(t) ≡ c identically (a constant delayed
    argument, e.g. an affine delay of unit slope) contributes no interior
    crossing and is skipped.
    """
    out: list[float] = []
    bps = tau.breakpoints
    scale = max(1.0, abs(c), abs(lo), abs(hi))

    def consider(t: float):
        if lo < t < hi:
            out.append(t)

    # constant tails
    t_left = c + tau.left_extension
    if t_left < bps[0]:
        consider(t_left)
    t_right = c + tau.right_extension
    if t_right >= bps[-1]:
        consider(t_right)

    for i, seg in enumerate(tau.segments):
        length = bps[i + 1] - bps[i]
        # q(u) = u + b_i − c − τ_seg(u) in local coordinates
        q = list(-np.asarray(seg, dtype=float))
        q[0] += bps[i] - c
        if len(q) < 2:
            q.append(1.0)
        else:
            q[1] += 1.0
        if all(abs(ci) <= 1e-13 * scale for ci in q):
            continue  # the whole segment maps onto c
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


def _forced_nodes(problem: DelayProblem, horizon: float) -> np.ndarray:
    s = problem.start
    nodes = {s, horizon}
    for sig in (problem.p, problem.tau):
        nodes.update(b for b in sig.breakpoints if s < b < horizon)
    targets = set(problem.p.breakpoints) | set(problem.tau.breakpoints) \
        | set(problem.history.breakpoints) | {s}
    for c in targets:
        nodes.update(_lag_crossings(problem.tau, c, s, horizon))
    arr = np.array(sorted(nodes))
    # merge nodes that coincide up to rounding
    tol = 1e-12 * max(1.0, abs(s), abs(horizon))
    keep = [arr[0]]
    for t in arr[1:]:
        if t - keep[-1] > tol:
            keep.append(t)
    keep[-1] = horizon
    return np.asarray(keep)


# ----------------------------------------------------------------------
# the integrator
# ----------------------------------------------------------------------

# steps whose stages are planned together: bounds the planning arrays to
# about 0.3 MB whatever the horizon
_CHUNK = 512
# shortest run of steps advanced as a numpy block: a block has a fixed cost
# of about three scalar steps, so runs of one or two steps go one by one
_MIN_BLOCK = 3


def _step_grid(nodes: np.ndarray, step: float) -> tuple:
    """Every step node, and the index of the first step of each gap between
    forced nodes (plus a last entry: the step count).

    A gap [a, b] is cut into n equal steps of h = (b − a)/n; its interior
    nodes are a + k·h and its last node is b itself.
    """
    parts = [nodes[:1]]
    first = np.zeros(nodes.size, dtype=np.intp)
    for g in range(nodes.size - 1):
        a, b = nodes[g], nodes[g + 1]
        span = b - a
        n_sub = max(1, math.ceil(span / step - 1e-9))
        parts.append(a + np.arange(1, n_sub) * (span / n_sub))
        parts.append(nodes[g + 1:g + 2])
        first[g + 1] = first[g] + n_sub
    return np.concatenate(parts), first


def _eval_pinned(sig: PiecewiseSignal, idx: np.ndarray, t: np.ndarray
                 ) -> np.ndarray:
    """``sig.eval_in_segment(idx[k], t[k])`` for every k: Horner in the same
    operation order, so each value is the float the scalar call returns."""
    out = np.empty(t.shape)
    n_seg = len(sig.segments)
    out[idx < 0] = sig.left_extension
    out[idx >= n_seg] = sig.right_extension
    inside = idx[(idx >= 0) & (idx < n_seg)]
    for k in np.flatnonzero(np.bincount(inside.ravel())).tolist():
        sel = idx == k
        u = t[sel] - sig.breakpoints[k]
        acc = np.zeros(u.shape)
        for c in reversed(sig.segments[k]):
            acc = acc * u + c
        out[sel] = acc
    return out


class _ChunkPlan:
    """Stage data of steps c0 … c1−1, computed with numpy before they run.

    Row r of each (3, m) array is one stage time of the m steps: t₀, the
    midpoint (read by both middle RK4 stages) and t₁. A stage can join a
    block when its delayed argument u = σ − τ(σ) reads the history (u < s,
    or u = s left of the start jump) or accepted output (s < u ≤ t₀, or
    u = s right of the jump); ``reach`` is the last node that Hermite read
    touches. ODE stages, overlap stages (u > t₀) and stages that must raise
    leave their step to the scalar path.
    """

    def __init__(self, problem: DelayProblem, ts: np.ndarray, c0: int,
                 c1: int, seg_p: np.ndarray, seg_tau: np.ndarray,
                 hist_floor: float, hist_at_start: float):
        s = problem.start
        self.c0 = c0
        t0 = ts[c0:c1]
        self.hh = hh = ts[c0 + 1:c1 + 1] - t0
        tm = t0 + 0.5 * hh
        sigma = np.stack((t0, tm, ts[c0 + 1:c1 + 1]))
        self.neg_p = -_eval_pinned(
            problem.p, np.broadcast_to(seg_p, sigma.shape), sigma)
        tau = _eval_pinned(problem.tau, np.broadcast_to(seg_tau, sigma.shape),
                           sigma)
        tv = np.where(tau < 0.0, 0.0, tau)
        scale = np.abs(sigma)
        ode = tv <= 1e-13 * np.where(scale > 1.0, scale, 1.0)
        u = sigma - tv
        right_of_start = tm - tau[1] > s
        past = ~ode & (u <= t0)
        at_s = past & (u == s)
        start_left = at_s & ~right_of_start
        jj = np.minimum(np.searchsorted(ts, u, side="right") - 1,
                        np.arange(c0 - 1, c1 - 1))
        self.dense = dense = past & ((u > s) | (at_s & right_of_start)) \
            & (jj >= 0)
        hist = past & (u < s) & (u >= hist_floor)
        self.hv = hv = np.where(start_left, hist_at_start, 0.0)
        if hist.any():
            uh = u[hist]
            hbps = np.asarray(problem.history.breakpoints)
            hv[hist] = _eval_pinned(
                problem.history, np.searchsorted(hbps, uh, side="right") - 1,
                uh)
        self.ok = (dense | hist | start_left).all(axis=0)
        self.reach = np.where(dense, jj + 1, 0).max(axis=0)
        # cubic Hermite weights of the dense reads, as in dense_past; u lies
        # in its bracket [ts[jj], ts[jj + 1]], so the weight needs no clamp
        self.jj = jj = np.where(dense, jj, 0)
        self.jj1 = jj + 1
        self.h = h = ts[self.jj1] - ts[jj]
        sig = np.where(dense, (u - ts[jj]) / h, 0.0)
        s2, s3 = sig * sig, sig * sig * sig
        self.w = np.stack((2 * s3 - 3 * s2 + 1, s3 - 2 * s2 + sig,
                           -2 * s3 + 3 * s2, s3 - s2))
        self.hh2 = 0.5 * hh
        self.hh6 = hh / 6.0

    def advance(self, b: int, e: int, xs: np.ndarray, vs: np.ndarray):
        """Take steps b … e−1 of the chunk as one block.

        Every stage reads the history or nodes up to the block's first node,
        so no v-stage depends on the block's own x: the v increments come
        first, then the x increments from the v at each step's start, each
        column summed in step order by ``np.add.accumulate``.
        """
        j0, j1 = self.c0 + b, self.c0 + e
        jj, jj1, h = self.jj[:, b:e], self.jj1[:, b:e], self.h[:, b:e]
        w0, w1, w2, w3 = self.w[:, :, b:e]
        past = (xs[jj] * w0 + vs[jj] * h * w1
                + xs[jj1] * w2 + vs[jj1] * h * w3)
        k1v, k2v, k4v = self.neg_p[:, b:e] * np.where(
            self.dense[:, b:e], past, self.hv[:, b:e])
        hh, hh2, hh6 = self.hh[b:e], self.hh2[b:e], self.hh6[b:e]
        # both middle stages read the midpoint's delayed value: k3v = k2v
        vs[j0 + 1:j1 + 1] = hh6 * (k1v + 2 * k2v + 2 * k2v + k4v)
        np.add.accumulate(vs[j0:j1 + 1], out=vs[j0:j1 + 1])
        v0 = vs[j0:j1]
        k2x = v0 + hh2 * k1v
        k3x = v0 + hh2 * k2v
        k4x = v0 + hh * k2v
        xs[j0 + 1:j1 + 1] = hh6 * (v0 + 2 * k2x + 2 * k3x + k4x)
        np.add.accumulate(xs[j0:j1 + 1], out=xs[j0:j1 + 1])


def integrate(problem: DelayProblem, horizon: float, step: float = 0.01
              ) -> Trajectory:
    """Advance the problem to ``horizon`` with fixed step ≤ ``step``.

    Every forced node (signal breakpoints, first-generation delayed
    crossings) is hit exactly; each gap is subdivided uniformly. Dense
    output is cubic Hermite per step. Raises HistoryDomainError if a delayed
    argument falls below start − τ_m (an ill-posed delay signal), and
    DomainError for nonpositive steps or an empty horizon.
    """
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step}")
    s = problem.start
    if not horizon > s:
        raise DomainError(f"horizon {horizon} must exceed start {s}")
    tau_m = problem.tau_sup(horizon)
    time_scale = max(1.0, abs(s), abs(horizon))
    hist_floor = s - tau_m - 1e-9 * max(1.0, tau_m, time_scale)

    history = problem.history
    hist_at_start = history.eval_left(s)

    nodes = _forced_nodes(problem, horizon)
    ts, first = _step_grid(nodes, step)
    xs = np.zeros(ts.size)
    vs = np.zeros(ts.size)
    xs[0] = problem.initial_value
    vs[0] = problem.initial_slope
    # p and τ are pinned to the segment owning each gap's interior
    mids = nodes[:-1] + 0.5 * (nodes[1:] - nodes[:-1])
    seg_p = np.array([problem.p.segment_index(t) for t in mids])
    seg_tau = np.array([problem.tau.segment_index(t) for t in mids])

    def dense_past(u: float, n: int) -> float:
        """Cubic Hermite over the n accepted nodes (u ∈ [s, ts[n−1]])."""
        j = min(bisect.bisect_right(ts, u, 0, n) - 1, n - 2)
        # a single accepted node (j = −1) makes the bracket [ts[0], ts[0]]:
        # its weight is NaN, as for any zero-width bracket
        j0, j1 = j % n, (j + 1) % n
        t_j0 = ts.item(j0)
        h = ts.item(j1) - t_j0
        sig = (u - t_j0) / h if h != 0.0 else math.nan
        if sig < 0.0:
            sig = 0.0
        elif sig > 1.0:
            sig = 1.0
        s2, s3 = sig * sig, sig * sig * sig
        return (xs.item(j0) * (2 * s3 - 3 * s2 + 1)
                + vs.item(j0) * h * (s3 - 2 * s2 + sig)
                + xs.item(j1) * (-2 * s3 + 3 * s2)
                + vs.item(j1) * h * (s3 - s2))

    def scalar_step(j: int, i_p: int, i_tau: int):
        """Step j alone, each stage resolved when it is reached."""

        def p_at(sigma: float) -> float:
            return problem.p.eval_in_segment(i_p, sigma)

        def tau_at(sigma: float) -> float:
            return problem.tau.eval_in_segment(i_tau, sigma)

        t0, t1 = ts.item(j), ts.item(j + 1)
        hh = t1 - t0
        x0, v0 = xs.item(j), vs.item(j)
        # does the delayed argument sit right of the start jump here?
        mid_u = (t0 + 0.5 * hh) - tau_at(t0 + 0.5 * hh)
        right_of_start = mid_u > s

        prov: tuple | None = None
        overlap = False

        def delayed(sigma: float, x_stage: float) -> float:
            nonlocal overlap
            tv = tau_at(sigma)
            if tv < 0.0:
                if tv < -1e-12:
                    raise DomainError(
                        f"delay {tv} negative at t = {sigma}")
                tv = 0.0
            if tv <= 1e-13 * max(1.0, abs(sigma)):
                return x_stage  # ODE regime: the stage's own value
            u = sigma - tv
            if u > t0:
                overlap = True  # delay shorter than the step
                if prov is None:
                    return x0 + v0 * (u - t0)
                px0, pv0, px1, pv1 = prov
                sg = (u - t0) / hh
                s2, s3 = sg * sg, sg ** 3
                return (px0 * (2 * s3 - 3 * s2 + 1)
                        + pv0 * hh * (s3 - 2 * s2 + sg)
                        + px1 * (-2 * s3 + 3 * s2)
                        + pv1 * hh * (s3 - s2))
            if u > s:
                return dense_past(u, j + 1)
            if u == s:
                return (dense_past(u, j + 1) if right_of_start
                        else hist_at_start)
            if u < hist_floor:
                raise HistoryDomainError(
                    f"delayed argument {u} reaches below "
                    f"start − τ_m = {s - tau_m}")
            return history(u)

        def rk4_once() -> tuple:
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
            # two sub-iterations against the provisional interpolant
            for _ in range(2):
                prov = (x0, v0, x1, v1)
                x1, v1 = rk4_once()
        xs[j + 1] = x1
        vs[j + 1] = v1

    n_steps = ts.size - 1
    for c0 in range(0, n_steps, _CHUNK):
        c1 = min(c0 + _CHUNK, n_steps)
        gap = np.searchsorted(first, np.arange(c0, c1), side="right") - 1
        plan = _ChunkPlan(problem, ts, c0, c1, seg_p[gap], seg_tau[gap],
                          hist_floor, hist_at_start)
        ok, reach = plan.ok.tolist(), plan.reach.tolist()
        i_p, i_tau = seg_p[gap].tolist(), seg_tau[gap].tolist()
        b, m = 0, c1 - c0
        while b < m:
            e = b + 1
            if ok[b]:
                while e < m and ok[e] and reach[e] <= c0 + b:
                    e += 1
            if e - b >= _MIN_BLOCK:
                plan.advance(b, e, xs, vs)
            else:
                for k in range(b, e):
                    scalar_step(c0 + k, i_p[k], i_tau[k])
            b = e

    return Trajectory(ts, xs, vs, problem=problem)


# ----------------------------------------------------------------------
# event scanning (shared with the analysis layer)
# ----------------------------------------------------------------------

def _refine_sign_changes(f, lo: np.ndarray, hi: np.ndarray, tol: float
                         ) -> np.ndarray:
    """Bisect every bracket [lo_k, hi_k] of a sign change of the vectorized
    function f at once.

    Each bracket keeps its own midpoint sequence: it ends at lo_k if
    f(lo_k) = 0, at the first midpoint where f vanishes, or else at the
    centre of its first interval no wider than tol.
    """
    lo, hi = lo.copy(), hi.copy()
    f_lo = f(lo)
    out = lo.copy()
    live = f_lo != 0.0
    lo_pos = f_lo > 0.0
    while True:
        idx = np.flatnonzero(live & (hi - lo > tol))
        if idx.size == 0:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        fm = f(mid)
        hit = fm == 0.0
        out[idx[hit]] = mid[hit]
        live[idx[hit]] = False
        same = (fm > 0.0) == lo_pos[idx]
        lo[idx[~hit & same]] = mid[~hit & same]
        hi[idx[~hit & ~same]] = mid[~hit & ~same]
    out[live] = 0.5 * (lo[live] + hi[live])
    return out


def _scan_sign_changes(ts: np.ndarray, ys: np.ndarray, f, tol: float
                       ) -> list[tuple]:
    """(t, exact_node) for each sign change of the sampled function ys,
    refined by bisection on the vectorized dense evaluation f. Node values
    that are exactly zero are taken as-is; a run of exact zeros yields one
    event."""
    nonzero = ys != 0.0
    pos = ys > 0.0
    # brackets: adjacent nonzero nodes of opposite sign
    left = np.flatnonzero(nonzero[:-1] & nonzero[1:] & (pos[:-1] != pos[1:]))
    t_star = (_refine_sign_changes(f, ts[left], ts[left + 1], tol).tolist()
              if left.size else [])
    zeros = np.flatnonzero(~nonzero)
    if zeros.size == 0:
        return [(t, False) for t in t_star]
    # events in node order (a bracket at its right node); a zero node within
    # tol of the event before it adds nothing
    out: list[tuple] = []
    n_br = left.size
    keys = np.concatenate((left + 1, zeros))
    for k in np.argsort(keys, kind="stable").tolist():
        if k < n_br:
            out.append((t_star[k], False))
            continue
        t = float(ts[zeros[k - n_br]])
        if not (out and abs(out[-1][0] - t) <= tol):
            out.append((t, True))
    return out


def zero_crossings(traj: Trajectory, tol: float = 1e-10) -> list[tuple]:
    """Zeros of x as (time, degenerate) pairs, in increasing time.

    Sign-change zeros are refined to ``tol``; tangential touches (a local
    extremum whose value is zero at resolution scale) are flagged degenerate.
    """
    amp = float(np.abs(traj.xs).max(initial=0.0))
    if amp == 0.0:
        return [(traj.start, True)]  # identically zero trajectory
    hits = _scan_sign_changes(traj.ts, traj.xs, traj.sample, tol)
    slope_floor = 1e-9 * max(1.0, float(np.abs(traj.vs).max(initial=0.0)))
    zeros = []
    for t, exact in hits:
        degen = exact and abs(traj.slope(t)) < slope_floor
        zeros.append((t, degen))
    # tangential touches: extrema sitting on zero at resolution scale
    extrema = [t for t, _ in _scan_sign_changes(traj.ts, traj.vs,
                                                traj.sample_slope, tol)]
    heights = np.abs(traj.sample(np.asarray(extrema))).tolist()
    for t, height in zip(extrema, heights):
        if height < 1e-11 * amp:
            if not any(abs(t - z) <= 10 * tol for z, _ in zeros):
                zeros.append((t, True))
    zeros.sort()
    return zeros


def extremum_events(traj: Trajectory, tol: float = 1e-10) -> list[float]:
    """Interior stationary points located by slope sign change."""
    return [t for t, _ in _scan_sign_changes(traj.ts, traj.vs,
                                             traj.sample_slope, tol)]


def _scan_events(traj: Trajectory, tol: float = 1e-10) -> list[Event]:
    evs = [Event("zero", t, degenerate=d) for t, d in zero_crossings(traj, tol)]
    evs.extend(Event("extremum", t) for t in extremum_events(traj, tol))
    evs.sort(key=lambda e: e.t)
    return evs


# ----------------------------------------------------------------------
# fundamental system and Wronskian
# ----------------------------------------------------------------------

def fundamental_system(p: PiecewiseSignal, tau: PiecewiseSignal, s: float,
                       horizon: float, step: float = 0.01
                       ) -> tuple[Trajectory, Trajectory]:
    """The pair (z, y): identically-zero history with unit jumps at s —
    z(s) = 1, z′(s) = 0 and y(s) = 0, y′(s) = 1."""
    zero_hist = PiecewiseSignal.constant(0.0)
    z = integrate(DelayProblem(p, tau, s, zero_hist, 1.0, 0.0),
                  horizon, step)
    y = integrate(DelayProblem(p, tau, s, zero_hist, 0.0, 1.0),
                  horizon, step)
    return z, y


def wronskian(z: Trajectory, y: Trajectory, t: float) -> float:
    """z(t)·y′(t) − z′(t)·y(t) from dense output (domain-checked)."""
    return z.value(t) * y.slope(t) - z.slope(t) * y.value(t)
