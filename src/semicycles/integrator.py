"""Method-of-steps integration of x″(t) + p(t)·x(t−τ(t)) = 0.

Fixed-step classical RK4 on the first-order system (x, x′), with step
endpoints aligned to every breakpoint of the coefficient and delay signals
and to the first-generation discontinuity points {t : t−τ(t) = breakpoint
or = start}. The whole step grid is known before the first step: the forced
nodes, each gap subdivided uniformly.

The delayed value of a stage at σ is read at u = σ − τ(σ): from the initial
history (u ≤ s), from dense output of accepted steps, or, when the delay is
shorter than the step, from a provisional interpolant of the step itself
that is sub-iterated twice. Both cubic Hermite reads, and
``Trajectory.sample``, go through one kernel built from products only, so
its bits do not depend on the host's numpy; zero and extremum scans bisect
each sign change on the one step that brackets it.

Steps run in blocks (the classical method of steps, Bellen & Zennaro 2003).
For each chunk of steps, the signals' own array evaluation gives p and τ at
the three stage times of every step, and the history where a stage reads
it; numpy then sorts each stage by where its delayed value comes from:
its own value (no delay), the step's provisional interpolant (overlap),
accepted output, the history, or an error to raise. That chunk plan is the
only place the step loop gets p, τ and the delayed argument from. A block
is a maximal run of steps whose stages all read the history or output
accepted before the block's first node. Inside a block no v-stage depends
on the block's own x, so one vectorized Hermite gather gives the v
increments, running sums give v, and then x follows the same way. Every
other step (a zero delay, an overlap with the step, a stage that must
raise, or a run of steps too short to pay for numpy) is taken alone by a
scalar kernel that reads the plan's values as Python floats. Both paths
perform the same floating-point operations in the same order, so the
trajectory does not depend on how the steps were grouped.

The integrator carries a column axis: x and x′ are (n, k) arrays, k
solutions of problems that differ only in x(s⁺) and x′(s⁺). They share
the step grid and the whole chunk plan except the values a stage reads at
u = s right of the start jump. A block broadcasts its step data over the
columns, and the scalar kernel takes its steps once per column, so every
column equals a run of its own bit for bit. ``integrate`` is the one-column
case; ``fundamental_system`` integrates its pair in one two-column pass.

A zero or extremum scan bisects each sign change of x or x′ on its own
step. Below ``_PLAIN_BRACKETS`` (40) brackets it bisects them one by one in
Python floats, with the dense-output kernel's operations in their order;
above, all at once with numpy, which pays only when many brackets share
each of its rounds. Both give the same floats. A scan refuses a tol that
is not finite and positive (DomainError) before any work.

The step grid is bounded: an integration that would take more than
``_MAX_STEPS`` steps raises DomainError before any array is allocated.

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

from .errors import DomainError, HistoryDomainError, SemicycleError
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
    "zero_crossings",
    "extremum_events",
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

    def __post_init__(self):
        for name in ("start", "initial_value", "initial_slope"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")

    def tau_sup(self, horizon: float) -> float:
        """Essential supremum of the delay over [start, horizon]."""
        lo, hi = signal_range(self.tau, self.start, horizon)
        if lo < -1e-12:
            raise DomainError(f"delay signal reaches {lo} < 0 on "
                              f"[{self.start}, {horizon}]")
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
    except SemicycleError:
        raise
    except KeyError as exc:
        raise DomainError(f"problem object missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed problem object: {exc}") from exc


@dataclass(frozen=True)
class Event:
    kind: str  # "zero" | "extremum"
    t: float
    degenerate: bool = False


@dataclass(frozen=True)
class Trajectory:
    """Dense numerical solution: nodes plus per-step cubic Hermite output,
    and the problem it solves."""

    ts: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    problem: DelayProblem = field(repr=False)

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

    def _check_domain(self, q: np.ndarray):
        tol = 1e-9 * max(1.0, abs(self.start), abs(self.end))
        # negated so that a NaN time fails too
        if not (np.all(q >= self.start - tol) and np.all(q <= self.end + tol)):
            raise DomainError(
                f"time outside trajectory domain [{self.start}, {self.end}]")

    def sample(self, t):
        """Dense-output values x(t); a float for a scalar t."""
        return self._eval(t, derivative=False)

    def sample_slope(self, t):
        return self._eval(t, derivative=True)

    def _eval(self, t, derivative: bool):
        q = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_domain(q)
        j = np.clip(np.searchsorted(self.ts, q, side="right") - 1,
                    0, self.ts.size - 2)
        out = self._on_steps(j, q, derivative)
        return out if np.ndim(t) else float(out[0])

    def _on_steps(self, j: np.ndarray, q: np.ndarray, derivative: bool):
        """Dense output at the times q, each on its step [ts[j], ts[j+1]]."""
        h = self.ts[j + 1] - self.ts[j]
        s = np.clip((q - self.ts[j]) / h, 0.0, 1.0)
        x0, x1 = self.xs[j], self.xs[j + 1]
        v0, v1 = self.vs[j], self.vs[j + 1]
        if derivative:
            return _hermite_slope(x0, v0, x1, v1, h, s)
        return _hermite(x0, v0, x1, v1, h, _hermite_weights(s))


def _hermite_weights(s):
    """Cubic Hermite weights of x₀, h·v₀, x₁, h·v₁ at the fraction s (a float
    or an array) of a step; products only, as numpy's power is host-bound."""
    s2 = s * s
    s3 = s2 * s
    return 2 * s3 - 3 * s2 + 1, s3 - 2 * s2 + s, -2 * s3 + 3 * s2, s3 - s2


def _hermite(x0, v0, x1, v1, h, w):
    """The cubic Hermite value on a step of width h with weights w."""
    w0, w1, w2, w3 = w
    return x0 * w0 + v0 * h * w1 + x1 * w2 + v1 * h * w3


def _hermite_slope(x0, v0, x1, v1, h, s):
    """The cubic Hermite slope on a step of width h at the fraction s."""
    return (x0 * (6 * s * s - 6 * s) / h + v0 * (3 * s * s - 4 * s + 1)
            + x1 * (6 * s - 6 * s * s) / h + v1 * (3 * s * s - 2 * s))


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

def _segment_crossings(seg: tuple, b: float, length: float, c: float,
                       scale: float) -> list:
    """Solutions t ∈ [b, b + length] (up to 1e-12·scale) of t − τ(t) = c on
    one τ segment with local coefficients seg."""
    # q(u) = u + b − c − τ_seg(u) in local coordinates
    q = list(-np.asarray(seg, dtype=float))
    q[0] += b - c
    if len(q) < 2:
        q.append(1.0)
    else:
        q[1] += 1.0
    if all(abs(ci) <= 1e-13 * scale for ci in q):
        return []  # the whole segment maps onto c
    trimmed = _trim_for_roots(q, length)
    if len(trimmed) == 1:
        return []
    if len(trimmed) == 2:
        roots = [-trimmed[0] / trimmed[1]]
    else:
        roots = [r.real for r in np.roots(trimmed[::-1])
                 if abs(r.imag) < 1e-9 * scale]
    return [b + u for u in roots
            if -1e-12 * scale <= u <= length + 1e-12 * scale]


def _lag_crossings(tau: PiecewiseSignal, targets, lo: float, hi: float
                   ) -> list[float]:
    """Solutions of t − τ(t) = c in (lo, hi) for every target c, one
    τ segment at a time.

    A segment on which t − τ(t) is constant (a constant delayed argument,
    e.g. an affine delay of unit slope) has no interior crossing for any
    target and is skipped. On any other segment only the targets that
    t − τ(t) can reach there are solved: a root u of c = b − τ₀ + Σ q_j·u^j
    with |u| ≤ R forces |b − τ₀ − c| ≤ Σ |q_j|·R^j; the test doubles that
    bound and widens R and the bound by far more than the root finder's
    acceptance window and error, so it never drops a crossing.
    """
    c = np.asarray(targets, dtype=float)
    bps = tau.breakpoints
    scale = np.maximum(max(1.0, abs(lo), abs(hi)), np.abs(c))
    # constant tails
    t_left = c + tau.left_extension
    t_right = c + tau.right_extension
    tails = np.concatenate((t_left[t_left < bps[0]],
                            t_right[t_right >= bps[-1]]))
    out = tails[(lo < tails) & (tails < hi)].tolist()
    for i, seg in enumerate(tau.segments):
        # coefficients of u, u², … in t − τ(t) on the segment
        slope = [-a for a in seg[1:]] or [0.0]
        slope[0] += 1.0
        if not any(slope):
            continue
        length = bps[i + 1] - bps[i]
        reach = length + 1e-8 * scale
        spread = sum(abs(a) * reach ** (k + 1) for k, a in enumerate(slope))
        near = np.abs((bps[i] - c) - seg[0]) <= 2.0 * spread + 1e-6 * scale
        for ci, si in zip(c[near].tolist(), scale[near].tolist()):
            out.extend(t for t in _segment_crossings(seg, bps[i], length,
                                                     ci, si)
                       if lo < t < hi)
    return out


def _forced_nodes(problem: DelayProblem, horizon: float) -> np.ndarray:
    s = problem.start
    nodes = {s, horizon}
    for sig in (problem.p, problem.tau):
        nodes.update(b for b in sig.breakpoints if s < b < horizon)
    targets = set(problem.p.breakpoints) | set(problem.tau.breakpoints) \
        | set(problem.history.breakpoints) | {s}
    nodes.update(_lag_crossings(problem.tau, list(targets), s, horizon))
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
# most steps one integration may take: about 100× the longest run the
# package's tests and scripts make (94,248 steps, reproduce_examples.py
# --periods 30 --step 0.002), and 240 MB of nodes, x and v
_MAX_STEPS = 10_000_000

# where a stage's delayed value x(u), u = σ − τ(σ), comes from
_ODE = 0      # no delay: the stage's own x
_OVERLAP = 1  # u inside the step: the step's provisional interpolant
_DENSE = 2    # u at or before the step: Hermite read of accepted output
_VALUE = 3    # a value known before the step: history, x(s⁻) or x(s⁺)
_RAISE = 4    # a negative delay, or u below the history


def _step_grid(nodes: np.ndarray, counts: np.ndarray) -> tuple:
    """Every step node, and the index of the first step of each gap between
    forced nodes (plus a last entry: the step count).

    A gap [a, b] is cut into n equal steps of h = (b − a)/n; its interior
    nodes are a + k·h and its last node is b itself.
    """
    parts = [nodes[:1]]
    for g, n_sub in enumerate(counts.tolist()):
        a, b = nodes[g], nodes[g + 1]
        parts.append(a + np.arange(1, n_sub) * ((b - a) / n_sub))
        parts.append(nodes[g + 1:g + 2])
    return np.concatenate(parts), np.concatenate(([0], np.cumsum(counts)))


class _ChunkPlan:
    """Stage data of steps c0 … c1−1, computed with numpy before they run.

    Row r of each (3, m) array is one stage time σ of the m steps: t₀, the
    midpoint (read by both middle RK4 stages) and t₁. ``kind`` says where
    the stage's delayed value x(u), u = σ − τ(σ), comes from, sorted by the
    scalar scheme's tests in their order; ``neg_p`` is −p(σ), ``hv`` the
    value of a _VALUE stage, ``du`` = u − t₀, and ``jj``/``h``/``w`` the
    Hermite bracket and weights of a _DENSE stage, whose last node read is
    ``reach``. A step whose stages all read values or accepted output can
    join a block (``ok``); every other step runs through ``_take_steps``.

    One plan serves k solution columns that differ only in x(s⁺) and
    x′(s⁺) (``x_plus`` holds the k values of x(s⁺)). Only ``hv`` depends on
    the column, so it alone is (3, m, k): a stage reading u = s right of
    the start jump reads its own column's x(s⁺).
    """

    def __init__(self, problem: DelayProblem, ts: np.ndarray, c0: int,
                 c1: int, seg_p: np.ndarray, seg_tau: np.ndarray,
                 tau_m: float, hist_floor: float, hist_at_start: float,
                 x_plus: np.ndarray):
        s = problem.start
        self.c0 = c0
        self.hist_bound = s - tau_m
        t0, t1 = ts[c0:c1], ts[c0 + 1:c1 + 1]
        self.hh = hh = t1 - t0
        tm = t0 + 0.5 * hh
        self.sigma = sigma = np.array((t0, tm, t1))
        self.neg_p = -problem.p.eval_in_segment(seg_p, sigma)
        self.tau = tau = problem.tau.eval_in_segment(seg_tau, sigma)
        tv = np.where(tau < 0.0, 0.0, tau)
        scale = np.abs(sigma)
        self.u = u = sigma - tv
        self.du = u - t0
        right_of_start = tm - tau[1] > s
        at_s = u == s
        # u = s reads x(s⁻) left of the start jump and x(s⁺) right of it;
        # the first step has no accepted step to bracket s, so it reads the
        # initial value x(s⁺) directly instead of through dense output
        first = np.arange(c0, c1) == 0
        self.kind = kind = np.where(
            tau < -1e-12, _RAISE, np.where(
                tv <= 1e-13 * np.where(scale > 1.0, scale, 1.0), _ODE,
                np.where(u > t0, _OVERLAP, np.where(
                    (u > s) | (at_s & right_of_start & ~first), _DENSE,
                    np.where(u < hist_floor, _RAISE, _VALUE)))))
        value = kind == _VALUE
        self.hv = hv = np.where(
            at_s[:, :, None], np.where(right_of_start[:, None], x_plus,
                                       hist_at_start), 0.0)
        hist = value & ~at_s
        if hist.any():
            hv[hist] = problem.history(u[hist])[:, None]
        self.dense = dense = kind == _DENSE
        self.ok = (dense | value).all(axis=0)
        self.reach = np.zeros(c1 - c0, dtype=np.intp)
        self.w = None
        if dense.any():
            # cubic Hermite weights of the dense reads; u lies in its bracket
            # [ts[jj], ts[jj + 1]], so the weight needs no clamp
            jj = np.minimum(np.searchsorted(ts, u, side="right") - 1,
                            np.arange(c0 - 1, c1 - 1))
            self.jj = jj = np.where(dense, jj, 0)
            self.jj1 = jj + 1
            self.reach = np.where(dense, self.jj1, 0).max(axis=0)
            self.h = h = ts[self.jj1] - ts[jj]
            self.w = np.stack(_hermite_weights(
                np.where(dense, (u - ts[jj]) / h, 0.0)))
        self.hh2 = 0.5 * hh
        self.hh6 = hh / 6.0

    def advance(self, b: int, e: int, xs: np.ndarray, vs: np.ndarray):
        """Take steps b … e−1 of the chunk as one block.

        Every stage reads the history or nodes up to the block's first node,
        so no v-stage depends on the block's own x: the v increments come
        first, then the x increments from the v at each step's start, each
        solution column summed in step order by ``np.add.accumulate``. The
        step data broadcast over the column axis of the (n, k) ``xs`` and
        ``vs``, so each column gets the operations of a run of its own.
        """
        j0, j1 = self.c0 + b, self.c0 + e
        delayed = self.hv[:, b:e]
        if self.w is not None:
            jj, jj1 = self.jj[:, b:e], self.jj1[:, b:e]
            past = _hermite(xs[jj], vs[jj], xs[jj1], vs[jj1],
                            self.h[:, b:e, None], self.w[:, :, b:e, None])
            delayed = np.where(self.dense[:, b:e, None], past, delayed)
        k1v, k2v, k4v = self.neg_p[:, b:e, None] * delayed
        hh, hh2, hh6 = (self.hh[b:e, None], self.hh2[b:e, None],
                        self.hh6[b:e, None])
        # both middle stages read the midpoint's delayed value: k3v = k2v
        vs[j0 + 1:j1 + 1] = hh6 * (k1v + 2 * k2v + 2 * k2v + k4v)
        np.add.accumulate(vs[j0:j1 + 1], out=vs[j0:j1 + 1])
        v0 = vs[j0:j1]
        k2x = v0 + hh2 * k1v
        k3x = v0 + hh2 * k2v
        k4x = v0 + hh * k2v
        xs[j0 + 1:j1 + 1] = hh6 * (v0 + 2 * k2x + 2 * k3x + k4x)
        np.add.accumulate(xs[j0:j1 + 1], out=xs[j0:j1 + 1])

    def dense_read(self, r: int, k: int, xs: np.ndarray, vs: np.ndarray
                   ) -> float:
        """x(u) of the _DENSE stage in row r of step k, from accepted output."""
        j0, j1 = self.jj.item(r, k), self.jj1.item(r, k)
        return _hermite(xs.item(j0), vs.item(j0), xs.item(j1), vs.item(j1),
                        self.h.item(r, k), self.w[:, r, k].tolist())

    def error(self, k: int) -> Exception:
        """What the first _RAISE stage of step k raises."""
        r = self.kind[:, k].tolist().index(_RAISE)
        tv = self.tau.item(r, k)
        if tv < -1e-12:
            return DomainError(
                f"delay {tv} negative at t = {self.sigma.item(r, k)}")
        return HistoryDomainError(
            f"delayed argument {self.u.item(r, k)} reaches below "
            f"start − τ_m = {self.hist_bound}")


def _rk4(x0: float, v0: float, hh: float, hh2: float, hh6: float,
         n0: float, nm: float, n1: float, d0, dm, d1) -> tuple:
    """One classical RK4 step of x″ = −p·x(u) from (x0, v0): n is −p and d
    the delayed value at t₀, the midpoint and t₁, None for a stage that
    reads its own x (no delay)."""
    k1v = n0 * (x0 if d0 is None else d0)
    k2x = v0 + hh2 * k1v
    k2v = nm * (x0 + hh2 * v0 if dm is None else dm)
    k3x = v0 + hh2 * k2v
    k3v = nm * (x0 + hh2 * k2x if dm is None else dm)
    k4x = v0 + hh * k3v
    k4v = n1 * (x0 + hh * k3x if d1 is None else d1)
    return (x0 + hh6 * (v0 + 2 * k2x + 2 * k3x + k4x),
            v0 + hh6 * (k1v + 2 * k2v + 2 * k3v + k4v))


def _delayed_step(plan: _ChunkPlan, k: int, col: int, kinds: tuple,
                  x0: float, v0: float, hh: float, hh2: float, hh6: float,
                  n0: float, nm: float, n1: float, xs: np.ndarray,
                  vs: np.ndarray) -> tuple:
    """(x₁, v₁) of step k of the chunk in solution column ``col`` (whose
    output ``xs``/``vs`` are), some of whose stages read a delayed value;
    ``kinds`` holds the stage kinds of its three rows.

    A step with an overlap stage is taken once with the overlap read
    extrapolated linearly from t₀, then twice more against the provisional
    interpolant of its previous pass; a step with a _RAISE stage raises.
    """
    d = [None, None, None]
    over = []
    for r, kind in enumerate(kinds):
        if kind == _VALUE:
            d[r] = plan.hv.item(r, k, col)
        elif kind == _DENSE:
            d[r] = plan.dense_read(r, k, xs, vs)
        elif kind == _OVERLAP:
            du = plan.du.item(r, k)
            d[r] = x0 + v0 * du
            over.append((r, du))
        elif kind == _RAISE:
            raise plan.error(k)
    x1, v1 = _rk4(x0, v0, hh, hh2, hh6, n0, nm, n1, *d)
    if over:
        weights = [(r, _hermite_weights(du / hh)) for r, du in over]
        for _ in range(2):
            for r, w in weights:
                d[r] = _hermite(x0, v0, x1, v1, hh, w)
            x1, v1 = _rk4(x0, v0, hh, hh2, hh6, n0, nm, n1, *d)
    return x1, v1


def _take_steps(plan: _ChunkPlan, b: int, e: int, xs: np.ndarray,
                vs: np.ndarray) -> None:
    """Take steps b … e−1 of the chunk one at a time, each stage's delayed
    value read from the plan, with the floating-point operations of the
    scalar RK4 scheme in its order; one solution column after the other."""
    n0s, nms, n1s = plan.neg_p[:, b:e].tolist()
    steps = list(zip(
        range(b, e), plan.hh[b:e].tolist(), plan.hh2[b:e].tolist(),
        plan.hh6[b:e].tolist(), n0s, nms, n1s,
        zip(*plan.kind[:, b:e].tolist())))
    for col in range(xs.shape[1]):
        xc, vc = xs[:, col], vs[:, col]
        j = plan.c0 + b
        x0, v0 = xc.item(j), vc.item(j)
        for k, hh, hh2, hh6, n0, nm, n1, kinds in steps:
            if any(kinds):  # not every stage is _ODE
                x0, v0 = _delayed_step(plan, k, col, kinds, x0, v0, hh, hh2,
                                       hh6, n0, nm, n1, xc, vc)
            else:
                x0, v0 = _rk4(x0, v0, hh, hh2, hh6, n0, nm, n1, None, None,
                              None)
            j += 1
            xc[j] = x0
            vc[j] = v0


def integrate(problem: DelayProblem, horizon: float, step: float = 0.01
              ) -> Trajectory:
    """Advance the problem to ``horizon`` with fixed step ≤ ``step``.

    Every forced node (signal breakpoints, first-generation delayed
    crossings) is hit exactly; each gap is subdivided uniformly. Dense
    output is cubic Hermite per step. Raises HistoryDomainError if a delayed
    argument falls below start − τ_m (an ill-posed delay signal), and
    DomainError for nonpositive steps, an empty horizon, or more than
    ``_MAX_STEPS`` steps.
    """
    ts, xs, vs = _integrate_columns((problem,), horizon, step)
    return Trajectory(ts, xs[:, 0], vs[:, 0], problem=problem)


def _integrate_columns(problems: tuple, horizon: float, step: float
                       ) -> tuple:
    """``integrate`` for problems that differ only in x(s⁺) and x′(s⁺), in
    one pass: the nodes and x, x′ of shape (n, k), column c solving
    ``problems[c]``. p, τ, the history and so the step grid and the whole
    chunk plan are those of ``problems[0]``; every column equals a run of
    its own bit for bit."""
    problem = problems[0]
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step}")
    s = problem.start
    if not horizon > s:
        raise DomainError(f"horizon {horizon} must exceed start {s}")
    tau_m = problem.tau_sup(horizon)
    time_scale = max(1.0, abs(s), abs(horizon))
    hist_floor = s - tau_m - 1e-9 * max(1.0, tau_m, time_scale)
    hist_at_start = problem.history.eval_left(s)

    nodes = _forced_nodes(problem, horizon)
    counts = np.maximum(np.ceil(np.diff(nodes) / step - 1e-9), 1.0)
    total = counts.sum()
    if not total <= _MAX_STEPS:
        raise DomainError(
            f"integration to {horizon} with step {step} needs {total:.0f} "
            f"steps, more than the limit of {_MAX_STEPS}")
    ts, first = _step_grid(nodes, counts.astype(np.intp))
    xs = np.zeros((ts.size, len(problems)))
    vs = np.zeros((ts.size, len(problems)))
    x_plus = np.array([prob.initial_value for prob in problems])
    xs[0] = x_plus
    vs[0] = [prob.initial_slope for prob in problems]
    # p and τ are pinned to the segment owning each gap's interior
    mids = nodes[:-1] + 0.5 * (nodes[1:] - nodes[:-1])
    seg_p = problem.p.segment_index(mids)
    seg_tau = problem.tau.segment_index(mids)

    n_steps = ts.size - 1
    for c0 in range(0, n_steps, _CHUNK):
        c1 = min(c0 + _CHUNK, n_steps)
        gap = np.searchsorted(first, np.arange(c0, c1), side="right") - 1
        plan = _ChunkPlan(problem, ts, c0, c1, seg_p[gap], seg_tau[gap],
                          tau_m, hist_floor, hist_at_start, x_plus)
        ok, reach = plan.ok.tolist(), plan.reach.tolist()
        b, m = 0, c1 - c0
        while b < m:
            e = b + 1
            if ok[b]:
                while e < m and ok[e] and reach[e] <= c0 + b:
                    e += 1
            if e - b >= _MIN_BLOCK:
                plan.advance(b, e, xs, vs)
            else:
                # with the following steps that cannot start a block
                while e < m and not ok[e]:
                    e += 1
                _take_steps(plan, b, e, xs, vs)
            b = e
    return ts, xs, vs


# ----------------------------------------------------------------------
# event scanning (shared with the analysis layer)
# ----------------------------------------------------------------------

# sign-change brackets below which the zero and extremum scans bisect each
# bracket in Python floats: a bracket costs about 35 µs that way, while the
# numpy bisection costs about 1.5 ms a scan for anything up to 120 brackets
# (about 27 rounds of some 35 small array calls), so it wins above about 40
_PLAIN_BRACKETS = 40
# default resolution of every zero and extremum scan, the CLI's --tol too
_SCAN_TOL = 1e-10


def _refine_plain(traj: Trajectory, derivative: bool, left: np.ndarray,
                  tol: float) -> list[float]:
    """Bisect each bracket one at a time, in Python floats with the
    operations of ``Trajectory._on_steps`` in its order."""
    ts, xs, vs = traj.ts, traj.xs, traj.vs
    out = []
    for j in left.tolist():
        lo, hi = ts.item(j), ts.item(j + 1)
        step = (lo, hi - lo, xs.item(j), vs.item(j), xs.item(j + 1),
                vs.item(j + 1), derivative)
        f_lo = _dense_on_step(lo, *step)
        if f_lo == 0.0:
            out.append(lo)
            continue
        lo_pos = f_lo > 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fm = _dense_on_step(mid, *step)
            if fm == 0.0 or not lo < mid < hi:  # or lo, hi adjacent floats
                break
            if (fm > 0.0) == lo_pos:
                lo = mid
            else:
                hi = mid
        else:
            mid = 0.5 * (lo + hi)
        out.append(mid)
    return out


def _dense_on_step(q: float, t0: float, h: float, x0: float, v0: float,
                   x1: float, v1: float, derivative: bool) -> float:
    """``Trajectory._on_steps`` at one time q of one step, in floats. A
    bisection midpoint never leaves its step, and rounding is monotone, so
    s is in [0, 1] without the clamp ``_on_steps`` applies."""
    s = (q - t0) / h
    if derivative:
        return _hermite_slope(x0, v0, x1, v1, h, s)
    return _hermite(x0, v0, x1, v1, h, _hermite_weights(s))


def _refine_arrays(traj: Trajectory, derivative: bool, left: np.ndarray,
                   tol: float) -> list[float]:
    """``_refine_plain`` for all brackets at once: one numpy evaluation
    per round for the brackets still open."""
    lo, hi = traj.ts[left], traj.ts[left + 1]
    f_lo = traj._on_steps(left, lo, derivative)
    out = lo.copy()
    live = f_lo != 0.0
    lo_pos = f_lo > 0.0
    while True:
        idx = np.flatnonzero(live & (hi - lo > tol))
        if idx.size == 0:
            break
        lo_i, hi_i = lo[idx], hi[idx]
        mid = 0.5 * (lo_i + hi_i)
        fm = traj._on_steps(left[idx], mid, derivative)
        hit = (fm == 0.0) | (mid <= lo_i) | (mid >= hi_i)
        out[idx[hit]] = mid[hit]
        live[idx[hit]] = False
        same = (fm > 0.0) == lo_pos[idx]
        lo[idx[~hit & same]] = mid[~hit & same]
        hi[idx[~hit & ~same]] = mid[~hit & ~same]
    out[live] = 0.5 * (lo[live] + hi[live])
    return out.tolist()


def _check_tol(tol: float) -> None:
    # NaN or inf would leave every bracket unrefined, zero or less asks for
    # a width no bisection reaches
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")


def _scan_sign_changes(traj: Trajectory, derivative: bool, tol: float
                       ) -> list[tuple]:
    """(t, exact_node) for each sign change of x at the nodes (of x′ if
    ``derivative``), refined by bisection on dense output. Node values that
    are exactly zero are taken as-is; a run of exact zeros yields one
    event. Each bracket is bisected on its own step: it ends at its left
    node if the function vanishes there, at the first midpoint where it
    vanishes or that cannot move (the ends are adjacent floats, wider
    than tol), or else at the centre of its first interval no wider than
    tol."""
    _check_tol(tol)
    ys = traj.vs if derivative else traj.xs
    nonzero = ys != 0.0
    pos = ys > 0.0
    # brackets: adjacent nonzero nodes of opposite sign
    left = np.flatnonzero(nonzero[:-1] & nonzero[1:] & (pos[:-1] != pos[1:]))
    refine = _refine_plain if left.size < _PLAIN_BRACKETS else _refine_arrays
    t_star = refine(traj, derivative, left, tol)
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
        t = float(traj.ts[zeros[k - n_br]])
        if not (out and abs(out[-1][0] - t) <= tol):
            out.append((t, True))
    return out


def _abs_max_so_far(traj: Trajectory, ys: np.ndarray, t: list) -> list:
    """max |y| over the nodes from the start to two steps past each t."""
    j = np.minimum(np.searchsorted(traj.ts, t, side="right") + 2, ys.size - 1)
    return np.maximum.accumulate(np.abs(ys))[j].tolist()


def zero_crossings(traj: Trajectory, tol: float = _SCAN_TOL) -> list[tuple]:
    """Zeros of x as (time, degenerate) pairs, in increasing time.

    Sign-change zeros are refined to ``tol``; tangential touches (a local
    extremum whose value is zero at resolution scale) are flagged degenerate.
    Both floors scale with |x| (|x′| for a zero node's slope) from the start
    to two steps past the event, the values its rounding error grew from, so
    the early peaks of a growing solution stay peaks.
    """
    return _zero_scan(traj, tol)[0]


def _zero_scan(traj: Trajectory, tol: float) -> tuple[list, list]:
    """``zero_crossings`` and the ``extremum_events`` its touch search read
    (none for an identically zero trajectory, which has one zero), so that
    a caller that needs both scans the slope once."""
    _check_tol(tol)
    if not traj.xs.any():
        return [(traj.start, True)], []  # identically zero trajectory
    hits = _scan_sign_changes(traj, False, tol)
    slope_floors = _abs_max_so_far(traj, traj.vs, [t for t, _ in hits])
    zeros = [(t, exact and abs(traj.sample_slope(t)) < 1e-9 * floor)
             for (t, exact), floor in zip(hits, slope_floors)]
    # tangential touches: extrema sitting on zero at resolution scale
    extrema = extremum_events(traj, tol)
    heights = np.abs(traj.sample(np.asarray(extrema))).tolist()
    for i, (t, height, floor) in enumerate(zip(
            extrema, heights, _abs_max_so_far(traj, traj.xs, extrema))):
        if height >= 1e-11 * floor or any(abs(t - z) <= 10 * tol
                                          for z, _ in zeros):
            continue
        k = bisect.bisect(zeros, t, key=lambda z: z[0])
        # the only extremum between two sign changes: the arc they bound is
        # rounding noise around the touch, which is the one zero there
        if (0 < k < len(zeros) and not (zeros[k - 1][1] or zeros[k][1])
                and (i == 0 or extrema[i - 1] < zeros[k - 1][0])
                and (i + 1 == len(extrema) or extrema[i + 1] > zeros[k][0])):
            k -= 1
            del zeros[k:k + 2]
        zeros.insert(k, (t, True))
    return zeros, extrema


def extremum_events(traj: Trajectory, tol: float = _SCAN_TOL) -> list[float]:
    """Interior stationary points located by slope sign change."""
    return [t for t, _ in _scan_sign_changes(traj, True, tol)]


def _scan_events(traj: Trajectory, tol: float = _SCAN_TOL) -> list[Event]:
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
    z(s) = 1, z′(s) = 0 and y(s) = 0, y′(s) = 1 — integrated in one
    two-column pass, each equal to its own ``integrate`` run."""
    zero_hist = PiecewiseSignal.constant(0.0)
    problems = (DelayProblem(p, tau, s, zero_hist, 1.0, 0.0),
                DelayProblem(p, tau, s, zero_hist, 0.0, 1.0))
    ts, xs, vs = _integrate_columns(problems, horizon, step)
    z, y = (Trajectory(ts, xs[:, c], vs[:, c], problem=prob)
            for c, prob in enumerate(problems))
    return z, y


def wronskian(z: Trajectory, y: Trajectory, t):
    """z(t)·y′(t) − z′(t)·y(t) at a float or an array t, from dense output."""
    return z.sample(t) * y.sample_slope(t) - z.sample_slope(t) * y.sample(t)
