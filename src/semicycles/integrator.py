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
``Trajectory.sample``, use one form built from products only
(``_hermite_weights`` and ``_hermite``, whose sum the scalar step loop
writes inline), so its bits do not depend on the host's numpy; zero and
extremum scans bisect each sign change on the one step that brackets it.

Steps run in blocks (the classical method of steps, Bellen & Zennaro 2003).
For each chunk of steps, the signals' own array evaluation gives p and τ at
the three stage times of every step; numpy then sorts each stage by where
its delayed value comes from: its own value (no delay), the step's
provisional interpolant (overlap), accepted output, the history, or an
error, which the plan raises. A chunk with no delay plans nothing more; any
other also gets the bracket of each read of accepted output and the
Hermite weights of every read. That chunk plan is the only place the step
loop gets p, τ and the delayed argument from. A block is a maximal run of
steps whose stages all read the history or output accepted before the
block's first node; two bisections find its end. Inside a block no v-stage
depends on the block's own x, so one vectorized Hermite gather gives the v
increments, running sums give v, and then x follows the same way. Every
other step (a zero delay, an overlap with the step, or a run too short to
pay for numpy) is taken alone in Python floats, by an RK4 body for a chunk
with no delay or by one that reads each stage as the plan says. Both paths
perform the same floating-point operations in the same order, so the
trajectory does not depend on how the steps were grouped.

The integrator carries a column axis: x and x′ are (n, k) arrays, k
solutions of problems that differ only in x(s⁺) and x′(s⁺). They share
the step grid and the whole chunk plan except the values a stage reads at
u = s right of the start jump. A block broadcasts its step data over the
columns, and the scalar kernel takes its steps once per column, so every
column equals a run of its own bit for bit.

Problems that differ in everything still share the blocks' fixed numpy
cost when they run in lockstep (the ensemble idea of DifferentialEquations.jl,
Rackauckas & Nie 2017). ``_integrate_columns`` is a generator: it plans
its step grid, chunks and scalar runs as above, but yields each block
instead of taking it. ``_integrate_many`` drives several such groups of
one column count, whose nodes lie one after the other in one shared x and
x′ buffer; each round it takes every group's ready block with one
``_advance_blocks`` call, which gathers by global node index and keeps
each block's running sums in a row of their own, so every group equals a
run of its own bit for bit. A group that raises hands its exception to its
caller and leaves the others as they would be alone. ``integrate`` and
``fundamental_system`` (its pair in one two-column pass) are the one-group
case, the harness's suites the many-group one.

A zero or extremum scan bisects each sign change of x or x′ on its own
step, one bracket after the other, in Python floats with the operations of
``Trajectory.sample`` (or ``sample_slope``) in their order. A scan refuses
a tol that is not finite and positive (DomainError) before any work.

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
from functools import cached_property
from itertools import accumulate, repeat

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
        h = self.ts[j + 1] - self.ts[j]
        s = np.clip((q - self.ts[j]) / h, 0.0, 1.0)
        x0, x1 = self.xs[j], self.xs[j + 1]
        v0, v1 = self.vs[j], self.vs[j + 1]
        out = (_hermite_slope(x0, v0, x1, v1, h, s) if derivative
               else _hermite(x0, v0, x1, v1, h, _hermite_weights(s)))
        return out if np.ndim(t) else float(out[0])


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
    q = [-a for a in seg]
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
# shortest run of steps advanced as a numpy block: a block costs 35-65 µs,
# a scalar step reading accepted output 3-5 µs per column, so one column
# breaks even near 10-15 steps and two (fundamental_system, most short
# runs) near 5-8; yet the suites time the same within noise at 3, 6 and 10
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
    midpoint (read by both middle RK4 stages) and t₁; ``neg_p`` is −p(σ).
    A chunk with no delayed stage builds nothing more (``kind`` is None).
    Otherwise ``kind`` says where each stage's delayed value x(u),
    u = σ − τ(σ), comes from, sorted by the scalar scheme's tests in their
    order (a _RAISE stage raises here); ``hv`` is the value of a _VALUE
    stage, ``jj``/``h`` the Hermite bracket of a _DENSE stage, whose last
    node read is ``reach``, and ``w`` the weights of each _DENSE and
    _OVERLAP read. A step whose stages all read values or accepted output
    can join a block (``ok``); every other step runs through
    ``_take_steps``, which reads ``table`` and ``scalar``.

    One plan serves k solution columns that differ only in x(s⁺) and
    x′(s⁺) (``x_plus`` holds the k values of x(s⁺)). Only ``hv`` depends on
    the column, so it alone is (3, m, k): a stage reading u = s right of
    the start jump reads its own column's x(s⁺). When every stage of the
    chunk reads past s, no stage reads a known value and ``hv`` is None.
    """

    def __init__(self, problem: DelayProblem, ts: np.ndarray, c0: int,
                 c1: int, seg_p: np.ndarray, seg_tau: np.ndarray,
                 tau_m: float, hist_floor: float, hist_at_start: float,
                 x_plus: np.ndarray):
        s = problem.start
        self.c0 = c0
        t0, t1 = ts[c0:c1], ts[c0 + 1:c1 + 1]
        # per step, hh, hh/2, hh/6 and −p, then each stage's h and weights:
        # what the scalar loop reads, row by row of its transpose
        self.table = table = np.empty((21, c1 - c0))
        self.hh = hh = np.subtract(t1, t0, out=table[0])
        self.hh2 = np.multiply(0.5, hh, out=table[1])
        self.hh6 = np.divide(hh, 6.0, out=table[2])
        tm = t0 + 0.5 * hh
        sigma = np.array((t0, tm, t1))
        self.neg_p = np.negative(problem.p.eval_in_segment(seg_p, sigma),
                                 out=table[3:6])
        tau = problem.tau.eval_in_segment(seg_tau, sigma)
        tv = np.where(tau < 0.0, 0.0, tau)
        neg = tau < -1e-12
        ode = tv <= 1e-13 * np.maximum(np.abs(sigma), 1.0)
        self.kind = None
        if ode.all() and not neg.any():
            return
        self.u = u = sigma - tv
        self.kind = kind = np.where(neg, _RAISE, np.where(
            ode, _ODE, np.where(u > t0, _OVERLAP, _DENSE)))
        self.hv = None
        if not (u > s).all():
            # u = s reads x(s⁻) left of the start jump and x(s⁺) right of
            # it; the first step has no accepted step to bracket s, so it
            # reads the initial value x(s⁺) directly instead of through
            # dense output
            right_of_start = tm - tau[1] > s
            at_s = u == s
            first = np.arange(c0, c1) == 0
            known = (kind == _DENSE) & ~(u > s) \
                & ~(at_s & right_of_start & ~first)
            kind[known] = np.where(u[known] < hist_floor, _RAISE, _VALUE)
            self.hv = hv = np.where(
                at_s[:, :, None], np.where(right_of_start[:, None], x_plus,
                                           hist_at_start), 0.0)
            hist = (kind == _VALUE) & ~at_s
            if hist.any():
                hv[hist] = problem.history(u[hist])[:, None]
        raising = kind == _RAISE
        if raising.any():  # what the first _RAISE stage raises
            k = int(raising.any(axis=0).argmax())
            r = kind[:, k].tolist().index(_RAISE)
            if tau.item(r, k) < -1e-12:
                raise DomainError(f"delay {tau.item(r, k)} negative at "
                                  f"t = {sigma.item(r, k)}")
            raise HistoryDomainError(
                f"delayed argument {u.item(r, k)} reaches below "
                f"start − τ_m = {s - tau_m}")
        self.dense = dense = kind == _DENSE
        over = kind == _OVERLAP
        self.ok = (dense | (kind == _VALUE)).all(axis=0)
        # a _DENSE read's bracket [ts[jj], ts[jj + 1]] holds u, so its weight
        # needs no clamp; any other stage is given its step's left node
        left = np.arange(c0, c1)
        jj = np.minimum(np.searchsorted(ts, u, side="right"), left) - 1
        self.jj = jj = np.where(dense, jj, left)
        self.jj1 = jj + 1
        self.reach = np.where(dense, self.jj1, 0).max(axis=0)
        # the bracket's width h and the fraction of it read; an overlap read
        # takes the step as its bracket, and its first pass reads h = u − t₀
        h = ts[self.jj1] - ts[jj]
        frac = np.where(dense, (u - ts[jj]) / h, 0.0)
        if over.any():
            du = u - t0
            frac = np.where(over, du / hh, frac)
            h = np.where(over, du, h)
        hw = table[6:].reshape(5, 3, c1 - c0)
        hw[0], hw[1:] = h, _hermite_weights(frac)
        self.h, self.w = hw[0], hw[1:]

    @cached_property
    def scalar(self) -> tuple:
        """Per step: the kinds of its stages and the left node of each
        _DENSE bracket counted from the step's right node (−1: its left
        node); and a list of the first node each step reads."""
        left = np.arange(self.c0, self.c0 + self.hh.size)
        return (np.concatenate((self.kind, self.jj - left - 1)).T,
                self.jj.min(axis=0).tolist())

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
        jj, jj1 = self.jj[:, b:e], self.jj1[:, b:e]
        delayed = _hermite(xs[jj], vs[jj], xs[jj1], vs[jj1],
                           self.h[:, b:e, None], self.w[:, :, b:e, None])
        if self.hv is not None:
            delayed = np.where(self.dense[:, b:e, None], delayed,
                               self.hv[:, b:e])
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


def _take_steps(plan: _ChunkPlan, b: int, e: int, xs: np.ndarray,
                vs: np.ndarray) -> None:
    """Take steps b … e−1 of the chunk one at a time, one solution column
    after the other, by classical RK4 in Python floats.

    A chunk with no delayed stage runs RK4 alone. Any other step reads each
    stage's delayed value as the plan says: its own x (_ODE), a known
    value, a Hermite read of accepted output, or an overlap read. A run
    keeps its nodes in Python lists that start with the nodes it reads
    below its first node: the whole span from the lowest, or, when that is
    more than six nodes a step, only the two of each bracket, so the lists
    grow with the run and not with the delay. A step with an overlap stage
    is taken once with that read extrapolated linearly from t₀, then twice
    more against the interpolant of its previous pass; stage 0 never reads
    inside its own step, so k1v and k2x are the same in every pass."""
    j0, j1 = plan.c0 + b, plan.c0 + e
    if plan.kind is None:  # each stage reads its own x
        steps = zip(plan.hh[b:e].tolist(), plan.hh2[b:e].tolist(),
                    plan.hh6[b:e].tolist(), *plan.neg_p[:, b:e].tolist())
        if xs.shape[1] > 1:
            steps = list(steps)
        for xc, vc in zip(xs.T, vs.T):
            x0, v0 = xc.item(j0), vc.item(j0)
            out_x, out_v = [], []
            for hh, hh2, hh6, n0, nm, n1 in steps:
                k1v = n0 * x0
                k2x = v0 + hh2 * k1v
                k2v = nm * (x0 + hh2 * v0)
                k3x = v0 + hh2 * k2v
                k3v = nm * (x0 + hh2 * k2x)
                k4x = v0 + hh * k3v
                k4v = n1 * (x0 + hh * k3x)
                x0 = x0 + hh6 * (v0 + 2 * k2x + 2 * k3x + k4x)
                v0 = v0 + hh6 * (k1v + 2 * k2v + 2 * k3v + k4v)
                out_x.append(x0)
                out_v.append(v0)
            xc[j0 + 1:j1 + 1] = out_x
            vc[j0 + 1:j1 + 1] = out_v
        return
    reads, first = plan.scalar
    rows, reads = plan.table.T[b:e], reads[b:e].tolist()
    # a gathered bracket's read is pointed at its pair in front of the list
    lo = min(first[b:e])
    pre = slice(lo, j0 + 1)
    if j0 - lo > 6 * (e - b):
        pre = []
        for i in (i for i, f in enumerate(first[b:e]) if f < j0):
            row = reads[i]
            for r in (3, 4, 5):
                if row[r] < -1 - i:  # bracket [a, a + 1] with a < j0
                    a = j0 + i + 1 + row[r]
                    row[r] = len(pre)
                    pre += (a, a + 1)
        pre.append(j0)
    for col, (xc, vc) in enumerate(zip(xs.T, vs.T)):
        X, V = xc[pre].tolist(), vc[pre].tolist()
        x0, v0 = X[-1], V[-1]
        known = (repeat(None) if plan.hv is None
                 else plan.hv[:, b:e, col].T.tolist())
        for (hh, hh2, hh6, n0, nm, n1, h0, hm, h1, p0, q0, r0, p1, q1, r1,
             p2, q2, r2, p3, q3, r3), (k0, km, k1, i0, im, i1), val in zip(
                 map(np.ndarray.tolist, rows), reads, known):
            if k0 == _DENSE:
                d0 = (X[i0] * p0 + V[i0] * h0 * p1 + X[i0 + 1] * p2
                      + V[i0 + 1] * h0 * p3)
            elif k0 == _VALUE:
                d0 = val[0]
            else:
                d0 = x0
            if km == _DENSE:
                dm = (X[im] * q0 + V[im] * hm * q1 + X[im + 1] * q2
                      + V[im + 1] * hm * q3)
            elif km == _OVERLAP:
                dm = x0 + v0 * hm
            else:
                dm = val[1] if km == _VALUE else None
            if k1 == _DENSE:
                d1 = (X[i1] * r0 + V[i1] * h1 * r1 + X[i1 + 1] * r2
                      + V[i1 + 1] * h1 * r3)
            elif k1 == _OVERLAP:
                d1 = x0 + v0 * h1
            else:
                d1 = val[2] if k1 == _VALUE else None
            k1v = n0 * d0
            k2x = v0 + hh2 * k1v
            over = km == _OVERLAP or k1 == _OVERLAP
            for later in (False, True, True) if over else (False,):
                if later:  # read the previous pass's interpolant
                    if km == _OVERLAP:
                        dm = x0 * q0 + v0 * hh * q1 + x1 * q2 + v1 * hh * q3
                    if k1 == _OVERLAP:
                        d1 = x0 * r0 + v0 * hh * r1 + x1 * r2 + v1 * hh * r3
                k2v = nm * (x0 + hh2 * v0 if dm is None else dm)
                k3x = v0 + hh2 * k2v
                k3v = nm * (x0 + hh2 * k2x) if dm is None else k2v
                k4x = v0 + hh * k3v
                k4v = n1 * (x0 + hh * k3x if d1 is None else d1)
                x1 = x0 + hh6 * (v0 + 2 * k2x + 2 * k3x + k4x)
                v1 = v0 + hh6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            X.append(x1)
            V.append(v1)
            x0, v0 = x1, v1
        xc[j0 + 1:j1 + 1] = X[b - e:]
        vc[j0 + 1:j1 + 1] = V[b - e:]


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
    problems = (problem,)
    return _trajectories(problems, _integrate_one(problems, horizon, step))[0]


def _integrate_columns(problems: tuple, horizon: float, step: float):
    """``integrate`` for problems that differ only in x(s⁺) and x′(s⁺), as
    a generator that ``_integrate_many`` drives. It yields the node count
    n and is sent the (n, k) x and x′ arrays to fill, column c solving
    ``problems[c]``; then it yields each block (plan, b, e) for the driver
    to advance before it goes on, and returns the nodes. p, τ, the history
    and so the step grid and the whole chunk plan are those of
    ``problems[0]``; every column equals a run of its own bit for bit."""
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
    xs, vs = yield ts.size
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
        b, m = 0, c1 - c0
        if plan.kind is None:
            _take_steps(plan, b, m, xs, vs)
            continue
        ok = plan.ok.tolist()
        ok_at = np.flatnonzero(plan.ok).tolist() + [m]
        bad_at = np.flatnonzero(~plan.ok).tolist() + [m]
        # no step reads past its own left node, so the first step past b to
        # read past node c0 + b is the first whose running-max reach does
        reach = np.maximum.accumulate(plan.reach).tolist()
        while b < m:
            e = b + 1
            if ok[b]:
                e = min(bad_at[bisect.bisect_left(bad_at, b)],
                        bisect.bisect_right(reach, c0 + b))
            if ok[b] and e - b >= _MIN_BLOCK:
                yield plan, b, e
            else:
                # with the following steps that cannot start a block
                e = ok_at[bisect.bisect_left(ok_at, e)]
                _take_steps(plan, b, e, xs, vs)
            b = e
    return ts


def _advance_blocks(blocks: list, xs: np.ndarray, vs: np.ndarray) -> None:
    """Take every block (plan, b, e, offset) of a round in one pass, each
    group's nodes lying at its offset in the shared (N, k) ``xs`` and
    ``vs``, with the operations ``_ChunkPlan.advance`` gives each alone.

    One block goes through ``advance`` itself. Otherwise the blocks' steps
    are concatenated: the Hermite gather reads global node indices, and the
    RK4 arithmetic runs on all steps at once. Each block's running sums then
    take one row of a zero-padded (P, L + 1, k) array, led by the block's
    first node, so ``np.add.accumulate`` along the rows adds each block's
    steps in the same order as ``advance`` does."""
    if len(blocks) == 1:
        plan, b, e, off = blocks[0]
        plan.advance(b, e, xs[off:], vs[off:])
        return
    lens = [e - b for _, b, e, _ in blocks]
    size = sum(lens)
    width = max(lens) + 1
    # step i of the concatenation, step i − i0 of block r, ends at padded
    # row r·width + 1 + i − i0 and at node j0 + 1 + i − i0, and its
    # bracket indices shift by its group's offset
    j0, shift = [], []
    for r, ((plan, b, _, off), i) in enumerate(
            zip(blocks, accumulate(lens, initial=0))):
        j0.append(off + plan.c0 + b)
        shift.append((off, r * width + 1 - i, j0[-1] + 1 - i))
    shift = np.repeat(np.array(shift), lens, axis=0)
    flat = np.arange(size) + shift[:, 1]
    dst = np.arange(size) + shift[:, 2]
    steps = np.concatenate([plan.table[:, b:e] for plan, b, e, _ in blocks],
                           axis=1)
    jj = np.concatenate([plan.jj[:, b:e] for plan, b, e, _ in blocks],
                        axis=1)
    jj += shift[:, 0]
    jj1 = jj + 1
    delayed = _hermite(xs[jj], vs[jj], xs[jj1], vs[jj1], steps[6:9, :, None],
                       steps[9:].reshape(4, 3, size, 1))
    if any(plan.hv is not None for plan, *_ in blocks):
        k = xs.shape[1]
        dense = np.concatenate([plan.dense[:, b:e]
                                for plan, b, e, _ in blocks], axis=1)
        hv = np.concatenate([np.zeros((3, e - b, k)) if plan.hv is None
                             else plan.hv[:, b:e]
                             for plan, b, e, _ in blocks], axis=1)
        delayed = np.where(dense[:, :, None], delayed, hv)
    k1v, k2v, k4v = steps[3:6, :, None] * delayed
    hh, hh2, hh6 = steps[0, :, None], steps[1, :, None], steps[2, :, None]
    sums = np.zeros((len(blocks) * width, xs.shape[1]))
    sums[::width] = vs[j0]
    # both middle stages read the midpoint's delayed value: k3v = k2v
    sums[flat] = hh6 * (k1v + 2 * k2v + 2 * k2v + k4v)
    rows = sums.reshape(len(blocks), width, -1)
    np.add.accumulate(rows, axis=1, out=rows)
    vs[dst] = sums[flat]
    v0 = sums[flat - 1]
    k2x = v0 + hh2 * k1v
    k3x = v0 + hh2 * k2v
    k4x = v0 + hh * k2v
    sums = np.zeros_like(sums)
    sums[::width] = xs[j0]
    sums[flat] = hh6 * (v0 + 2 * k2x + 2 * k3x + k4x)
    rows = sums.reshape(len(blocks), width, -1)
    np.add.accumulate(rows, axis=1, out=rows)
    xs[dst] = sums[flat]


def _integrate_many(groups):
    """Integrate groups (problems, horizon, step), each as
    ``_integrate_columns`` would, in lockstep: every round takes the ready
    block of every group with one ``_advance_blocks`` call. Yields, in the
    groups' order, each group's (nodes, x, x′) or the exception it raised;
    a raising group leaves the others as they would be alone.

    Groups run in batches that share one (N, k) output buffer: a batch
    holds groups of one column count and at most ``_MAX_STEPS`` steps in
    all. A batch runs when its first output is asked for, so a caller that
    lets go of each batch's outputs before it asks for the next one's holds
    one batch's buffers at a time."""
    batch, total, k = [], 0, 0
    for problems, horizon, step in groups:
        run = _integrate_columns(problems, horizon, step)
        try:
            n = next(run)
        except Exception as exc:  # noqa: BLE001 - the group's outcome
            batch.append(exc)
            continue
        if total and (len(problems) != k or total + n - 1 > _MAX_STEPS):
            yield from _lockstep(batch, k)
            batch, total = [], 0
        batch.append((run, n))
        total += n - 1
        k = len(problems)
    yield from _lockstep(batch, k)


def _lockstep(batch: list, k: int):
    """The outcomes of one batch of ``_integrate_many``: its runs, each
    past its first yield (or the exception that stopped it there), in one
    shared buffer of k columns."""
    size = sum(entry[1] for entry in batch if isinstance(entry, tuple))
    xs, vs = np.zeros((size, k)), np.zeros((size, k))
    out = list(batch)
    live, off = [], 0
    for i, entry in enumerate(batch):
        if isinstance(entry, tuple):
            run, n = entry
            live.append((i, run, off, (xs[off:off + n], vs[off:off + n])))
            off += n
    while live:
        ready, waiting = [], []
        for i, run, off, reply in live:
            try:
                plan, b, e = run.send(reply)
            except StopIteration as stop:
                n = stop.value.size
                out[i] = stop.value, xs[off:off + n], vs[off:off + n]
                continue
            except Exception as exc:  # noqa: BLE001 - the group's outcome
                out[i] = exc
                continue
            ready.append((plan, b, e, off))
            waiting.append((i, run, off, None))
        if ready:
            _advance_blocks(ready, xs, vs)
        live = waiting
    yield from out


def _integrate_one(problems: tuple, horizon: float, step: float) -> tuple:
    """(nodes, x, x′) of one group; raises what the group raised."""
    out, = _integrate_many(((problems, horizon, step),))
    if isinstance(out, Exception):
        raise out
    return out


def _trajectories(problems: tuple, out: tuple) -> tuple:
    """One Trajectory per column of a group's (nodes, x, x′)."""
    ts, xs, vs = out
    return tuple(Trajectory(ts, xs[:, c], vs[:, c], problem=prob)
                 for c, prob in enumerate(problems))


# ----------------------------------------------------------------------
# event scanning (shared with the analysis layer)
# ----------------------------------------------------------------------

# default resolution of every zero and extremum scan, the CLI's --tol too
_SCAN_TOL = 1e-10


def _refine(traj: Trajectory, derivative: bool, left: np.ndarray,
            tol: float) -> list[float]:
    """Bisect each bracket [ts[j], ts[j + 1]] on its own step, in Python
    floats with the operations of ``Trajectory._eval`` in its order. A
    midpoint never leaves its step, and rounding is monotone, so its
    fraction s of the step is in [0, 1] without the clamp ``_eval``
    applies."""
    ts, xs, vs = traj.ts, traj.xs, traj.vs
    out = []
    for j in left.tolist():
        lo, hi = ts.item(j), ts.item(j + 1)
        t0, h = lo, hi - lo
        x0, x1 = xs.item(j), xs.item(j + 1)
        v0, v1 = vs.item(j), vs.item(j + 1)
        # s = 0 at the left node
        f_lo = (_hermite_slope(x0, v0, x1, v1, h, 0.0) if derivative
                else _hermite(x0, v0, x1, v1, h, _hermite_weights(0.0)))
        if f_lo == 0.0:
            out.append(lo)
            continue
        lo_pos = f_lo > 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            s = (mid - t0) / h
            fm = (_hermite_slope(x0, v0, x1, v1, h, s) if derivative
                  else _hermite(x0, v0, x1, v1, h, _hermite_weights(s)))
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
    t_star = _refine(traj, derivative, left, tol)
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
    problems = _fundamental_problems(p, tau, s)
    return _trajectories(problems, _integrate_one(problems, horizon, step))


def _fundamental_problems(p: PiecewiseSignal, tau: PiecewiseSignal,
                          s: float) -> tuple:
    """The problems of z and y, one group of ``_integrate_many``."""
    zero_hist = PiecewiseSignal.constant(0.0)
    return (DelayProblem(p, tau, s, zero_hist, 1.0, 0.0),
            DelayProblem(p, tau, s, zero_hist, 0.0, 1.0))


def wronskian(z: Trajectory, y: Trajectory, t):
    """z(t)·y′(t) − z′(t)·y(t) at a float or an array t, from dense output."""
    return z.sample(t) * y.sample_slope(t) - z.sample_slope(t) * y.sample(t)
