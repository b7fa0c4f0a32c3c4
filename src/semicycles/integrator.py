"""Method-of-steps integration of x″(t) + p(t)·x(t−τ(t)) = 0.

Fixed-step classical RK4 on (x, x′), with a step endpoint on each forced node
(the signals' breakpoints and the first-generation discontinuity points
{t : t−τ(t) = breakpoint or = start}), each gap subdivided uniformly. A
stage at σ reads x(u), u = σ − τ(σ), from the history (u ≤ s), from dense
output of accepted steps, or, when the delay is shorter than the step,
from a provisional interpolant of the step itself, sub-iterated twice.
Every cubic Hermite read, and ``Trajectory.sample``, uses one product-only
form (``_hermite_weights``), so its bits do not depend on the host's numpy.

A plan of each chunk of steps sorts every stage by where it reads and
cuts the steps into runs: steps whose stages all read values or accepted
output can make a block (the method of steps, Bellen & Zennaro 2003),
which numpy takes at once. A step whose stages all read their own x (no
delay) runs by its linear map: the equation is linear, so the step maps
x₀, x′₀ linearly to x₁, x′₁ (the matrix form of an RK step, Hairer &
Wanner, Solving ODEs II, ch. IV). Every other step runs RK4 in Python
floats. A step's arithmetic depends only on the step, never on how steps
are grouped: ``_advance_blocks`` sums each block in a row of its own, a
block step that runs alone takes the same operations, and a map does not
depend on the other steps planned with it, so neither the chunk length
nor which runs make blocks moves a bit.

Runs share the blocks' numpy cost in lockstep (the ensemble idea of
DifferentialEquations.jl, Rackauckas & Nie 2017). One lockstep pass
(``_integrate_many``) runs its problems in one buffer, every run's ready
block, a lone run's too, in one ``_advance_blocks`` call at a time, and
problems in a row that differ only in x(s⁺) and x′(s⁺), a fundamental
pair, are one run over their buffers, with one plan a chunk.
``integrate`` and ``fundamental_system`` make one pass directly.
``_drive`` serves instances, generators that ask once for the problems
they need integrated (the analysis layer's measurements and the harness's
instances): it integrates all their problems in one pass and sends each
instance its trajectories. A pass of one or two problems, a lone
``integrate`` or a lone pair, plans ``_CHUNK`` steps at a time; a larger
one, whose plans are all alive together, ``_CHUNK_MANY``. A zero
or extremum scan solves each sign change with ``thresholds._root``
(Illinois regula falsi) on its own step's cubic, in Python floats with
``Trajectory.sample``'s operations.

Two conventions matter and are deliberate:

* Within a step, p and τ are evaluated from the segment owning the step's
  interior: a step that ends on a breakpoint reads its last stage from the
  left segment (one-sided limit), which keeps the scheme's order.
* The history is read with the left-limit convention at s, honoring initial
  data with a jump (the fundamental system). A delayed argument of a step
  just right of a crossing that lands exactly on s reads x(s⁺), node 0.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from itertools import accumulate, groupby, repeat

import numpy as np

from .errors import DomainError, HistoryDomainError, SemicycleError
from .signals import (
    PiecewiseSignal,
    _number,
    _real_roots,
    signal_from_dict,
    signal_range,
    signal_to_dict,
)
from .thresholds import _root

__all__ = [
    "DelayProblem",
    "Trajectory",
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
    """One initial-value problem for x″ + p·x(t−τ) = 0: history gives x on
    [s−τ_m, s), initial_value/initial_slope the right limits x(s⁺), x′(s⁺)
    (a jump against the history is allowed)."""

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
            start=_number(data["start"]),
            history=signal_from_dict(data["history"]),
            initial_value=_number(data["initial_value"]),
            initial_slope=_number(data["initial_slope"]),
        )
    except SemicycleError:
        raise
    except KeyError as exc:
        raise DomainError(f"problem object missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed problem object: {exc}") from exc


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


# ---- scaling normalization ----

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
    """Time-compressed problem whose solutions satisfy x̃(t) = x(kt): p
    becomes k²·p(kt) and τ becomes τ(kt)/k, so k = 1/√(esssup|p|) normalizes
    the coefficient to essential bound 1."""
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


# ---- forced nodes (breakpoints + first-generation delayed crossings) ----

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
    return [b + u for u in _real_roots(q, length, scale)
            if -1e-12 * scale <= u <= length + 1e-12 * scale]


def _lag_crossings(tau: PiecewiseSignal, targets, lo: float, hi: float
                   ) -> list[float]:
    """Solutions of t − τ(t) = c in (lo, hi) for every target c, one τ
    segment at a time. A segment where t − τ(t) is constant is skipped; on
    any other only the targets t − τ(t) can reach are solved: a root u of
    c = b − τ₀ + Σ q_j·u^j with |u| ≤ R forces |b − τ₀ − c| ≤ Σ |q_j|·R^j,
    and the test doubles that bound and widens R and the bound far past the
    root finder's window and error, so it never drops a crossing."""
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


# ---- the integrator ----

# steps planned together: a plan costs 65-95 µs at any length and keeps
# about 0.5 MB at 2048 steps with a delay. A round of more than two groups,
# whose plans all live at once, plans _CHUNK_MANY, also the most steps whose
# plan rows the scalar loop turns into lists at once: 2048 there raised the
# suites' peak RSS 11 %, and 256 made them 20 % slower
_CHUNK = 2048
_CHUNK_MANY = 512
# shortest numpy block: one costs 35-65 µs, a scalar step 3-5 µs; the
# suites time the same within noise at 3, 6 and 10
_MIN_BLOCK = 3
# most steps of one integration: 100× the package's longest run (94,248
# steps, reproduce_examples.py --periods 30 --step 0.002), 240 MB
_MAX_STEPS = 10_000_000

# where a stage's delayed value x(u), u = σ − τ(σ), comes from
_ODE = 0      # no delay: the stage's own x
_OVERLAP = 1  # u inside the step: the step's provisional interpolant
_DENSE = 2    # u at or before the step: Hermite read of accepted output
_VALUE = 3    # a value known before the step: history, x(s⁻) or x(s⁺)
_RAISE = 4    # a negative delay, or u below the history


def _step_grid(nodes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Every step node: a gap [a, b] between forced nodes is cut into n
    steps, with interior nodes a + k·(b − a)/n and last node b itself."""
    parts = [nodes[:1]]
    for g, n_sub in enumerate(counts.tolist()):
        a, b = nodes[g], nodes[g + 1]
        parts.append(a + np.arange(1, n_sub) * ((b - a) / n_sub))
        parts.append(nodes[g + 1:g + 2])
    return np.concatenate(parts)


class _ChunkPlan:
    """Stage data of steps c0 … c1−1, computed with numpy before they run.

    Row r of each (3, m) array is one stage time σ: t₀, the midpoint (read
    by both middle RK4 stages) and t₁. ``table`` holds each step's hh, hh/2,
    hh/6 and −p(σ), then each read's h and weights; with no delayed stage
    (``kind`` None) the plan keeps only its steps' maps. Else ``kind`` says
    where each stage reads x(u), u = σ − τ(σ) (a _RAISE stage raises here),
    ``hv`` each _VALUE stage's history value or x(s⁻) (None if none),
    ``jj`` each read's bracket's left node. A plan reads no initial data:
    x(s⁺) is node 0, so the two runs of a fundamental pair share one. A
    step whose stages all read their own x runs by its map (``coefs``).
    ``runs`` covers the steps in order with (b, e, block) entries: from an
    ok step b, whose stages all read values or accepted output, the ok
    steps before the first that reads past node c0 + b are a block if
    ``_MIN_BLOCK`` or more, else the search goes on at the next ok step
    past them; the steps between blocks run scalar."""

    # (4, m): the map of each step reading its own x (``_step_maps``)
    coefs = None

    def __init__(self, problem: DelayProblem, ts: np.ndarray, c0: int,
                 c1: int, tau_m: float, hist_floor: float,
                 hist_at_start: float):
        s = problem.start
        self.c0 = c0
        t0, t1 = ts[c0:c1], ts[c0 + 1:c1 + 1]
        hh = t1 - t0
        tm = t0 + 0.5 * hh
        sigma = np.array((t0, tm, t1))
        # every stage reads p and τ from the segment owning its step's
        # midpoint: a step's interior holds no breakpoint
        tau = problem.tau.eval_in_segment(problem.tau.segment_index(tm),
                                          sigma)
        tv = np.where(tau < 0.0, 0.0, tau)
        neg = tau < -1e-12
        ode = tv <= 1e-13 * np.maximum(np.abs(sigma), 1.0)
        self.kind = None
        # with no delayed stage no step reads past the map's six rows
        no_delay = ode.all() and not neg.any()
        table = np.empty((6 if no_delay else 21, c1 - c0))
        table[0] = hh
        np.multiply(0.5, hh, out=table[1])
        np.divide(hh, 6.0, out=table[2])
        np.negative(problem.p.eval_in_segment(problem.p.segment_index(tm),
                                              sigma), out=table[3:6])
        if no_delay:
            self.coefs = _step_maps(table)
            self.runs = [(0, c1 - c0, False)]
            return
        self.table = table
        u = sigma - tv
        self.kind = kind = np.where(neg, _RAISE, np.where(
            ode, _ODE, np.where(u > t0, _OVERLAP, _DENSE))).astype(np.int8)
        self.hv = None
        if not (u > s).all():
            # u = s reads x(s⁻) left of the start jump and x(s⁺), node 0,
            # right of it: the first step by an overlap read of width 0,
            # any later one from dense output
            at_s = u == s
            plus = (kind == _DENSE) & at_s & (tm - tau[1] > s)
            kind[plus & (u == t0)] = _OVERLAP
            known = (kind == _DENSE) & ~(u > s) & ~plus
            kind[known] = np.where(u[known] < hist_floor, _RAISE, _VALUE)
            self.hv = hv = np.where(at_s, hist_at_start, 0.0)
            hist = (kind == _VALUE) & ~at_s
            if hist.any():  # in step order: one walk of the segments
                hv.T[hist.T] = problem.history(u.T[hist.T])
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
        dense = kind == _DENSE
        over = kind == _OVERLAP
        del sigma, tau, tv  # freed before the weights' temporaries peak
        # a _DENSE read's bracket [ts[jj], ts[jj + 1]] holds u, so its weight
        # needs no clamp; any other stage is given its step's left node
        left = np.arange(c0, c1)
        jj = np.minimum(np.searchsorted(ts, u, side="right"), left) - 1
        self.jj = jj = np.where(dense, jj, left)
        self.runs = _runs((dense | (kind == _VALUE)).all(axis=0),
                          np.where(dense, jj + 1 - c0, 0).max(axis=0))
        # the bracket's width h and the fraction of it read; an overlap read
        # takes the step as its bracket, and its first pass reads h = u − t₀
        h = ts[jj + 1] - ts[jj]
        frac = np.where(dense, (u - ts[jj]) / h, 0.0)
        if over.any():
            du = u - t0
            frac = np.where(over, du / hh, frac)
            h = np.where(over, du, h)
        del u
        hw = table[6:].reshape(5, 3, c1 - c0)
        hw[0], hw[1:] = h, _hermite_weights(frac)
        # a step whose stages all read their own x runs by its map
        own = np.flatnonzero(ode.all(axis=0)) if ode.any() else ()
        if len(own):
            self.coefs = np.zeros((4, c1 - c0))
            self.coefs[:, own] = _step_maps(table[:, own])


def _runs(ok: np.ndarray, reach: np.ndarray) -> list:
    """``_ChunkPlan.runs`` of steps reading at most node ``reach`` past the
    chunk's first. No step reads past its own left node, so the first step
    past b to read past node b is the first whose running-max reach does."""
    m = ok.size
    ok_at = np.flatnonzero(ok).tolist() + [m]
    bad_at = np.flatnonzero(~ok).tolist() + [m]
    reach = np.maximum.accumulate(reach).tolist()
    runs, a, b = [], 0, ok_at[0]
    while b < m:
        e = min(bad_at[bisect.bisect(bad_at, b)], bisect.bisect(reach, b))
        if e - b >= _MIN_BLOCK:
            runs += [(a, b, False), (b, e, True)] if a < b else [(b, e, True)]
            a = e
        b = ok_at[bisect.bisect_left(ok_at, e)]
    return runs + [(a, m, False)] if a < m else runs


def _step_maps(steps: np.ndarray) -> np.ndarray:
    """The linear map (a, c, f, g), a column, of each step whose ``table``
    column is in ``steps`` and whose stages all read their own x,
    x₁ = a·x₀ + c·x′₀ and x′₁ = f·x₀ + g·x′₀: the bits of the RK4 body on
    x₀ = 1, x′₀ = 0 and on x₀ = 0, x′₀ = 1, with its products by 1 and 0
    and its sums with 0 left out (the leading 0.0 of f keeps its zero
    positive). Every operation is elementwise, so a step's map depends only
    on the step."""
    hh, hh2, hh6, n0, nm, n1 = steps[:6]
    k2x = hh2 * n0
    k3x = hh2 * nm  # also k2v = k3v of the second input
    k3v = nm * (1 + hh2 * k2x)
    a = 1 + hh6 * (2 * k2x + 2 * k3x + hh * k3v)
    f = 0.0 + hh6 * (n0 + 2 * nm + 2 * k3v + n1 * (1 + hh * k3x))
    k2v, k3x = k3x, 1 + hh2 * k3x
    c = hh6 * (3 + 2 * k3x + (1 + hh * k2v))
    g = 1 + hh6 * (4 * k2v + n1 * (hh * k3x))
    return np.array((a, c, f, g))


def _take_steps(plan: _ChunkPlan, b: int, e: int, xs: np.ndarray,
                vs: np.ndarray) -> None:
    """Take steps b … e−1 of the chunk one at a time in Python floats: a step
    whose stages all read their own x by its map, any other by classical
    RK4, reading each stage's delayed value as the plan says: a known value,
    a Hermite read of accepted output, or an overlap read, taken once
    extrapolated linearly from t₀, then twice more against the interpolant
    of its previous pass (stage 0 never reads inside its step, so k1v and
    k2x are the same in every pass). Every node is read and written in
    place, through memoryviews of ``xs`` and ``vs``: they hold the exact
    doubles and are bounds-checked to the run's nodes, so a read reaches
    back as far as the delay does. A step that can join a block takes
    ``_advance_blocks``' operations here, so no step's bits depend on the
    run it falls in."""
    if e - b > _CHUNK_MANY:
        for k in range(b, e, _CHUNK_MANY):
            _take_steps(plan, k, min(k + _CHUNK_MANY, e), xs, vs)
        return
    # kept local: a memoryview can still write once Trajectory has set its
    # arrays read-only
    X, V = xs.data, vs.data
    j = plan.c0 + b
    x0, v0 = X[j], V[j]
    coefs = repeat(None) if plan.coefs is None \
        else zip(*plan.coefs[:, b:e].tolist())
    if plan.kind is None:
        for a, c, f, g in coefs:
            x0, v0 = a * x0 + c * v0, f * x0 + g * v0
            j += 1
            X[j] = x0
            V[j] = v0
        return
    known = repeat(None) if plan.hv is None else plan.hv[:, b:e].T.tolist()
    for (hh, hh2, hh6, n0, nm, n1, h0, hm, h1, p0, q0, r0, p1, q1, r1,
         p2, q2, r2, p3, q3, r3), (k0, km, k1, i0, im, i1), val, coef in zip(
             map(np.ndarray.tolist, plan.table.T[b:e]),
             zip(*plan.kind[:, b:e].tolist(), *plan.jj[:, b:e].tolist()),
             known, coefs):
        j += 1
        if coef is not None and k0 == km == k1 == _ODE:
            a, c, f, g = coef
            x0, v0 = a * x0 + c * v0, f * x0 + g * v0
            X[j] = x0
            V[j] = v0
            continue
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
        s2x = v0 + 2 * k2x  # the sums' leading terms, the same every pass
        over = km == _OVERLAP or k1 == _OVERLAP
        if over:
            bm, b1 = x0 * q0 + v0 * hh * q1, x0 * r0 + v0 * hh * r1
        for later in (False, True, True) if over else (False,):
            if later:  # read the previous pass's interpolant
                if km == _OVERLAP:
                    dm = bm + x1 * q2 + v1 * hh * q3
                if k1 == _OVERLAP:
                    d1 = b1 + x1 * r2 + v1 * hh * r3
            k2v = nm * (x0 + hh2 * v0 if dm is None else dm)
            k3x = v0 + hh2 * k2v
            k3v = nm * (x0 + hh2 * k2x) if dm is None else k2v
            k4x = v0 + hh * k3v
            k4v = n1 * (x0 + hh * k3x if d1 is None else d1)
            x1 = x0 + hh6 * (s2x + 2 * k3x + k4x)
            v1 = v0 + hh6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        X[j] = x0 = x1
        V[j] = v0 = v1


def integrate(problem: DelayProblem, horizon: float, step: float = 0.01
              ) -> Trajectory:
    """Advance the problem to ``horizon`` with fixed step ≤ ``step``, hitting
    every forced node; dense output is cubic Hermite per step. Raises
    HistoryDomainError if a delayed argument falls below start − τ_m, and
    DomainError for a nonpositive step, a horizon that is not finite or is
    within 1e-12·max(1, |start|, |horizon|) of the start or before it, more
    than ``_MAX_STEPS`` steps, or a solution that leaves the float range."""
    groups = [(problem, horizon, step)]
    return _trajectories(groups, _integrate_many(groups))[0]


def _trajectories(groups: list, outcomes: list) -> tuple:
    """The Trajectory of each group from its ``_integrate_many`` outcome;
    the exception of the first group that raised is raised instead."""
    for out in outcomes:
        if isinstance(out, Exception):
            raise out
    return tuple(Trajectory(*out, problem=group[0])
                 for group, out in zip(groups, outcomes))


def _check_horizon(start: float, horizon: float) -> None:
    """DomainError unless start < horizon < ∞."""
    if not start < horizon < math.inf:
        raise DomainError(f"horizon {horizon} must be finite and exceed "
                          f"start {start}")


def _integration(problem: DelayProblem, horizon: float, step: float):
    """``integrate`` as a generator for ``_integrate_many``, of members that
    differ only in x(s⁺) and x′(s⁺), such as z and y of a fundamental pair:
    it yields the node count n, is sent each member's x and x′ arrays of n
    nodes, node 0 written, and the steps to plan at once, yields each block
    (plan, b, e) of a chunk plan's ``runs`` to be taken in every member,
    takes its scalar runs in every member itself, and returns each member's
    (nodes, x, x′), or its DomainError if it left the float range."""
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step}")
    s = problem.start
    _check_horizon(s, horizon)
    time_scale = max(1.0, abs(s), abs(horizon))
    # any closer, and _forced_nodes merges the start into the horizon
    if not horizon - s > 1e-12 * time_scale:
        raise DomainError(f"horizon {horizon} must exceed start {s} by more "
                          f"than {1e-12 * time_scale}")
    tau_m = problem.tau_sup(horizon)
    bounds = (tau_m, s - tau_m - 1e-9 * max(1.0, tau_m, time_scale),
              problem.history.eval_left(s))
    nodes = _forced_nodes(problem, horizon)
    counts = np.maximum(np.ceil(np.diff(nodes) / step - 1e-9), 1.0)
    total = counts.sum()
    if not total <= _MAX_STEPS:
        raise DomainError(
            f"integration to {horizon} with step {step} needs {total:.15g} "
            f"steps, more than the limit of {_MAX_STEPS}")
    ts = _step_grid(nodes, counts.astype(np.intp))
    members, chunk = yield ts.size
    n_steps = ts.size - 1
    for c0 in range(0, n_steps, chunk):
        # past a non-finite node every later one is non-finite too, so the
        # run stops at the next chunk once no member is finite
        if not any(math.isfinite(xs.item(c0)) and math.isfinite(vs.item(c0))
                   for xs, vs in members):
            break
        c1 = min(c0 + chunk, n_steps)
        plan = None  # the last plan goes before the next one is built
        plan = _ChunkPlan(problem, ts, c0, c1, *bounds)
        for b, e, block in plan.runs:
            if block:
                yield plan, b, e
            else:
                for xs, vs in members:
                    _take_steps(plan, b, e, xs, vs)
    outcomes = []
    for xs, vs in members:
        finite = np.isfinite(xs) & np.isfinite(vs)
        outcomes.append((ts, xs, vs) if finite.all() else DomainError(
            f"x or x′ is not finite at t = {ts.item(finite.argmin())}: the "
            "solution left the float range; a shorter horizon avoids it"))
    return outcomes


def _advance_blocks(blocks: list, xs: np.ndarray, vs: np.ndarray) -> None:
    """Take every block (plan, b, e, offset) of a round, each run's nodes at
    its offset in ``xs`` and ``vs``. No stage reads its block's own nodes,
    so the v increments come first, then the x ones from each step's v₀:
    the blocks' steps run concatenated, gathering by global node index, and
    each block's running sums take one row of a zero-padded (P, L + 1) array
    led by its first node, which accumulate adds in step order whatever
    blocks share the round."""
    lens = [e - b for _, b, e, _ in blocks]
    size = sum(lens)
    width = max(lens) + 1
    # step i of the concatenation, step i − i0 of block r, ends at padded
    # row r·width + 1 + i − i0 and at node j0 + 1 + i − i0, and its
    # bracket indices shift by its run's offset
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
    delayed = _hermite(xs[jj], vs[jj], xs[jj1], vs[jj1], steps[6:9],
                       steps[9:].reshape(4, 3, size))
    if any(plan.hv is not None for plan, *_ in blocks):
        dense = np.concatenate([plan.kind[:, b:e] == _DENSE
                                for plan, b, e, _ in blocks], axis=1)
        hv = np.concatenate([np.zeros((3, e - b)) if plan.hv is None
                             else plan.hv[:, b:e]
                             for plan, b, e, _ in blocks], axis=1)
        delayed = np.where(dense, delayed, hv)
    k1v, k2v, k4v = steps[3:6] * delayed
    hh, hh2, hh6 = steps[0], steps[1], steps[2]
    sums = np.zeros(len(blocks) * width)
    sums[::width] = vs[j0]
    # both middle stages read the midpoint's delayed value: k3v = k2v
    sums[flat] = hh6 * (k1v + 2 * k2v + 2 * k2v + k4v)
    rows = sums.reshape(len(blocks), width)
    np.add.accumulate(rows, axis=1, out=rows)
    vs[dst] = sums[flat]
    v0 = sums[flat - 1]
    k2x = v0 + hh2 * k1v
    k3x = v0 + hh2 * k2v
    k4x = v0 + hh * k2v
    sums = np.zeros_like(sums)
    sums[::width] = xs[j0]
    sums[flat] = hh6 * (v0 + 2 * k2x + 2 * k3x + k4x)
    rows = sums.reshape(len(blocks), width)
    np.add.accumulate(rows, axis=1, out=rows)
    xs[dst] = sums[flat]


def _integrate_many(groups: list) -> list:
    """Each group's (nodes, x, x′), integrated as ``integrate`` would, or
    its exception, in order: the groups run in lockstep in one buffer, the
    runs' ready blocks in one ``_advance_blocks`` call at a time, and a
    raising group leaves the others as they would be alone. Groups in a row
    that differ only in x(s⁺) and x′(s⁺) are the members of one run, each
    of its blocks taken at every member's offset."""
    def key(group):
        prob, horizon, step = group
        return (type(prob), id(prob.p), id(prob.tau), id(prob.history),
                repr((prob.start, horizon, step)))

    outcomes, live, size = [], [], 0
    for _, same in groupby(groups, key):
        same = list(same)
        k, run = len(outcomes), _integration(*same[0])
        try:
            n = next(run)
        except Exception as exc:  # noqa: BLE001 - the members' outcome
            outcomes += [exc] * len(same)
            continue
        outcomes += [None] * len(same)
        offsets = range(size, size + len(same) * n, n)
        live.append((k, run, n, offsets, same))
        size += len(same) * n
    xs, vs = np.zeros(size), np.zeros(size)
    chunk = _CHUNK if len(groups) <= 2 else _CHUNK_MANY
    for i, (k, run, n, offsets, same) in enumerate(live):
        for off, (prob, *_) in zip(offsets, same):
            xs[off], vs[off] = prob.initial_value, prob.initial_slope
        live[i] = k, run, offsets, ([(xs[off:off + n], vs[off:off + n])
                                     for off in offsets], chunk)
    # a member that leaves the float range is refused when its run ends
    with np.errstate(over="ignore", invalid="ignore"):
        while live:
            ready, waiting = [], []
            for k, run, offsets, reply in live:
                try:
                    plan, b, e = run.send(reply)
                except StopIteration as stop:
                    outcomes[k:k + len(offsets)] = stop.value
                    continue
                except Exception as exc:  # noqa: BLE001 - the members' outcome
                    outcomes[k:k + len(offsets)] = [exc] * len(offsets)
                    continue
                ready += [(plan, b, e, off) for off in offsets]
                del plan  # it goes with its round
                waiting.append((k, run, offsets, None))
            if ready:
                _advance_blocks(ready, xs, vs)
            live = waiting
    return outcomes


def _drive(instances: list) -> list:
    """What each instance returned, in order; once all have finished, the
    exception of the first one that raised is raised instead.

    An instance is a generator that yields one list of groups (problem,
    horizon, step), or raises first, and is sent one Trajectory per group.
    The groups of all instances are integrated together, in lockstep, in
    one buffer (``_integrate_many``), and each instance is then resumed in
    turn; one whose group raised ends with that group's exception,
    unresumed. An instance that asks a second time is a fault of the
    package and raises at once."""
    results, asking = [None] * len(instances), []
    for i, inst in enumerate(instances):
        try:
            asking.append((i, inst, next(inst)))
        except Exception as exc:  # noqa: BLE001 - the instance's outcome
            results[i] = exc
    outcomes = iter(_integrate_many([g for *_, gs in asking for g in gs]))
    for i, inst, groups in asking:
        try:
            inst.send(_trajectories(groups, [next(outcomes) for _ in groups]))
        except StopIteration as stop:
            results[i] = stop.value
        except Exception as exc:  # noqa: BLE001 - the instance's outcome
            results[i] = exc
        else:
            raise RuntimeError(f"instance {i} asked for integrations twice")
    for out in results:
        if isinstance(out, Exception):
            raise out
    return results


# ---- event scanning (shared with the analysis layer) ----

# default resolution of every zero and extremum scan, the CLI's --tol too
_SCAN_TOL = 1e-10


def _refine(traj: Trajectory, derivative: bool, left: np.ndarray,
            tol: float) -> list[float]:
    """Each bracket [ts[j], ts[j + 1]] solved by ``_root`` on its step's
    cubic, negated where it is negative at the left node, in Python floats
    with ``Trajectory._eval``'s operations; a probe never leaves its step,
    so its fraction s needs no clamp. A bracket whose cubic vanishes at
    its left node ends there."""
    ts, xs, vs = traj.ts, traj.xs, traj.vs
    out = []
    for j in left.tolist():
        t0, t1 = ts.item(j), ts.item(j + 1)
        h = t1 - t0
        x0, x1 = xs.item(j), xs.item(j + 1)
        v0, v1 = vs.item(j), vs.item(j + 1)
        sign = 1.0
        if derivative:
            def cubic(t):
                return sign * _hermite_slope(x0, v0, x1, v1, h, (t - t0) / h)
        else:
            def cubic(t):
                return sign * _hermite(x0, v0, x1, v1, h,
                                       _hermite_weights((t - t0) / h))
        f_lo = cubic(t0)
        if f_lo == 0.0:
            out.append(t0)
            continue
        if not f_lo > 0.0:
            sign, f_lo = -1.0, -f_lo
        out.append(_root(cubic, t0, t1, f_lo, cubic(t1), tol))
    return out


def _check_tol(tol: float) -> None:
    # NaN or inf would leave every bracket unrefined, zero or less asks for
    # a width no root search reaches
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")


def _scan_sign_changes(traj: Trajectory, derivative: bool, tol: float
                       ) -> list[tuple]:
    """(t, exact_node) for each sign change of x (x′ if ``derivative``) at
    the nodes; an exact zero node is taken as is, a run of them once. A
    bracket ends at its left node if the function vanishes there, at the
    first probe that vanishes, at the midpoint of adjacent floats, or at
    the centre of its first interval no wider than tol (``_refine``)."""
    _check_tol(tol)
    ys = traj.vs if derivative else traj.xs
    nonzero = ys != 0.0
    pos = ys > 0.0
    # brackets: adjacent nonzero nodes of opposite sign
    left = np.flatnonzero(nonzero[:-1] & nonzero[1:] & (pos[:-1] != pos[1:]))
    t_star = _refine(traj, derivative, left, tol)
    zeros = np.flatnonzero(~nonzero)
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
    """Zeros of x as (time, degenerate) pairs, in increasing time: sign
    changes refined to ``tol``, and touches (an extremum that is zero at
    resolution scale) flagged degenerate. Both floors scale with |x| (|x′|
    for a zero node's slope) from the start to two steps past the event,
    so the early peaks of a growing solution stay peaks."""
    return _zero_scan(traj, tol)[0]


def _zero_scan(traj: Trajectory, tol: float) -> tuple[list, list]:
    """``zero_crossings`` and the ``extremum_events`` its touch search read
    (none when x ≡ 0), so a caller that needs both scans the slope once."""
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


def _scan_events(traj: Trajectory, tol: float = _SCAN_TOL) -> list[tuple]:
    """Zeros and extrema as (t, kind, degenerate), "zero" or "extremum", in
    increasing time. Nothing in the package calls it; the benchmark's
    tracer looks it up by name."""
    evs = [(t, "zero", d) for t, d in zero_crossings(traj, tol)]
    evs.extend((t, "extremum", False) for t in extremum_events(traj, tol))
    evs.sort(key=lambda e: e[0])
    return evs


# ---- fundamental system and Wronskian ----

def fundamental_system(p: PiecewiseSignal, tau: PiecewiseSignal, s: float,
                       horizon: float, step: float = 0.01
                       ) -> tuple[Trajectory, Trajectory]:
    """The pair (z, y): zero history with unit jumps at s (z(s) = y′(s) = 1,
    z′(s) = y(s) = 0), one run over two buffers that builds each plan once,
    each byte-equal to its own ``integrate``."""
    groups = [(prob, horizon, step)
              for prob in _fundamental_problems(p, tau, s)]
    return _trajectories(groups, _integrate_many(groups))


def _fundamental_problems(p: PiecewiseSignal, tau: PiecewiseSignal,
                          s: float) -> tuple:
    """The problems of z and y."""
    zero_hist = PiecewiseSignal.constant(0.0)
    return (DelayProblem(p, tau, s, zero_hist, 1.0, 0.0),
            DelayProblem(p, tau, s, zero_hist, 0.0, 1.0))


def wronskian(z: Trajectory, y: Trajectory, t):
    """z(t)·y′(t) − z′(t)·y(t) at a float or an array t, from dense output."""
    return z.sample(t) * y.sample_slope(t) - z.sample_slope(t) * y.sample(t)
