"""Randomized verification suites: generated instances, measured margins.

Four suites, each deterministic for a given seed (instances draw from
spawned children of one ``numpy.random.SeedSequence``):

* decay — constant-delay problems started on a decaying eigenmode; the
  fitted envelope ratio must come out below 1.
* margins — random normalized problems; every semicycle where the
  descent/ascent hypotheses verify must satisfy its bound up to −1e−3.
* comparison — minorant/majorant pairs built to satisfy the ratio
  comparison hypotheses; the observed violation must stay ≤ 1e−6.
* wronskian — nonpositive small coefficients under the 2/e bound; the
  fundamental-system Wronskian must stay positive on [0, 50].

``run_suite`` runs one suite by name and returns a HarnessReport with
per-instance rows for CSV export; ``skipped`` counts the margins
instances whose zeros or semicycles could not be read.

An instance is a generator: it draws all its random numbers and checks
its hypotheses, yields its integrations and is sent their trajectories,
then measures; the comparison and wronskian instances measure with the
analysis layer's own instances (``yield from``). ``run_suite`` hands out
windows of at most ``_WINDOW`` consecutive instances (fewer with ``jobs``
> 1, so that every worker gets work), and a window runs its instances
through ``integrator._drive``, in lockstep: one block kernel call per
round instead of one per problem. Rows, reports and raised exceptions are
those of one instance after the other.

``_fan_out`` is the package's one process fan-out, for the suites and
the CLI's threshold table; it imports the process pool only when it builds
one, so importing the package and a run on one worker never load
``multiprocessing``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotApplicableError, ResolutionError
from .analysis import (
    _arcs,
    _comparison,
    _least_wronskian,
    envelope_decay_ratio,
    check_ascent,
    check_descent,
)
from .integrator import _SCAN_TOL, DelayProblem, _drive, _zero_scan
from .signals import PiecewiseSignal, signal_range
from .spectral import CharRoot, char_roots
from .thresholds import semicycle_threshold

__all__ = [
    "HarnessReport",
    "eigenmode_problem",
    "mode_mixture_problem",
    "run_suite",
    "SUITE_NAMES",
]

_MODE_DEGREE = 20  # Taylor degree of each history segment
# most worker processes one fan-out may start: 16× the largest count the
# package's tests, scripts and README use (4); each worker is a whole
# interpreter, so the bound is on processes, not on instances
_MAX_JOBS = 64
# most instances one suite run may take: 100× the largest count in use
# (200, the margins and comparison defaults)
_MAX_INSTANCES = 20_000
# most consecutive instances integrated in lockstep: a window keeps the
# trajectories of all its problems alive together, 16 in a comparison or
# wronskian window, and a chunk plan per run (a fundamental pair is one):
# 512 steps (about 125 kB with a delay, 18 kB without) in a round of more
# than two problems, else 2048
_WINDOW = 8
# most history segments of one mode mixture: about 100× the largest count
# in use (18, the decay suite's delays up to 5.2 at width 0.3)
_MAX_HISTORY_SEGMENTS = 2_000


@dataclass(frozen=True)
class HarnessReport:
    """Outcome of one randomized suite run."""

    suite: str
    seed: int
    instances: int
    checked: int
    failures: int
    worst: float
    columns: tuple
    rows: tuple
    # instances that measured nothing: margins trajectories whose zeros or
    # semicycles could not be read (DomainError, ResolutionError)
    skipped: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


# ----------------------------------------------------------------------
# eigenmode initial data
# ----------------------------------------------------------------------

def mode_mixture_problem(c: float, sign: int, terms) -> DelayProblem:
    """Constant-delay problem started on Σ_k A_k·Re(e^{iφ_k} e^{λ_k t}).

    ``terms`` is a sequence of (root, amplitude, phase) triples whose roots
    must all belong to the characteristic function for this (c, sign). The
    history on [−c, 0] is a piecewise degree-20 Taylor expansion, segment
    width min(0.3, 2.5/max|λ|) so the tails sit below 1e−10. The delay
    must be finite and positive, and the history at most
    ``_MAX_HISTORY_SEGMENTS`` segments (DomainError otherwise).
    """
    if not 0.0 < c < math.inf:
        raise DomainError(f"delay must be finite and positive, got {c}")
    terms = tuple(terms)
    if not terms:
        raise DomainError("need at least one mode")
    if any(r.sign != sign for r, _, _ in terms):
        raise DomainError("mixed characteristic signs in one mixture")
    lam_max = max(abs(r.value) for r, _, _ in terms)
    width = min(0.3, 2.5 / max(lam_max, 1e-9))
    if c / width > _MAX_HISTORY_SEGMENTS:
        raise DomainError(
            f"a history over [−{c}, 0] in segments of width {width:.3g} "
            f"needs {c / width:.3g} segments, more than the limit of "
            f"{_MAX_HISTORY_SEGMENTS}")
    n_seg = max(1, math.ceil(c / width))
    bps = np.linspace(-c, 0.0, n_seg + 1)
    segments = []
    for t0 in bps[:-1]:
        coeffs = np.zeros(_MODE_DEGREE + 1)
        for root, amp, phase in terms:
            lam = root.value
            term = amp * np.exp(1j * phase) * np.exp(lam * t0)
            for k in range(_MODE_DEGREE + 1):
                coeffs[k] += term.real
                term = term * lam / (k + 1)
        segments.append(tuple(float(v) for v in coeffs))
    left = sum(amp * (np.exp(1j * phase - r.value * c)).real
               for r, amp, phase in terms)
    history = PiecewiseSignal(tuple(float(b) for b in bps), tuple(segments),
                              float(left), 0.0)
    value = sum(amp * (np.exp(1j * phase)).real for _, amp, phase in terms)
    slope = sum(amp * (r.value * np.exp(1j * phase)).real
                for r, amp, phase in terms)
    return DelayProblem(
        p=PiecewiseSignal.constant(float(sign)),
        tau=PiecewiseSignal.constant(c),
        start=0.0,
        history=history,
        initial_value=float(value),
        initial_slope=float(slope),
    )


def eigenmode_problem(c: float, root: CharRoot, phase: float = 0.0
                      ) -> DelayProblem:
    """Single-mode start Re(e^{iφ} e^{λt}); see mode_mixture_problem."""
    return mode_mixture_problem(c, root.sign, ((root, 1.0, phase),))


def _decay_instance(idx: int, rng):
    """One instance → (rows, checked, failures, metrics, skipped); see
    run_suite. Like every instance, a generator: it draws its random numbers,
    yields its integration groups (problem, horizon, step) and is sent one
    trajectory per group."""
    for _ in range(40):
        c = float(rng.uniform(2.8, 5.2))
        cap = semicycle_threshold(c) - 0.051
        pool = [r for r in char_roots(c, 1, range(4))
                if -0.6 <= r.value.real <= -0.05
                and abs(r.value.imag) > 1e-9
                and r.semicycle <= cap]
        if pool:
            break
    else:
        raise DomainError("no admissible eigenmode after 40 draws")
    root = pool[int(rng.integers(len(pool)))]
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    problem = eigenmode_problem(c, root, phase)
    stride = 2.0 * root.semicycle
    horizon = c + 4.6 * stride
    traj, = yield [(problem, horizon, 0.01)]
    rho, _peaks = envelope_decay_ratio(traj, stride, t0=c)
    row = (idx, c, root.branch, root.value.real, root.value.imag, stride, rho)
    return [row], 1, 0 if rho < 1.0 else 1, [rho], 0


# ----------------------------------------------------------------------
# random normalized problems, semicycle margins
# ----------------------------------------------------------------------

def _piecewise_linear(rng, lo: float, hi: float, t0: float, t1: float,
                      pieces: int) -> PiecewiseSignal:
    bps = np.linspace(t0, t1, pieces + 1)
    vals = rng.uniform(lo, hi, pieces + 1)
    segs = tuple(
        (float(vals[i]), float((vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i])))
        for i in range(pieces))
    return PiecewiseSignal(tuple(float(b) for b in bps), segs,
                           float(vals[0]), float(vals[-1]))


def _hermite_history(rng, depth: float) -> tuple:
    """C¹ cubic on [−depth, 0] with O(1) values: endpoint data drawn
    directly, converted to monomial coefficients in u = t + depth."""
    v0, v1 = rng.uniform(-1.0, 1.0, 2)
    s0, s1 = rng.uniform(-0.4, 0.4, 2)
    h = depth
    c2 = (-3.0 * v0 - 2.0 * s0 * h + 3.0 * v1 - s1 * h) / h ** 2
    c3 = (2.0 * v0 + s0 * h - 2.0 * v1 + s1 * h) / h ** 3
    sig = PiecewiseSignal((-depth, 0.0),
                          ((float(v0), float(s0), float(c2), float(c3)),),
                          float(v0), float(v1))
    return sig, float(v1), float(s1)


def _random_margin_problem(rng) -> DelayProblem:
    horizon_hint = 16.0
    pieces = int(rng.integers(2, 5))
    # mostly-positive coefficients keep the domination hypothesis alive
    p = _piecewise_linear(rng, -0.3 if rng.uniform() < 0.3 else 0.15,
                          1.0, 0.0, horizon_hint, pieces)
    tau = _piecewise_linear(rng, 0.0, 2.0, 0.0, horizon_hint,
                            int(rng.integers(2, 5)))
    # deep enough for [start − τ_m − ϑ, start] windows of early semicycles
    history, value, slope = _hermite_history(rng, depth=5.5)
    return DelayProblem(p=p, tau=tau, start=0.0, history=history,
                        initial_value=value, initial_slope=slope)


def _margin_instance(idx: int, rng):
    problem = _random_margin_problem(rng)
    traj, = yield [(problem, 16.0, 0.01)]
    try:
        # the zeros and peaks from one slope scan, as classify reads them
        zeros, stationary = _zero_scan(traj, _SCAN_TOL)
        arcs = _arcs(traj, [t for t, _ in zeros], stationary, _SCAN_TOL)
    except (DomainError, ResolutionError):
        return [], 0, 0, [], 1
    tau_m = problem.tau_sup(math.inf)
    rows, checked, failures, margins = [], 0, 0, []
    for sc in arcs:
        for kind, check in (("descent",
                             lambda: check_descent(traj, sc, tau_m)),
                            ("ascent",
                             lambda: check_ascent(traj, sc, tau_m))):
            try:
                ok, margin = check()
            except NotApplicableError:
                continue
            checked += 1
            failures += 0 if ok else 1
            margins.append(margin)
            rows.append((idx, kind, sc.a, sc.b, margin))
    return rows, checked, failures, margins, 0


# ----------------------------------------------------------------------
# minorant/majorant pairs
# ----------------------------------------------------------------------

def _shift_poly(coeffs, offset: float):
    """Re-anchor Σ c_j·t^j to v = t − offset (coefficients in v)."""
    out = [0.0] * len(coeffs)
    for j, c in enumerate(coeffs):
        for k in range(j + 1):
            out[k] += c * math.comb(j, k) * offset ** (j - k)
    return out


def _comparison_pair(rng) -> tuple:
    horizon_hint = 10.0
    pieces = int(rng.integers(2, 5))
    bps = np.linspace(0.0, horizon_hint, pieces + 1)
    base = rng.uniform(0.05, 1.0, pieces)
    signs = rng.choice([-1.0, 1.0], pieces)
    p_segs = tuple((float(b * s),) for b, s in zip(base, signs))
    p_minor = PiecewiseSignal(tuple(map(float, bps)), p_segs,
                              p_segs[0][0], p_segs[-1][0])
    lift = float(rng.uniform(0.0, 0.4))
    pm_segs = tuple((float(b + lift),) for b in base)
    p_major = PiecewiseSignal(tuple(map(float, bps)), pm_segs,
                              pm_segs[0][0], pm_segs[-1][0])

    tau_minor = _piecewise_linear(rng, 0.0, 1.5, 0.0, horizon_hint,
                                  int(rng.integers(2, 4)))
    shift = float(rng.uniform(0.0, 0.6))
    tau_major = PiecewiseSignal(
        tau_minor.breakpoints,
        tuple((seg[0] + shift,) + seg[1:] for seg in tau_minor.segments),
        tau_minor.left_extension + shift,
        tau_minor.right_extension + shift)

    big_tau = signal_range(tau_major, 0.0, math.inf)[1] + 0.5
    y0 = float(rng.uniform(0.5, 2.0))
    q = float(rng.uniform(0.0, 0.5))
    # y(t) = y0·(1 − q·t) on [−big_tau, 0]: positive, nonincreasing
    y_hist = PiecewiseSignal((-big_tau, 0.0),
                             ((y0 * (1.0 + q * big_tau), -y0 * q),),
                             y0 * (1.0 + q * big_tau), y0)
    majorant = DelayProblem(p=p_major, tau=tau_major, start=0.0,
                            history=y_hist, initial_value=y0,
                            initial_slope=-y0 * q)

    # z(t) = z0·(1 − q·t)·T₄(ωt) with T₄ the degree-4 cosine Taylor
    # polynomial: |T₄(x)| ≤ 1 on |x| ≤ 2 with T₄(0) = 1, T₄′(0) = 0, so
    # |z/z(0)| ≤ y/y(0) holds exactly and the contact at the start is C¹;
    # below the z-data window the history is zero, also within the bound
    z0 = float(rng.uniform(0.2, 1.5))
    z_depth = min(big_tau, 1.0)
    omega = float(rng.uniform(0.0, 2.0 / z_depth))
    cos4 = [1.0, 0.0, -omega ** 2 / 2.0, 0.0, omega ** 4 / 24.0]
    poly_t = [0.0] * 6
    for j, a in enumerate((1.0, -q)):
        for k, b in enumerate(cos4):
            poly_t[j + k] += z0 * a * b
    z_hist = PiecewiseSignal((-z_depth, 0.0),
                             (tuple(_shift_poly(poly_t, -z_depth)),),
                             0.0, z0)
    minorant = DelayProblem(p=p_minor, tau=tau_minor, start=0.0,
                            history=z_hist, initial_value=z0,
                            initial_slope=-z0 * q)
    return minorant, majorant


def _comparison_instance(idx: int, rng):
    ok, violation = yield from _comparison(*_comparison_pair(rng), 10.0)
    return [(idx, violation)], 1, 0 if ok else 1, [violation], 0


# ----------------------------------------------------------------------
# Wronskian positivity under the 2/e bound
# ----------------------------------------------------------------------

def _wronskian_instance(idx: int, rng):
    p_sup = float(rng.uniform(0.01, 0.08))
    tau_m = float(rng.uniform(0.05, 1.0)) * min(0.40 / math.sqrt(p_sup), 2.5)
    pieces = int(rng.integers(2, 4))
    p = _piecewise_linear(rng, -p_sup, -0.2 * p_sup, 0.0, 50.0, pieces)
    tau = _piecewise_linear(rng, 0.0, tau_m, 0.0, 50.0,
                            int(rng.integers(2, 4)))
    min_w = yield from _least_wronskian(p, tau, 0.0, 50.0)
    return ([(idx, p_sup, tau_m, min_w)], 1, 0 if min_w > 0.0 else 1, [min_w],
            0)


# ----------------------------------------------------------------------
# dispatch: serial or worker-pool execution, ordered assembly
# ----------------------------------------------------------------------

def _check_jobs(jobs) -> None:
    if not (type(jobs) is int and 1 <= jobs <= _MAX_JOBS):  # not a bool
        raise DomainError(f"asks for {jobs!r} workers; need an int from 1 "
                          f"to the limit of {_MAX_JOBS}")


def _fan_out(fn, tasks: list, jobs: int) -> list:
    """[fn(t) for t in tasks], in order: in-process with one worker or one
    task, else on min(jobs, len(tasks)) worker processes. A ``jobs`` that
    is not an int from 1 to ``_MAX_JOBS`` raises before any pool exists."""
    _check_jobs(jobs)
    if jobs == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


# suite -> (instance function, default count, row columns, whether the
# worst metric is the minimum: margins and wronskian fail from below,
# decay and comparison from above)
_SUITES = {
    "decay": (_decay_instance, 50,
              ("index", "delay", "branch", "re", "im", "stride", "rho"),
              False),
    "margins": (_margin_instance, 200,
                ("index", "kind", "left_zero", "right_zero", "margin"), True),
    "comparison": (_comparison_instance, 200, ("index", "violation"), False),
    "wronskian": (_wronskian_instance, 100,
                  ("index", "p_sup", "tau_bound", "min_wronskian"), True),
}
SUITE_NAMES = tuple(_SUITES)


def _run_window(task: tuple) -> list:
    """Picklable work unit: the results of instances lo … hi−1 of one suite,
    run in lockstep by ``integrator._drive``, which raises the exception of
    the lowest-index instance that raised.
    ``SeedSequence(seed, spawn_key=(idx,))`` is the idx-th child that
    ``SeedSequence(seed).spawn(n)`` would return, built in O(1).
    """
    suite, seed, lo, hi = task
    instance = _SUITES[suite][0]
    return _drive([instance(idx, np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(idx,))))
        for idx in range(lo, hi)])


def run_suite(suite: str, seed: int = 0, count: int | None = None,
              jobs: int = 1) -> HarnessReport:
    """``count`` instances of one suite (its default if None, at most
    ``_MAX_INSTANCES``) from an int ``seed`` ≥ 0 on ``jobs`` workers,
    folded in index order, so identical for every ``jobs``."""
    if suite not in _SUITES:
        raise DomainError(f"unknown suite {suite!r}; pick from "
                          f"{', '.join(SUITE_NAMES)}")
    _, default, columns, worst_is_min = _SUITES[suite]
    n = default if count is None else count
    if not (type(n) is int and 1 <= n <= _MAX_INSTANCES):
        raise DomainError(f"suite {suite} needs an int count from 1 to the "
                          f"limit of {_MAX_INSTANCES}, got {n!r}")
    if not (type(seed) is int and seed >= 0):
        raise DomainError(f"suite seed must be an int ≥ 0, got {seed!r}")
    _check_jobs(jobs)
    size = min(_WINDOW, -(-n // jobs))
    # every instance draws from numpy.random, which numpy loads on first
    # use: loaded here, forked workers inherit it instead of each loading it
    import numpy.random  # noqa: F401
    windows = _fan_out(_run_window, [(suite, seed, lo, min(lo + size, n))
                                     for lo in range(0, n, size)], jobs)
    rows: list = []
    checked = failures = skipped = 0
    metrics: list = []
    for r, ch, fails, ms, skip in (out for w in windows for out in w):
        rows.extend(r)
        checked += ch
        failures += fails
        metrics.extend(ms)
        skipped += skip
    if metrics:
        worst = min(metrics) if worst_is_min else max(metrics)
    else:
        worst = math.nan
    return HarnessReport(suite, seed, n, checked, failures, worst,
                         columns, tuple(rows), skipped)
