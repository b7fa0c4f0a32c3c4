"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces each public layer function listed in
``SPANNED`` with a wrapper that records one span (name, start, end, parent,
run id) per call.  The wrapper is set in *every* ``semicycles`` module
namespace that holds the function, so calls made through an import
(``harness.integrate``, ``analysis.psi``, ``semicycles.classify``) and
calls made inside the home module (``integrator.integrate`` from
``fundamental_system``) are all seen.  ``PiecewiseSignal`` methods are
wrapped count-only, because they run millions of times.  Spans stay in
memory until ``write`` is called after the timed region.

Nothing here changes what the package computes: wrappers pass arguments
and results through untouched and re-raise every exception.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

# layer module -> public functions that get a span (private names are the
# ones a per-layer metric needs: the dead event scan nested in integrate)
SPANNED = {
    "thresholds": ("theta", "beta_iterate", "psi", "gamma_constant",
                   "semicycle_threshold"),
    "integrator": ("integrate", "fundamental_system", "zero_crossings",
                   "extremum_events", "_scan_events"),
    "analysis": ("find_zeros", "semicycles", "check_descent", "check_ascent",
                 "classify", "envelope_decay_ratio", "verify_comparison",
                 "wronskian_min"),
    "spectral": ("char_roots",),
    "harness": ("run_suite",),
    "cli": ("main", "run", "emit_threshold_table"),
}
# PiecewiseSignal methods counted per call; metric suffix -> attribute
COUNTED = {"eval_in_segment": "eval_in_segment", "call": "__call__"}

# NotApplicableError message prefix -> reason key, for check_descent and
# check_ascent (see analysis.py); anything unmatched counts as "other"
NA_REASONS = (
    ("trajectory carries no problem", "no_problem"),
    ("problem is not normalized", "not_normalized"),
    ("domination window", "descent_window_below_floor"),
    ("extremum", "descent_not_dominating"),
    ("delta =", "ascent_delta_below_tau"),
    ("pre-window", "ascent_window_below_floor"),
    ("supplied rho_hat", "ascent_rho_hat_mismatch"),
)
NA_KEYS = tuple(key for _, key in NA_REASONS) + ("other",)

_clock = time.monotonic


def _reason_key(message: str) -> str:
    for prefix, key in NA_REASONS:
        if message.startswith(prefix):
            return key
    return "other"


class Tracer:
    """Span recorder for one timed region of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls = Counter()
        self.not_applicable = Counter()
        self.integrations: list[tuple] = []  # (span index, problem, ts)
        self.zero_scans: list[tuple] = []    # (span index, node count)
        self.theta_misses: list[int] = []    # span indices that solved
        self.sweeps = 0                      # Σ ThresholdResult.iterations
        self._undo: list[tuple] = []
        self._cache0 = None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import semicycles.signals as signals
        import semicycles.thresholds as thresholds
        from semicycles.errors import NotApplicableError

        # originals of the cached functions, for cache_info()
        self._theta_cached = thresholds.theta
        self._psi_cached = thresholds._psi_cached
        self._cache0 = self._psi_cached.cache_info()
        homes = {layer: importlib.import_module(f"semicycles.{layer}")
                 for layer in SPANNED}
        modules = [m for name, m in sys.modules.items()
                   if name == "semicycles" or name.startswith("semicycles.")]
        for layer, names in SPANNED.items():
            home = homes[layer]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._span_wrapper(f"{layer}.{fname}", orig,
                                             NotApplicableError)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        cls = signals.PiecewiseSignal
        for key, attr in COUNTED.items():
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._count_wrapper(key, orig))

    def uninstall(self) -> None:
        cache1 = self._psi_cached.cache_info()
        self.psi_hits = cache1.hits - self._cache0.hits
        self.psi_misses = cache1.misses - self._cache0.misses
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _count_wrapper(self, key, orig):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)
        return counted

    def _span_wrapper(self, name, fn, not_applicable):
        spans, stack = self.spans, self.stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            misses = (tracer._theta_cached.cache_info().misses
                      if name == "thresholds.theta" else None)
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            except not_applicable as exc:
                tracer.not_applicable[_reason_key(str(exc))] += 1
                raise
            finally:
                span[2] = _clock()
                stack.pop()
            if misses is not None and \
                    tracer._theta_cached.cache_info().misses > misses:
                tracer.theta_misses.append(idx)
            elif name == "integrator.integrate":
                tracer.integrations.append((idx, args[0], result.ts))
            elif name == "thresholds.beta_iterate":
                tracer.sweeps += result.iterations
            elif name == "analysis.find_zeros":
                tracer.zero_scans.append((idx, args[0].ts.size))
            return result
        return traced

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """All spans as JSON rows (name, start, end, parent, run id)."""
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "columns": ["name", "start", "end", "parent",
                                   "run_id"],
                       "spans": [s + [self.run_id] for s in self.spans]},
                      fh)

    def layer_metrics(self, scale: float = 1.0) -> dict:
        """Per-layer numbers derived from the spans and counters; span
        durations are multiplied by ``scale`` (reference seconds per
        measured second, see calibrate.py)."""
        spans = self.spans
        dur = [(s[2] - s[1]) * scale for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)

        def idx(name):
            return by_name.get(name, [])

        def total_ms(name, where=None):
            return 1e3 * sum(dur[i] for i in idx(name)
                             if where is None or where(i))

        def self_ms(name):
            return 1e3 * sum(dur[i] - child[i] for i in idx(name))

        def has_ancestor(i, name):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return True
                p = spans[p][3]
            return False

        m: dict[str, float] = {}
        # thresholds
        m["thresholds.psi.calls"] = len(idx("thresholds.psi"))
        lookups = self.psi_hits + self.psi_misses
        m["thresholds.psi.cache_hit_ratio"] = (
            self.psi_hits / lookups if lookups else 0.0)
        solves = [1e3 * dur[i] for i in idx("thresholds.beta_iterate")]
        m["thresholds.beta_iterate.calls"] = len(solves)
        m["thresholds.beta_iterate.ms_per_solve.p50"] = (
            float(np.percentile(solves, 50)) if solves else 0.0)
        m["thresholds.beta_iterate.ms_per_solve.p90"] = (
            float(np.percentile(solves, 90)) if solves else 0.0)
        m["thresholds.beta_iterate.sweeps_per_solve"] = (
            self.sweeps / len(solves) if solves else 0.0)
        m["thresholds.theta.misses"] = len(self.theta_misses)
        m["thresholds.theta.ms_per_solve"] = (
            1e3 * sum(dur[i] for i in self.theta_misses)
            / len(self.theta_misses) if self.theta_misses else 0.0)
        m["thresholds.gamma_constant.ms"] = total_ms(
            "thresholds.gamma_constant")
        m["thresholds.gamma_constant.psi_solves"] = sum(
            1 for i in idx("thresholds.beta_iterate")
            if has_ancestor(i, "thresholds.gamma_constant"))
        # cli: the first main() call is the cold table, the second the hit
        mains = [1e3 * dur[i] for i in idx("cli.main")]
        m["cli.thresholds.cold_ms"] = mains[0] if mains else 0.0
        m["cli.thresholds.hit_ms"] = mains[1] if len(mains) > 1 else 0.0
        # integrator
        m["integrator.integrate.calls"] = len(idx("integrator.integrate"))
        m["integrator.integrate.self_ms"] = self_ms("integrator.integrate")
        m["integrator.integrate.scan_ms"] = total_ms("integrator._scan_events")
        steps = Counter()
        regime_ms = Counter()
        regime_steps = Counter()
        for i, problem, ts in self.integrations:
            counts = step_regimes(problem, ts)
            steps.update(counts)
            major = max(counts, key=counts.get)
            regime_ms[major] += 1e3 * (dur[i] - child[i])
            regime_steps[major] += sum(counts.values())
        m["integrator.steps"] = sum(steps.values())
        for regime in REGIMES:
            m[f"integrator.steps.{regime}"] = steps[regime]
        for regime in REGIMES:
            n = regime_steps[regime]
            m[f"integrator.us_per_step.{regime}"] = (
                1e3 * regime_ms[regime] / n if n else 0.0)
        m["integrator.fundamental_system.ms"] = total_ms(
            "integrator.fundamental_system")
        # analysis
        nodes = sum(n for _, n in self.zero_scans)
        m["analysis.find_zeros.ms_per_10k_nodes"] = (
            total_ms("analysis.find_zeros") * 1e4 / nodes if nodes else 0.0)
        m["analysis.extremum_events.ms"] = total_ms(
            "integrator.extremum_events",
            lambda i: not has_ancestor(i, "integrator._scan_events"))
        m["analysis.semicycles.ms"] = total_ms("analysis.semicycles")
        for name in ("classify", "check_ascent", "check_descent",
                     "verify_comparison", "wronskian_min"):
            m[f"analysis.{name}.self_ms"] = self_ms(f"analysis.{name}")
        m["analysis.checks.not_applicable"] = sum(
            self.not_applicable.values())
        for key in NA_KEYS:
            m[f"analysis.checks.not_applicable.{key}"] = \
                self.not_applicable[key]
        # spectral
        m["spectral.char_roots.calls"] = len(idx("spectral.char_roots"))
        m["spectral.char_roots.ms"] = total_ms("spectral.char_roots")
        # harness (instance counts are filled in by the workload)
        m["harness.run_suite.self_ms"] = self_ms("harness.run_suite")
        # signals
        for key in COUNTED:
            m[f"signals.{key}.calls"] = self.calls[key]
        m["trace.spans"] = len(spans)
        return m


REGIMES = ("ode", "delayed", "overlap")


def step_regimes(problem, ts) -> dict:
    """Integrator steps per delay regime, from τ at each step's midpoint.

    ode: τ = 0 (the stage reads its own value); overlap: 0 < τ < step, so
    the delayed argument lands inside the step being taken and the
    integrator sub-iterates; delayed: τ ≥ step, read from past output.
    """
    ts = np.asarray(ts, dtype=float)
    h = np.diff(ts)
    mid = ts[:-1] + 0.5 * h
    tau = _eval_signal(problem.tau, mid)
    tiny = 1e-13 * np.maximum(1.0, np.abs(mid))
    ode = tau <= tiny
    overlap = ~ode & (tau < h)
    return {"ode": int(ode.sum()), "overlap": int(overlap.sum()),
            "delayed": int((~ode & ~overlap).sum())}


def _eval_signal(sig, t: np.ndarray) -> np.ndarray:
    """Vectorized right-continuous evaluation of a PiecewiseSignal."""
    bps = np.asarray(sig.breakpoints, dtype=float)
    seg = np.searchsorted(bps, t, side="right") - 1
    out = np.empty_like(t)
    out[seg < 0] = sig.left_extension
    out[seg >= len(sig.segments)] = sig.right_extension
    for k, coeffs in enumerate(sig.segments):
        sel = seg == k
        if sel.any():
            out[sel] = np.polyval(np.asarray(coeffs, dtype=float)[::-1],
                                  t[sel] - bps[k])
    return out
