"""The benchmark workloads: inputs made from a seed, the timed work, and
the checks on its outputs.

Each workload is a ``Workload`` of three functions:

* ``setup(seed, tmp, jobs)`` builds the inputs (counted in ``setup_s``);
* ``run(state)`` is the timed region and calls the package only through
  module attributes (``cli.main``, ``integrator.integrate``, ...), so the
  tracer's wrappers see every call;
* ``check(state, out, checks, first)`` verifies the outputs after the timed
  region and returns a JSON-able record of them;
* ``compare(record, reference)`` lists the differences from the committed
  reference record, which exists for ``DEFAULT_SEED`` only
  (``python3 perfbench/make_reference.py`` rewrites it).

Tolerances are the acceptance criteria's (tests/test_acceptance.py) and
1e-12 for root solves.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import semicycles.analysis as analysis
import semicycles.cli as cli
import semicycles.harness as harness
import semicycles.integrator as integrator
import semicycles.repro as repro
import semicycles.spectral as spectral
import semicycles.thresholds as thresholds

DEFAULT_SEED = 0
REFERENCE = Path(__file__).with_name("reference") / f"seed{DEFAULT_SEED}.json"

SQRT2 = math.sqrt(2.0)
HALF_PI = math.pi / 2.0
ROOT_TOL = 1e-12          # root solves (ϑ, Ψ cells)
GAMMA_TOL = 1e-6          # gamma_constant's own bisection tolerance
SPECIAL_TOL = 2e-3        # criterion 02
ORACLE_TOL = 1e-4         # criterion 03
TRAJ_TOL = 1e-6           # criteria 06, 07, 12
ROW_TOL = 1e-9            # suite row values vs. the reference

# instance counts per suite: the acceptance mix 50/200/200/100 divided by
# 12.5, about 5 s a repetition, so a run holds several repetitions
SUITE_COUNTS = (("decay", 4), ("margins", 16), ("comparison", 16),
                ("wronskian", 8))
# worst-metric acceptance bounds (criteria 08–11)
SUITE_WORST_OK = {
    "decay": lambda w: w < 1.0,
    "margins": lambda w: w >= -1e-3,
    "comparison": lambda w: w <= 1e-6,
    "wronskian": lambda w: w > 0.0,
}
CERTIFIED = ("tends_to_zero_certified", "bounded_certified")


class Checks:
    """Named pass/fail results of one repetition."""

    def __init__(self):
        self.items: list[tuple] = []

    def add(self, name: str, ok, detail: str = "") -> bool:
        self.items.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self) -> list[tuple]:
        return [item for item in self.items if not item[1]]


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable
    compare: Callable
    reference_key: str


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def compare_reference(spec: Workload, record: dict, checks: Checks) -> None:
    ref = json.loads(REFERENCE.read_text())[spec.reference_key]
    problems = spec.compare(record, ref)
    checks.add("reference", not problems, "; ".join(problems[:3]))


# ----------------------------------------------------------------------
# thresholds: the CLI table cold, gamma_constant cold, the table again hot
# ----------------------------------------------------------------------

@dataclass
class ThresholdState:
    seed: int
    delta: str
    rho: str
    cold_out: Path
    hit_out: Path

    def argv(self, out: Path) -> list[str]:
        return ["thresholds", "--delta", self.delta, "--rho", self.rho,
                "--out", str(out)]


def setup_thresholds(seed: int, tmp: Path, jobs: int) -> ThresholdState:
    rng = np.random.default_rng([seed, 1])
    d0 = round(float(rng.uniform(0.0, 0.1)), 4)
    r0 = round(float(rng.uniform(0.5, 0.75)), 4)
    # HI sits half a step past the last cell so 31 × 7 cells come out
    # whatever the rounding of HI − LO
    return ThresholdState(seed, f"{d0}:{d0 + 3.05:.4f}:0.1",
                          f"{r0}:{r0 + 1.625:.4f}:0.25",
                          tmp / "cold.csv", tmp / "hit.csv")


def run_thresholds(state: ThresholdState) -> dict:
    rc_cold = cli.main(state.argv(state.cold_out))
    gamma = thresholds.gamma_constant()
    rc_hit = cli.main(state.argv(state.hit_out))
    return {"rc": [rc_cold, rc_hit], "gamma": gamma}


def check_thresholds(state: ThresholdState, out: dict, checks: Checks,
                     first: bool) -> dict:
    checks.add("cli.exit_status", out["rc"] == [0, 0], f"rc {out['rc']}")
    cold = state.cold_out.read_bytes()
    checks.add("cli.hit_bytes_equal_cold",
               cold == state.hit_out.read_bytes())
    rows = [tuple(float(v) for v in row) for row in
            list(csv.reader(cold.decode().splitlines()))[1:]]
    deltas = sorted({r[0] for r in rows})
    rhos = sorted({r[1] for r in rows})
    checks.add("table.shape", len(deltas) == 31 and len(rhos) == 7
               and len(rows) == 217, f"{len(deltas)}×{len(rhos)}")
    th = {r[0]: r[2] for r in rows}
    ps = {(r[0], r[1]): r[3] for r in rows}
    checks.add("theta.range",
               all(SQRT2 - ROOT_TOL <= v <= HALF_PI + ROOT_TOL
                   for v in th.values()))
    checks.add("theta.nonincreasing_in_delta",
               all(th[b] <= th[a] + ROOT_TOL
                   for a, b in zip(deltas, deltas[1:])))
    checks.add("psi.nonincreasing_in_rho",
               all(ps[d, b] <= ps[d, a] + ROOT_TOL for d in deltas
                   for a, b in zip(rhos, rhos[1:])))
    checks.add("psi.nonincreasing_in_delta",
               all(ps[b, r] <= ps[a, r] + ROOT_TOL for r in rhos
                   for a, b in zip(deltas, deltas[1:])))
    checks.add("threshold.nonincreasing_in_delta",
               all(th[b] + ps[b, r] <= th[a] + ps[a, r] + ROOT_TOL
                   for r in rhos for a, b in zip(deltas, deltas[1:])))
    err0 = max(abs(thresholds.psi(r, 0.0) - HALF_PI) for r in rhos)
    checks.add("psi.zero_delay_is_half_pi", err0 < SPECIAL_TOL,
               f"err {err0:.2e}")
    sat = [d for d in deltas if d >= 2.0 * SQRT2]
    err_sat = max((abs(thresholds.psi(1.0, d) - SQRT2) for d in sat),
                  default=math.inf)
    checks.add("psi.saturated_is_sqrt2", err_sat < SPECIAL_TOL,
               f"err {err_sat:.2e} over {len(sat)} deltas")
    gamma = out["gamma"]
    residual = abs(thresholds.psi(1.0, gamma) - gamma)
    checks.add("gamma.fixed_point", SQRT2 <= gamma <= HALF_PI
               and residual < 1e-5, f"gamma {gamma!r} residual {residual:.1e}")
    if first:
        # the independent shooting oracle (criterion 03) on two cells
        rng = np.random.default_rng([state.seed, 11])
        for k in rng.choice(len(rows), size=2, replace=False):
            d, r, _, p = rows[int(k)]
            gap = abs(thresholds.psi_oracle_bvp(r, d) - p)
            checks.add("psi.oracle_agreement", gap < ORACLE_TOL,
                       f"rho {r} delta {d} gap {gap:.1e}")
    return {"rows": rows, "gamma": gamma}


def cmp_thresholds(got: dict, ref: dict) -> list[str]:
    out = []
    if len(got["rows"]) != len(ref["rows"]):
        return [f"{len(got['rows'])} rows, reference {len(ref['rows'])}"]
    for g, r in zip(got["rows"], ref["rows"]):
        if tuple(g[:2]) != tuple(r[:2]) or not all(
                abs(a - b) <= ROOT_TOL for a, b in zip(g[2:], r[2:])):
            out.append(f"cell {g} vs reference {r}")
    if abs(got["gamma"] - ref["gamma"]) > GAMMA_TOL:
        out.append(f"gamma {got['gamma']} vs reference {ref['gamma']}")
    return out


# ----------------------------------------------------------------------
# trajectories: integrate + classify in the three delay regimes
# ----------------------------------------------------------------------

@dataclass
class Case:
    name: str
    problem: object
    horizon: float
    step: float
    reference: Callable   # t-array -> exact solution


@dataclass
class TrajectoryState:
    seed: int
    cases: list


def setup_trajectories(seed: int, tmp: Path, jobs: int) -> TrajectoryState:
    rng = np.random.default_rng([seed, 2])
    eps = float(rng.uniform(0.1, 0.2))
    c = float(rng.uniform(0.002, 0.008))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    cases = []
    # sin_pi stays at 3 periods: past ~10 the unstable real mode swamps the
    # sine and zero_crossings mis-flags the peak (see perfbench/README.md)
    for which, e, periods in (("example2", eps, 50), ("example3", eps, 50),
                              ("sin_pi", 0.0, 3)):
        spec = repro.ExampleSpec(which, e, periods)
        cases.append(Case(which, repro.build_example_problem(spec),
                          repro.example_horizon(spec), 0.005,
                          np.vectorize(lambda t, s=spec:
                                       repro.closed_form(s, float(t)))))
    # τ ≡ c < step: every step takes the overlap sub-iteration
    root = next(r for r in spectral.char_roots(c, 1, (0,))
                if r.value.imag > 0.0)
    lam = root.value
    cases.append(Case("eigenmode", harness.eigenmode_problem(c, root, phase),
                      60.0, 0.01,
                      lambda t: (np.exp(1j * phase) * np.exp(lam * t)).real))
    return TrajectoryState(seed, cases)


def run_trajectories(state: TrajectoryState) -> list[tuple]:
    out = []
    for case in state.cases:
        traj = integrator.integrate(case.problem, case.horizon,
                                    step=case.step)
        out.append((traj, analysis.classify(case.problem, traj)))
    return out


def check_trajectories(state: TrajectoryState, out: list[tuple],
                       checks: Checks, first: bool) -> dict:
    record = {}
    for case, (traj, verdict) in zip(state.cases, out):
        exact = case.reference(traj.ts)
        err = float(np.abs(traj.xs - exact).max() / np.abs(exact).max())
        checks.add(f"{case.name}.relative_error", err < TRAJ_TOL,
                   f"{err:.2e}")
        if case.name in ("example2", "example3"):
            checks.add(f"{case.name}.verdict",
                       verdict.verdict == "unbounded_observed",
                       verdict.verdict)
        else:
            # sin_pi has a growing real mode, the eigenmode Re λ > 0
            checks.add(f"{case.name}.not_certified",
                       verdict.verdict not in CERTIFIED, verdict.verdict)
        record[case.name] = {
            "steps": int(traj.ts.size - 1),
            "verdict": verdict.verdict,
            "evidence": [[name, float(v), float(t)]
                         for name, v, t in verdict.evidence]}
    return record


def cmp_trajectories(got: dict, ref: dict) -> list[str]:
    out = []
    for name, r in ref.items():
        g = got.get(name)
        if g is None or g["verdict"] != r["verdict"] \
                or g["steps"] != r["steps"] \
                or len(g["evidence"]) != len(r["evidence"]):
            out.append(f"{name}: {g} vs reference {r}")
            continue
        for (gn, gv, gt), (rn, rv, rt) in zip(g["evidence"], r["evidence"]):
            if gn != rn or not _close(gv, rv, TRAJ_TOL) \
                    or not _close(gt, rt, TRAJ_TOL):
                out.append(f"{name}.{rn}: {gv}/{gt} vs {rv}/{rt}")
    return out


# ----------------------------------------------------------------------
# suites / suites_pool: the four harness suites, serial or on 2 workers
# ----------------------------------------------------------------------

@dataclass
class SuiteState:
    seed: int
    jobs: int


def setup_suites(seed: int, tmp: Path, jobs: int) -> SuiteState:
    return SuiteState(seed, jobs)


def run_suites(state: SuiteState) -> list:
    return [harness.run_suite(name, seed=state.seed, count=count,
                              jobs=state.jobs)
            for name, count in SUITE_COUNTS]


def check_suites(state: SuiteState, reports: list, checks: Checks,
                 first: bool) -> dict:
    record = {}
    for rep in reports:
        checks.add(f"{rep.suite}.no_failures", rep.failures == 0,
                   f"{rep.failures} of {rep.checked}")
        checks.add(f"{rep.suite}.worst_within_tolerance",
                   SUITE_WORST_OK[rep.suite](rep.worst), repr(rep.worst))
        record[rep.suite] = {"instances": rep.instances,
                             "checked": rep.checked,
                             "failures": rep.failures,
                             "columns": list(rep.columns),
                             "rows": [list(r) for r in rep.rows]}
    return record


def suite_layer_counts(reports: list) -> dict:
    instances = sum(r.instances for r in reports)
    with_rows = sum(len({row[0] for row in r.rows}) for r in reports)
    return {"harness.instances": instances,
            "harness.checked": sum(r.checked for r in reports),
            "harness.instances_without_checks": instances - with_rows}


def rows_digest(reports: list) -> str:
    """Hash of every suite's columns and rows (floats by repr), for the
    byte-identity check between repetitions and serial/pool runs."""
    h = hashlib.sha256()
    for r in reports:
        h.update(repr((r.suite, r.columns, r.rows)).encode())
    return h.hexdigest()


def cmp_suites(got: dict, ref: dict) -> list[str]:
    out = []
    for suite, r in ref.items():
        g = got.get(suite)
        if g is None:
            out.append(f"{suite} missing")
            continue
        for key in ("instances", "checked", "failures", "columns"):
            if g[key] != r[key]:
                out.append(f"{suite}.{key}: {g[key]} vs reference {r[key]}")
        if len(g["rows"]) != len(r["rows"]):
            out.append(f"{suite}: {len(g['rows'])} rows vs reference "
                       f"{len(r['rows'])}")
            continue
        for grow, rrow in zip(g["rows"], r["rows"]):
            for a, b in zip(grow, rrow):
                same = (_close(a, b, ROW_TOL) if isinstance(b, float)
                        else a == b)
                if not same:
                    out.append(f"{suite} row {grow} vs reference {rrow}")
                    break
    return out


WORKLOADS = {
    "thresholds": Workload(setup_thresholds, run_thresholds,
                           check_thresholds, cmp_thresholds, "thresholds"),
    "trajectories": Workload(setup_trajectories, run_trajectories,
                             check_trajectories, cmp_trajectories,
                             "trajectories"),
    "suites": Workload(setup_suites, run_suites, check_suites, cmp_suites,
                       "suites"),
    "suites_pool": Workload(setup_suites, run_suites, check_suites,
                            cmp_suites, "suites"),
}
JOBS = {"suites_pool": 2}
