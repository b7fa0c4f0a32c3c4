"""Run the closed-form benchmarks across perturbations and report everything.

For each benchmark and ε: the max integrator-vs-formula error, the
semicycle lengths against their predicted period, the per-period peak
ratio against its predicted growth, and the classification verdict.

Run from the repository root:

    python3 scripts/reproduce_examples.py
    python3 scripts/reproduce_examples.py --periods 30 --step 0.002
"""

from __future__ import annotations

import argparse
import math

from semicycles.analysis import classify
from semicycles.integrator import integrate
from semicycles.repro import (
    ExampleSpec,
    build_example_problem,
    closed_form,
    example_horizon,
)

SQRT2 = math.sqrt(2.0)


def _predicted(which: str, eps: float) -> tuple:
    """(semicycle length, per-period peak growth) from the closed forms."""
    if which == "example2":
        return (math.pi + eps - math.atan(math.tanh(eps)),
                math.sqrt(math.sinh(eps) ** 2 + math.cosh(eps) ** 2))
    if which == "example3":
        # growth read off the displayed solution: peaks scale by (1 + eps·√2·…)
        # only empirically here; report the measured ratio instead
        return (2.0 * SQRT2 + 2.0 * eps, None)
    return (math.pi, 1.0)


def report(which: str, eps: float, periods: int, step: float) -> None:
    spec = ExampleSpec(which, eps, periods)
    problem = build_example_problem(spec)
    traj = integrate(problem, example_horizon(spec), step=step)
    err = max(abs(float(x) - closed_form(spec, float(t)))
              for t, x in zip(traj.ts, traj.xs))
    outcome = classify(problem, traj)
    arcs = outcome.semicycles
    length, growth = _predicted(which, eps)
    len_err = max(abs(sc.length - length) for sc in arcs)
    peaks = [sc.peak for sc in arcs]
    ratios = [b / a for a, b in zip(peaks, peaks[1:])]
    line = (f"{which:9s} eps={eps:<5g} arcs={len(arcs):3d} "
            f"max_err={err:.2e} len_err={len_err:.2e} ")
    if growth is not None and ratios:
        line += f"ratio_err={max(abs(r - growth) for r in ratios):.2e} "
    elif ratios:
        # growth attaches to every other arc here; report the whole window
        line += f"total_growth={peaks[-1] / peaks[0]:.6f} "
    print(line + f"verdict={outcome.verdict}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--periods", type=int, default=12)
    ap.add_argument("--step", type=float, default=0.005)
    ns = ap.parse_args()

    for which, eps_values in (("example2", (0.0, 0.05, 0.1, 0.2)),
                              ("example3", (0.0, 0.05, 0.1, 0.2)),
                              ("sin_pi", (0.0,))):
        for eps in eps_values:
            report(which, eps, ns.periods, ns.step)


if __name__ == "__main__":
    main()
