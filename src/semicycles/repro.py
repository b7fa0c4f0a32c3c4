"""Closed-form benchmark solutions with sign-changing coefficients.

Two explicit families bracket the semicycle threshold from above:

* ``example2`` — no delay, coefficient −1 on a short ε-window then +1 for
  the rest of each period A(ε) = π + ε − arctan(tanh ε). The solution
  alternates sinh bursts and sine arcs, picks up the factor
  g(ε) = √(sinh²ε + cosh²ε) per period, and reduces to sin t at ε = 0
  (semicycle length exactly π, no decay).
* ``example3`` — piecewise-affine delay pinning the delayed argument at
  the previous/current peak, period B(ε) = 2√2 + 2ε, envelope factor
  1 + ε² per period. At ε = 0 the semicycle length is exactly 2√2 with a
  constant envelope.

``sin_pi`` is the constant-delay boundary case p ≡ −1, τ ≡ π whose
solution is sin t itself.

The block structure is strictly B-periodic (block n covers
[nB, (n+1)B]); the four displayed quadratic pieces tile each block and
match C¹ at every junction, which is what the reproduction tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .integrator import DelayProblem
from .signals import PiecewiseSignal

__all__ = [
    "ExampleSpec",
    "example2_closed_form",
    "example3_closed_form",
    "closed_form",
    "build_example_problem",
    "example_horizon",
    "EXAMPLE_NAMES",
]

SQRT2 = math.sqrt(2.0)
# most periods one example may span: 100× the largest count in use (50);
# the perturbed examples build signal pieces per period before the
# integrator's own step limit is reached
_MAX_PERIODS = 5_000


@dataclass(frozen=True)
class ExampleSpec:
    """Which benchmark to build, its perturbation ε, and how many periods."""

    which: str
    epsilon: float = 0.0
    periods: int = 4

    def __post_init__(self):
        if self.which not in EXAMPLE_NAMES:
            raise DomainError(
                f"unknown example {self.which!r}; expected one of "
                f"{EXAMPLE_NAMES}")
        if not (isinstance(self.epsilon, (int, float))
                and math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise DomainError(
                f"epsilon must be finite and ≥ 0, got {self.epsilon!r}")
        if type(self.periods) is not int:
            raise DomainError(
                f"periods must be an int, got {self.periods!r}")
        if self.periods < 1:
            raise DomainError(f"periods must be ≥ 1, got {self.periods}")
        if self.periods > _MAX_PERIODS:
            raise DomainError(f"periods {self.periods} is above the limit of "
                              f"{_MAX_PERIODS}")


def _period2(epsilon: float) -> float:
    return math.pi + epsilon - math.atan(math.tanh(epsilon))


def _growth2(epsilon: float) -> float:
    return math.sqrt(math.sinh(epsilon) ** 2 + math.cosh(epsilon) ** 2)


def example2_closed_form(epsilon: float, t: float) -> float:
    """sinh-burst / sine-arc solution of the no-delay benchmark (t ≥ 0)."""
    if t < 0.0:
        raise DomainError(f"closed form defined for t ≥ 0, got {t}")
    a = _period2(epsilon)
    g = _growth2(epsilon)
    n = int(math.floor(t / a))
    u = t - n * a
    if u <= epsilon:
        return (-g) ** n * math.sinh(u)
    phase = u - epsilon + math.atan(math.tanh(epsilon))
    return (-1.0) ** n * g ** (n + 1) * math.sin(phase)


def _period3(epsilon: float) -> float:
    return 2.0 * SQRT2 + 2.0 * epsilon


def example3_closed_form(epsilon: float, t: float) -> float:
    """Four-piece quadratic solution of the delayed benchmark (t ≥ 0)."""
    if t < 0.0:
        raise DomainError(f"closed form defined for t ≥ 0, got {t}")
    b = _period3(epsilon)
    n = int(math.floor(t / b))
    u = t - n * b
    lead = (-1.0) ** n * (1.0 + epsilon ** 2) ** n
    if u <= SQRT2:
        return lead * (1.0 - 0.5 * (SQRT2 - u) ** 2)
    if u <= SQRT2 + epsilon:
        return lead * (1.0 + 0.5 * (u - SQRT2) ** 2)
    if u <= SQRT2 + 2.0 * epsilon:
        w = u - SQRT2 - epsilon
        return lead * (1.0 + 0.5 * epsilon ** 2 - 0.5 * w ** 2 + epsilon * w)
    w = u - SQRT2 - 2.0 * epsilon
    return lead * (1.0 + epsilon ** 2) * (1.0 - 0.5 * w ** 2)


def _example2_problem(epsilon: float, periods: int) -> DelayProblem:
    if epsilon == 0.0:
        p = PiecewiseSignal.constant(1.0)
    else:
        a = _period2(epsilon)
        bps: list[float] = []
        segs: list[tuple] = []
        for n in range(periods):
            bps.extend((n * a, n * a + epsilon))
            segs.extend(((-1.0,), (1.0,)))
        bps.append(periods * a)
        p = PiecewiseSignal(tuple(bps), tuple(segs), -1.0, 1.0)
    return DelayProblem(
        p=p,
        tau=PiecewiseSignal.constant(0.0),
        start=0.0,
        history=PiecewiseSignal.constant(0.0),
        initial_value=0.0,
        initial_slope=1.0,
    )


def _example3_problem(epsilon: float, periods: int) -> DelayProblem:
    b = _period3(epsilon)
    p_bps: list[float] = []
    p_segs: list[tuple] = []
    t_bps: list[float] = []
    t_segs: list[tuple] = []
    for n in range(periods):
        base = n * b
        p_bps.extend((base, base + SQRT2 + epsilon))
        p_segs.extend(((-1.0,), (1.0,)))
        # delay pieces: argument pinned at base−√2, base+√2, base+√2+2ε
        t_bps.append(base)
        t_segs.append((SQRT2, 1.0))
        t_bps.append(base + SQRT2)
        if epsilon > 0.0:
            t_segs.append((0.0, 1.0))
            t_bps.append(base + SQRT2 + 2.0 * epsilon)
        t_segs.append((0.0, 1.0))
    p_bps.append(periods * b)
    t_bps.append(periods * b)
    history = PiecewiseSignal((-SQRT2, 0.0), ((-1.0, 0.0, 0.5),), -1.0, 0.0)
    return DelayProblem(
        p=PiecewiseSignal(tuple(p_bps), tuple(p_segs), -1.0, 1.0),
        tau=PiecewiseSignal(tuple(t_bps), tuple(t_segs), SQRT2, 0.0),
        start=0.0,
        history=history,
        initial_value=0.0,
        initial_slope=SQRT2,
    )


def _sin_history(degree: int = 25) -> PiecewiseSignal:
    # Taylor coefficients of sin(t) = −sin(u) in local coordinates u = t + π;
    # the degree-25 tail on [0, π] is below 1e−15.
    coeffs = [0.0] * (degree + 1)
    for m in range(degree // 2 + 1):
        j = 2 * m + 1
        if j > degree:
            break
        coeffs[j] = (-1.0) ** (m + 1) / math.factorial(j)
    return PiecewiseSignal((-math.pi, 0.0), (tuple(coeffs),), 0.0, 0.0)


def _sin_pi_problem(epsilon: float, periods: int) -> DelayProblem:
    return DelayProblem(
        p=PiecewiseSignal.constant(-1.0),
        tau=PiecewiseSignal.constant(math.pi),
        start=0.0,
        history=_sin_history(),
        initial_value=0.0,
        initial_slope=1.0,
    )


# name -> (closed form (ε, t), period (ε), problem builder (ε, periods));
# sin_pi has no ε and one problem for any number of periods
_EXAMPLES = {
    "example2": (example2_closed_form, _period2, _example2_problem),
    "example3": (example3_closed_form, _period3, _example3_problem),
    "sin_pi": (lambda epsilon, t: math.sin(t), lambda epsilon: 2.0 * math.pi,
               _sin_pi_problem),
}
EXAMPLE_NAMES = tuple(_EXAMPLES)


def closed_form(spec: ExampleSpec, t: float) -> float:
    return _EXAMPLES[spec.which][0](spec.epsilon, t)


def example_horizon(spec: ExampleSpec) -> float:
    """End of the last requested period block."""
    return spec.periods * _EXAMPLES[spec.which][1](spec.epsilon)


def build_example_problem(spec: ExampleSpec) -> DelayProblem:
    """Signals and initial data exactly as the closed forms presume."""
    return _EXAMPLES[spec.which][2](spec.epsilon, spec.periods)
