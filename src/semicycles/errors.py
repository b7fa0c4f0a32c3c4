"""Exception taxonomy shared across the package.

Everything raised on purpose derives from SemicycleError so callers (and the
CLI's exit-code mapping) can distinguish domain failures from bugs.
"""

from __future__ import annotations

__all__ = [
    "SemicycleError",
    "DomainError",
    "IterationLimitError",
    "ShootingError",
    "HistoryDomainError",
    "ResolutionError",
    "InsufficientWindowError",
    "NotApplicableError",
]


class SemicycleError(Exception):
    """Base class for all deliberate failures raised by this package."""


class DomainError(SemicycleError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class IterationLimitError(SemicycleError):
    """An iteration hit its cap without meeting tolerance.

    Carries the last two iterates (ascent times for the threshold loop;
    None where the notion does not apply) so a caller can judge how far
    from convergence the run stopped.
    """

    def __init__(self, message: str, omega_prev: float | None = None,
                 omega_last: float | None = None):
        super().__init__(message)
        self.omega_prev = omega_prev
        self.omega_last = omega_last


class ShootingError(SemicycleError):
    """The shooting oracle could not bracket or locate its boundary value."""


class HistoryDomainError(SemicycleError):
    """A delayed argument reached below the resolvable history domain."""


class ResolutionError(SemicycleError):
    """Requested features are finer than the numerical resolution in hand."""


class InsufficientWindowError(SemicycleError):
    """The observed window is too short for the requested classification."""


class NotApplicableError(SemicycleError):
    """The operation's hypotheses do not cover the supplied input."""
