"""Numerical toolkit for oscillation thresholds and semicycle analysis of
second-order delay differential equations x″(t) + p(t)·x(t−τ(t)) = 0.

The package exports every name in the ``__all__`` of its eight library
modules, and ``__version__``; the CLI lives in ``semicycles.cli``."""

from . import (
    analysis,
    errors,
    harness,
    integrator,
    repro,
    signals,
    spectral,
    thresholds,
)
from .errors import *  # noqa: F401,F403
from .signals import *  # noqa: F401,F403
from .thresholds import *  # noqa: F401,F403
from .integrator import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .repro import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *signals.__all__,
    *thresholds.__all__,
    *integrator.__all__,
    *analysis.__all__,
    *spectral.__all__,
    *repro.__all__,
    *harness.__all__,
    "__version__",
]
