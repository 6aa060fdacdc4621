"""Singlet-state correlations from axis-anchored hidden variables.

Analytic evaluators and a seeded Monte Carlo engine for the
two-particle spin experiment, a colored-ball source/detector protocol
exhibiting the same correlation structure classically, common-cause
diagnostics for both, and a CLI (``bellsim``) tying them together.
"""

from .errors import (
    BellsimError,
    ConditioningUndefinedError,
    ContextMismatchError,
    EmptyReportError,
    ValidationError,
)
from .spinmodel import Direction, quantum_correlation

__version__ = "0.1.0"

__all__ = [
    "BellsimError",
    "ConditioningUndefinedError",
    "ContextMismatchError",
    "Direction",
    "EmptyReportError",
    "ValidationError",
    "__version__",
    "quantum_correlation",
]
