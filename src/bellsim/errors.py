"""Exception hierarchy and the number checks shared across the package."""

import math
import numbers


class BellsimError(Exception):
    """Base class for all package errors."""


class ValidationError(BellsimError, ValueError):
    """An input violates a type or domain contract."""


class ContextMismatchError(BellsimError):
    """A statistic was requested outside its measurement context.

    Conditional quantities are defined per measurement setup, each with
    its own hidden-variable set; mixing sets anchored to different axes
    is rejected instead of silently combined.
    """


class ConditioningUndefinedError(BellsimError):
    """Conditioning on an event of probability 0 or 1 was requested."""


class EmptyReportError(BellsimError):
    """No jointly registered trials, so frequencies are undefined."""


def is_real(value) -> bool:
    """A number, not a boolean or a string, that converts to a finite float."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def require_count(value, name: str) -> None:
    """A count (of trials, or of samples) is a positive integer, not a boolean."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
