"""Exception hierarchy and the package's one family of input checks.

Every library check is a ``require_*`` check here (``require_real``,
``require_trials``, ``require_type``, a :func:`one_of` contract, ...).  Each returns
the value or raises :class:`ValidationError` with the message ``<name> must
be <meaning>, got <value>``, the shape of the CLI's config errors; a value
that Python will not print is described instead (:func:`describe`).
"""

import json
import math
import numbers
import os
from typing import Any, Callable, NamedTuple


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


#: Most trials one run may have: trial i draws counter block i, a 64-bit number.
MAX_TRIALS = 1 << 64


def describe(value) -> str:
    """``repr(value)``, or where Python refuses to print it, its digit count or type.

    Python prints no integer of more than 4,300 digits (ValueError), nor a
    value nested beyond its recursion limit (RecursionError).
    """
    try:
        return repr(value)
    except (ValueError, RecursionError):
        if not isinstance(value, int):  # such an integer inside a list, say
            return f"a {type(value).__name__} that cannot be printed"
        size = abs(value)
        digits = int((size.bit_length() - 1) * math.log10(2)) + 1  # exact up to one digit
        digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
        return f"an integer of {digits} digits"


def require(valid: bool, name: str, meaning: str, value):
    """``value`` if ``valid``; else ValidationError ``<name> must be <meaning>, got <value>``."""
    if not valid:
        raise ValidationError(f"{name} must be {meaning}, got {describe(value)}")
    return value


def is_real(value) -> bool:
    """A number, not a boolean or a string, that converts to a finite float."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def is_integer(value) -> bool:
    """An integer of any ``numbers.Integral`` type, not a boolean."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class Contract(NamedTuple):
    """What an input must be; calling it, as ``require_x(value, name)``, is the check."""

    meaning: str
    valid: Callable[[Any], bool]
    convert: Callable[[Any], Any] = lambda value: value

    def __call__(self, value, name: str):
        return self.convert(require(self.valid(value), name, self.meaning, value))


require_real = Contract("a finite number", is_real, float)
require_nonnegative = Contract("a nonnegative number", lambda v: is_real(v) and v >= 0, float)
require_probability = Contract("a probability in [0, 1]",
                               lambda v: is_real(v) and 0 <= v <= 1, float)
require_count = Contract("a positive integer",
                         lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1)
require_trials = Contract("a positive integer of at most 2**64",
                          lambda v: require_count.valid(v) and v <= MAX_TRIALS)
require_trial_count = Contract("an integer in [0, 2**64]",  # the kernels' run; 0 is empty
                               lambda v: isinstance(v, int) and not isinstance(v, bool)
                               and 0 <= v <= MAX_TRIALS)
require_u64 = Contract("an unsigned 64-bit integer",  # any integer type, returned as an int
                       lambda v: is_integer(v) and 0 <= v < MAX_TRIALS, int)
require_coins = Contract(  # codes are uint8: bit k is coin k
    "a tuple of at most 8 (draw in 0-3, integer threshold in [0, 2**53]) pairs",
    lambda v: isinstance(v, tuple) and len(v) <= 8 and all(
        isinstance(coin, tuple) and len(coin) == 2 and is_integer(coin[0]) and 0 <= coin[0] <= 3
        and is_integer(coin[1]) and 0 <= coin[1] <= 1 << 53 for coin in v))
require_path = Contract("a file name", lambda v: isinstance(v, (str, os.PathLike)))


def one_of(options) -> Contract:
    """Equal to an option of its type, a subtype or a base type, so 1.0 and True are not 1."""

    def valid(v) -> bool:
        return not isinstance(v, bool) and any(
            (isinstance(v, type(o)) or isinstance(o, type(v))) and v == o for o in options)

    return Contract("one of " + ", ".join(map(json.dumps, options)), valid)


def require_type(value, name: str, cls: type):
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    return require(isinstance(value, cls), name, f"{article} {cls.__name__}", value)


def require_table(value, name: str, tol: float) -> tuple:
    """A 2x2 table of probabilities summing to 1, each within ``tol``, as floats."""
    try:
        rows = [tuple(row) for row in value]
    except TypeError:  # not a sequence of sequences
        rows = []
    cells = [float(v) if is_real(v) else None for row in rows for v in row]
    valid = [len(row) for row in rows] == [2, 2] and None not in cells and all(
        -tol <= v <= 1.0 + tol for v in cells) and abs(sum(cells) - 1.0) <= tol
    require(valid, name, f"a 2x2 table of probabilities summing to 1 within {tol}", value)
    return (cells[0], cells[1]), (cells[2], cells[3])


def require_fields(data, name: str, required: set, optional: set) -> dict:
    """A JSON object with every ``required`` key and no key outside ``optional``."""
    require(isinstance(data, dict), name, "a JSON object", data)
    if required - set(data):
        raise ValidationError(f"{name} is missing fields: {sorted(required - set(data))}")
    if set(data) - required - optional:
        raise ValidationError(f"unknown {name} fields: {sorted(set(data) - required - optional)}")
    return data
