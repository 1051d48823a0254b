"""Exception types shared across the package, and its only checks that a setting
from a config, a record or a caller is an integer (`integer`) or a finite real."""

import numbers
import sys


class DomainError(ValueError):
    """An input lies outside its admissible domain (box bounds, tempering range)."""


class CalibrationError(RuntimeError):
    """A regression problem is under-determined or too ill-conditioned to solve."""


class NumericError(RuntimeError):
    """A numerical operation failed (loss of positive definiteness, non-finite values)."""


def integer(name: str, value, low: int | None = None) -> int:
    """value as a Python int; bools, floats, strings and values below low raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (
            low is not None and value < low):
        kind = ("an integer" if low is None else "a non-negative integer" if low == 0
                else f"an integer >= {low}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def finite_real(value) -> bool:
    """Whether value is a number, not a bool, that a double holds finitely."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and abs(value) <= sys.float_info.max)  # False for NaN, inf and huge ints
