"""Small argument-validation helpers used across the library.

These keep constructor bodies readable and produce consistent error messages
("<name> must be positive, got -3") instead of ad-hoc asserts.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Iterable


def require_integral(value: Any, name: str) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is a whole number.

    Integers and integral floats (``10``, ``10.0``) pass; ``40.9``, NaN,
    infinities, booleans and non-numbers raise rather than being truncated
    by ``int()``.
    """
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def require_finite(value: Any, name: str) -> float:
    """``value`` as a ``float``; ``ValueError`` unless it is a finite real number.

    Integers and floats pass; NaN, infinities, booleans and non-numbers
    raise rather than being coerced by ``float()``.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            result = float(value)
        except OverflowError:  # an int beyond the float range
            result = math.inf
        if math.isfinite(result):
            return result
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def require_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def require_positive_finite(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``0 < value < inf`` (NaN is not)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is >= 0 (NaN is not)."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def require_between(value: float, low: float, high: float, name: str) -> float:
    """Raise ``ValueError`` unless ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def require_in(value: Any, choices: Iterable[Any], name: str) -> Any:
    """Raise ``ValueError`` unless ``value`` is one of ``choices``."""
    choices = tuple(choices)
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value
