"""Exception types shared across the package, and the checks of seeds,
counts and tolerances that every entry point shares."""

import math
from numbers import Integral, Real


class TreevalError(Exception):
    """Base class for all treeval errors."""


class ValidationError(TreevalError):
    """Malformed input data: trees, balances, files, parameters."""


class DomainError(TreevalError):
    """Argument outside the mathematical domain of an operator."""


class ConvergenceError(TreevalError):
    """Iteration budget exhausted before reaching tolerance.

    Carries the best iterate found so callers can inspect or resume.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DivergenceError(TreevalError):
    """Unbounded optimization detected; carries the ascent direction as certificate."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


def check_count(name: str, value, least: int) -> None:
    """Raise unless ``value`` is an integer (not a bool) of at least
    ``least``: 0 for a seed, 1 for a trial count or an iteration cap."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValidationError(f"{name} must be >= {least}, an integer (got {value!r})")


def check_tolerance(name: str, value) -> None:
    """Raise unless ``value`` is a finite number of at least 0."""
    if isinstance(value, bool) or not (isinstance(value, Real) and math.isfinite(value) and value >= 0):
        raise ValidationError(f"{name} must be finite and >= 0 (got {value!r})")
