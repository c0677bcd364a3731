"""Exception types shared across the package, and the checks that every
entry point shares: of seeds, counts and tolerances, and of the numbers a
caller passes in (``check_numbers``), which every entry point that takes
cash, weights, prices, parameters or densities converts them through
(``check_number`` for one number in a loop).
Range rules (positive weights, probability vectors) stay where they apply,
and the backward sweeps, which run inside every solve, check only the
length of their cash array's last axis."""

import math
from numbers import Integral, Real

import numpy as np


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


def check_numbers(name: str, value, shape: tuple[int, ...] | None = None, *,
                  infinite: bool = False) -> np.ndarray:
    """``value`` as a new float array, of ``shape`` where one is given
    (``()`` for one number).  Raise, naming ``name`` but not echoing the
    value, unless it is numbers (not strings, None or bools) in a regular
    nesting of that shape, none of them NaN or (unless ``infinite``)
    infinite."""
    try:
        out = np.array(value)
        # objects convert one by one, None to NaN; bools and strings do not
        out = out.astype(float, copy=False) if out.dtype.kind in "iufO" else None
    except (TypeError, ValueError, OverflowError):   # ragged, not numbers, or an int past the float range
        out = None
    if out is None or (np.isnan(out).any() if infinite else not np.isfinite(out).all()):
        what = ("" if infinite else "finite ") + ("number" if shape == () else "numbers")
        raise ValidationError(f"{name} must be {'a ' if shape == () else ''}{what}")
    if shape is not None and out.shape != shape:
        raise ValidationError(f"{name} must have shape {shape} (got {out.shape})")
    return out


def check_number(name: str, value) -> float:
    """``check_numbers(name, value, ())`` as a float, with no array built
    for a finite Python float: for loops over many single numbers."""
    if type(value) is float and math.isfinite(value):
        return value
    return float(check_numbers(name, value, ()))
