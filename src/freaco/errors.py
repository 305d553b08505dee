"""Exception types shared across the package, and its integer and real checks."""

from __future__ import annotations

import operator

import numpy as np


def whole(name: str, value, low: int) -> int:
    """``value`` as an ``int`` no smaller than ``low``: the check for every
    count, seed, size and index the package takes.

    Python and numpy integers pass and come back as ``int``, so results
    stay JSON; anything else, booleans included, or a value below ``low``,
    raises :class:`ValueError` naming ``name``.
    """
    try:
        if isinstance(value, bool):  # operator.index takes True for 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def real(name: str, value) -> float:
    """``value``, a Python or numpy integer or float but not a bool, as a ``float``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the double range: inf, which range checks refuse
        return np.inf if value > 0 else -np.inf


class FreacoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInstanceError(FreacoError, ValueError):
    """Constraint system data is malformed (shapes, ranges, missing keys)."""


class DimensionMismatchError(FreacoError, ValueError):
    """A vector was supplied with the wrong length for the instance."""

    def __init__(self, what: str, expected: int, got: int):
        super().__init__(f"{what}: expected length {expected}, got {got}")
        self.what = what
        self.expected = expected
        self.got = got

    def __reduce__(self):
        return (type(self), (self.what, self.expected, self.got))


class InvalidPathError(FreacoError, ValueError):
    """A path's column indices fall outside the instance's columns."""


class InfeasibleInstanceError(FreacoError):
    """The constraint system has no solution.

    Carries the greatest candidate point ``xbar`` and the (0-based) rows at
    which ``A phi xbar`` misses ``b``.
    """

    def __init__(self, xbar: np.ndarray, rows: np.ndarray):
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        pretty = ", ".join(str(i + 1) for i in rows)
        super().__init__(f"infeasible system: rows {pretty} cannot be satisfied")
        self.xbar = np.asarray(xbar, dtype=float)
        self.rows = rows

    def __reduce__(self):
        return (type(self), (self.xbar, self.rows))


class PathSpaceTooLargeError(FreacoError):
    """Exhaustive enumeration was requested beyond the configured cap."""

    def __init__(self, path_count: int, cap: int):
        super().__init__(f"path space has {path_count} paths, above cap {cap}")
        self.path_count = path_count
        self.cap = cap

    def __reduce__(self):
        return (type(self), (self.path_count, self.cap))


class ExprParseError(FreacoError, ValueError):
    """Objective expression text could not be parsed."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col

    def __reduce__(self):
        return (type(self), (self.message, self.line, self.col))


class EvalDomainError(FreacoError, ArithmeticError):
    """Objective evaluation hit a domain fault: overflow, division by zero
    or an invalid operation (ln of a non-positive value, a fractional
    power of a negative base, ...) in any intermediate value.

    Carries the offending point.
    """

    def __init__(self, reason: str, point):
        super().__init__(f"{reason} at x = {list(map(float, point))}")
        self.reason = reason
        self.point = np.asarray(point, dtype=float)

    def __reduce__(self):
        return (type(self), (self.reason, self.point))


class ExperimentError(FreacoError):
    """A benchmark run failed; wraps the cause with problem and run index."""

    def __init__(self, problem: str, run_index: int):
        super().__init__(f"run {run_index} of problem {problem!r} failed")
        self.problem = problem
        self.run_index = run_index

    def __reduce__(self):
        return (type(self), (self.problem, self.run_index))
