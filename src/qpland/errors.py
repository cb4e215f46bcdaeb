"""Exception types shared across the package; ``check_finite``, the one
place a located NonFiniteError is raised; and the value checks that config
fields declare beside their defaults, which ``check_fields`` runs."""

import dataclasses
import math
import numbers
from typing import Callable, NamedTuple

import numpy as np


class QplandError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(QplandError):
    def __init__(self, what, expected, actual):
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected dimension {expected}, got {actual}")


class NonFiniteError(QplandError):
    """A computation produced NaN/Inf. Carries enough context to locate it."""

    def __init__(self, where, index=None, step=None, cause=None):
        self.where = where
        self.index = index
        self.step = step
        parts = [where]
        if step is not None:
            parts.append(f"step {step}")
        if index is not None:
            parts.append(f"index {index}")
        message = "non-finite value in " + ", ".join(parts)
        super().__init__(message if cause is None else f"{message}: {cause}")


def check_finite(where, values, start=0, step=None, cause=None):
    """Raise NonFiniteError naming ``where`` unless every entry of ``values``
    is finite. Its index is ``start`` plus the first row, along axis 0, that
    holds a NaN or an inf: one entry of a 1-D array; a scalar has none."""
    finite = np.isfinite(values)
    if finite.all():
        return
    index = None
    if finite.ndim:
        index = start + int(np.argmax(~finite.reshape(len(finite), -1).all(axis=1)))
    raise NonFiniteError(where, index=index, step=step, cause=cause)


class ConfigError(QplandError):
    """Invalid configuration. ``problems`` lists every violation found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def is_int(v):
    """An integer, NumPy's included; ``True`` and ``False`` are not integers."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_number(v):
    """An integer, or a finite real; ``True`` and ``False`` are not numbers."""
    return is_int(v) or (isinstance(v, numbers.Real) and not isinstance(v, bool)
                         and math.isfinite(v))


class Check(NamedTuple):
    test: Callable  # value -> bool
    problem: str  # format string of (name, value)


def must_be(what, test):
    """The Check that a value passes ``test``: "'<name>' must be <what>, got <value>"."""
    return Check(test, f"'{{}}' must be {what}, got {{!r}}")


POSITIVE = must_be("a positive number", lambda v: is_number(v) and v > 0)
NON_NEGATIVE = must_be("a non-negative number", lambda v: is_number(v) and v >= 0)
FRACTION = must_be("a number in (0, 1]", lambda v: is_number(v) and 0 < v <= 1)
FRACTION_OR_NULL = must_be("a number in (0, 1] or null", lambda v: v is None or FRACTION.test(v))
POSITIVE_INT = must_be("a positive integer", lambda v: is_int(v) and v > 0)
NON_NEGATIVE_INT = must_be("a non-negative integer", lambda v: is_int(v) and v >= 0)


def checked(default, check):
    """A dataclass field with ``default`` whose value must pass ``check``."""
    return dataclasses.field(default=default, metadata={"check": check})


def check_fields(obj):
    """Raise one ConfigError naming every field of the dataclass ``obj`` whose
    value fails the check that its ``checked`` declaration carries."""
    checks = [(f.name, getattr(obj, f.name), f.metadata["check"]) for f in dataclasses.fields(obj)]
    problems = [check.problem.format(name, v) for name, v, check in checks if not check.test(v)]
    if problems:
        raise ConfigError(problems)


class FormatError(QplandError):
    """A data file failed to parse (bad magic, version, or truncation)."""


class SamplingError(QplandError):
    """An initial-condition sampler failed (e.g. rejection loop exhausted)."""


class TrainingDivergedError(QplandError):
    """Training hit a non-finite loss. Retains the last good snapshot."""

    def __init__(self, step, snapshot=None, history=None):
        self.step = step
        self.snapshot = snapshot
        self.history = history or []
        super().__init__(f"training loss became non-finite at step {step}")
