"""Exception types shared across the package, and ``check_finite``, the one
place a located NonFiniteError is raised."""

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
