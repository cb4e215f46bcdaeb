"""Exception types shared across the package."""


class QplandError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(QplandError):
    def __init__(self, what, expected, actual):
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected dimension {expected}, got {actual}")


class NonFiniteError(QplandError):
    """A computation produced NaN/Inf. Carries enough context to locate it."""

    def __init__(self, where, index=None, stage=None, step=None, cause=None):
        self.where = where
        self.index = index
        self.stage = stage
        self.step = step
        parts = [where]
        if stage is not None:
            parts.append(f"stage {stage}")
        if step is not None:
            parts.append(f"step {step}")
        if index is not None:
            parts.append(f"index {index}")
        message = "non-finite value in " + ", ".join(parts)
        super().__init__(message if cause is None else f"{message}: {cause}")


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
