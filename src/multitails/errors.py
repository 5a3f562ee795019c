"""Exception types shared across the package."""

from __future__ import annotations


class ModelValidationError(ValueError):
    """Raised when a model, kernel, or level distribution fails validation."""


class EvaluationError(RuntimeError):
    """Raised when a numeric evaluation cannot be completed.

    Carries enough context to see what broke: the offending summation
    index for a non-finite term.
    """

    def __init__(self, message: str, *, index: int | None = None):
        super().__init__(message)
        self.index = index


class DegenerateVarianceError(EvaluationError):
    """Raised when a variance that must be positive is not."""


class UnsupportedCombinationError(RuntimeError):
    """Raised when no validity rule covers a kernel/regime combination."""


class InputExhaustedError(RuntimeError):
    """Raised when an input stream ends before enough data was read."""

    def __init__(self, message: str, *, consumed: int = 0):
        super().__init__(message)
        self.consumed = consumed
