"""Exception types shared across the toolkit, and the array size check."""

import sys


class LieesError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(LieesError):
    """A constructor or operation argument is out of its admissible range."""


class InvalidDomainError(LieesError):
    """A domain interval does not satisfy the operation's requirements."""


class NumericFailureError(LieesError):
    """A numeric routine produced a nonfinite or non-convergent result."""


class ResolutionError(LieesError):
    """Sampling resolution is too coarse for the fastest harmonic present."""


class DivergenceError(LieesError):
    """Integrated state left the admissible range.

    last_time is the start of the failing step and last_x the finite state
    there (None when the raiser does not know it).
    """

    def __init__(self, message: str, last_time: float, last_x: float | None = None):
        super().__init__(message)
        self.last_time = last_time
        self.last_x = last_x


class ConstructionError(LieesError):
    """A system builder rejected its configuration (resonance or excitation gate)."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InsufficientSignalError(LieesError):
    """An envelope has too little signal above its residual floor to fit."""


def check_array_size(n: int, what: str) -> None:
    """Reject an array of n doubles (for what) that numpy cannot size: above
    sys.maxsize bytes it raises ValueError where a smaller one that does not
    fit raises MemoryError."""
    if n > sys.maxsize // 8:
        raise InvalidParameterError(f"{what} are more than an array of doubles can hold")
