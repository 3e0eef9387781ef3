"""Exception types shared across the package."""

from __future__ import annotations


class FloquetLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidTruncationError(FloquetLabError, ValueError):
    """Truncation parameters are unusable (too small, negative pad, ...)."""


class NumericError(FloquetLabError):
    """A numerical routine produced NaN/Inf or failed to converge."""


class ResonantTimeError(FloquetLabError, ValueError):
    """Elapsed time hit a multiple of the oscillator period where the
    single-exponential propagator form is undefined."""

    def __init__(self, message: str, elapsed: float):
        super().__init__(message)
        self.elapsed = elapsed


class ResonanceError(FloquetLabError, ValueError):
    """Drive period is an integer multiple of the oscillator period, so the
    non-resonant Floquet construction does not apply."""


class DomainError(FloquetLabError, ValueError):
    """Scalar arguments are outside the validity domain of a closed form."""


class InvalidIntervalError(FloquetLabError, ValueError):
    """Spectral intervals are malformed or fail to separate."""


class SmallDenominatorError(FloquetLabError):
    """The homological equation hit a denominator below the guard.

    Attributes carry the offending index pair and the gap so callers can
    report which coupling is (nearly) resonant.
    """

    def __init__(self, message: str, pair: tuple, gap: float):
        super().__init__(message)
        self.pair = pair
        self.gap = gap


class NotConvergedError(FloquetLabError):
    """An iterative scheme exhausted its iteration budget."""
