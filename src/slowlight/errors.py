"""Exception types shared across the toolkit, and the number rules that
library arguments, config keys and CLI flags share."""

import math

# (requirement, check) of each number rule
_POSITIVE = ("positive and finite", lambda value: 0 < value < math.inf)
_NON_NEGATIVE = ("non-negative and finite", lambda value: 0 <= value < math.inf)
_FINITE = ("finite", math.isfinite)


def _require(rule, what, value):
    """ValueError ``{what} must be {requirement}, got {value}`` unless ``value`` meets ``rule``."""
    requirement, check = rule
    if not check(value):
        raise ValueError(f"{what} must be {requirement}, got {value}")


class SlowLightError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SlowLightError):
    """Invalid or unknown configuration input."""


class GridResolutionError(SlowLightError):
    """Grid or solver settings too coarse for the requested computation."""


class TruncationRiskError(SlowLightError):
    """Absorption data does not decay at its edges; the principal-value
    integral would be corrupted by spectral truncation."""


class AmbiguousWidthError(SlowLightError):
    """A width measurement found more than one half-maximum crossing pair."""

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = candidates or []
