"""Exception hierarchy shared by all siegel modules."""


class SiegelError(Exception):
    """Base class for every error raised by this package."""


class NonInvertibleError(SiegelError, ValueError):
    """Matrix is numerically singular or too ill-conditioned to factor."""


class NotUnimodularError(SiegelError, ValueError):
    """Determinant is not +1 (within tolerance for floats, exactly for ints)."""


class NonPositiveEntryError(SiegelError, ValueError):
    """A vector that must be strictly positive has a zero/negative entry."""


class InvalidRangeError(SiegelError, ValueError):
    """A sampling range is empty or inverted."""


class InvalidArgumentError(SiegelError, ValueError):
    """An argument is outside the documented domain."""


class ToleranceNotMetError(SiegelError, ArithmeticError):
    """A numerical routine could not certify the requested tolerance."""


class InvalidWitnessError(SiegelError, ValueError):
    """A claimed intersection witness fails its membership preconditions."""


class DimensionTooLargeError(SiegelError, ValueError):
    """Exhaustive enumeration was requested beyond desk scale."""


class MalformedConfigError(SiegelError, ValueError):
    """Config file is not valid, or contains unknown keys.

    ``line`` and ``column`` are set when the file failed to parse.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
