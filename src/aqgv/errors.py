"""Exception types shared across the package.

All derive from AqgvError, a ValueError: callers that only care about "bad
input" catch that one class, and the CLI prints any of them as one line.
"""


class AqgvError(ValueError):
    """Any error that bad input to aqgv can cause."""


class InputShapeError(AqgvError):
    """Mismatched vector lengths, mixed fields, or malformed matrices."""


class ParameterRangeError(AqgvError):
    """Integer parameters outside their documented ranges."""


class EnumerationSizeError(AqgvError):
    """An exhaustive enumeration would exceed its hard size guard."""


class UnsupportedFieldError(AqgvError):
    """Field order is not a supported prime (or not a prime power where one is required)."""


class DomainError(AqgvError):
    """Real-valued argument outside the function's domain."""
