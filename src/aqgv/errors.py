"""Exception types shared across the package, and the size checks that
raise them.

All derive from AqgvError, a ValueError: callers that only care about "bad
input" catch that one class, and the CLI prints any of them as one line.
The checks (``_check_ints`` and the one size guard ``_guard`` with its
capped costs) need only ``sys``; ``bounds`` and ``codesearch`` share them
from here, so the code search checks its sizes without loading the bounds.
"""

import sys


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


def _check_ints(**sizes: object) -> None:
    """Refuse a size that is not a plain int: a float passes the range
    checks and then fails inside the arithmetic, and a bool reads as 0 or 1
    (as in a code file, true is not 1)."""
    for name, value in sizes.items():
        if type(value) is not int:
            raise ParameterRangeError(f"{name} must be an integer, got {value!r}")


def _digits() -> int:
    return sys.get_int_max_str_digits() or 4300   # 0 is no limit: keep messages short


def _capped_pow(q: int, e: int) -> int:
    return q ** min(e, 4 * _digits() + 1)


def _capped_ball(n: int, q: int, t: int, bits: float | None = None) -> int:
    """ball_sum's terms C(n, i) (q-1)^i, each from the one before by
    C(n,i) = C(n,i-1)(n-i+1)/i, added until the sum passes 2^bits (by
    default B = 4d, as in _guard)."""
    bits = 4 * _digits() if bits is None else bits
    total, term = 0, 1
    for i in range(1, t + 1):
        term = term * (n - i + 1) * (q - 1) // i
        total += term
        if total.bit_length() > bits:
            break
    return total


def _guard(cost: int, guard: int, message: str) -> None:
    """Raise EnumerationSizeError(message) if ``cost`` exceeds ``guard``.

    A cost is built with the _capped_* helpers: exact below 2^B, B = 4d for
    the interpreter's int-to-str digit limit d, and at least 2^B past it, so
    their sums and products decide a guard without building huge numbers.
    As 2^B > 10^d, a cost the message shows in full is exact."""
    if cost > guard:
        d = _digits()
        raise EnumerationSizeError(message.format(cost if cost < 10**d else f"10^{d} or more", guard))
