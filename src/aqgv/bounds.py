"""Exact evaluation of the finite-length GV-type existence bounds.

Everything is integer / rational arithmetic end to end: a verdict is
``lhs < 1`` compared as exact fractions, never through floats, and the
parameter scans compare the LHS numerator against its denominator as
integers.  Decimal renderings are for display only.
"""

from __future__ import annotations

import decimal
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import ParameterRangeError


def prime_power_base(q: int) -> int | None:
    """The prime p with q = p^m, or None if q is not a prime power >= 2.

    Trial division below 1000 settles every q with a prime factor there.
    Otherwise p > 1000, so m <= log(q)/log(1000), and each such m has one
    candidate root r with r^m = q.  A candidate is tested by Miller-Rabin
    on the prime bases 2..41, which is exact below 3317044064679887385961981
    (Sorenson and Webster, 2015); a probable prime at or above that bound
    raises ParameterRangeError rather than give an uncertified answer.
    """
    if not isinstance(q, int) or q < 2:
        return None
    for d in range(2, 1000):
        if d * d > q:
            return q  # no factor up to sqrt(q): q is prime
        if q % d == 0:
            while q % d == 0:
                q //= d
            return d if q == 1 else None
    for m in range(1, int(math.log(q, 1000)) + 1):
        r = _integer_root(q, m)
        if r**m == q and _miller_rabin(r):
            if r >= 3317044064679887385961981:
                raise ParameterRangeError(
                    f"cannot certify that q={q} is a prime power: {r} is only a probable prime"
                )
            return r
    return None


def _integer_root(x: int, m: int) -> int:
    """floor(x^(1/m)) for x >= 1, by Newton's method from above."""
    r = 1 << -(-x.bit_length() // m)
    while True:
        s = ((m - 1) * r + x // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def _miller_rabin(r: int) -> bool:
    """False if the odd r > 41 is composite; True if it is a strong
    probable prime to every prime base up to 41."""
    d, s = r - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, r)
        if x in (1, r - 1):
            continue
        for _ in range(s - 1):
            x = x * x % r
            if x == r - 1:
                break
        else:
            return False
    return True


def is_prime_power(q: int) -> bool:
    return prime_power_base(q) is not None


@cache
def ball_sum(n: int, q: int, t: int) -> int:
    """Number of nonzero vectors in GF(q)^n of weight <= t:
    sum_{i=1}^{t} C(n,i) (q-1)^i.  t = 0 gives the empty sum 0.
    Each term comes from the one before, by C(n,i) = C(n,i-1)(n-i+1)/i.
    """
    if q < 2:
        raise ParameterRangeError(f"q must be >= 2, got {q}")
    if not 0 <= t <= n:
        raise ParameterRangeError(f"need 0 <= t <= n, got t={t}, n={n}")
    total, term = 0, 1
    for i in range(1, t + 1):
        term = term * (n - i + 1) * (q - 1) // i
        total += term
    return total


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """q-binomial coefficient: the number of k-dim subspaces of GF(q)^n."""
    if q < 2:
        raise ParameterRangeError(f"q must be >= 2, got {q}")
    if not 0 <= k <= n:
        raise ParameterRangeError(f"need 0 <= k <= n, got k={k}, n={n}")
    k = min(k, n - k)   # the same count from fewer factors
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    out, rem = divmod(num, den)
    assert rem == 0
    return out


def fraction_decimal_str(fr: Fraction, digits: int = 6) -> str:
    """Exact decimal rendering of a fraction to ``digits`` places (half-even)."""
    if digits < 1:
        raise ParameterRangeError("digits must be >= 1")
    whole = decimal.Decimal(abs(fr.numerator) // fr.denominator)   # exact, of any length
    with decimal.localcontext() as ctx:
        ctx.prec = whole.adjusted() + 1 + digits + 10
        d = decimal.Decimal(fr.numerator) / decimal.Decimal(fr.denominator)
        return str(d.quantize(decimal.Decimal(1).scaleb(-digits), rounding=decimal.ROUND_HALF_EVEN))


def check_ranges(q: int, n: int, dx: int, dz: int) -> None:
    """The ranges every bound and profile check shares: q a prime power,
    n >= 1 and design distances 1 <= dx, dz <= n+1."""
    if not is_prime_power(q):
        raise ParameterRangeError(f"q must be a prime power >= 2, got {q}")
    if n < 1:
        raise ParameterRangeError(f"n must be >= 1, got {n}")
    for name, d in (("dx", dx), ("dz", dz)):
        if not 1 <= d <= n + 1:
            raise ParameterRangeError(f"need 1 <= {name} <= n+1, got {d}")


@dataclass(frozen=True)
class CssBoundQuery:
    """Parameters of the nested-pair (CSS) bound."""

    q: int
    n: int
    k1: int
    k2: int
    dx: int
    dz: int

    def __post_init__(self) -> None:
        check_ranges(self.q, self.n, self.dx, self.dz)
        if not 0 <= self.k2 <= self.k1 <= self.n:
            raise ParameterRangeError(
                f"need 0 <= k2 <= k1 <= n, got k1={self.k1}, k2={self.k2}, n={self.n}"
            )


@dataclass(frozen=True)
class StabBoundQuery:
    """Parameters of the stabilizer bound."""

    q: int
    n: int
    k: int
    dx: int
    dz: int

    def __post_init__(self) -> None:
        check_ranges(self.q, self.n, self.dx, self.dz)
        if not 0 <= self.k <= self.n:
            raise ParameterRangeError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")


@dataclass(frozen=True)
class BoundReport:
    """Exact LHS of a bound with its addends/factors.

    ``feasible`` means lhs < 1 strictly; lhs = 1 exactly is infeasible.
    """

    lhs: Fraction
    terms: tuple[Fraction, ...]

    @property
    def feasible(self) -> bool:
        return self.lhs < 1

    def decimal_str(self, digits: int = 6) -> str:
        return fraction_decimal_str(self.lhs, digits)


def _css_lhs_ints(q: int, n: int, k1: int, k2: int, dx: int, dz: int) -> tuple[tuple[int, int], int]:
    """The CSS LHS as integers: addends (bit, phase) over one denominator."""
    bit = (q**k1 - q**k2) * ball_sum(n, q, dx - 1)
    phase = (q ** (n - k2) - q ** (n - k1)) * ball_sum(n, q, dz - 1)
    return (bit, phase), q**n - 1


def _stab_lhs_ints(q: int, n: int, k: int, dx: int, dz: int) -> tuple[tuple[int, int, int], int]:
    """The stabilizer LHS as integers: factors (ratio, bit ball, phase
    ball) whose product is the numerator, over the ratio's denominator."""
    ratio = (q ** (2 * k) - 1) * q ** (n - k)
    return (ratio, ball_sum(n, q, dx - 1), ball_sum(n, q, dz - 1)), q ** (2 * n) - 1


def css_gv_lhs(query: CssBoundQuery) -> BoundReport:
    """LHS of the nested-pair existence bound.

    lhs = (q^k1 - q^k2)/(q^n - 1) * ball_sum(n, q, dx-1)
        + (q^(n-k2) - q^(n-k1))/(q^n - 1) * ball_sum(n, q, dz-1)

    If lhs < 1, an [[n, k1-k2, dx, dz]]_q CSS code exists.
    """
    addends, denom = _css_lhs_ints(query.q, query.n, query.k1, query.k2, query.dx, query.dz)
    bit_term, phase_term = (Fraction(a, denom) for a in addends)
    return BoundReport(lhs=bit_term + phase_term, terms=(bit_term, phase_term))


def stab_gv_lhs(query: StabBoundQuery) -> BoundReport:
    """LHS of the stabilizer existence bound.

    lhs = (1 - q^(-2k))/(1 - q^(-2n)) * q^(-(n-k))
        * ball_sum(n, q, dx-1) * ball_sum(n, q, dz-1)

    The first factor bounds the fraction of stabilizer codes that fail to
    detect any one fixed error.  If lhs < 1, an [[n, k, dx, dz]]_q
    stabilizer code exists.  ``terms`` holds the three factors.
    """
    (ratio, bit_ball, phase_ball), denom = _stab_lhs_ints(query.q, query.n, query.k, query.dx, query.dz)
    terms = (Fraction(ratio, denom), Fraction(bit_ball), Fraction(phase_ball))
    return BoundReport(lhs=terms[0] * terms[1] * terms[2], terms=terms)


def max_k_stab(n: int, q: int, dx: int, dz: int) -> int | None:
    """Largest k in [1, n] whose stabilizer bound is feasible, or None.

    The LHS is strictly increasing in k (its ratio is q^(n+k) - q^(n-k)
    over a constant) or 0 for every k, so the feasible k form a prefix of
    1..n and a bisection finds its end in O(log n) exact integer
    comparisons of numerator against denominator.
    """
    check_ranges(q, n, dx, dz)

    def infeasible(k: int) -> bool:
        (ratio, bit_ball, phase_ball), denom = _stab_lhs_ints(q, n, k, dx, dz)
        return ratio * bit_ball * phase_ball >= denom

    return bisect_left(range(1, n + 1), True, key=infeasible) or None


def best_css_params(n: int, q: int, dx: int, dz: int) -> tuple[int, int] | None:
    """Feasible (k1, k2) with k1 > k2 maximizing k1 - k2, or None.

    Ties break toward the smallest k1, then the smallest k2.  The LHS
    numerator rises with k1 and falls with k2, and k2 = k1 is always
    feasible.  So the least feasible k2 never decreases as k1 grows, and
    the largest feasible net at k1 exceeds that at k1 - 1 by at most one.
    A two-pointer scan thus needs one exact integer comparison of
    numerator against denominator per k1: is a net one more than the best
    so far feasible here?  The first k1 to reach a net is the smallest,
    and its k2 the least.
    """
    check_ranges(q, n, dx, dz)
    best: tuple[int, int] | None = None
    k2 = 0
    for k1 in range(1, n + 1):  # k1 - k2 is one more than the best net so far
        addends, denom = _css_lhs_ints(q, n, k1, k2, dx, dz)
        if sum(addends) < denom:
            best = (k1, k2)
        else:
            k2 += 1
    return best
