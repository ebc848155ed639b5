"""Exact evaluation of the finite-length GV-type existence bounds.

Everything is integer / rational arithmetic end to end: a verdict is
``lhs < 1`` compared as exact fractions, never through floats.  Decimal
renderings are for display only.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .errors import ParameterRangeError


def prime_power_base(q: int) -> int | None:
    """The prime p with q = p^m, or None if q is not a prime power >= 2."""
    if not isinstance(q, int) or q < 2:
        return None
    d = 2
    while d * d <= q:
        if q % d == 0:
            while q % d == 0:
                q //= d
            return d if q == 1 else None
        d += 1
    return q  # q itself is prime


def is_prime_power(q: int) -> bool:
    return prime_power_base(q) is not None


@cache
def ball_sum(n: int, q: int, t: int) -> int:
    """Number of nonzero vectors in GF(q)^n of weight <= t:
    sum_{i=1}^{t} C(n,i) (q-1)^i.  t = 0 gives the empty sum 0.
    """
    if q < 2:
        raise ParameterRangeError(f"q must be >= 2, got {q}")
    if not 0 <= t <= n:
        raise ParameterRangeError(f"need 0 <= t <= n, got t={t}, n={n}")
    return sum(comb(n, i) * (q - 1) ** i for i in range(1, t + 1))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """q-binomial coefficient: the number of k-dim subspaces of GF(q)^n."""
    if q < 2:
        raise ParameterRangeError(f"q must be >= 2, got {q}")
    if not 0 <= k <= n:
        raise ParameterRangeError(f"need 0 <= k <= n, got k={k}, n={n}")
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
    int_digits = len(str(abs(fr.numerator) // fr.denominator)) if fr.denominator else 0
    with decimal.localcontext() as ctx:
        ctx.prec = int_digits + digits + 10
        d = decimal.Decimal(fr.numerator) / decimal.Decimal(fr.denominator)
        return str(d.quantize(decimal.Decimal(1).scaleb(-digits), rounding=decimal.ROUND_HALF_EVEN))


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
        if not is_prime_power(self.q):
            raise ParameterRangeError(f"q must be a prime power >= 2, got {self.q}")
        if self.n < 1:
            raise ParameterRangeError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.k2 <= self.k1 <= self.n:
            raise ParameterRangeError(
                f"need 0 <= k2 <= k1 <= n, got k1={self.k1}, k2={self.k2}, n={self.n}"
            )
        for name, d in (("dx", self.dx), ("dz", self.dz)):
            if not 1 <= d <= self.n + 1:
                raise ParameterRangeError(f"need 1 <= {name} <= n+1, got {d}")


@dataclass(frozen=True)
class StabBoundQuery:
    """Parameters of the stabilizer bound."""

    q: int
    n: int
    k: int
    dx: int
    dz: int

    def __post_init__(self) -> None:
        if not is_prime_power(self.q):
            raise ParameterRangeError(f"q must be a prime power >= 2, got {self.q}")
        if self.n < 1:
            raise ParameterRangeError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise ParameterRangeError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        for name, d in (("dx", self.dx), ("dz", self.dz)):
            if not 1 <= d <= self.n + 1:
                raise ParameterRangeError(f"need 1 <= {name} <= n+1, got {d}")


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


def css_gv_lhs(query: CssBoundQuery) -> BoundReport:
    """LHS of the nested-pair existence bound.

    lhs = (q^k1 - q^k2)/(q^n - 1) * ball_sum(n, q, dx-1)
        + (q^(n-k2) - q^(n-k1))/(q^n - 1) * ball_sum(n, q, dz-1)

    If lhs < 1, an [[n, k1-k2, dx, dz]]_q CSS code exists.
    """
    q, n = query.q, query.n
    denom = q**n - 1
    bit_term = Fraction(q**query.k1 - q**query.k2, denom) * ball_sum(n, q, query.dx - 1)
    phase_term = Fraction(q ** (n - query.k2) - q ** (n - query.k1), denom) * ball_sum(
        n, q, query.dz - 1
    )
    return BoundReport(lhs=bit_term + phase_term, terms=(bit_term, phase_term))


def stab_gv_lhs(query: StabBoundQuery) -> BoundReport:
    """LHS of the stabilizer existence bound.

    lhs = (1 - q^(-2k))/(1 - q^(-2n)) * q^(-(n-k))
        * ball_sum(n, q, dx-1) * ball_sum(n, q, dz-1)

    The first factor bounds the fraction of stabilizer codes that fail to
    detect any one fixed error.  If lhs < 1, an [[n, k, dx, dz]]_q
    stabilizer code exists.  ``terms`` holds the three factors.
    """
    q, n, k = query.q, query.n, query.k
    ratio = Fraction((q ** (2 * k) - 1) * q ** (n - k), q ** (2 * n) - 1)
    bit_ball = Fraction(ball_sum(n, q, query.dx - 1))
    phase_ball = Fraction(ball_sum(n, q, query.dz - 1))
    return BoundReport(lhs=ratio * bit_ball * phase_ball, terms=(ratio, bit_ball, phase_ball))


def max_k_stab(n: int, q: int, dx: int, dz: int) -> int | None:
    """Largest k in [1, n] whose stabilizer bound is feasible, or None.

    The LHS is strictly increasing in k, so a descending scan can stop at
    the first feasible k.
    """
    StabBoundQuery(q=q, n=n, k=0, dx=dx, dz=dz)  # validate ranges once
    for k in range(n, 0, -1):
        if stab_gv_lhs(StabBoundQuery(q=q, n=n, k=k, dx=dx, dz=dz)).feasible:
            return k
    return None


def best_css_params(n: int, q: int, dx: int, dz: int) -> tuple[int, int] | None:
    """Feasible (k1, k2) with k1 > k2 maximizing k1 - k2, or None.

    Ties break toward the smallest k1, then the smallest k2.  Exhaustive
    scan; the two ball sums are shared across all pairs.
    """
    CssBoundQuery(q=q, n=n, k1=0, k2=0, dx=dx, dz=dz)  # validate ranges once
    best: tuple[int, int] | None = None
    best_net = 0
    for k1 in range(1, n + 1):
        for k2 in range(k1):
            if k1 - k2 <= best_net:
                continue
            query = CssBoundQuery(q=q, n=n, k1=k1, k2=k2, dx=dx, dz=dz)
            if css_gv_lhs(query).feasible:
                best = (k1, k2)
                best_net = k1 - k2
    return best
