"""Exact evaluation of the finite-length GV-type existence bounds.

Everything is integer / rational arithmetic end to end: a verdict is
``lhs < 1`` compared as exact fractions, never through floats, and the
parameter scans compare the LHS numerator against its denominator as
integers.  Decimal renderings are for display only.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from ._value import Value
from .errors import ParameterRangeError, _capped_ball, _check_ints, _guard

TYPE_CHECKING = False   # typing's flag, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

SCAN_GUARD = 2**30  # n^2 * q.bit_length(): bit operations one bound evaluation or scan may spend
MAX_DIGITS = 10**6  # decimal places fraction_decimal_str renders at most
PRIME_POWER_BITS = 1024  # most bits of a q with no prime factor below 1000 that prime_power_base tests


def prime_power_base(q: int) -> int | None:
    """The prime p with q = p^m, or None if q is not a prime power >= 2.

    Trial division below 1000 settles every q with a prime factor there.
    Otherwise p > 1000, so m <= log(q)/log(1000), and each such m has one
    candidate root r with r^m = q.  A candidate is tested by Miller-Rabin
    on the prime bases 2..41, which is exact below 3317044064679887385961981
    (Sorenson and Webster, 2015); a probable prime at or above that bound
    raises ParameterRangeError rather than give an uncertified answer.
    Past trial division the cost grows with the cube of q's bits, a prime q
    the worst case: about 60 ms at 1024 bits and 0.4 s at 2048 (2-core VM,
    Python 3.11), so past PRIME_POWER_BITS q is refused as too large.
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
    _guard(q.bit_length(), PRIME_POWER_BITS,
           "q has {} bits and no prime factor below 1000, past the prime-power test's {} bits")
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


def ball_sum(n: int, q: int, t: int) -> int:
    """Number of nonzero vectors in GF(q)^n of weight <= t:
    sum_{i=1}^{t} C(n,i) (q-1)^i.  t = 0 gives the empty sum 0."""
    _check_ints(n=n, q=q, t=t)
    if q < 2:
        raise ParameterRangeError(f"q must be >= 2, got {q}")
    if not 0 <= t <= n:
        raise ParameterRangeError(f"need 0 <= t <= n, got t={t}, n={n}")
    return _capped_ball(n, q, t, math.inf)


def _check_scan_size(q: int, n: int) -> None:
    """One exact comparison of a bound costs about n * q.bit_length() bit
    operations; a ball sum makes up to n of them, a parameter scan a few
    (at most about 2 log2(n), see _first_true).  The guard still charges n
    of them."""
    _guard(n * n * q.bit_length(), SCAN_GUARD, "{} scan bit operations exceed the guard of {}")


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """q-binomial coefficient: the number of k-dim subspaces of GF(q)^n."""
    _check_ints(n=n, k=k, q=q)
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
    import decimal   # loaded by the first rendering, not by every import of bounds
    _check_ints(digits=digits)
    if not 1 <= digits <= MAX_DIGITS:
        raise ParameterRangeError(f"digits must be in [1, {MAX_DIGITS}], got {digits}")
    whole = decimal.Decimal(abs(fr.numerator) // fr.denominator)   # exact, of any length
    with decimal.localcontext() as ctx:
        ctx.prec = whole.adjusted() + 1 + digits + 10
        d = decimal.Decimal(fr.numerator) / decimal.Decimal(fr.denominator)
        return str(d.quantize(decimal.Decimal(1).scaleb(-digits), rounding=decimal.ROUND_HALF_EVEN))


def check_ranges(q: int, n: int, dx: int, dz: int) -> None:
    """The ranges every bound and profile check shares: q a prime power,
    integers n >= 1 and design distances 1 <= dx, dz <= n+1.  How large n
    may be is a question of work, which the bounds decide with
    _check_scan_size."""
    if not is_prime_power(q):
        raise ParameterRangeError(f"q must be a prime power >= 2, got {q}")
    _check_ints(n=n, dx=dx, dz=dz)
    if n < 1:
        raise ParameterRangeError(f"n must be >= 1, got {n}")
    for name, d in (("dx", dx), ("dz", dz)):
        if not 1 <= d <= n + 1:
            raise ParameterRangeError(f"need 1 <= {name} <= n+1, got {d}")


class CssBoundQuery(Value):
    """Parameters of the nested-pair (CSS) bound."""

    __slots__ = _fields = ("q", "n", "k1", "k2", "dx", "dz")

    def __init__(self, q: int, n: int, k1: int, k2: int, dx: int, dz: int) -> None:
        check_ranges(q, n, dx, dz)
        _check_ints(k1=k1, k2=k2)
        if not 0 <= k2 <= k1 <= n:
            raise ParameterRangeError(f"need 0 <= k2 <= k1 <= n, got k1={k1}, k2={k2}, n={n}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dz", dz)


class StabBoundQuery(Value):
    """Parameters of the stabilizer bound."""

    __slots__ = _fields = ("q", "n", "k", "dx", "dz")

    def __init__(self, q: int, n: int, k: int, dx: int, dz: int) -> None:
        check_ranges(q, n, dx, dz)
        _check_ints(k=k)
        if not 0 <= k <= n:
            raise ParameterRangeError(f"need 0 <= k <= n, got k={k}, n={n}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dz", dz)


class BoundReport(Value):
    """Exact LHS of a bound with its addends/factors.

    ``feasible`` means lhs < 1 strictly; lhs = 1 exactly is infeasible.
    """

    __slots__ = _fields = ("lhs", "terms")

    def __init__(self, lhs: Fraction, terms: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "terms", terms)

    @property
    def feasible(self) -> bool:
        return self.lhs < 1

    def decimal_str(self, digits: int = 6) -> str:
        return fraction_decimal_str(self.lhs, digits)


def css_lhs_ints(
    q: int, n: int, k1: int, k2: int, bit_errors: int, phase_errors: int
) -> tuple[tuple[int, int], int]:
    """The CSS LHS as integers: addends (bit, phase) over one denominator,
    each the share of nested pairs that miss one error times its count."""
    bit = (q**k1 - q**k2) * bit_errors
    phase = (q ** (n - k2) - q ** (n - k1)) * phase_errors
    return (bit, phase), q**n - 1


def stab_lhs_ints(q: int, n: int, k: int, patterns: int) -> tuple[int, int]:
    """The stabilizer LHS as integers, numerator over denominator: the share
    of stabilizer codes that miss one error times the error patterns."""
    return (q ** (2 * k) - 1) * q ** (n - k) * patterns, q ** (2 * n) - 1


def css_gv_lhs(query: CssBoundQuery) -> BoundReport:
    """LHS of the nested-pair existence bound.

    lhs = (q^k1 - q^k2)/(q^n - 1) * ball_sum(n, q, dx-1)
        + (q^(n-k2) - q^(n-k1))/(q^n - 1) * ball_sum(n, q, dz-1)

    If lhs < 1, an [[n, k1-k2, dx, dz]]_q CSS code exists.
    """
    from fractions import Fraction
    _check_scan_size(query.q, query.n)
    balls = (ball_sum(query.n, query.q, d - 1) for d in (query.dx, query.dz))
    addends, denom = css_lhs_ints(query.q, query.n, query.k1, query.k2, *balls)
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
    from fractions import Fraction
    _check_scan_size(query.q, query.n)
    ratio, denom = stab_lhs_ints(query.q, query.n, query.k, 1)
    balls = (ball_sum(query.n, query.q, d - 1) for d in (query.dx, query.dz))
    terms = (Fraction(ratio, denom), *map(Fraction, balls))
    return BoundReport(lhs=terms[0] * terms[1] * terms[2], terms=terms)


def _first_true(pred, lo: int, hi: int, guess: int) -> int:
    """The least x in [lo, hi) where pred holds, or hi if it holds nowhere,
    for a pred that is False and then True on the range.

    pred is evaluated first at the guess, clamped into the range, and at the
    neighbour that settles whether the boundary lies there; only then is the
    side that remains bisected.  A good guess costs two evaluations and a
    wrong one at most two more than bisecting [lo, hi) would, so no guess
    costs more than (hi - lo).bit_length() + 2.
    """
    if lo >= hi:
        return hi
    x = min(max(guess, lo), hi - 1)
    if pred(x):
        if x == lo or not pred(x - 1):
            return x
        return bisect_left(range(lo, x - 1), True, key=pred) + lo
    if x + 1 == hi or pred(x + 1):
        return x + 1
    return bisect_left(range(x + 2, hi), True, key=pred) + x + 2


def max_k_stab(n: int, q: int, dx: int, dz: int) -> int | None:
    """Largest k in [1, n] whose stabilizer bound is feasible, or None.

    The LHS is strictly increasing in k (its ratio is q^(n+k) - q^(n-k)
    over a constant) or 0 for every k, so the feasible k form a prefix of
    1..n.  Its end is where q^(n+k) times the error patterns P first
    reaches q^(2n), about k = n - log_q P, the finite form of
    R < 1 - h(dx) - h(dz); _first_true starts there and certifies the end
    by exact integer comparisons of numerator against denominator, about
    two of them.
    """
    check_ranges(q, n, dx, dz)
    _check_scan_size(q, n)
    patterns = ball_sum(n, q, dx - 1) * ball_sum(n, q, dz - 1)

    def infeasible(k: int) -> bool:
        numerator, denom = stab_lhs_ints(q, n, k, patterns)
        return numerator >= denom

    guess = int(n - math.log(patterns, q)) if patterns else n
    return _first_true(infeasible, 1, n + 1, guess) - 1 or None


def _css_turn(q: int, n: int, bx: int, bz: int):
    """m(t): the first k2 in [0, n - t] that minimizes the CSS numerator at
    net t = k1 - k2, given the ball sums Bx, Bz (see best_css_params)."""
    if bz == 0:
        return lambda t: 0
    if bx == 0:
        return lambda t: n - t

    def reaches(e: int) -> bool:  # q^e * Bx >= Bz, in integers for either sign of e
        return bx * q**e >= bz if e >= 0 else bx >= bz * q**-e

    guess = math.ceil((math.log(bz) - math.log(bx)) / math.log(q))
    e = _first_true(reaches, -bx.bit_length(), bz.bit_length() + 1, guess)
    return lambda t: min(max((n - t + e) // 2, 0), n - t)


def best_css_params(n: int, q: int, dx: int, dz: int) -> tuple[int, int] | None:
    """Feasible (k1, k2) with k1 > k2 maximizing k1 - k2, or None.

    Ties break toward the smallest k1, then the smallest k2.  Two scans by
    _first_true find it, each started at a closed-form estimate and
    certified by exact integer comparisons of numerator against
    denominator through css_lhs_ints, about three in all:

    - Write k1 = k2 + t.  With Bx, Bz the two ball sums the numerator is
      N(t, k2) = (q^t - 1)(q^k2 Bx + q^(n-t-k2) Bz), against q^n - 1.
    - N is convex in k2: for fixed t it falls strictly until m(t), the
      least k2 with q^(2 k2 + 1) Bx >= q^(n-t) Bz, and does not fall after.
      With e the least integer with q^e Bx >= Bz (found once per call by
      _first_true from log_q(Bz / Bx); q^e Bx >= Bz fails below
      -Bx.bit_length() and holds at Bz.bit_length()),
      m(t) = clamp(ceil((n - t + e - 1) / 2), 0, n - t); m(t) = n - t if
      Bx = 0 and m(t) = 0 if Bz = 0.
    - The feasible nets form a prefix of 1..n: for fixed k2, N does not
      fall as t grows, and k2's range [0, n - t] shrinks.  So the largest
      feasible net t* is one below where N(t, m(t)) < q^n - 1 first fails;
      t* = 0 gives None.  As the least of q^k2 Bx + q^(n-t-k2) Bz over real
      k2 is 2 sqrt(q^(n-t) Bx Bz), that is near t = n - log_q(4 Bx Bz), or
      n - log_q of the ball that is not empty, and the scan starts there.
    - N is non-increasing on [0, m(t*)], so a second scan there finds the
      least feasible k2, and the answer is (k2 + t*, k2).  There
      q^k2 Bx + q^(n-t*-k2) Bz < q^(n-t*) first holds for q^k2 between Bz
      and 2 Bz, so that scan starts at ceil(log_q Bz).

    Each comparison costs about n * q.bit_length() bit operations, so the
    search refuses n times that above SCAN_GUARD, as every bound does.
    """
    check_ranges(q, n, dx, dz)
    _check_scan_size(q, n)
    bx, bz = balls = ball_sum(n, q, dx - 1), ball_sum(n, q, dz - 1)
    turn = _css_turn(q, n, *balls)

    def feasible(t: int, k2: int) -> bool:
        addends, denom = css_lhs_ints(q, n, k2 + t, k2, *balls)
        return sum(addends) < denom

    spread = 4 * bx * bz or bx + bz
    guess = int(n - math.log(spread, q)) if spread else n
    net = _first_true(lambda t: not feasible(t, turn(t)), 1, n + 1, guess) - 1
    if net == 0:
        return None
    guess = math.ceil(math.log(bz, q)) if bz else 0
    k2 = _first_true(lambda k2: feasible(net, k2), 0, turn(net), guess)
    return k2 + net, k2
