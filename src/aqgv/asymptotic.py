"""q-ary entropy machinery and asymptotic feasibility regions.

Rates R and relative distances delta are floats; all inequalities are
strict, and delta is restricted to [0, 1 - 1/q] (the increasing branch of
the entropy function).  Requests outside that domain raise rather than
clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .bounds import is_prime_power
from .errors import DomainError

MAX_POINTS = 10**5  # frontier grid points; each costs one entropy inversion, about 25 us at q = 2

def _check_q(q: int) -> None:
    if not is_prime_power(q):
        raise DomainError(f"q must be a prime power >= 2, got {q!r}")


def _check_rate(name: str, r: float) -> None:
    if not (0.0 <= r <= 1.0) or math.isnan(r):
        raise DomainError(f"{name} must lie in [0, 1], got {r!r}")


def entropy_hq(delta: float, q: int) -> float:
    """q-ary entropy h_q(delta) on [0, 1 - 1/q].

    h_q(d) = d log_q(q-1) - d log_q(d) - (1-d) log_q(1-d), with the
    conventions h_q(0) = 0 and h_q(1 - 1/q) = 1.
    """
    _check_q(q)
    return _entropy(delta, q)


def _check_delta(delta: float, q: int) -> None:
    dmax = 1.0 - 1.0 / q
    if math.isnan(delta) or not 0.0 <= delta <= dmax:
        raise DomainError(f"delta must lie in [0, {dmax}], got {delta!r}")


def _entropy(delta: float, q: int) -> float:
    """entropy_hq for a checked q: checks delta, then evaluates."""
    _check_delta(delta, q)
    return _hq(delta, *_constants(q))


def _constants(q: int) -> tuple[float, float, float]:
    """dmax = 1 - 1/q, log(q - 1) and log(q): what _hq needs of q."""
    return 1.0 - 1.0 / q, math.log(q - 1), math.log(q)


def _hq(delta: float, dmax: float, log_q1: float, log_q: float) -> float:
    """h_q(delta) with no checks, from _constants(q) of a prime power q and delta in [0, dmax]."""
    if delta == 0.0:
        return 0.0
    if delta == dmax:
        return 1.0
    return (delta * log_q1 - delta * math.log(delta) - (1 - delta) * math.log1p(-delta)) / log_q


def hq_inverse(y: float, q: int) -> float:
    """The delta in [0, 1 - 1/q] with h_q(delta) = y, bisected down to adjacent floats.

    The float returned is the one that halving [0, 1 - 1/q] at
    mid = (lo + hi) / 2, with lo = mid where h_q(mid) < y and hi = mid
    otherwise, returns once mid equals lo or hi.
    """
    _check_q(q)
    if math.isnan(y) or not 0.0 <= y <= 1.0:
        raise DomainError(f"y must lie in [0, 1], got {y!r}")
    return _hq_inverse(y, *_constants(q))


_EPS = 4e-15          # bound on the relative error of _hq at x >= 2^-1021; see _hq_inverse
_NORMAL = 2.0**-1020  # least nonzero left end of _hq_inverse's window


def _hq_inverse(y: float, dmax: float, log_q1: float, log_q: float) -> float:
    """hq_inverse with no checks: y in [0, 1], and _constants(q) of a prime power q.

    It runs hq_inverse's bisection but evaluates h = h_q only at the mids
    inside a window [a, b] around the root: a mid below a becomes lo and a
    mid above b becomes hi, as an evaluation would decide.  The first mids
    above b, the halvings of dmax, are taken in one step (_top).

    Window.  h is concave with h(0) = 0 and h(dmax) = 1, so h(y dmax) >= y,
    a Newton step from y dmax lands left of the root, and later steps rise
    toward it without passing it.  h and h' share log(x) and log1p(-x).
    Newton stops after a step below 1e-8 x.  From its estimate x, each end
    moves out from x by 4 eps y / h'(x) plus 4 ulps, 4x further each time,
    until h(a) < y (1 - 3 eps) or a < _NORMAL (then a = 0), and until
    h(b) > y (1 + 3 eps) or b >= dmax (then b = dmax).  The estimate only
    makes the window narrow; the two end tests make it exact.  The window
    is the whole [0, dmax], and every mid is evaluated, when an iterate
    leaves [_NORMAL, dmax) or meets a float slope h' <= 0: y so small that
    the root is near _NORMAL or below (y dmax underflows for subnormal y),
    or so near 1 that h is flat to rounding.

    Exactness.  Write fl h for the float that _hq returns and eps = 4e-15.
    At x >= 2^-1021 every term of h is a normal float, and the three terms
    are nonnegative, so nothing cancels.  With math.log and math.log1p
    within one ulp (2^-52 relative) and 1 - x, the three products, the two
    sums and the division each within 2^-53, the error compounds to at
    most 9 * 2^-53, about 1e-15, so |fl h(x) / h(x) - 1| <= eps with a
    margin of four.  y >= y dmax >= _NORMAL, so y (1 -+ 3 eps) rounds by
    at most 2^-53 relative, inside the margin.
    For a mid < a, h increasing gives
        fl h(mid) <= (1 + eps) h(mid) < (1 + eps) h(a) <= (1 + eps) / (1 - eps) fl h(a)
                  < (1 + eps)(1 - 3 eps) / (1 - eps) y < y,
    so the bisection takes lo = mid.  This needs mid >= 2^-1021: hi starts
    at dmax and only ever falls to a mid with fl h(mid) >= y, which by the
    same bound is >= a, so mid >= hi / 2 >= a / 2 >= _NORMAL / 2.  For a
    mid > b, where b > x >= _NORMAL,
        fl h(mid) >= (1 - eps) h(mid) > (1 - eps) / (1 + eps) fl h(b)
                  > (1 - eps)(1 + 3 eps) / (1 + eps) y >= y,
    so the bisection takes hi = mid.
    """
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return dmax
    a, b = _window(y, dmax, log_q1, log_q)
    lo, hi = 0.0, _top(dmax, b)
    while True:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            return mid
        if mid > b:
            hi = mid
        elif mid < a or _hq(mid, dmax, log_q1, log_q) < y:
            lo = mid
        else:
            hi = mid


def _top(dmax: float, b: float) -> float:
    """The hi at which _hq_inverse's bisection first evaluates or passes
    below b: while lo = 0 each mid is hi / 2, and a mid above b becomes hi.
    So it is where `hi = dmax; while hi / 2 > b: hi /= 2` ends, the least
    dmax 2^-j above b, for b = dmax or b >= _NORMAL (each halving exact).
    Write b = m 2^e with 1/2 <= m < 1, and dmax likewise: dmax 2^-j with
    j = e(dmax) - e lies in [2^(e-1), 2^e), as b does, so the least one
    above b is it or its double, and one exact comparison tells which."""
    if dmax / 2 <= b:
        return dmax
    hi = math.ldexp(dmax, math.frexp(b)[1] - math.frexp(dmax)[1])
    return hi if hi > b else 2 * hi


def _window(y: float, dmax: float, log_q1: float, log_q: float) -> tuple[float, float]:
    """_hq_inverse's window [a, b] around the root of h_q(x) = y, for 0 < y < 1."""
    x, step = y * dmax, math.inf
    while True:
        if not _NORMAL <= x < dmax:
            return 0.0, dmax
        if abs(step) <= 1e-8 * x:
            break
        log_x, log_1mx = math.log(x), math.log1p(-x)
        slope = (log_q1 - log_x + log_1mx) / log_q
        if not slope > 0.0:
            return 0.0, dmax
        step = (y - (x * log_q1 - x * log_x - (1 - x) * log_1mx) / log_q) / slope
        x += step
    width = 4 * _EPS * y / slope + 4 * math.ulp(x)
    a, grown = x - width, width
    while a >= _NORMAL and _hq(a, dmax, log_q1, log_q) >= y * (1 - 3 * _EPS):
        grown *= 4
        a = x - grown
    b, grown = x + width, width
    while b < dmax and _hq(b, dmax, log_q1, log_q) <= y * (1 + 3 * _EPS):
        grown *= 4
        b = x + grown
    return (a if a >= _NORMAL else 0.0), min(b, dmax)


def css_asymptotic_feasible(q: int, r1: float, r2: float, delta_x: float, delta_z: float) -> bool:
    """Whether an [[n, floor(n R1) - ceil(n R2), floor(n dx), floor(n dz)]]_q
    CSS code exists for all sufficiently large n.

    True iff h_q(delta_x) < 1 - R1 and h_q(delta_z) < R2, with R1 >= R2.
    """
    _check_rate("R1", r1)
    _check_rate("R2", r2)
    if r2 > r1:
        raise DomainError(f"need R2 <= R1, got R1={r1}, R2={r2}")
    _check_q(q)
    hx, hz = _entropy(delta_x, q), _entropy(delta_z, q)   # both deltas checked, whatever the verdict
    return hx < 1.0 - r1 and hz < r2


def stab_asymptotic_feasible(q: int, r: float, delta_x: float, delta_z: float) -> bool:
    """Whether an [[n, floor(n R), floor(n dx), floor(n dz)]]_q stabilizer
    code exists for all sufficiently large n.

    True iff h_q(delta_x) + h_q(delta_z) < 1 - R; decided by
    css_rate1_interval, so the two verdicts agree at the boundary too.
    """
    return css_rate1_interval(q, r, delta_x, delta_z) is not None


def css_rate1_interval(
    q: int, r: float, delta_x: float, delta_z: float
) -> tuple[float, float] | None:
    """Open interval of R1 values making the CSS region feasible at net rate r.

    With R2 = R1 - r, the CSS conditions reduce to
    h_q(delta_z) + r < R1 < 1 - h_q(delta_x); returns None when empty.
    Nonempty exactly when the stabilizer region is feasible at rate r.
    """
    _check_rate("R", r)
    _check_q(q)
    lo = _entropy(delta_z, q) + r
    hi = 1.0 - _entropy(delta_x, q)
    return (lo, hi) if lo < hi else None


@dataclass(frozen=True)
class FrontierPoint:
    """A point on the delta_z-versus-delta_x tradeoff boundary at rate r."""

    delta_x: float
    delta_z_max: float
    r: float


def stab_frontier(q: int, r: float, delta_x_grid: Iterable[float]) -> list[FrontierPoint]:
    """Largest feasible delta_z for each grid delta_x at stabilizer rate r.

    Grid points with h_q(delta_x) > 1 - r are omitted; on the boundary the
    budget for delta_z is zero.
    """
    _check_rate("R", r)
    _check_q(q)   # once, also for an empty grid
    constants = _constants(q)
    points = []
    for dx in delta_x_grid:
        _check_delta(dx, q)
        budget = 1.0 - r - _hq(dx, *constants)   # when kept, in [0, 1 - r]: hq_inverse's domain
        if budget < 0.0:
            continue
        points.append(FrontierPoint(dx, _hq_inverse(budget, *constants), r))
    return points


def frontier_grid(q: int, num_points: int) -> list[float]:
    """num_points evenly spaced delta_x values from 0 to exactly 1 - 1/q."""
    _check_q(q)
    if type(num_points) is not int or not 1 <= num_points <= MAX_POINTS:
        raise DomainError(f"need 1 to {MAX_POINTS} grid points, got {num_points}")
    dmax = 1.0 - 1.0 / q
    if num_points == 1:
        return [0.0]
    return [dmax * i / (num_points - 1) for i in range(num_points - 1)] + [dmax]


def write_frontier_csv(points: Sequence[FrontierPoint], q: int, out: TextIO) -> None:
    """CSV schema: header delta_x,delta_z_max,R,q; 12 significant digits."""
    out.write("delta_x,delta_z_max,R,q\n")
    for pt in points:
        out.write(f"{pt.delta_x:.12g},{pt.delta_z_max:.12g},{pt.r:.12g},{q}\n")
