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

MAX_POINTS = 10**5  # frontier grid points; each costs one entropy inversion, about 50 us

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
    _check_delta(delta, q)
    return _hq(delta, q)


def _check_delta(delta: float, q: int) -> None:
    dmax = 1.0 - 1.0 / q
    if math.isnan(delta) or not 0.0 <= delta <= dmax:
        raise DomainError(f"delta must lie in [0, {dmax}], got {delta!r}")


def _hq(delta: float, q: int) -> float:
    """h_q(delta) with no checks: q is a checked prime power, delta in [0, 1 - 1/q]."""
    if delta == 0.0:
        return 0.0
    if delta == 1.0 - 1.0 / q:
        return 1.0
    return (
        delta * math.log(q - 1) - delta * math.log(delta) - (1 - delta) * math.log1p(-delta)
    ) / math.log(q)


def hq_inverse(y: float, q: int) -> float:
    """The delta in [0, 1 - 1/q] with h_q(delta) = y, bisected down to adjacent floats."""
    _check_q(q)
    if math.isnan(y) or not 0.0 <= y <= 1.0:
        raise DomainError(f"y must lie in [0, 1], got {y!r}")
    return _hq_inverse(y, q)


def _hq_inverse(y: float, q: int) -> float:
    """hq_inverse with no checks: q is a checked prime power, y in [0, 1]."""
    dmax = 1.0 - 1.0 / q
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return dmax
    lo, hi = 0.0, dmax
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        if _hq(mid, q) < y:
            lo = mid
        else:
            hi = mid


def css_asymptotic_feasible(q: int, r1: float, r2: float, delta_x: float, delta_z: float) -> bool:
    """Whether an [[n, floor(n R1) - ceil(n R2), floor(n dx), floor(n dz)]]_q
    CSS code exists for all sufficiently large n.

    True iff h_q(delta_x) < 1 - R1 and h_q(delta_z) < R2, with R1 >= R2.
    """
    _check_rate("R1", r1)
    _check_rate("R2", r2)
    if r2 > r1:
        raise DomainError(f"need R2 <= R1, got R1={r1}, R2={r2}")
    return entropy_hq(delta_x, q) < 1.0 - r1 and entropy_hq(delta_z, q) < r2


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
    lo = entropy_hq(delta_z, q) + r
    hi = 1.0 - entropy_hq(delta_x, q)
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
    points = []
    for dx in delta_x_grid:
        _check_delta(dx, q)
        budget = 1.0 - r - _hq(dx, q)   # when kept, in [0, 1 - r]: hq_inverse's domain
        if budget < 0.0:
            continue
        points.append(FrontierPoint(dx, _hq_inverse(budget, q), r))
    return points


def frontier_grid(q: int, num_points: int) -> list[float]:
    """num_points evenly spaced delta_x values from 0 to exactly 1 - 1/q."""
    _check_q(q)
    if not 1 <= num_points <= MAX_POINTS:
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
