import decimal
import io
import math
import random
import types

import pytest

from aqgv import asymptotic
from aqgv.asymptotic import (
    MAX_POINTS,
    FrontierPoint,
    css_asymptotic_feasible,
    css_rate1_interval,
    entropy_hq,
    frontier_grid,
    hq_inverse,
    stab_asymptotic_feasible,
    stab_frontier,
    write_frontier_csv,
)
from aqgv.bounds import is_prime_power
from aqgv.errors import DomainError


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_endpoints():
    assert entropy_hq(0.0, 2) == 0.0
    assert entropy_hq(0.5, 2) == 1.0
    assert entropy_hq(1 - 1 / 3, 3) == 1.0
    assert entropy_hq(1 - 1 / 16, 16) == 1.0


def test_entropy_classical_touchstone():
    # h_2(0.11) ~ 1/2: the rate-1/2 point of the classical GV curve
    assert abs(entropy_hq(0.11, 2) - 0.5) < 1e-4


def test_entropy_domain_errors():
    for q, bad in ((2, -0.01), (2, 0.51), (3, 0.7), (2, float("nan"))):
        with pytest.raises(DomainError):
            entropy_hq(bad, q)
    with pytest.raises(DomainError):
        entropy_hq(0.1, 1)


def test_every_entry_point_refuses_a_q_that_is_not_a_prime_power():
    # GF(6) does not exist; the asymptotic layer takes the bounds' q, prime powers only
    calls = [
        lambda q: entropy_hq(0.1, q),
        lambda q: hq_inverse(0.5, q),
        lambda q: css_asymptotic_feasible(q, 0.6, 0.3, 0.05, 0.05),
        lambda q: stab_asymptotic_feasible(q, 0.3, 0.05, 0.05),
        lambda q: css_rate1_interval(q, 0.3, 0.05, 0.05),
        lambda q: stab_frontier(q, 0.3, []),
        lambda q: frontier_grid(q, 5),
    ]
    for call in calls:
        for q in (6, 10, 12, 1, 2.0, True):
            with pytest.raises(DomainError, match=f"^q must be a prime power >= 2, got {q!r}$"):
                call(q)
        for q in (2, 4, 9, 251, 256):
            call(q)


def test_entropy_strictly_increasing():
    rng = random.Random(808)
    for q in (2, 3, 5, 16):
        dmax = 1 - 1 / q
        for _ in range(10**4):
            a = rng.uniform(0, dmax)
            b = rng.uniform(0, dmax)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            assert entropy_hq(a, q) < entropy_hq(b, q)


def test_entropy_is_the_float_of_its_formula():
    # one kernel with log(q - 1) and log(q) computed once gives the same floats
    # as the formula evaluated whole, which the inverse's bisection oracle uses
    rng = random.Random(29)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 27, 251):
        dmax = 1.0 - 1.0 / q
        for delta in [rng.uniform(0, dmax) for _ in range(2000)] + [10.0**-k for k in range(1, 320)] + [dmax]:
            want = 0.0 if delta == 0.0 else 1.0 if delta == dmax else (
                delta * math.log(q - 1) - delta * math.log(delta) - (1 - delta) * math.log1p(-delta)
            ) / math.log(q)
            assert entropy_hq(delta, q) == want, (q, delta)


def test_entropy_bounded_by_one():
    for q in (2, 3, 5):
        dmax = 1 - 1 / q
        for i in range(101):
            assert 0.0 <= entropy_hq(dmax * i / 100, q) <= 1.0


def test_entropy_matches_decimal_at_small_delta():
    # the (1-d) log(1-d) term is about -d, as large as the others: it must
    # not round away at small d
    for q in (2, 3, 5, 16):
        for k in range(1, 301):
            delta = 10.0**-k
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                d = decimal.Decimal(delta)
                minus_log1m = sum(d**j / j for j in range(1, 80))  # -ln(1 - d) as a series, d <= 0.1
                h = (d * decimal.Decimal(q - 1).ln() - d * d.ln() + (1 - d) * minus_log1m) / decimal.Decimal(q).ln()
                assert abs(decimal.Decimal(entropy_hq(delta, q)) / h - 1) < decimal.Decimal("1e-14"), (q, k)


# ---------------------------------------------------------------------------
# inverse entropy
# ---------------------------------------------------------------------------

def test_hq_inverse_examples():
    assert hq_inverse(0.0, 2) == 0.0
    assert hq_inverse(1.0, 2) == 0.5
    assert abs(hq_inverse(0.25, 2) - 0.0417) < 1e-3


def test_hq_inverse_domain_errors():
    with pytest.raises(DomainError):
        hq_inverse(-0.1, 2)
    with pytest.raises(DomainError):
        hq_inverse(1.1, 2)


def test_hq_inverse_roundtrip_grid():
    for q in (2, 3, 5):
        dmax = 1 - 1 / q
        steps = int(dmax / 1e-3)
        for i in range(steps + 1):
            delta = min(i * 1e-3, dmax)
            assert abs(hq_inverse(entropy_hq(delta, q), q) - delta) < 1e-9


def test_hq_inverse_forward_residual():
    rng = random.Random(55)
    for q in (2, 3, 5):
        for _ in range(200):
            y = rng.random()
            assert abs(entropy_hq(hq_inverse(y, q), q) - y) < 1e-10


def test_hq_inverse_small_y_relative_residual():
    for q in (2, 3, 5, 16):
        for k in range(1, 301):
            y = 10.0**-k
            assert abs(entropy_hq(hq_inverse(y, q), q) / y - 1) < 1e-14, (q, k)


def bisection_oracle(y, q):
    """hq_inverse as a plain bisection of [0, 1 - 1/q] down to adjacent floats,
    evaluating h_q at every mid: the float hq_inverse must return."""
    dmax = 1.0 - 1.0 / q
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return dmax
    log_q1, log_q = math.log(q - 1), math.log(q)
    lo, hi = 0.0, dmax
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        # h_q(mid) by entropy_hq's float operations; 0 < mid < dmax here
        if (mid * log_q1 - mid * math.log(mid) - (1 - mid) * math.log1p(-mid)) / log_q < y:
            lo = mid
        else:
            hi = mid


ORACLE_QS = (2, 3, 4, 5, 7, 8, 9, 16, 27, 251)
EDGE_YS = (
    [10.0**-k for k in range(1, 308)] + [5e-324, 1e-310]
    + [1 - 10.0**-k for k in range(1, 17)] + [1 - 2.0**-k for k in range(1, 54)]
    + [math.nextafter(1.0, 0.0)]
)


@pytest.mark.parametrize("q", ORACLE_QS)
def test_hq_inverse_is_the_bisection_float(q):
    # 10^4 seeded y per q, 10^5 in all, and the ends of (0, 1): the same float, not a close one
    rng = random.Random(q)
    for y in [rng.random() for _ in range(10**4)] + EDGE_YS:
        assert hq_inverse(y, q) == bisection_oracle(y, q), (q, y)


def count_log1p(monkeypatch):
    """Make aqgv.asymptotic's math.log1p count its calls; every evaluation of
    h_q or of h_q and h_q' together makes one.  Returns the counter."""
    calls = [0]

    def log1p(x):
        calls[0] += 1
        return math.log1p(x)

    namespace = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math)})
    namespace.log1p = log1p
    monkeypatch.setattr(asymptotic, "math", namespace)
    return calls


WINDOW_CASES = {
    # name: (q, y, a == 0, b == dmax, the Newton loop evaluated h, an end test failed and that end moved out 4x)
    "window inside (0, dmax)": (2, 0.3, False, False, True, False),
    "widening, then b = dmax": (2, 1 - 1e-14, False, True, True, True),
    "b = dmax": (2, 1 - 1e-15, False, True, True, False),
    "a = 0 and b = dmax, h flat at y dmax": (2, math.nextafter(1.0, 0.0), True, True, True, False),
    "whole interval, y dmax underflows": (2, 5e-324, True, True, False, False),
    "whole interval, y dmax below 2^-1020": (3, 1e-310, True, True, False, False),
    "whole interval, a Newton iterate below 2^-1020": (2, 1e-305, True, True, True, False),
}


@pytest.mark.parametrize("q, y, a_is_0, b_is_dmax, newton, widened", WINDOW_CASES.values(), ids=WINDOW_CASES)
def test_hq_inverse_window_branches(monkeypatch, q, y, a_is_0, b_is_dmax, newton, widened):
    constants = asymptotic._constants(q)
    dmax = constants[0]
    log1p_calls = count_log1p(monkeypatch)
    hq_calls = [0]
    real_hq = asymptotic._hq

    def counted_hq(*args):
        hq_calls[0] += 1
        return real_hq(*args)

    monkeypatch.setattr(asymptotic, "_hq", counted_hq)
    a, b = asymptotic._window(y, *constants)
    want = bisection_oracle(y, q)
    assert a <= want <= b
    assert (a == 0.0, b == dmax) == (a_is_0, b_is_dmax)
    assert (log1p_calls[0] > hq_calls[0]) == newton   # log1p calls beyond the end tests are Newton's
    assert (hq_calls[0] > (a > 0.0) + (b < dmax)) == widened   # more tests than ends that passed one
    assert hq_inverse(y, q) == want


def test_hq_inverse_window_is_whole_where_the_float_slope_is_not_positive():
    # log(q - 1) far too small makes h' < 0 at the first iterate; no q does
    # this, but rounding could at the flat top, next to dmax
    assert asymptotic._window(0.5, 0.5, -10.0, math.log(2)) == (0.0, 0.5)


def test_hq_inverse_makes_under_28_evaluations_on_average(monkeypatch):
    # the plain bisection makes about 55 here, one per mid
    rng = random.Random(29)
    ys = [rng.uniform(0.0, 0.95) for _ in range(1000)]
    calls = count_log1p(monkeypatch)
    for y in ys:
        hq_inverse(y, 2)
    assert calls[0] / len(ys) <= 28


# ---------------------------------------------------------------------------
# feasibility regions
# ---------------------------------------------------------------------------

def test_css_region_examples():
    assert css_asymptotic_feasible(2, 0.5, 0.2, 0.0, 0.0)
    assert css_asymptotic_feasible(2, 0.6, 0.1, 0.05, 0.01)
    assert not css_asymptotic_feasible(2, 0.6, 0.1, 0.05, 0.02)


def test_css_region_validation():
    with pytest.raises(DomainError):
        css_asymptotic_feasible(2, 0.2, 0.5, 0.0, 0.0)  # R2 > R1
    with pytest.raises(DomainError):
        css_asymptotic_feasible(2, 1.5, 0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        css_asymptotic_feasible(2, 0.5, 0.2, 0.6, 0.0)  # delta out of domain


def test_stab_region_examples():
    assert stab_asymptotic_feasible(2, 0.99, 0.0, 0.0)
    assert stab_asymptotic_feasible(2, 0.5, 0.04, 0.04)
    assert not stab_asymptotic_feasible(2, 0.5, 0.05, 0.05)


def test_css_implies_stab_at_net_rate():
    # summing the two CSS conditions gives the stabilizer condition at
    # R = R1 - R2; check on random tuples
    rng = random.Random(606)
    hits = 0
    for _ in range(10**4):
        q = rng.choice((2, 3, 4, 5))
        dmax = 1 - 1 / q
        r2 = rng.random()
        r1 = rng.uniform(r2, 1.0)
        dx = rng.uniform(0, dmax)
        dz = rng.uniform(0, dmax)
        if css_asymptotic_feasible(q, r1, r2, dx, dz):
            hits += 1
            assert stab_asymptotic_feasible(q, r1 - r2, dx, dz)
    assert hits > 100  # the sampler must actually exercise the implication


def test_rate1_interval_examples():
    assert css_rate1_interval(2, 0.5, 0.0, 0.0) == (0.5, 1.0)
    lo, hi = css_rate1_interval(2, 0.5, 0.04, 0.04)
    assert abs(lo - 0.7423) < 1e-3 and abs(hi - 0.7577) < 1e-3
    assert css_rate1_interval(2, 0.5, 0.05, 0.05) is None


def test_rate1_interval_iff_stab_feasible_off_boundary():
    rng = random.Random(707)
    checked = 0
    while checked < 2000:
        q = rng.choice((2, 3, 5))
        dmax = 1 - 1 / q
        r = rng.random()
        dx = rng.uniform(0, dmax)
        dz = rng.uniform(0, dmax)
        margin = entropy_hq(dx, q) + entropy_hq(dz, q) - (1 - r)
        if abs(margin) <= 1e-6:
            continue
        checked += 1
        interval = css_rate1_interval(q, r, dx, dz)
        assert (interval is not None) == stab_asymptotic_feasible(q, r, dx, dz)
        if interval is not None:
            lo, hi = interval
            assert r <= lo < hi <= 1.0


def test_rate1_interval_iff_stab_feasible_on_boundary():
    # delta_z on the stabilizer boundary, h_q(delta_x) + h_q(delta_z) = 1 - r,
    # and its float neighbours: the two verdicts are one comparison
    q, r, dx, dz = 7, 0.46217857291304865, 0.16757242376170972, 0.051309353718735635
    assert (css_rate1_interval(q, r, dx, dz) is not None) == stab_asymptotic_feasible(q, r, dx, dz)
    rng = random.Random(808)
    checked = 0
    while checked < 3000:
        q = rng.choice((2, 3, 5, 7))
        dmax = 1 - 1 / q
        r = rng.random()
        dx = rng.uniform(0, dmax)
        budget = 1 - r - entropy_hq(dx, q)
        if budget < 0:
            continue
        dz = hq_inverse(budget, q)
        for near in (math.nextafter(dz, 0.0), dz, min(math.nextafter(dz, 1.0), dmax)):
            checked += 1
            interval = css_rate1_interval(q, r, dx, near)
            assert (interval is not None) == stab_asymptotic_feasible(q, r, dx, near)


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------

def test_frontier_examples():
    assert stab_frontier(2, 1.0, [0.0]) == [FrontierPoint(0.0, 0.0, 1.0)]
    assert stab_frontier(2, 0.0, [0.0]) == [FrontierPoint(0.0, 0.5, 0.0)]
    (pt,) = stab_frontier(2, 0.5, [0.04])
    assert abs(pt.delta_z_max - 0.0434) < 1e-3


def test_frontier_omits_points_beyond_budget():
    points = stab_frontier(2, 0.5, [0.0, 0.04, 0.2, 0.5])
    assert [pt.delta_x for pt in points] == [0.0, 0.04]  # h2(0.2), h2(0.5) > 0.5


def test_frontier_budget_identity():
    for q in (2, 3, 5):
        for r in (0.0, 0.3, 0.7):
            for pt in stab_frontier(q, r, frontier_grid(q, 40)):
                total = entropy_hq(pt.delta_x, q) + entropy_hq(pt.delta_z_max, q)
                assert abs(total - (1 - r)) < 1e-9


def test_frontier_tests_q_once_per_call(monkeypatch):
    calls = []

    def counted(q):
        calls.append(q)
        return is_prime_power(q)

    grid = frontier_grid(2, 1000)
    monkeypatch.setattr(asymptotic, "is_prime_power", counted)
    assert len(stab_frontier(2, 0.3, grid)) == 379 and calls == [2]
    # each point's delta is still checked, with entropy_hq's message
    with pytest.raises(DomainError, match=r"^delta must lie in \[0, 0.5\], got 0.6$"):
        stab_frontier(2, 0.3, [0.1, 0.6])


@pytest.mark.parametrize("q", (2, 3))
def test_frontier_is_built_from_the_bisection_float(q):
    # the grids of the tables benchmark rows and of frontier_grid
    dmax = 1 - 1 / q
    grids = ([dmax * j / 32 for j in range(33)], frontier_grid(q, 33), frontier_grid(q, 97))
    for r in (0.0, 0.05, 0.17, 0.3, 0.45, 0.6, 0.9):
        for grid in grids:
            want = []
            for dx in grid:
                budget = 1.0 - r - entropy_hq(dx, q)
                if budget >= 0.0:
                    want.append(FrontierPoint(dx, bisection_oracle(budget, q), r))
            assert stab_frontier(q, r, grid) == want, (q, r)


def test_regions_test_q_once_per_call(monkeypatch):
    calls = []

    def counted(q):
        calls.append(q)
        return is_prime_power(q)

    monkeypatch.setattr(asymptotic, "is_prime_power", counted)
    for call, want in (
        (lambda: css_rate1_interval(3, 0.2, 0.05, 0.05), (0.2 + entropy_hq(0.05, 3), 1 - entropy_hq(0.05, 3))),
        (lambda: stab_asymptotic_feasible(3, 0.2, 0.05, 0.05), True),
        (lambda: css_asymptotic_feasible(3, 0.6, 0.4, 0.05, 0.05), True),   # both entropy tests run
        (lambda: css_asymptotic_feasible(3, 0.99, 0.4, 0.05, 0.05), False),
    ):
        calls.clear()
        assert call() == want
        assert calls == [3]
    # errors keep their order: rates, then q, then delta_z (css_rate1_interval) or delta_x
    with pytest.raises(DomainError, match="^R must lie"):
        css_rate1_interval(6, 1.5, 0.9, 0.9)
    with pytest.raises(DomainError, match="^q must be"):
        css_rate1_interval(6, 0.5, 0.9, 0.9)
    with pytest.raises(DomainError, match=r"^delta must lie in \[0, 0.5\], got 0.7$"):
        css_rate1_interval(2, 0.5, 0.6, 0.7)
    with pytest.raises(DomainError, match="^need R2 <= R1"):
        css_asymptotic_feasible(6, 0.2, 0.5, 0.9, 0.9)
    with pytest.raises(DomainError, match="^q must be"):
        css_asymptotic_feasible(6, 0.5, 0.2, 0.9, 0.9)
    with pytest.raises(DomainError, match=r"^delta must lie in \[0, 0.5\], got 0.6$"):
        css_asymptotic_feasible(2, 0.5, 0.2, 0.6, 0.7)
    # delta_z is checked only when the delta_x test passes
    assert css_asymptotic_feasible(2, 0.99, 0.2, 0.4, 0.7) is False


def test_frontier_grid():
    grid = frontier_grid(2, 6)
    assert grid[0] == 0.0 and grid[-1] == 0.5 and len(grid) == 6
    assert frontier_grid(3, 1) == [0.0]
    with pytest.raises(DomainError):
        frontier_grid(2, 0)
    assert len(frontier_grid(2, MAX_POINTS)) == MAX_POINTS
    with pytest.raises(DomainError, match=f"^need 1 to {MAX_POINTS} grid points, got {MAX_POINTS + 1}$"):
        frontier_grid(2, MAX_POINTS + 1)


def test_frontier_grid_ends_at_dmax():
    # dmax * i / (N - 1) can round past dmax at i = N - 1 (q=5, N=4 gives
    # 0.8000000000000002), which entropy_hq refuses
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        dmax = 1 - 1 / q
        for num_points in range(1, 201):
            grid = frontier_grid(q, num_points)
            assert len(grid) == num_points
            assert all(0.0 <= d <= dmax for d in grid)
            assert grid[:-1] == [dmax * i / (num_points - 1) for i in range(num_points - 1)]
            assert grid[-1] == (dmax if num_points > 1 else 0.0)
            stab_frontier(q, 0.9, grid)


def test_frontier_csv_schema():
    buf = io.StringIO()
    points = stab_frontier(2, 0.5, frontier_grid(2, 8))
    write_frontier_csv(points, 2, buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "delta_x,delta_z_max,R,q"
    assert lines[-1] == ""  # trailing newline
    body = lines[1:-1]
    assert len(body) == len(points)
    for line, pt in zip(body, points):
        sx, sz, sr, sq = line.split(",")
        assert sq == "2"
        assert abs(float(sx) - pt.delta_x) < 1e-11
        assert abs(float(sz) - pt.delta_z_max) < 1e-11
        assert float(sr) == 0.5
