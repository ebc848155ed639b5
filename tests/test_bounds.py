import decimal
import math
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqgv import bounds
from aqgv.asymptotic import entropy_hq
from aqgv.bounds import (
    MAX_DIGITS,
    PRIME_POWER_BITS,
    SCAN_GUARD,
    BoundReport,
    CssBoundQuery,
    StabBoundQuery,
    _css_turn,
    _first_true,
    ball_sum,
    best_css_params,
    css_gv_lhs,
    css_lhs_ints,
    fraction_decimal_str,
    gaussian_binomial,
    is_prime_power,
    max_k_stab,
    prime_power_base,
    stab_gv_lhs,
)
from aqgv.errors import EnumerationSizeError, ParameterRangeError
from aqgv.fields import GF, Subspace


# ---------------------------------------------------------------------------
# prime powers
# ---------------------------------------------------------------------------

def test_prime_power_detection():
    assert prime_power_base(2) == 2
    assert prime_power_base(9) == 3
    assert prime_power_base(32) == 2
    assert prime_power_base(125) == 5
    for q in (1, 0, 6, 12, 100, 36):
        assert not is_prime_power(q)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 121):
        assert is_prime_power(q)
    # past trial division: roots checked by Miller-Rabin
    m61 = 2**61 - 1
    assert prime_power_base(m61) == m61
    assert prime_power_base(m61**3) == m61
    assert prime_power_base(1009**5) == 1009
    assert prime_power_base(2**100) == 2
    # a semiprime of two large primes, a Carmichael number, a strong
    # pseudoprime to the bases 2, 3, 5 and 7, and one to every prime base up
    # to 31 with no factor below 1000 (149491 * 747451 * 34233211)
    for q in ((2**31 - 1) * m61, 561, 3215031751, 3825123056546413051):
        assert prime_power_base(q) is None


def test_prime_power_base_matches_trial_division():
    def trial(q):
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        while q % p == 0:
            q //= p
        return p if q == 1 else None

    for q in range(2, 5000):
        assert prime_power_base(q) == trial(q), q
    for q in (999983, 998001, 10**6 + 3, 101**9, 997**7, 1009 * 1013, 1013**2, (10**6 + 3) ** 2):
        assert prime_power_base(q) == trial(q), q


def test_prime_power_base_refuses_uncertified_probable_primes():
    # Miller-Rabin on the bases 2..41 is exact only below 3.3e24.
    for q in (2**127 - 1, (2**89 - 1) ** 2):
        with pytest.raises(ParameterRangeError, match="probable prime"):
            prime_power_base(q)


def test_prime_power_test_refuses_long_q_without_small_factors():
    # past trial division a q of at most PRIME_POWER_BITS is tested, a longer one refused
    assert PRIME_POWER_BITS == 1024
    assert prime_power_base(1009**102) == 1009   # 1018 bits
    for q in (1009**103, 1009**1400, 10**4000 + 1):
        with pytest.raises(EnumerationSizeError, match="no prime factor below 1000"):
            prime_power_base(q)
    # a prime factor below 1000 settles q of any length by trial division
    assert prime_power_base(2**4423) == 2 and prime_power_base(3**3000) == 3
    assert prime_power_base(2 * 1009**1400) is None


# ---------------------------------------------------------------------------
# ball sums
# ---------------------------------------------------------------------------

def test_ball_sum_examples():
    assert ball_sum(10, 2, 0) == 0
    assert ball_sum(10, 2, 1) == 10
    assert ball_sum(5, 3, 2) == 50


def test_ball_sum_matches_vector_enumeration():
    # definition-level oracle: count nonzero vectors of weight <= t
    for n, q in ((5, 3), (4, 2), (3, 5)):
        vectors = list(product(range(q), repeat=n))
        for t in range(n + 1):
            count = sum(1 for v in vectors if 0 < sum(1 for x in v if x) <= t)
            assert ball_sum(n, q, t) == count


def test_ball_sum_full_radius_counts_all_nonzero():
    for q in (2, 3, 4, 5, 8, 9):
        for n in range(1, 65):
            assert ball_sum(n, q, n) == q**n - 1


@given(st.sampled_from([2, 3, 5]), st.integers(0, 60), st.data())
def test_ball_sum_matches_binomial_sum_property(q, n, data):
    t = data.draw(st.integers(0, n))
    assert ball_sum(n, q, t) == sum(math.comb(n, i) * (q - 1) ** i for i in range(1, t + 1))


def test_ball_sum_range_errors():
    with pytest.raises(ParameterRangeError):
        ball_sum(5, 2, 6)
    with pytest.raises(ParameterRangeError):
        ball_sum(5, 2, -1)
    with pytest.raises(ParameterRangeError):
        ball_sum(5, 1, 1)
    # a size that is not a plain int is refused, not carried into the arithmetic
    for args in ((5.0, 2, 2), (5, 2.0, 2), (5, 2, 2.0), (True, 2, 1), (5, 2, True)):
        with pytest.raises(ParameterRangeError, match="must be an integer, got"):
            ball_sum(*args)


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------

def test_gaussian_binomial_examples():
    assert gaussian_binomial(7, 0, 3) == 1
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35


def test_gaussian_binomial_symmetry():
    for q in (2, 3, 4, 5):
        for n in range(8):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


def count_subspaces_by_matrix_enumeration(n, k, q):
    """Definition-level oracle: distinct row spaces over all k x n matrices."""
    field = GF(q)
    spaces = set()
    for entries in product(range(q), repeat=k * n):
        rows = [entries[i * n : (i + 1) * n] for i in range(k)]
        space = Subspace.span(field, n, rows)
        if space.dim == k:
            spaces.add(space)
    return len(spaces)


def test_gaussian_binomial_matches_exhaustive_subspace_count():
    for n in range(1, 5):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 2) == count_subspaces_by_matrix_enumeration(n, k, 2)
    for k in (0, 1, 2):
        assert gaussian_binomial(5, k, 2) == count_subspaces_by_matrix_enumeration(5, k, 2)
    assert gaussian_binomial(3, 1, 3) == count_subspaces_by_matrix_enumeration(3, 1, 3)


def test_gaussian_binomial_range_errors():
    with pytest.raises(ParameterRangeError):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(ParameterRangeError):
        gaussian_binomial(3, -1, 2)
    with pytest.raises(ParameterRangeError, match=r"^q must be >= 2, got 1$"):
        gaussian_binomial(5, 2, 1)
    with pytest.raises(ParameterRangeError, match=r"^q must be an integer, got 2.5$"):
        gaussian_binomial(3, 1, 2.5)
    for args in ((3.0, 1, 2), (3, 1.0, 2), (3, True, 2), (3, 1, True)):
        with pytest.raises(ParameterRangeError, match="must be an integer, got"):
            gaussian_binomial(*args)


# ---------------------------------------------------------------------------
# CSS bound
# ---------------------------------------------------------------------------

def test_css_lhs_frozen_values():
    report = css_gv_lhs(CssBoundQuery(q=2, n=12, k1=7, k2=5, dx=2, dz=2))
    assert report.lhs == Fraction(2304, 4095)
    assert report.feasible
    assert report.decimal_str() == "0.562637"
    assert sum(report.terms) == report.lhs

    report = css_gv_lhs(CssBoundQuery(q=2, n=7, k1=4, k2=1, dx=2, dz=2))
    assert report.lhs == Fraction(490, 127)
    assert not report.feasible


def test_css_lhs_trivial_distances():
    for q, n, k1, k2 in ((2, 12, 7, 5), (3, 9, 6, 2), (4, 6, 5, 0)):
        report = css_gv_lhs(CssBoundQuery(q=q, n=n, k1=k1, k2=k2, dx=1, dz=1))
        assert report.lhs == 0
        assert report.feasible


def test_css_query_validation():
    with pytest.raises(ParameterRangeError):
        CssBoundQuery(q=6, n=5, k1=2, k2=1, dx=2, dz=2)
    with pytest.raises(ParameterRangeError):
        CssBoundQuery(q=2, n=5, k1=1, k2=2, dx=2, dz=2)
    with pytest.raises(ParameterRangeError):
        CssBoundQuery(q=2, n=5, k1=2, k2=1, dx=7, dz=2)
    with pytest.raises(ParameterRangeError):
        CssBoundQuery(q=2, n=0, k1=0, k2=0, dx=1, dz=1)
    with pytest.raises(ParameterRangeError, match=r"^need 0 <= k <= n, got k=6, n=5$"):
        StabBoundQuery(q=2, n=5, k=6, dx=2, dz=2)
    with pytest.raises(ParameterRangeError, match=r"^n must be an integer, got 5.5$"):
        CssBoundQuery(q=2, n=5.5, k1=2, k2=1, dx=2, dz=2)
    with pytest.raises(ParameterRangeError, match=r"^k must be an integer, got 2.5$"):
        StabBoundQuery(q=2, n=5, k=2.5, dx=2, dz=2)
    for sizes in ({"k1": 2.0}, {"k2": True}, {"dx": 2.0}, {"dz": False}, {"q": 2.0}):
        with pytest.raises(ParameterRangeError):
            CssBoundQuery(**{"q": 2, "n": 5, "k1": 2, "k2": 1, "dx": 2, "dz": 2, **sizes})


def test_css_lhs_monotonicity_grid():
    # strictly increasing in k1, strictly decreasing in k2, non-decreasing
    # in dx and dz (strict when the ball term grows)
    for q, n in ((2, 8), (3, 6)):
        for k2 in (0, 1):
            reports = [
                css_gv_lhs(CssBoundQuery(q=q, n=n, k1=k1, k2=k2, dx=3, dz=2)).lhs
                for k1 in range(k2 + 1, n + 1)
            ]
            assert all(a < b for a, b in zip(reports, reports[1:]))
        for k1 in (4, 5):
            reports = [
                css_gv_lhs(CssBoundQuery(q=q, n=n, k1=k1, k2=k2, dx=3, dz=2)).lhs
                for k2 in range(k1 + 1)
            ]
            assert all(a > b for a, b in zip(reports, reports[1:]))
        for dz in (1, 3):
            reports = [
                css_gv_lhs(CssBoundQuery(q=q, n=n, k1=4, k2=1, dx=dx, dz=dz)).lhs
                for dx in range(1, n + 2)
            ]
            assert all(a < b for a, b in zip(reports, reports[1:]))


# ---------------------------------------------------------------------------
# stabilizer bound
# ---------------------------------------------------------------------------

def test_stab_lhs_frozen_values():
    r3 = stab_gv_lhs(StabBoundQuery(q=2, n=10, k=3, dx=2, dz=2))
    r4 = stab_gv_lhs(StabBoundQuery(q=2, n=10, k=4, dx=2, dz=2))
    # exact rationals: (1 - 2^-2k) / (1 - 2^-20) * 2^-(10-k) * 100
    assert r3.lhs == Fraction((2**6 - 1) * 2**7 * 100, 2**20 - 1)
    assert r4.lhs == Fraction((2**8 - 1) * 2**6 * 100, 2**20 - 1)
    assert r3.feasible and not r4.feasible
    assert r3.lhs < 1 < r4.lhs
    assert r3.decimal_str() == "0.769044"
    ratio, bx, bz = r3.terms
    assert ratio * bx * bz == r3.lhs
    assert bx == bz == 10  # ball_sum(10, 2, 1)


def test_stab_lhs_trivial_distances():
    for q, n, k in ((2, 10, 5), (3, 7, 7), (5, 4, 0)):
        report = stab_gv_lhs(StabBoundQuery(q=q, n=n, k=k, dx=1, dz=1))
        assert report.lhs == 0
        assert report.feasible


@pytest.mark.xfail(
    strict=True,
    reason="stab_gv_lhs counts ball_sum(dx-1) * ball_sum(dz-1) error patterns, which is 0 at dx = 1 "
    "or dz = 1; a code must also detect the patterns with ex = 0 or ez = 0, "
    "(Bx+1)(Bz+1) - 1 of them, as stab_detects_profile checks",
)
def test_stab_bound_not_feasible_when_no_code_exists():
    # With k = n the stabilizer is zero, so no [[5, 5]]_2 code detects a
    # single Z error: [[5, 5, 1, 2]]_2 does not exist.
    assert not stab_gv_lhs(StabBoundQuery(q=2, n=5, k=5, dx=1, dz=2)).feasible


def test_stab_lhs_strictly_increasing_in_k():
    for q in (2, 3):
        for n in (5, 12, 30):
            values = [
                stab_gv_lhs(StabBoundQuery(q=q, n=n, k=k, dx=2, dz=3)).lhs
                for k in range(n + 1)
            ]
            assert all(a < b for a, b in zip(values, values[1:]))


def test_boundary_lhs_exactly_one_is_infeasible():
    assert not BoundReport(lhs=Fraction(1), terms=(Fraction(1),)).feasible
    assert BoundReport(lhs=Fraction(10**9 - 1, 10**9), terms=()).feasible


# ---------------------------------------------------------------------------
# parameter searches
# ---------------------------------------------------------------------------

def test_max_k_stab():
    assert max_k_stab(10, 2, 2, 2) == 3
    assert max_k_stab(10, 2, 1, 1) == 10
    assert max_k_stab(4, 2, 3, 3) is None
    with pytest.raises(ParameterRangeError):
        max_k_stab(4, 2, 6, 1)
    # sizes that are not plain ints: max_k_stab(True, 2, 1, 1) read n as 1
    for search, args in ((max_k_stab, (5.0, 2, 2, 2)), (max_k_stab, (True, 2, 1, 1)),
                         (best_css_params, (6, 2, 2.0, 2)), (best_css_params, (6, 2, 2, True))):
        with pytest.raises(ParameterRangeError, match="must be an integer, got"):
            search(*args)


def test_max_k_stab_agrees_with_full_scan():
    for q, n, dx, dz in ((2, 12, 2, 2), (2, 9, 3, 2), (3, 8, 2, 2), (2, 6, 4, 4)):
        feasible = [
            k
            for k in range(1, n + 1)
            if stab_gv_lhs(StabBoundQuery(q=q, n=n, k=k, dx=dx, dz=dz)).feasible
        ]
        assert max_k_stab(n, q, dx, dz) == (max(feasible) if feasible else None)


def test_best_css_params():
    assert best_css_params(12, 2, 2, 2) == (7, 4)
    assert best_css_params(12, 2, 1, 1) == (12, 0)
    assert best_css_params(4, 2, 3, 3) is None


def test_best_css_params_scan_guard():
    # n^2 * q.bit_length() first passes 2^30 at n = 23171 for q = 2 (two bits)
    assert 23170**2 * 2 <= SCAN_GUARD < 23171**2 * 2
    message = f"^{23171**2 * 2} scan bit operations exceed the guard of {SCAN_GUARD}$"
    with pytest.raises(EnumerationSizeError, match=message):
        best_css_params(23171, 2, 3, 3)
    with pytest.raises(EnumerationSizeError):
        best_css_params(11000, 256, 3, 3)  # nine bits


def test_bound_guard_decides_a_huge_n_without_building_q_to_the_n():
    with pytest.raises(EnumerationSizeError, match=r"^10\^\d+ or more scan bit operations exceed"):
        css_gv_lhs(CssBoundQuery(q=2, n=10**2500, k1=1, k2=0, dx=3, dz=3))


def test_best_css_params_agrees_with_full_scan():
    for q, n, dx, dz in ((2, 12, 2, 2), (2, 8, 2, 3), (3, 6, 2, 2)):
        candidates = [
            (k1, k2)
            for k1 in range(n + 1)
            for k2 in range(k1)
            if css_gv_lhs(CssBoundQuery(q=q, n=n, k1=k1, k2=k2, dx=dx, dz=dz)).feasible
        ]
        got = best_css_params(n, q, dx, dz)
        if not candidates:
            assert got is None
        else:
            best_net = max(k1 - k2 for k1, k2 in candidates)
            expected = min((k1, k2) for k1, k2 in candidates if k1 - k2 == best_net)
            assert got == expected


def two_pointer_best_css(n, q, dx, dz):
    """The earlier linear scan, one comparison per k1: the least feasible k2
    never decreases as k1 grows, so the best net rises by at most one."""
    balls = ball_sum(n, q, dx - 1), ball_sum(n, q, dz - 1)
    best, k2 = None, 0
    for k1 in range(1, n + 1):  # k1 - k2 is one more than the best net so far
        addends, denom = css_lhs_ints(q, n, k1, k2, *balls)
        if sum(addends) < denom:
            best = (k1, k2)
        else:
            k2 += 1
    return best


def test_best_css_params_agrees_with_two_pointer_scan():
    for q in (2, 3, 4, 5, 251):
        for n in (31, 40, 57, 64, 97, 128, 181, 256, 311, 400):
            distances = sorted({1, 2, 3, n // 40 + 1, n // 10, n // 2, n + 1})
            for dx, dz in product(distances, repeat=2):
                assert best_css_params(n, q, dx, dz) == two_pointer_best_css(n, q, dx, dz), (q, n, dx, dz)


def test_css_turn_is_the_first_minimizer_of_the_numerator():
    rng = random.Random(28)
    for _ in range(3000):
        q = rng.choice((2, 3, 4, 5, 7, 251))
        n = rng.randint(1, 60)
        t = rng.randint(1, n)
        bx, bz = (0 if rng.random() < 0.1 else rng.randint(1, q ** rng.randint(0, n)) for _ in "xz")
        numerators = [sum(css_lhs_ints(q, n, k2 + t, k2, bx, bz)[0]) for k2 in range(n - t + 1)]
        first_min = numerators.index(min(numerators))
        assert _css_turn(q, n, bx, bz)(t) == first_min, (q, n, t, bx, bz)


def count_comparisons(monkeypatch):
    """Make bounds count its exact comparisons, one per css_lhs_ints or
    stab_lhs_ints call.  Returns the counter."""
    calls = [0]
    for name in ("css_lhs_ints", "stab_lhs_ints"):
        def counted(*args, _real=getattr(bounds, name)):
            calls[0] += 1
            return _real(*args)

        monkeypatch.setattr(bounds, name, counted)
    return calls


@pytest.mark.parametrize("n", [200, 6400])
def test_best_css_params_makes_logarithmically_many_comparisons(n, monkeypatch):
    calls = count_comparisons(monkeypatch)
    assert best_css_params(n, 2, n // 40, n // 40) is not None
    assert calls[0] <= 2 * n.bit_length() + 4
    calls[0] = 0
    assert max_k_stab(n, 2, n // 40, n // 40) is not None
    assert calls[0] <= 2 * n.bit_length() + 4


def test_scans_start_at_their_estimates(monkeypatch):
    # a bisection of 1..n makes about 10.9 and 6.9 comparisons on this grid;
    # the closed-form estimates are right or one off nearly everywhere
    calls = count_comparisons(monkeypatch)
    cells = [(n, q, dx, dz) for n in range(38, 203) for q in (2, 3) for dx in range(2, 15) for dz in range(2, 15)]
    for search, mean in ((best_css_params, 4), (max_k_stab, 2.5)):
        calls[0] = 0
        for cell in cells:
            search(*cell)
        assert calls[0] / len(cells) <= mean, search.__name__


@st.composite
def monotone_predicates(draw):
    """A range [lo, hi), the x where a monotone predicate on it turns True
    (hi for never), and a guess anywhere, in the range or out of it."""
    lo = draw(st.integers(-1000, 1000))
    hi = lo + draw(st.integers(0, 2000))
    turn = draw(st.integers(lo, hi))
    guess = draw(st.one_of(st.integers(lo - 5, hi + 5), st.integers(-10**6, 10**6), st.sampled_from([turn - 1, turn])))
    return lo, hi, turn, guess


@settings(max_examples=500)
@given(monotone_predicates())
@example((0, 0, 0, 0))
@example((5, 6, 6, -10))
@example((0, 1024, 1024, 0))
@example((0, 1024, 0, 1023))
def test_first_true_is_bisect_left_from_any_guess_property(case):
    lo, hi, turn, guess = case
    evaluated = []

    def pred(x):
        assert lo <= x < hi
        evaluated.append(x)
        return x >= turn

    want = bisect_left(range(lo, hi), True, key=lambda x: x >= turn) + lo
    assert _first_true(pred, lo, hi, guess) == want == turn
    assert len(evaluated) <= 2 * (hi - lo).bit_length() + 3
    if lo <= guess < hi and guess in (turn - 1, turn):
        assert len(evaluated) <= 2


def test_tables_scans_guess_within_one_of_their_boundaries(monkeypatch):
    # Every cell the tables benchmark workload can draw: n within 2 of
    # 40, 60, ..., 200, q in {2, 3}, and each (dx/n, dz/n) pair scaled by
    # 0.85-1.15 and rounded, at least 2 (TABLE_CENTERS and TABLE_DELTAS in
    # perfbench/workloads.py).  Its scans never reach _first_true's bisection.
    costs = []

    def counted(pred, lo, hi, guess):
        costs.append(0)

        def counted_pred(x):
            costs[-1] += 1
            return pred(x)

        return _first_true(counted_pred, lo, hi, guess)

    def scaled(delta, n):
        return range(max(2, round(0.85 * delta * n)), max(2, round(1.15 * delta * n)) + 1)

    cells = {(n, q, dx, dz)
             for center in range(40, 201, 20)
             for n in range(max(40, center - 2), min(200, center + 2) + 1)
             for q in (2, 3)
             for a, b in ((0.025, 0.025), (0.02, 0.06), (0.06, 0.02))
             for dx in scaled(a, n)
             for dz in scaled(b, n)}
    assert len(cells) == 1258
    monkeypatch.setattr(bounds, "_first_true", counted)
    for cell in sorted(cells):
        best_css_params(*cell)
        max_k_stab(*cell)
    assert len(costs) == 4 * len(cells) and max(costs) <= 2


@st.composite
def scan_rows(draw):
    """(q, n, dx, dz) with n <= 30; each distance is drawn as 1 (empty
    ball), n+1 (every nonzero vector, so nothing is feasible when k1 > k2
    or k >= 1) or anywhere in between."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(1, 30))
    distance = st.one_of(st.just(1), st.just(n + 1), st.integers(1, n + 1))
    return q, n, draw(distance), draw(distance)


@settings(max_examples=200)
@given(scan_rows())
@example((2, 30, 1, 1))
@example((9, 30, 31, 2))
@example((3, 17, 5, 18))
@example((2, 4, 3, 3))
@example((2, 38, 2, 10))   # the net scan guesses 2 where the first infeasible net is 4
@example((2, 63, 2, 3))    # Bz / Bx = 2^5, and _css_turn's float estimate of the exponent is 6
def test_scans_match_exhaustive_oracles_property(row):
    q, n, dx, dz = row
    feasible_pairs = [
        (k1, k2)
        for k1 in range(n + 1)
        for k2 in range(k1)
        if css_gv_lhs(CssBoundQuery(q=q, n=n, k1=k1, k2=k2, dx=dx, dz=dz)).feasible
    ]
    if feasible_pairs:
        best_net = max(k1 - k2 for k1, k2 in feasible_pairs)
        expected = min((k1, k2) for k1, k2 in feasible_pairs if k1 - k2 == best_net)
    else:
        expected = None
    assert best_css_params(n, q, dx, dz) == expected
    feasible_k = [
        k for k in range(1, n + 1) if stab_gv_lhs(StabBoundQuery(q=q, n=n, k=k, dx=dx, dz=dz)).feasible
    ]
    assert max_k_stab(n, q, dx, dz) == max(feasible_k, default=None)
    if dx == dz == 1:
        assert (expected, feasible_k[-1]) == ((n, 0), n)


def test_finite_bound_meets_asymptotic_rate():
    # The stabilizer lhs <= q^(k-n) * Vx * Vz with V the ball including
    # zero, and V <= q^(n h(t/n)), so every k <= n (1 - 2 h(t/n)) is
    # feasible.  The CSS net meets the same floor here because each ball is
    # a factor of order sqrt(n) below q^(n h), which pays for splitting the
    # budget between two addends.  The rates fall towards 1 - 2 h(0.05).
    limit = 1 - 2 * entropy_hq(0.05, 2)
    stab_rates, css_rates = [], []
    for n in (400, 1600, 6400):
        d = n // 20
        k_floor = math.floor(n * (1 - 2 * entropy_hq((d - 1) / n, 2)) - 1e-9)
        k = max_k_stab(n, 2, d, d)
        assert k >= k_floor
        stab_rates.append(k / n)
        if n <= 1600:
            k1, k2 = best_css_params(n, 2, d, d)
            assert k1 - k2 >= k_floor
            css_rates.append((k1 - k2) / n)
    assert stab_rates == sorted(stab_rates, reverse=True) and len(set(stab_rates)) == 3
    assert css_rates[0] > css_rates[1]
    assert abs(stab_rates[-1] - limit) < 0.005


# ---------------------------------------------------------------------------
# verdicts vs high-precision decimal evaluation
# ---------------------------------------------------------------------------

def test_verdicts_agree_with_200_digit_decimal():
    rng = random.Random(404)
    qs = (2, 3, 4, 5, 8, 9)
    with decimal.localcontext() as ctx:
        ctx.prec = 200
        for _ in range(10**4):
            q = rng.choice(qs)
            n = rng.randrange(1, 30)
            if rng.random() < 0.5:
                k2 = rng.randrange(n + 1)
                k1 = rng.randrange(k2, n + 1)
                dx = rng.randrange(1, n + 2)
                dz = rng.randrange(1, n + 2)
                report = css_gv_lhs(CssBoundQuery(q=q, n=n, k1=k1, k2=k2, dx=dx, dz=dz))
                dec = (
                    decimal.Decimal(q**k1 - q**k2)
                    / (q**n - 1)
                    * ball_sum(n, q, dx - 1)
                    + decimal.Decimal(q ** (n - k2) - q ** (n - k1))
                    / (q**n - 1)
                    * ball_sum(n, q, dz - 1)
                )
            else:
                k = rng.randrange(n + 1)
                dx = rng.randrange(1, n + 2)
                dz = rng.randrange(1, n + 2)
                report = stab_gv_lhs(StabBoundQuery(q=q, n=n, k=k, dx=dx, dz=dz))
                dec = (
                    (1 - decimal.Decimal(q) ** (-2 * k))
                    / (1 - decimal.Decimal(q) ** (-2 * n))
                    / decimal.Decimal(q) ** (n - k)
                    * ball_sum(n, q, dx - 1)
                    * ball_sum(n, q, dz - 1)
                )
            assert report.feasible == (dec < 1)


# ---------------------------------------------------------------------------
# decimal rendering
# ---------------------------------------------------------------------------

def test_fraction_decimal_str():
    assert fraction_decimal_str(Fraction(2304, 4095), 6) == "0.562637"
    assert fraction_decimal_str(Fraction(0), 6) == "0.000000"
    assert fraction_decimal_str(Fraction(490, 127), 3) == "3.858"
    assert fraction_decimal_str(Fraction(1, 3), 10) == "0.3333333333"
    with pytest.raises(ParameterRangeError):
        fraction_decimal_str(Fraction(1, 3), 0)
    assert fraction_decimal_str(Fraction(1, 3), MAX_DIGITS) == "0." + "3" * MAX_DIGITS
    with pytest.raises(ParameterRangeError, match=f"^digits must be in \\[1, {MAX_DIGITS}\\], got {MAX_DIGITS + 1}$"):
        fraction_decimal_str(Fraction(1, 3), MAX_DIGITS + 1)
    # a count that is no int is refused by name, not read as a number of places
    for digits in (2.5, 3.0, True):
        with pytest.raises(ParameterRangeError, match=f"^digits must be an integer, got {digits!r}$"):
            fraction_decimal_str(Fraction(1, 3), digits)
