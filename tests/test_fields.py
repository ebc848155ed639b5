import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aqgv import fields
from aqgv.errors import InputShapeError, UnsupportedFieldError
from aqgv.fields import (
    GF,
    Packing,
    Subspace,
    combine,
    symplectic_products,
    symplectic_twist,
    weight,
)
from conftest import full_space, members, zero_space

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def random_subspace(rng, field, n, max_rows=None):
    rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(max_rows or n)]
    return Subspace.span(field, n, rows)


def random_invertible(rng, field, k):
    while True:
        rows = [[rng.randrange(field.p) for _ in range(k)] for _ in range(k)]
        if Subspace.span(field, k, rows).dim == k:
            return rows


# ---------------------------------------------------------------------------
# field validation
# ---------------------------------------------------------------------------

def test_gf_accepts_primes_up_to_251():
    for p in (2, 3, 5, 7, 251):
        assert GF(p).p == p


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 100, 253, 257])
def test_gf_rejects_non_primes_and_big_orders(p):
    with pytest.raises(UnsupportedFieldError):
        GF(p)


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------

def test_weight_examples():
    assert weight((0, 1, 2, 0)) == 2
    assert weight((0, 0, 0)) == 0
    assert weight((1, 1, 1, 1, 1)) == 5


# ---------------------------------------------------------------------------
# packed vectors: tuple arithmetic is the oracle
# ---------------------------------------------------------------------------


def vectors_of(p, n):
    return st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(tuple)


@st.composite
def packed_operands(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 251]))
    n = draw(st.integers(0, 12))
    return p, n, draw(st.lists(vectors_of(p, n), min_size=2, max_size=4))


@given(packed_operands())
def test_packed_arithmetic_matches_tuples(case):
    p, n, vs = case
    packing = Packing(p, n)
    packed = packing.rows(vs)
    assert [packing.unpack(x) for x in packed] == vs
    assert [s.bit_count() for s in packing.supports(packed)] == [weight(v) for v in vs]
    u = vs[0]
    sums = [tuple((a + b) % p for a, b in zip(u, v)) for v in vs]
    assert [packing.unpack(x) for x in packing.shifted(packed[0], packed)] == sums


@st.composite
def syndrome_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 251]))
    n = draw(st.integers(0, 8))
    checks = draw(st.lists(vectors_of(p, n), max_size=4))
    return p, n, checks, draw(st.lists(vectors_of(p, n), max_size=4))


@given(syndrome_case())
def test_syndrome_packing_appends_each_syndrome(case):
    p, n, checks, rows = case
    m = len(checks)
    packing, plain = Packing(p, n, checks), Packing(p, n)

    def pack(v):   # sum of x_j * 2^(width*j)
        return sum(x << (packing.width * j) for j, x in enumerate(v))

    identity = [[int(i == j) for i in range(n)] for j in range(n)]
    assert plain.rows(rows) == [pack(row) for row in rows]
    assert plain.units() == [pack(e) for e in identity]
    columns = [[check[j] for check in checks] for j in range(n)]
    packed = packing.rows(rows)
    assert packed == [pack([*row, *combine(row, columns, p, m)]) for row in rows]
    assert packing.units() == [pack(e + column) for e, column in zip(identity, columns)]
    assert [packing.vector(x) for x in packed] == [pack(row) for row in rows]
    assert [packing.syndrome(x) for x in packed] == [pack(combine(row, columns, p, m)) for row in rows]
    assert [packing.unpack(x) for x in packed] == [tuple(row) for row in rows]


def tuple_span(rows, p, n):
    """Every combination of rows, rows[0] varying fastest, by tuple arithmetic."""
    out = []
    for coeffs in product(range(p), repeat=len(rows)):
        acc = [0] * n
        for c, row in zip(reversed(coeffs), rows):
            acc = [(a + c * x) % p for a, x in zip(acc, row)]
        out.append(tuple(acc))
    return out


@st.composite
def span_case(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(vectors_of(p, n), max_size=3 if p == 5 else 4))
    chunk = draw(st.sampled_from([1, p, p * p, 1 << 16]))
    return p, n, rows, chunk


@given(span_case())
def test_packed_span_and_members_match_tuple_combinations(case):
    p, n, rows, _ = case
    packing = Packing(p, n)
    assert [packing.unpack(x) for x in packing.span(packing.rows(rows))] == tuple_span(rows, p, n)
    space = Subspace.span(GF(p), n, rows)
    assert list(members(space)) == tuple_span(space.basis, p, n)


@given(span_case())
def test_packed_levels_match_tuple_combinations_by_coefficient_count(case):
    p, n, rows, chunk = case
    packing = Packing(p, n)
    with mock.patch.object(fields, "SPAN_CHUNK", chunk):
        levels = [list(level) for level in packing.levels(packing.rows(rows))]
    assert len(levels) == len(rows)
    assert all(len(c) <= max(chunk, p - 1) for level in levels for c in level)
    for i, level in enumerate(levels, 1):
        expected = [
            tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n))
            for coeffs in product(range(p), repeat=len(rows)) if sum(map(bool, coeffs)) == i
        ]
        assert sorted(packing.unpack(x) for c in level for x in c) == sorted(expected)


def test_packed_levels_keep_their_list_order():
    # the order decides where a rising-weight walk stops and what it counts;
    # with SPAN_CHUNK = 4 the units fall into blocks of 2, 2, 1 rows (p = 2) and of 1 row (p = 3)
    expected = {
        2: [[[16], [4, 8], [1, 2]],
            [[20, 24], [12], [17, 18], [5, 9], [6, 10], [3]],
            [[28], [21, 25], [22, 26], [13, 14], [19], [7, 11]],
            [[29, 30], [23, 27], [15]],
            [[31]]],
        3: [[[512, 1024], [64, 128], [8, 16], [1, 2]],
            [[576, 1088], [640, 1152], [520, 1032], [528, 1040], [72, 136], [80, 144],
             [513, 1025], [514, 1026], [65, 129], [66, 130], [9, 17], [10, 18]],
            [[584, 1096], [592, 1104], [648, 1160], [656, 1168], [577, 1089], [578, 1090],
             [641, 1153], [642, 1154], [521, 1033], [522, 1034], [529, 1041], [530, 1042],
             [73, 137], [74, 138], [81, 145], [82, 146]],
            [[585, 1097], [586, 1098], [593, 1105], [594, 1106], [649, 1161], [650, 1162],
             [657, 1169], [658, 1170]]],
    }
    for p, n in ((2, 5), (3, 4)):
        packing = Packing(p, n)
        with mock.patch.object(fields, "SPAN_CHUNK", 4):
            assert [list(level) for level in packing.levels(packing.units())] == expected[p]


def test_packed_levels_join_many_blocks():
    # at p = 251 a block holds 2 rows, so 2100 rows make 1050 blocks: more
    # than the recursion limit allows frames if the join recursed once per block
    packing = Packing(251, 2100)
    units = packing.units()
    levels = packing.levels(units)
    level1, level2 = next(next(levels)), next(next(levels))
    assert level1 == [c * units[j] for j in (2098, 2099) for c in range(1, 251)]
    assert len(level2) == 250 * 250 and level2[-1] == 250 * (units[2098] + units[2099])
    assert level2[:250] == [a * units[2098] + units[2099] for a in range(1, 251)]


# ---------------------------------------------------------------------------
# canonical RREF form
# ---------------------------------------------------------------------------

def test_rref_gf2_example():
    s = Subspace.span(F2, 3, [[1, 1, 0], [0, 1, 1]])
    assert s.basis == ((1, 0, 1), (0, 1, 1))
    assert s.dim == 2


def test_rref_identity_fixed_point():
    s = Subspace.span(F2, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert s == full_space(F2, 3)
    assert s.dim == 3


def test_rref_gf3_scaling():
    s = Subspace.span(F3, 2, [[2, 1]])
    assert s.basis == ((1, 2),)
    assert s.dim == 1


def test_rref_idempotent_and_mixing_invariant():
    rng = random.Random(2024)
    for field in (F2, F3, F5):
        for n in (3, 5, 8):
            for _ in range(10):
                s = random_subspace(rng, field, n)
                # re-canonicalizing the canonical basis changes nothing
                assert Subspace.span(field, n, s.basis) == s
                if s.dim == 0:
                    continue
                # row shuffles
                shuffled = list(s.basis)
                rng.shuffle(shuffled)
                assert Subspace.span(field, n, shuffled) == s
                # invertible row mixing
                m = random_invertible(rng, field, s.dim)
                mixed = [
                    tuple(
                        sum(m[i][j] * s.basis[j][col] for j in range(s.dim)) % field.p
                        for col in range(n)
                    )
                    for i in range(s.dim)
                ]
                assert Subspace.span(field, n, mixed) == s


def test_span_rejects_bad_shapes():
    for make in (Subspace.span, Subspace):
        with pytest.raises(InputShapeError):
            make(F2, 3, [[1, 0, 1], [1, 0]])  # ragged
        with pytest.raises(InputShapeError):
            make(F2, 3, [[0, 1, 2]])  # entry outside [0, p)
        with pytest.raises(InputShapeError):
            make(F3, 2, [[-1, 0]])
        with pytest.raises(InputShapeError):
            make(F3, 2, [[1.0, 0]])  # not an int
        with pytest.raises(InputShapeError):
            make(F3, -1, [])  # negative ambient dimension


@st.composite
def raw_rows(draw):
    """Rows as a caller may pass them: random ones plus zero rows and
    combinations of earlier rows, in shuffled order."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 6))
    drawn = draw(st.lists(vectors_of(p, n), max_size=3 if p == 5 else 4))
    rows = list(drawn)
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(drawn), max_size=len(drawn)))
        rows.append(tuple(sum(c * row[j] for c, row in zip(coeffs, drawn)) % p for j in range(n)))
    rows += [(0,) * n] * draw(st.integers(0, 2))
    return p, n, drawn, draw(st.permutations(rows))


@given(raw_rows())
def test_constructor_makes_any_rows_canonical(case):
    p, n, drawn, rows = case
    space = Subspace(GF(p), n, rows)
    assert space == Subspace.span(GF(p), n, rows)
    assert space.pivot_cols == tuple(next(j for j, x in enumerate(row) if x) for row in space.basis)
    # reduced row-echelon form: increasing pivots, each a 1 alone in its column
    assert list(space.pivot_cols) == sorted(set(space.pivot_cols))
    for i, j in enumerate(space.pivot_cols):
        assert [row[j] for row in space.basis] == [int(r == i) for r in range(space.dim)]
    assert set(members(space)) == set(tuple_span(drawn, p, n))


def test_span_of_empty_rows_is_zero_space():
    z = Subspace.span(F5, 4, [])
    assert z == zero_space(F5, 4)
    assert z.dim == 0


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

def test_dual_gf2_example():
    s = Subspace.span(F2, 3, [[1, 1, 0], [0, 1, 1]])
    assert s.dual() == Subspace.span(F2, 3, [[1, 1, 1]])


def test_dual_of_full_and_zero():
    assert full_space(F3, 4).dual() == zero_space(F3, 4)
    assert zero_space(F3, 4).dual() == full_space(F3, 4)


def test_dual_brute_force_small():
    # direct definition check: all vectors orthogonal to every codeword
    rng = random.Random(7)
    for field in (F2, F3):
        for n in (2, 3, 4):
            for _ in range(5):
                s = random_subspace(rng, field, n)
                d = s.dual()
                expected = [
                    v
                    for v in product(range(field.p), repeat=n)
                    if all(
                        sum(a * b for a, b in zip(v, row)) % field.p == 0
                        for row in s.basis
                    )
                ]
                assert set(members(d)) == set(expected)


def test_dual_involution_and_dimension():
    rng = random.Random(99)
    for field in (F2, F3, F5):
        for n in range(1, 11):
            for _ in range(5):
                s = random_subspace(rng, field, n, max_rows=rng.randrange(n + 1))
                d = s.dual()
                assert s.dim + d.dim == n
                assert d.dual() == s


def test_symplectic_dual_examples():
    line = Subspace.span(F2, 2, [[1, 0]])
    assert line.symplectic_dual() == line  # self-dual line in F_2^2
    assert zero_space(F2, 6).symplectic_dual() == full_space(F2, 6)
    assert full_space(F2, 2).symplectic_dual() == zero_space(F2, 2)


def test_symplectic_dual_brute_force():
    # <(a|b),(c|d)> = a.d - b.c checked against exhaustive enumeration
    def sprod(u, v, p, n):
        ax, az = u[:n], u[n:]
        bx, bz = v[:n], v[n:]
        return (
            sum(a * b for a, b in zip(ax, bz)) - sum(a * b for a, b in zip(az, bx))
        ) % p

    rng = random.Random(13)
    for field in (F2, F3):
        for n in (1, 2):
            for _ in range(8):
                s = random_subspace(rng, field, 2 * n)
                d = s.symplectic_dual()
                expected = {
                    v
                    for v in product(range(field.p), repeat=2 * n)
                    if all(sprod(row, v, field.p, n) == 0 for row in s.basis)
                }
                assert set(members(d)) == expected
                assert s.dim + d.dim == 2 * n


def two_elimination_symplectic_dual(s):
    """The symplectic dual as the standard dual of S's twisted rows: an RREF
    of those rows, then dual(), which eliminates again."""
    twisted = [symplectic_twist(row, s.field.p) for row in s.basis]
    return Subspace.span(s.field, s.ambient_dim, twisted).dual()


@st.composite
def even_subspaces(draw):
    p = draw(st.sampled_from([2, 3, 5, 251]))
    m = 2 * draw(st.integers(0, 8))
    return Subspace.span(GF(p), m, draw(st.lists(vectors_of(p, m), max_size=m + 1)))


@given(even_subspaces())
def test_symplectic_dual_matches_two_elimination_oracle(s):
    # for odd p the twist's sign matters: (b|a) in place of (-b|a) spans another space
    assert s.symplectic_dual() == two_elimination_symplectic_dual(s)


def test_symplectic_dual_runs_one_elimination():
    s = Subspace.span(F3, 8, [[1, 2, 0, 1, 0, 0, 2, 1], [0, 1, 1, 0, 2, 0, 0, 1]])
    with mock.patch.object(fields, "_rref", wraps=fields._rref) as rref:
        d = s.symplectic_dual()
    assert rref.call_count == 1
    assert d.dim == 6 and d == two_elimination_symplectic_dual(s)


@st.composite
def symplectic_operands(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 6))
    return q, n, draw(vectors_of(q, 2 * n)), draw(st.lists(vectors_of(q, 2 * n), max_size=4))


@given(symplectic_operands())
def test_symplectic_products_match_definition(case):
    # <(a|b), (c|d)> = a.d - b.c mod q, straight from the definition
    q, n, v, rows = case
    a, b = v[:n], v[n:]
    expected = [
        (sum(x * y for x, y in zip(a, w[n:])) - sum(x * y for x, y in zip(b, w[:n]))) % q
        for w in rows
    ]
    assert symplectic_products(v, rows, q) == expected


def test_symplectic_dual_needs_even_ambient():
    with pytest.raises(InputShapeError):
        Subspace.span(F2, 3, [[1, 0, 0]]).symplectic_dual()


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_membership_matches_span_enumeration():
    rng = random.Random(31)
    for field in (F2, F3):
        for n in (2, 3, 4):
            for _ in range(5):
                s = random_subspace(rng, field, n)
                vecs = set(members(s))
                assert len(vecs) == field.p**s.dim
                for v in product(range(field.p), repeat=n):
                    assert s.contains(v) == (v in vecs)


def test_contains_space():
    s = Subspace.span(F2, 3, [[1, 1, 0], [0, 1, 1]])
    assert s.contains_space(Subspace.span(F2, 3, [[1, 0, 1]]))
    assert not Subspace.span(F2, 3, [[1, 0, 1]]).contains_space(s)
    for other in (full_space(F2, 4), full_space(F3, 3)):
        with pytest.raises(InputShapeError, match="^subspaces live in different ambient spaces$"):
            s.contains_space(other)
    with pytest.raises(InputShapeError, match="^vector length differs from ambient dimension$"):
        s.reduce([1, 0])
