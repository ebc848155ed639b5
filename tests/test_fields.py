import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqgv import fields
from aqgv.errors import InputShapeError, UnsupportedFieldError
from aqgv.fields import GF, Packing, Subspace, symplectic_products, symplectic_twist, weight
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

PROPERTY = settings(derandomize=True, deadline=None)


def vectors_of(p, n):
    return st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(tuple)


@st.composite
def packed_operands(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 251]))
    n = draw(st.integers(0, 12))
    return p, n, draw(st.lists(vectors_of(p, n), min_size=2, max_size=4))


@PROPERTY
@given(packed_operands())
def test_packed_arithmetic_matches_tuples(case):
    p, n, vs = case
    packing = Packing(p, n)
    packed = [packing.pack(v) for v in vs]
    assert [packing.unpack(x) for x in packed] == vs
    assert [packing.unit(j) for j in range(n)] == [packing.pack([0] * j + [1]) for j in range(n)]
    assert list(packing.weights(packed)) == [weight(v) for v in vs]
    u = vs[0]
    sums = [tuple((a + b) % p for a, b in zip(u, v)) for v in vs]
    assert [packing.unpack(packing.add(packed[0], x)) for x in packed] == sums
    assert [packing.unpack(x) for x in packing.shifted(packed[0], packed)] == sums


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
    expected = tuple_span(rows, p, n)
    skip = draw(st.integers(0, len(expected)))
    chunk = draw(st.sampled_from([1, p, p * p, 1 << 16]))
    return p, n, rows, expected, skip, chunk


@PROPERTY
@given(span_case())
def test_packed_span_and_chunks_match_tuple_combinations(case):
    p, n, rows, expected, skip, chunk = case
    packing = Packing(p, n)
    packed = [packing.pack(row) for row in rows]
    assert [packing.unpack(x) for x in packing.span(packed)] == expected
    with mock.patch.object(fields, "SPAN_CHUNK", chunk):
        chunks = list(packing.span_chunks(packed, skip=skip))
    assert all(len(c) <= chunk for c in chunks)
    assert [packing.unpack(x) for c in chunks for x in c] == expected[skip:]
    space = Subspace.span(GF(p), n, rows)
    assert list(members(space)) == tuple_span(space.basis, p, n)


@PROPERTY
@given(span_case())
def test_packed_levels_match_tuple_combinations_by_coefficient_count(case):
    p, n, rows, _, _, chunk = case
    packing = Packing(p, n)
    with mock.patch.object(fields, "SPAN_CHUNK", chunk):
        levels = [list(level) for level in packing.levels([packing.pack(row) for row in rows])]
    assert len(levels) == len(rows)
    assert all(len(c) <= max(chunk, p - 1) for level in levels for c in level)
    for i, level in enumerate(levels, 1):
        expected = [
            tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n))
            for coeffs in product(range(p), repeat=len(rows)) if sum(map(bool, coeffs)) == i
        ]
        assert sorted(packing.unpack(x) for c in level for x in c) == sorted(expected)


def test_vectors_beyond_one_chunk_each_once_in_order():
    space = full_space(F2, 17)   # 2^17 members, two chunks
    vecs = list(members(space))
    assert len(vecs) == 2**17 == len(set(vecs))
    assert vecs[:3] == [(0,) * 17, (1,) + (0,) * 16, (0, 1) + (0,) * 15]
    assert vecs[2**16] == (0,) * 16 + (1,)


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


@PROPERTY
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


@PROPERTY
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


@PROPERTY
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
