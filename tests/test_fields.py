import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aqgv import fields
from aqgv.errors import InputShapeError, UnsupportedFieldError
from aqgv.fields import GF, Packing, Subspace, weight
from conftest import combine, dual_rows, full_space, members, zero_space

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
    packing, plain = Packing(p, n, Packing(p, n).rows(checks)), Packing(p, n)

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


@given(syndrome_case())
def test_failing_gives_supports_of_rows_with_a_nonzero_syndrome(case):
    p, n, checks, rows = case
    packing = Packing(p, n, Packing(p, n).rows(checks))
    b = packing.width
    columns = [[check[j] for check in checks] for j in range(n)]
    expected = [
        sum(1 << (b * j + b - 1) for j, x in enumerate(row) if x)   # the top bit of each nonzero field
        for row in rows if any(combine(row, columns, p, len(checks)))
    ]
    assert list(packing.failing(packing.rows(rows))) == expected


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


@given(span_case())
def test_class_levels_take_one_vector_per_scalar_class(case):
    # over the unit rows a vector is its own coefficient vector
    p, n, _, chunk = case
    packing = Packing(p, n)
    with mock.patch.object(fields, "SPAN_CHUNK", chunk):
        full = [list(level) for level in packing.levels(packing.units())]
        classes = [list(level) for level in packing.levels(packing.units(), classes=True)]
    assert len(classes) == len(full) == n
    assert all(len(c) <= max(chunk, p - 1) for level in classes for c in level)
    for level, whole in zip(classes, full):
        vectors = [x for c in level for x in c]
        assert all(next(filter(None, packing.unpack(x))) == 1 for x in vectors)
        multiples = [packing.times(c, x) for x in vectors for c in range(1, p)]
        assert sorted(multiples) == sorted(x for c in whole for x in c)
    if p == 2:
        assert classes == full


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


def shifted_levels(packing, rows, classes, top):
    """Levels 0, ..., top of one block of rows by one Packing.shifted call
    per row and per nonzero multiple, the oracle of _BlockLevels' list pass:
    row j shifts, once per multiple, the prefix of level w - 1 that uses no
    row from j on, each time the block the last shift gave."""
    levels, ends = [[0]], [1] * len(rows)
    for w in range(1, top + 1):
        prev, level, next_ends = levels[-1], [], []
        for row, end in zip(rows, ends):
            next_ends.append(len(level))
            block = prev[:end]
            for _ in range(1 if classes and w == 1 else packing.p - 1):
                block = packing.shifted(row, block)
                level.extend(block)
        levels.append(level)
        ends = next_ends
    return levels


@st.composite
def block_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 41]))
    n = draw(st.integers(1, 6))
    checks = draw(st.lists(vectors_of(p, n), max_size=2))
    rows = draw(st.lists(vectors_of(p, n), min_size=1, max_size=2 if p == 41 else 4))
    return p, n, checks, rows, draw(st.booleans())


@given(block_case())
def test_block_levels_match_the_per_row_shifted_loop(case):
    # list for list, in the same order, with syndromes appended or not, each
    # level asked for in turn and the top one first
    p, n, checks, rows, classes = case
    packing = Packing(p, n, Packing(p, n).rows(checks))
    packed = packing.rows(rows)
    expected = shifted_levels(packing, packed, classes, len(rows))
    block = fields._BlockLevels(packing, packed, classes)
    assert [block.level(w) for w in range(len(rows) + 1)] == expected
    assert fields._BlockLevels(packing, packed, classes).level(len(rows)) == expected[-1]


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


PRIMES = [p for p in range(2, 252) if all(p % d for d in range(2, p))]


@st.composite
def scalar_operands(draw):
    p, n, vs = draw(packed_operands())
    return p, n, vs, draw(st.lists(st.integers(0, p - 1), min_size=len(vs), max_size=len(vs)))


@given(scalar_operands())
def test_packed_scalar_arithmetic_matches_tuples(case):
    p, n, vs, coeffs = case
    packing = Packing(p, n)
    packed = packing.rows(vs)
    u, v, c = vs[0], vs[1], coeffs[0]
    assert packing.unpack(packing.combine(coeffs, packed)) == combine(coeffs, vs, p, n)
    assert packing.unpack(packing.times(c, packed[0])) == tuple((c * x) % p for x in u)
    assert packing.unpack(packing.neg(packed[0])) == tuple((-x) % p for x in u)
    assert packing.unpack(packing.sub(packed[0], c, packed[1])) == tuple((x - c * y) % p for x, y in zip(u, v))
    assert packing.products(packed[0], packed) == [sum(x * y for x, y in zip(u, w)) % p for w in vs]
    if n % 2 == 0:
        assert packing.unpack(packing.twist(packed[0])) == symplectic_twist(u, p)


@st.composite
def sub_operands(draw):
    p = draw(st.sampled_from([2, 3, 5, 17, 251]))
    n = draw(st.integers(0, 12))
    return p, draw(vectors_of(p, n)), draw(vectors_of(p, n)), draw(st.lists(vectors_of(p, n), max_size=2))


@given(sub_operands())
def test_packed_sub_matches_formula_for_every_scalar(case):
    # the syndromes under the checks are compared too: sub runs on checked rows
    p, u, v, checks = case
    packing = Packing(p, len(u), Packing.plain(p, len(u)).rows(checks))
    a, b = packing.rows([u, v])
    for c in range(p):
        want = tuple((x - c * y) % p for x, y in zip(u, v))
        assert packing.sub(a, c, b) == packing.rows([want])[0], c


@pytest.mark.parametrize("p", [2, 3, 5, 17, 251])
def test_packed_sub_by_one_is_one_add(p):
    packing = Packing(p, 4)
    u, v = (1, 0, p - 1, 2 % p), (p - 1, 1, p - 1, 0)
    a, b = packing.rows([u, v])
    with mock.patch.object(packing, "times", wraps=packing.times) as times, \
            mock.patch.object(packing, "neg", wraps=packing.neg) as neg:
        got = packing.sub(a, 1, b)
    times.assert_not_called()
    neg.assert_not_called()
    assert packing.unpack(got) == tuple((x - y) % p for x, y in zip(u, v))


@pytest.mark.parametrize("p", PRIMES)
def test_draw_matches_one_randrange_per_value_for_every_prime(p):
    for seed, count in ((p, 0), (p, 1), (p + 1, 37), (p + 2, 300)):
        rng, oracle = random.Random(seed), random.Random(seed)
        assert list(fields.draw(rng, p, count)) == [oracle.randrange(p) for _ in range(count)]
        assert rng.getstate() == oracle.getstate()


@given(st.sampled_from(PRIMES), st.lists(st.integers(0, 40), max_size=4), st.integers(0, 2**64))
def test_draw_matches_one_randrange_per_value_property(p, counts, seed):
    # several batches in a row leave the generator where per-value draws leave it
    rng, oracle = random.Random(seed), random.Random(seed)
    for count in counts:
        assert list(fields.draw(rng, p, count)) == [oracle.randrange(p) for _ in range(count)]
    assert rng.getstate() == oracle.getstate()


def test_packed_draw_is_rows_of_values():
    packing = Packing(3, 4)
    rng, oracle = random.Random(9), random.Random(9)
    values = [oracle.randrange(3) for _ in range(12)]
    assert [packing.unpack(x) for x in packing.draw_rows(rng, 3)] == [tuple(values[i:i + 4]) for i in (0, 4, 8)]
    assert rng.getstate() == oracle.getstate()


# ---------------------------------------------------------------------------
# canonical RREF form
# ---------------------------------------------------------------------------

def tuple_rref(rows, p, n):
    """The column-sweep elimination on lists of residues that the packed
    _rref replaced: (nonzero RREF rows, pivot columns)."""
    mat = [list(row) for row in rows]
    pivots, r = [], 0
    for col in range(n):
        if r == len(mat):
            break
        pr = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(inv * x) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(x - c * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


@st.composite
def elimination_rows(draw):
    """Rows for an elimination: random ones, combinations of them and zero
    rows, shuffled, over small and large primes, n = 0 included."""
    p = draw(st.sampled_from([2, 3, 5, 7, 41, 251]))
    n = draw(st.integers(0, 9))
    drawn = draw(st.lists(vectors_of(p, n), max_size=6))
    rows = list(drawn)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(drawn), max_size=len(drawn)))
        rows.append(combine(coeffs, drawn, p, n))
    rows += [(0,) * n] * draw(st.integers(0, 2))
    return p, n, draw(st.permutations(rows))


@given(elimination_rows())
def test_packed_rref_matches_tuple_oracle(case):
    p, n, rows = case
    packing = Packing(p, n)
    pivots, packed, (_, table) = fields._rref(packing, packing.rows(rows))
    basis = tuple(map(packing.unpack, packed))
    assert (basis, pivots) == tuple_rref(rows, p, n)
    # the packed rows repack exactly: no bit outside the vector's fields, none in a slot's high byte
    assert list(packed) == packing.rows(tuple_rref(rows, p, n)[0])
    assert table == dict(zip(pivots, packed))
    space = Subspace(GF(p), n, rows)
    assert (space.basis, space.pivot_cols, space.packed) == (basis, pivots, packed)


@given(elimination_rows())
def test_basis_is_unpacked_from_the_packed_rows_on_first_read(case):
    p, n, rows = case
    space = Subspace(GF(p), n, rows)
    assert space._basis is None and space.dim == len(space.packed)
    assert space.basis == tuple(map(space.packing.unpack, space.packed))
    assert space.basis is space.basis


@st.composite
def parity_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 41, 251]))
    n = draw(st.integers(0, 9))
    return p, n, draw(st.lists(vectors_of(p, n), max_size=n + 1))


@given(parity_case())
def test_packed_parity_rows_match_the_tuple_dual_rows(case):
    p, n, rows = case
    field = GF(p)
    for space in (Subspace(field, n, rows), zero_space(field, n), full_space(field, n)):
        expected = dual_rows(space.basis, space.pivot_cols, p, n)
        assert space.parity_rows == tuple(space.packing.rows(expected))


@st.composite
def long_row_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 41, 131, 251]))
    n = draw(st.integers(0, 40))
    return p, n, draw(st.lists(vectors_of(p, n), max_size=3)), draw(st.lists(vectors_of(p, n), max_size=40))


@given(long_row_case())
def test_rows_pack_with_checks_for_each_field_width(case):
    # widths 1, 3, 4, 8 and 16: binary, octal and hex digits, bytes and byte pairs
    p, n, checks, rows = case
    packing = Packing(p, n, Packing(p, n).rows(checks))
    syndromes = [[sum(a * b for a, b in zip(row, check)) % p for check in checks] for row in rows]
    expected = [sum(x << (packing.width * j) for j, x in enumerate([*row, *s])) for row, s in zip(rows, syndromes)]
    assert packing.rows(rows) == expected
    assert packing.rows(list(map(bytes, rows))) == expected
    assert [packing.unpack(x) for x in expected] == [tuple(row) for row in rows]


@pytest.mark.parametrize("p, width", [(2, 1), (3, 3), (5, 4), (7, 4), (11, 8), (127, 8), (131, 16), (251, 16)])
def test_field_width_is_a_digit_or_bytes_with_a_spare_top_bit(p, width):
    # an odd p's SWAR add needs 2^(width-1) >= p
    assert Packing(p, 3).width == width


def test_packed_rows_round_trip_at_large_n():
    # the digit and byte conversions at thousands of fields, for each width
    rng = random.Random(5)
    for p, n in ((2, 3001), (3, 2100), (41, 1700), (131, 1500), (251, 2100)):
        packing = Packing(p, n)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(3)]
        packed = packing.rows(rows)
        assert packed == [sum(x << (packing.width * j) for j, x in enumerate(row)) for row in rows]
        assert [packing.unpack(x) for x in packed] == [tuple(row) for row in rows]


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
        with pytest.raises(InputShapeError, match=r"^entries must be integer residues in \[0, 2\)$"):
            make(F2, 3, [[True, False, True]])  # bool is no residue
        with pytest.raises(InputShapeError):
            make(F3, -1, [])  # negative ambient dimension
        with pytest.raises(InputShapeError, match=r"^ambient dimension must be an integer >= 0, got 3.0$"):
            make(F2, 3.0, [])
        with pytest.raises(InputShapeError, match=r"^ambient dimension must be an integer >= 0, got True$"):
            make(F2, True, [[1]])  # bool is no size


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


def symplectic_twist(v, p):
    """(-b|a) mod p for v = (a|b), by tuple arithmetic: the symplectic form
    <(a|b), (c|d)> = a.d - b.c is the standard product of the twist of
    (a|b) with (c|d)."""
    n = len(v) // 2
    return tuple([(-x) % p for x in v[n:]] + list(v[:n]))


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
    packing = Packing(q, 2 * n)
    assert packing.products(packing.twist(packing.rows([v])[0]), packing.rows(rows)) == expected


def test_symplectic_dual_needs_even_ambient():
    with pytest.raises(InputShapeError):
        Subspace.span(F2, 3, [[1, 0, 0]]).symplectic_dual()


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

@st.composite
def space_pairs(draw):
    """(A, B) with B spanned by combinations of A's rows and, sometimes, one
    more row, so that B <= A often holds and often fails."""
    p = draw(st.sampled_from([2, 3, 5, 7, 41, 251]))
    n = draw(st.integers(0, 8))
    a_rows = draw(st.lists(vectors_of(p, n), max_size=4))
    b_rows = [combine(draw(st.lists(st.integers(0, p - 1), min_size=len(a_rows), max_size=len(a_rows))), a_rows, p, n)
              for _ in range(draw(st.integers(0, 3)))]
    b_rows += draw(st.lists(vectors_of(p, n), max_size=1))
    return Subspace(GF(p), n, a_rows), Subspace(GF(p), n, b_rows)


def tuple_reduce(space, v):
    """v minus v[j] times the RREF row with pivot j, for each pivot j, by tuple arithmetic."""
    p = space.field.p
    return combine([1] + [-v[j] % p for j in space.pivot_cols], [v, *space.basis], p, space.ambient_dim)


@given(space_pairs())
def test_packed_reduce_and_contains_space_match_tuple_reduce(case):
    a, b = case
    residuals = [tuple_reduce(a, row) for row in b.basis]
    assert [a.reduce(row) for row in b.basis] == residuals
    assert a.contains_space(b) == all(not any(r) for r in residuals)


def test_reduce_rejects_entries_outside_the_field():
    s = Subspace.span(F3, 3, [[1, 2, 0]])
    for v in ([0, 3, 0], [-1, 0, 0], [1.0, 0, 0], ["a", 0, 0], [True, 2, 0]):
        with pytest.raises(InputShapeError, match=r"^entries must be integer residues in \[0, 3\)$"):
            s.contains(v)


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
