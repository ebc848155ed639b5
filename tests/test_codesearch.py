import json
import math
import random
import re
from fractions import Fraction
from itertools import accumulate, chain, combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqgv import fields
from aqgv.bounds import CssBoundQuery, ball_sum, css_gv_lhs, gaussian_binomial, stab_lhs_ints
from aqgv.codesearch import (
    COSET_GUARD,
    PAIR_GUARD,
    PROFILE_GUARD,
    DistancePair,
    EnumerationReport,
    IsotropicCode,
    NestedPair,
    css_distances,
    derive_trial_seed,
    enumerate_nested_pairs,
    gv_witness_search,
    iter_subspaces,
    load_code_file,
    random_isotropic_code,
    random_nested_pair,
    stab_detects_profile,
    stab_profile_matrix,
    write_code_file,
    _capped_ball,
    _capped_pow,
    _check_draw_size,
    _coefficient_indices,
)
from aqgv.errors import (
    EnumerationSizeError,
    InputShapeError,
    ParameterRangeError,
    UnsupportedFieldError,
)
from aqgv.fields import GF, SPAN_CHUNK, Packing, Subspace, combine, dual_rows, weight
from conftest import full_space, members, zero_space

F2 = GF(2)
F3 = GF(3)
# Walk list sizes for the property tests: small ones make the walks span
# many lists, as large codes do at the real SPAN_CHUNK.
CHUNKS = st.sampled_from([1, 4, 27, SPAN_CHUNK])


# ---------------------------------------------------------------------------
# canonical subspace enumeration
# ---------------------------------------------------------------------------

def test_iter_subspaces_counts_match_gaussian_binomial():
    for q in (2, 3):
        field = GF(q)
        for n in range(5):
            for k in range(n + 1):
                spaces = list(iter_subspaces(field, n, k))
                assert len(spaces) == gaussian_binomial(n, k, q)
                assert len(set(spaces)) == len(spaces)
                assert all(s.dim == k for s in spaces)


def test_iter_subspaces_checks_its_range_at_the_call():
    with pytest.raises(ParameterRangeError, match="^need 0 <= dim <= ambient, got dim=4, ambient=3$"):
        iter_subspaces(F2, 3, 4)   # not iterated


# ---------------------------------------------------------------------------
# pair enumeration and the counting identities
# ---------------------------------------------------------------------------

def test_enumeration_2_3_2_1():
    report = enumerate_nested_pairs(3, 2, 2, 1)
    assert report.total_pairs == 21
    assert len(report.per_error_x) == 7
    assert set(report.per_error_x.values()) == {6}
    assert set(report.per_error_z.values()) == {6}
    assert report.identities_hold
    assert report.expected_counts() == (6, 6)


def test_enumeration_lines_of_plane():
    report = enumerate_nested_pairs(2, 2, 1, 0)
    assert report.total_pairs == 3


def test_enumeration_equal_dims_has_no_bit_errors():
    report = enumerate_nested_pairs(2, 2, 1, 1)
    assert report.total_pairs == 3
    assert set(report.per_error_x.values()) == {0}
    assert report.identities_hold  # expected x count is 0


@pytest.mark.parametrize("q,n,k1,k2", [(2, 4, 2, 1), (2, 4, 3, 1), (3, 3, 2, 1)])
def test_enumeration_identities_exact(q, n, k1, k2):
    report = enumerate_nested_pairs(n, q, k1, k2)
    assert report.total_pairs == gaussian_binomial(n, k1, q) * gaussian_binomial(k1, k2, q)
    x, z = report.expected_counts()
    assert set(report.per_error_x.values()) == {x}  # constant over all errors
    assert set(report.per_error_z.values()) == {z}
    denom = q**n - 1
    assert Fraction((q**k1 - q**k2) * report.total_pairs, denom) == x
    assert Fraction((q ** (n - k2) - q ** (n - k1)) * report.total_pairs, denom) == z


def expected_counts_oracle(q, n, k1, k2, total):
    """expected_counts written out directly: total times the fraction of
    pairs that miss one fixed error, or (-1, -1) if either is not whole."""
    denom = q**n - 1
    x, x_rem = divmod((q**k1 - q**k2) * total, denom)
    z, z_rem = divmod((q ** (n - k2) - q ** (n - k1)) * total, denom)
    return (-1, -1) if x_rem or z_rem else (x, z)


@settings(max_examples=100)
@given(q=st.sampled_from((2, 3, 4, 5, 7, 8, 9)), n=st.integers(1, 25), scale=st.integers(1, 2**64))
def test_expected_counts_match_direct_formula(q, n, scale):
    inexact = 0
    for k1 in range(n + 1):
        for k2 in range(k1 + 1):
            pairs = gaussian_binomial(n, k1, q) * gaussian_binomial(k1, k2, q)
            # the true pair count and its multiples divide exactly; pairs + 1
            # does not once n > 1 and k1 > k2
            for total in (pairs, scale * pairs, pairs + 1, scale):
                got = EnumerationReport(q, n, k1, k2, total, {}, {}).expected_counts()
                assert got == expected_counts_oracle(q, n, k1, k2, total), (q, n, k1, k2, total)
                inexact += got == (-1, -1)
            assert EnumerationReport(q, n, k1, k2, pairs, {}, {}).expected_counts() != (-1, -1)
    assert inexact or n == 1


def pivot_extension(big, small):
    """big's rows at the pivots small lacks: for small <= big they extend
    small's rows to a basis of big (the rows have distinct leading columns)."""
    return [row for row, j in zip(big.basis, big.pivot_cols) if j not in small.pivot_cols]


def per_pair_subspace_oracle(n, q, k1, k2):
    """(total pairs, per-error bit tally, per-error phase tally), the slow
    way: every C2 is spanned and reduced, and its dual taken, pair by pair;
    both difference sets are walked from pivot rows, small's rows varying
    fastest so that skipping its span leaves the difference."""
    field = GF(q)
    packing = Packing(q, n)
    units = [1 << (packing.width * j) for j in range(n)]
    per_x = dict.fromkeys(packing.span(units)[1:], 0)
    per_z = dict.fromkeys(per_x, 0)
    total = 0
    for c1 in iter_subspaces(field, n, k1):
        c1_dual = c1.dual()
        for coeff_space in iter_subspaces(field, k1, k2):
            c2 = Subspace.span(field, n, [combine(row, c1.basis, q, n) for row in coeff_space.basis])
            total += 1
            for tally, big, small in ((per_x, c1, c2), (per_z, c2.dual(), c1_dual)):
                rows = packing.rows([*small.basis, *pivot_extension(big, small)])
                for e in packing.span(rows)[q ** small.dim:]:
                    tally[e] += 1
    unpack = packing.unpack
    return (total, {unpack(e): c for e, c in per_x.items()}, {unpack(e): c for e, c in per_z.items()})


@st.composite
def lemma_dims(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    k1 = draw(st.integers(0, n))
    return q, n, k1, draw(st.integers(0, k1))


@settings(max_examples=60)
@given(lemma_dims())
def test_enumeration_matches_per_pair_subspace_oracle(dims):
    q, n, k1, k2 = dims
    report = enumerate_nested_pairs(n, q, k1, k2)
    total, per_x, per_z = per_pair_subspace_oracle(n, q, k1, k2)
    assert report.total_pairs == total
    assert report.per_error_x == per_x
    assert report.per_error_z == per_z


@pytest.mark.parametrize("q,n,k1,k2,seed", [
    (2, 6, 3, 1, 1), (2, 5, 4, 2, 2), (3, 4, 2, 1, 3), (3, 5, 3, 0, 4), (5, 3, 2, 1, 5), (2, 4, 4, 1, 6),
])
def test_pair_difference_sets_from_c1_spans_and_coefficient_indices(q, n, k1, k2, seed):
    # C1 \ C2 = {y.G1 : y outside A}, and C2-dual = C1-dual (+) L(A-dual) with
    # the cosets disjoint, against Subspace.dual() of a random pair
    pair = random_nested_pair(n, q, k1, k2, seed)
    c1, c2 = pair.c1, pair.c2
    # C1 is RREF, so a codeword's coordinates in C1's basis are its pivot entries
    a = Subspace(GF(q), k1, [[row[j] for j in c1.pivot_cols] for row in c2.basis])
    outside, a_dual_nonzero = _coefficient_indices(q, k1, a.pivot_cols, [list(row) for row in a.basis])
    packing = Packing(q, n)
    span1 = packing.span(packing.rows(c1.basis))
    c1_dual = packing.span(packing.rows(dual_rows(c1.basis, c1.pivot_cols, q, n)))
    lift = packing.span([1 << packing.width * j for j in c1.pivot_cols])
    assert sorted(packing.unpack(span1[i]) for i in outside) == sorted(set(members(c1)) - set(members(c2)))
    assert {packing.unpack(x) for x in c1_dual} == set(members(c1.dual()))
    cosets = [packing.unpack(x) for y in a_dual_nonzero for x in packing.shifted(lift[y], c1_dual)]
    assert sorted(cosets) == sorted(set(members(c2.dual())) - set(members(c1.dual())))


@pytest.mark.parametrize("q,n,k,spaces,undetected", [(2, 3, 1, 315, 60), (3, 2, 1, 40, 12)])
def test_stabilizer_identities_exact(q, n, k, spaces, undetected):
    # The stabilizer counting identity, by enumeration: over all [[n, k]]_q
    # stabilizer spaces S (the symplectic self-orthogonal (n-k)-subspaces of
    # GF(q)^{2n}), every nonzero error lies in S-dual \ S equally often.
    m = n - k
    universe = list(iter_subspaces(GF(q), 2 * n, m))
    isotropic = [c for c in universe if c.symplectic_dual().contains_space(c)]
    for c in universe:  # IsotropicCode's own check agrees with the dual
        if c in isotropic:
            IsotropicCode(c=c)
        else:
            with pytest.raises(InputShapeError):
                IsotropicCode(c=c)
    total = len(isotropic)
    assert total == spaces == math.prod(
        Fraction(q ** (2 * (n - i)) - 1, q ** (i + 1) - 1) for i in range(m)
    )
    tally = dict.fromkeys(product(range(q), repeat=2 * n), 0)
    del tally[(0,) * (2 * n)]
    for c in isotropic:
        for e in set(members(c.symplectic_dual())) - set(members(c)):
            tally[e] += 1
    per_error = Fraction(total * (q ** (n + k) - q ** (n - k)), q ** (2 * n) - 1)
    assert set(tally.values()) == {per_error} == {undetected}
    # the stabilizer bound's formula: the share of spaces that miss one error, times all spaces
    assert Fraction(*stab_lhs_ints(q, n, k, total)) == per_error


def test_enumeration_guards():
    pairs = gaussian_binomial(30, 15, 2) * gaussian_binomial(15, 5, 2)
    with pytest.raises(EnumerationSizeError, match=f"^{pairs} pairs exceeds the guard of {PAIR_GUARD}$"):
        enumerate_nested_pairs(30, 2, 15, 5)
    # pairs and error vectors each pass their guard, but the walks do not
    walked = (3**12 - 1) // 2 * (3 + 3**12)
    with pytest.raises(EnumerationSizeError,
                       match=f"^{walked} walked vectors exceeds the guard of {COSET_GUARD}$"):
        enumerate_nested_pairs(12, 3, 1, 0)
    with pytest.raises(UnsupportedFieldError):
        enumerate_nested_pairs(3, 4, 2, 1)
    with pytest.raises(ParameterRangeError):
        enumerate_nested_pairs(3, 2, 1, 2)


@given(st.sampled_from([2, 3, 5]), st.integers(0, 40), st.data(), st.integers(1, 16))
def test_guarded_costs_are_exact_below_their_cap(q, n, data, digits):
    k = data.draw(st.integers(0, n))
    with mock.patch("sys.get_int_max_str_digits", return_value=digits):
        capped = (_capped_pow(q, n), _capped_ball(n, q, k))
    for value, exact in zip(capped, (q**n, ball_sum(n, q, k))):
        assert value == exact if exact < 2 ** (4 * digits) else value >= 2 ** (4 * digits)


def test_guard_message_shows_a_cost_in_full_up_to_the_digit_limit():
    updates = 1 + 2**27   # nine digits, over COSET_GUARD
    for digits, shown in ((9, str(updates)), (8, "10^8 or more")):
        with mock.patch("sys.get_int_max_str_digits", return_value=digits), \
                pytest.raises(EnumerationSizeError, match=f"^{re.escape(shown)} row-entry updates exceeds"):
            _check_draw_size(updates)


def test_guards_decide_huge_costs_without_building_them():
    # each cost below has millions of digits; the message gives its size only
    with pytest.raises(EnumerationSizeError, match=r"^10\^\d+ or more pairs exceeds"):
        enumerate_nested_pairs(10**8, 2, 1, 0)
    with pytest.raises(EnumerationSizeError, match=r"^10\^\d+ or more error vectors exceed the tally"):
        enumerate_nested_pairs(10**8, 3, 10**8, 10**8)
    # S's 2 * 10^8 parity-check rows of 2 * 10^8 entries each, refused before S-dual is built
    with pytest.raises(EnumerationSizeError, match=f"^{4 * 10**16} parity-check entries exceeds the guard of {PROFILE_GUARD}$"), \
            mock.patch("aqgv.codesearch.dual_rows", side_effect=AssertionError("built a row")), \
            mock.patch.object(Subspace, "symplectic_dual", side_effect=AssertionError("built S-dual")):
        stab_profile_matrix(IsotropicCode(c=zero_space(F3, 2 * 10**8)))
    with pytest.raises(EnumerationSizeError, match=r"^10\^\d+ or more phase errors exceeds"):
        stab_detects_profile(IsotropicCode(c=zero_space(F3, 2 * 10**8)), 10**8, 10**8)
    # C2's 10^8 parity-check rows of 10^8 entries each are refused before one is built
    with pytest.raises(EnumerationSizeError, match=f"^{10**16} parity-check entries exceeds the guard of {PROFILE_GUARD}$"), \
            mock.patch("aqgv.codesearch.dual_rows", side_effect=AssertionError("built a row")):
        css_distances(NestedPair(c1=zero_space(F3, 10**8), c2=zero_space(F3, 10**8)))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_steane_ingredient_distances(steane_pair):
    assert css_distances(steane_pair) == DistancePair(dx=3, dz=3)


def test_distances_repetition_example():
    pair = NestedPair(
        c1=Subspace.span(F2, 3, [[1, 1, 1]]),
        c2=zero_space(F2, 3),
    )
    assert css_distances(pair) == DistancePair(dx=3, dz=1)


def test_distances_equal_pair_unbounded():
    c = Subspace.span(F2, 4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    pair = NestedPair(c1=c, c2=c)
    dist = css_distances(pair)
    assert dist == DistancePair(dx=None, dz=None)
    assert dist.meets(5, 5)


def distance_oracle(pair):
    """Definition-level oracle: filter the whole ambient space."""
    q, n = pair.q, pair.n
    everything = list(product(range(q), repeat=n))
    c1d, c2d = pair.c1.dual(), pair.c2.dual()
    dx = [weight(v) for v in everything if pair.c1.contains(v) and not pair.c2.contains(v)]
    dz = [weight(v) for v in everything if c2d.contains(v) and not c1d.contains(v)]
    return DistancePair(dx=min(dx) if dx else None, dz=min(dz) if dz else None)


def test_distances_match_oracle_on_random_pairs():
    rng = random.Random(1234)
    for q in (2, 3):
        for n in (3, 4, 5, 6):
            for _ in range(8):
                k1 = rng.randrange(n + 1)
                k2 = rng.randrange(k1 + 1)
                pair = random_nested_pair(n, q, k1, k2, rng.randrange(2**32))
                assert css_distances(pair) == distance_oracle(pair)


@st.composite
def css_shape(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 8, 3: 5, 5: 3}[q]))
    k1 = draw(st.integers(0, n))
    k2 = draw(st.integers(0, k1))
    return n, q, k1, k2, draw(st.integers(0, 2**32))


@given(css_shape(), CHUNKS)
def test_distances_match_oracle_property(shape, chunk):
    pair = random_nested_pair(*shape)
    with mock.patch.object(fields, "SPAN_CHUNK", chunk):
        assert css_distances(pair) == distance_oracle(pair)


@given(css_shape())
def test_walk_rows_come_from_parity_checks_property(shape):
    # The lemma's lift L(y) over A-dual's parity-check rows is exactly C2's
    # parity-check rows at N (C1's pivots that C2 lacks); C1's parity-check
    # rows extended by those span C2-dual, and C2's rows extended by C1's
    # rows at N span C1: the rows css_distances walks.
    n, q, k1, k2, _ = shape
    pair = random_nested_pair(*shape)
    c1, c2, field = pair.c1, pair.c2, GF(q)
    a = Subspace(field, k1, [[row[j] for j in c1.pivot_cols] for row in c2.basis])
    lifted = []
    for y in dual_rows(a.basis, a.pivot_cols, q, k1):
        x = [0] * n
        for j, v in zip(c1.pivot_cols, y):
            x[j] = v
        lifted.append(x)
    free2 = [f for f in range(n) if f not in c2.pivot_cols]
    at_n = [row for row, f in zip(dual_rows(c2.basis, c2.pivot_cols, q, n), free2) if f in c1.pivot_cols]
    assert lifted == at_n
    z_rows = dual_rows(c1.basis, c1.pivot_cols, q, n) + at_n
    assert len(z_rows) == n - k2 and Subspace.span(field, n, z_rows) == c2.dual()
    x_rows = list(c2.basis) + pivot_extension(c1, c2)
    assert len(x_rows) == k1 and Subspace.span(field, n, x_rows) == c1


@pytest.mark.parametrize("q,n,k1,k2,seed", [(2, 8, 5, 2, 1), (3, 5, 3, 1, 2), (5, 3, 2, 1, 3), (2, 6, 6, 0, 4)])
def test_distances_run_no_elimination(q, n, k1, k2, seed):
    # the pair is built (and its oracle run) first; the walk itself needs no RREF
    pair = random_nested_pair(n, q, k1, k2, seed)
    expected = distance_oracle(pair)
    with mock.patch.object(fields, "_rref", side_effect=AssertionError("css_distances ran an elimination")):
        assert css_distances(pair) == expected


def test_distances_walk_does_not_stop_before_the_minimum():
    # The walk visits (1,1,0) before (0,0,1); split into one-vector lists,
    # the early exit must still wait for weight 1.
    pair = NestedPair(c1=Subspace.span(F2, 3, [[1, 1, 0], [0, 0, 1]]), c2=zero_space(F2, 3))
    for chunk in (1, SPAN_CHUNK):
        with mock.patch.object(fields, "SPAN_CHUNK", chunk):
            assert css_distances(pair) == DistancePair(dx=1, dz=1)


def test_distances_when_small_space_exceeds_one_chunk():
    # C2 (even weight, 2^17 words) is larger than one materialized list.
    n = 18
    even = Subspace.span(F2, n, [[1] + [int(i == j) for i in range(1, n)] for j in range(1, n)])
    pair = NestedPair(c1=full_space(F2, n), c2=even)
    assert css_distances(pair) == DistancePair(dx=1, dz=n)
    packing = Packing(2, n)
    rows = packing.rows([*pair.c2.basis, *pivot_extension(pair.c1, pair.c2)])
    odd = packing.span(rows)[2 ** pair.c2.dim:]
    assert len(odd) == len(set(odd)) == 2 ** (n - 1)
    assert all(v.bit_count() % 2 for v in odd)


def test_distances_guard():
    # full/zero needs level 1 only: 2^30 codewords, but a walk of 60 vectors
    assert css_distances(NestedPair(c1=full_space(F2, 30), c2=zero_space(F2, 30))) == DistancePair(dx=1, dz=1)
    # a [60, 30] code certifies its dx only past level 4, 31,930 vectors in
    pair = random_nested_pair(60, 2, 30, 0, 1)
    with mock.patch("aqgv.codesearch.COSET_GUARD", 10**4), \
            pytest.raises(EnumerationSizeError, match="walked vectors exceeds the guard of 10000$"):
        css_distances(pair)


def test_distance_walk_stops_at_the_first_list_past_its_guard():
    pair = random_nested_pair(60, 2, 30, 0, 1)
    levels, lengths = Packing.levels, []

    def record(chunk):
        lengths.append(len(chunk))
        return chunk

    def recorded_levels(self, rows):
        return (map(record, level) for level in levels(self, rows))

    with mock.patch.object(fields, "SPAN_CHUNK", 27), \
            mock.patch.object(Packing, "levels", recorded_levels), \
            mock.patch("aqgv.codesearch.COSET_GUARD", 1000), \
            pytest.raises(EnumerationSizeError) as refused:
        css_distances(pair)
    walked = sum(lengths)
    assert sum(lengths[:-1]) <= 1000 < walked
    assert str(refused.value) == f"{walked} walked vectors exceeds the guard of 1000"


def _min_weight(packing, small, extension):
    """Least weight over span(small + extension) \\ span(small), by the coset
    walk: small's rows vary fastest, so its span comes first."""
    coset = packing.span(packing.rows([*small, *extension]))[packing.p ** len(small):]
    return min(map(int.bit_count, packing.supports(coset)), default=None)


def walk_oracle(pair):
    """Both distances by walking every vector of C1 \\ C2 and C2-dual \\ C1-dual."""
    packing = Packing(pair.q, pair.n)
    c1_dual, c2_dual = pair.c1.dual(), pair.c2.dual()
    return DistancePair(dx=_min_weight(packing, pair.c2.basis, pivot_extension(pair.c1, pair.c2)),
                        dz=_min_weight(packing, c1_dual.basis, pivot_extension(c2_dual, c1_dual)))


@st.composite
def walk_shape(draw):
    # lengths past css_shape's, which distance_oracle filters whole spaces for
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(*{2: (9, 16), 3: (6, 10), 5: (4, 7)}[q]))
    k1 = draw(st.integers(0, n))
    k2 = draw(st.integers(0, k1))
    return n, q, k1, k2, draw(st.integers(0, 2**32))


@settings(max_examples=150)
@given(walk_shape(), CHUNKS)
def test_distances_match_walk_oracle_property(shape, chunk):
    pair = random_nested_pair(*shape)
    expected = walk_oracle(pair)
    with mock.patch.object(fields, "SPAN_CHUNK", chunk):
        assert css_distances(pair) == expected


@settings(max_examples=60)
@given(walk_shape())
def test_distance_guard_never_refuses_within_the_old_prediction(shape):
    # each walk builds at most its difference set, so every pair the old
    # guard on q^k1 + q^(n-k2) codewords let through still gets its distances
    n, q, k1, k2, _ = shape
    pair = random_nested_pair(*shape)
    with mock.patch("aqgv.codesearch.COSET_GUARD", q**k1 + q ** (n - k2)):
        assert css_distances(pair) == walk_oracle(pair)


@pytest.mark.parametrize("q,n,k1,k2,seed", [(2, 12, 7, 3, 1), (3, 8, 5, 2, 2), (5, 5, 3, 1, 3), (2, 6, 6, 0, 4)])
def test_css_distances_run_no_coset_walk(q, n, k1, k2, seed):
    pair = random_nested_pair(n, q, k1, k2, seed)
    expected = walk_oracle(pair)
    with mock.patch.object(fields.Packing, "span", side_effect=AssertionError("css_distances walked a coset")):
        assert css_distances(pair) == expected


def test_css_distances_stop_at_the_information_set_bound():
    # At the witness workload's median set the walk visits q^k1 + q^(n-k2)
    # minus q^k2 + q^(n-k1) vectors, over 6,500; rising weight stops at the
    # distances, within a tenth of q^k1.
    pair = random_nested_pair(12, 3, 8, 7, derive_trial_seed(1, 1))
    expected = walk_oracle(pair)
    shifted, built = Packing.shifted, []

    def counted(self, r, vs):
        out = shifted(self, r, vs)
        built.append(len(out))
        return out

    with mock.patch.object(Packing, "shifted", counted):
        assert css_distances(pair) == expected
    assert sum(built) <= 3**8 // 10


@pytest.mark.parametrize("c1_rows,c2_rows,expected", [
    # dx: C1's rows weigh 3; only their sum, at level 2, weighs 2
    ([[1, 0, 1, 1], [0, 1, 1, 1]], [], DistancePair(dx=2, dz=1)),
    # dz: C2-dual's systematic rows 1110 and 1101 weigh 3; their sum weighs 2
    ([[int(i == j) for j in range(4)] for i in range(4)], [[1, 0, 1, 1], [0, 1, 1, 1]], DistancePair(dx=1, dz=2)),
])
def test_distances_stop_rule_waits_for_its_bound(c1_rows, c2_rows, expected):
    pair = NestedPair(c1=Subspace(F2, 4, c1_rows), c2=Subspace(F2, 4, c2_rows))
    assert css_distances(pair) == expected == distance_oracle(pair)


@pytest.mark.parametrize("q,n,k1,k2,seed", [(2, 20, 12, 2, 1), (3, 10, 5, 1, 1)])
def test_distances_hold_no_list_beyond_the_chunk_bound(q, n, k1, k2, seed):
    # every list of packed vectors css_distances builds is an input or output of
    # Packing.shifted, or a list Packing.levels hands out
    pair = random_nested_pair(n, q, k1, k2, seed)
    expected = walk_oracle(pair)
    shifted, levels, lengths = Packing.shifted, Packing.levels, []

    def recorded_shifted(self, r, vs):
        out = shifted(self, r, vs)
        lengths.extend((len(vs), len(out)))
        return out

    def record(chunk):
        lengths.append(len(chunk))
        return chunk

    def recorded_levels(self, rows):
        return (map(record, level) for level in levels(self, rows))

    with mock.patch.object(fields, "SPAN_CHUNK", 27), \
            mock.patch.object(Packing, "shifted", recorded_shifted), \
            mock.patch.object(Packing, "levels", recorded_levels):
        assert css_distances(pair) == expected
    assert max(lengths) <= max(27, q - 1)


def test_nested_pair_rejects_non_nested():
    with pytest.raises(InputShapeError):
        NestedPair(
            c1=Subspace.span(F2, 3, [[1, 1, 0]]),
            c2=Subspace.span(F2, 3, [[1, 0, 1]]),
        )
    for c2 in (zero_space(F3, 3), zero_space(F2, 4)):
        with pytest.raises(InputShapeError, match="^C1 and C2 must share field and length$"):
            NestedPair(c1=full_space(F2, 3), c2=c2)


# ---------------------------------------------------------------------------
# stabilizer detectability
# ---------------------------------------------------------------------------

def test_five_qubit_is_isotropic(five_qubit):
    assert five_qubit.c.dim == 4
    assert five_qubit.n == 5 and five_qubit.k == 1
    assert five_qubit.c.symplectic_dual().contains_space(five_qubit.c)


# The per-pattern oracle: every (ex|ez) of the two weight balls, one
# membership test each, against the syndrome join of stab_detects_profile.

def iter_weight_at_most(n, q, t):
    """Nonzero vectors of GF(q)^n with weight <= t."""
    for w in range(1, t + 1):
        for positions in combinations(range(n), w):
            for values in product(range(1, q), repeat=w):
                v = [0] * n
                for pos, val in zip(positions, values):
                    v[pos] = val
                yield tuple(v)


def stab_is_detectable(code, dual, e):
    """A nonzero error (ex|ez) is undetectable iff it lies in the
    symplectic dual but outside the stabilizer space itself."""
    return not (dual.contains(e) and not code.c.contains(e))


def ball_profile_oracle(code, dx, dz):
    zero = (0,) * code.n
    dual = code.c.symplectic_dual()
    xs = [zero, *iter_weight_at_most(code.n, code.q, dx - 1)]
    zs = [zero, *iter_weight_at_most(code.n, code.q, dz - 1)]
    return all(
        stab_is_detectable(code, dual, ex + ez) for ex in xs for ez in zs if ex != zero or ez != zero
    )


def test_stabilizer_elements_are_detectable(five_qubit):
    dual = five_qubit.c.symplectic_dual()
    for row in five_qubit.c.basis:
        assert stab_is_detectable(five_qubit, dual, row)


def test_five_qubit_logical_all_x_undetectable(five_qubit):
    assert not stab_is_detectable(five_qubit, five_qubit.c.symplectic_dual(), (1, 1, 1, 1, 1, 0, 0, 0, 0, 0))


def test_five_qubit_single_bit_error_detectable(five_qubit):
    assert stab_is_detectable(five_qubit, five_qubit.c.symplectic_dual(), (1, 0, 0, 0, 0, 0, 0, 0, 0, 0))


def test_five_qubit_profiles(five_qubit):
    assert stab_detects_profile(five_qubit, 5, 1)
    assert stab_detects_profile(five_qubit, 1, 5)
    assert not stab_detects_profile(five_qubit, 6, 1)
    # evaluated and recorded for reference; the combined claim is not made
    print("five-qubit profile(4,4) =", stab_detects_profile(five_qubit, 4, 4))


def test_profile_guard_and_ranges(five_qubit):
    with pytest.raises(ParameterRangeError):
        stab_detects_profile(five_qubit, 7, 1)
    big = IsotropicCode(c=zero_space(F2, 60))
    with pytest.raises(EnumerationSizeError, match=f"^{2**30} phase errors exceeds the guard of {PROFILE_GUARD}$"):
        stab_detects_profile(big, 31, 31)
    # S = every Z error (k = 0): no pattern fails, each phase error collides
    # with ex = 0, and each bit error with ez = 0 only
    all_z = IsotropicCode(c=Subspace(F2, 16, [[0] * 8 + [int(i == j) for i in range(8)] for j in range(8)]))
    for dx, dz, walked in ((1, 9, 1 + 2**8), (4, 1, 1 + 1 + 8 + 28 + 56)):
        with mock.patch("aqgv.codesearch.COSET_GUARD", 50), \
                pytest.raises(EnumerationSizeError, match=f"^{walked} bit errors and collisions exceeds the guard of 50$"):
            stab_detects_profile(all_z, dx, dz)
    # [[14, 14]]: of its 2^28 - 1 undetectable errors, the walk needs level 1
    # only: the unit errors give cap 1 at wx = 0 and cap 0 past it
    assert 2**28 - 1 > COSET_GUARD
    matrix = stab_profile_matrix(IsotropicCode(c=zero_space(F2, 28)))
    assert matrix == [[dx == dz == 1 for dz in range(1, 16)] for dx in range(1, 16)]


def test_profile_matrix_runs_one_elimination():
    # the symplectic dual's RREF picks the extension of S's rows; nothing else eliminates
    code = random_isotropic_code(6, 3, 2, seed=5)
    with mock.patch.object(fields, "_rref", wraps=fields._rref) as rref:
        stab_profile_matrix(code)
    assert rref.call_count == 1


def test_profile_matrix_consistent_and_monotone(five_qubit):
    matrix = stab_profile_matrix(five_qubit)
    assert len(matrix) == 6 and all(len(row) == 6 for row in matrix)
    for dx in range(1, 7):
        for dz in range(1, 7):
            assert matrix[dx - 1][dz - 1] == stab_detects_profile(five_qubit, dx, dz)
    # profile is monotone non-increasing in both directions
    for i in range(6):
        for j in range(5):
            assert matrix[i][j] or not matrix[i][j + 1]
            assert matrix[j][i] or not matrix[j + 1][i]


@st.composite
def stab_shape(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 4, 3: 3, 5: 2}[q]))
    return n, q, draw(st.integers(0, n)), draw(st.integers(0, 2**32))


@given(stab_shape(), CHUNKS)
def test_profile_matrix_matches_per_cell_property(shape, chunk):
    code = random_isotropic_code(*shape)
    cells = range(1, code.n + 2)
    with mock.patch.object(fields, "SPAN_CHUNK", chunk):
        matrix = stab_profile_matrix(code)
    assert matrix == [
        [stab_detects_profile(code, dx, dz) for dz in cells] for dx in cells
    ]


def coset_walk_matrix(code):
    """The profile matrix from every undetectable error, the slow way: the
    least wz per wx over members(S-dual) - members(S), read as prefix minima."""
    n = code.n
    least_wz = [n + 1] * (n + 1)
    for e in set(members(code.c.symplectic_dual())) - set(members(code.c)):
        wx = weight(e[:n])
        least_wz[wx] = min(least_wz[wx], weight(e[n:]))
    return [[dz <= cap for dz in range(1, n + 2)] for cap in accumulate(least_wz, min)]


@st.composite
def stab_walk_shape(draw):
    # lengths past stab_shape's, which checks every cell against the balls
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 6, 3: 4, 5: 3}[q]))
    return n, q, draw(st.integers(0, n)), draw(st.integers(0, 2**32))


@settings(max_examples=150)
@given(stab_walk_shape(), CHUNKS)
def test_profile_matrix_matches_coset_walk_oracle_property(shape, chunk):
    code = random_isotropic_code(*shape)
    expected = coset_walk_matrix(code)
    with mock.patch.object(fields, "SPAN_CHUNK", chunk):
        assert stab_profile_matrix(code) == expected


def test_profile_matrix_stops_once_no_error_lowers_a_cap():
    # [[16, 8]]_2 has 2^24 - 2^8 undetectable errors; rising weight settles
    # every cap within 20,000 walked vectors
    with mock.patch("aqgv.codesearch.COSET_GUARD", 20_000):
        for seed in range(30):
            matrix = stab_profile_matrix(random_isotropic_code(16, 2, 8, seed))
            assert len(matrix) == 17 and matrix[0][0] and not matrix[-1][-1]


def test_profile_check_guards_its_unit_rows():
    # k = n: each of the two packings would hold n unit rows of 2n - k = n
    # entries; (1, 1) needs neither, as both balls hold only 0
    code = IsotropicCode(c=zero_space(F2, 2 * 10**4))
    with mock.patch("aqgv.codesearch.Packing", side_effect=AssertionError("packed")):
        assert stab_detects_profile(code, 1, 1)
        with pytest.raises(EnumerationSizeError, match=f"^{10**8} unit-row entries exceeds the guard of {PROFILE_GUARD}$"):
            stab_detects_profile(code, 2, 2)


@given(stab_shape(), CHUNKS)
def test_profile_join_matches_ball_oracle_property(shape, chunk):
    code = random_isotropic_code(*shape)
    cells = range(1, code.n + 2)
    with mock.patch.object(fields, "SPAN_CHUNK", chunk):
        for dx in cells:
            for dz in cells:
                assert stab_detects_profile(code, dx, dz) == ball_profile_oracle(code, dx, dz), (dx, dz)


@given(stab_shape())
def test_profile_guards_never_refuse_within_the_old_prediction(shape):
    # the phase ball holds Bz + 1 errors; the bit ball's Bx + 1 errors each
    # collide with at most Bz + 1 of them.  The two packings' unit rows hold
    # n (2n - k) entries, a cost the old prediction did not count.
    code = random_isotropic_code(*shape)
    for dx, dz in product(range(1, code.n + 2), repeat=2):
        bx, bz = (ball_sum(code.n, code.q, d - 1) for d in (dx, dz))
        held = max((bx + 1) * (bz + 1), code.n * (2 * code.n - code.k))
        with mock.patch("aqgv.codesearch.PROFILE_GUARD", held), \
                mock.patch("aqgv.codesearch.COSET_GUARD", (bx + 1) * (bz + 2)):
            assert stab_detects_profile(code, dx, dz) == ball_profile_oracle(code, dx, dz), (dx, dz)


def test_profile_check_walks_packed_levels():
    # both balls come from Packing.levels over the unit rows, one call each
    code = random_isotropic_code(6, 3, 2, seed=5)
    with mock.patch.object(Packing, "levels", autospec=True, side_effect=Packing.levels) as levels:
        assert stab_detects_profile(code, 2, 2) == ball_profile_oracle(code, 2, 2)
    assert levels.call_count == 2


class PassedTheGuard(Exception):
    pass


def test_stabilizer_draw_guard_counts_row_updates():
    # n - k steps of (2n)^2 row-entry updates: at k = 1, n = 256 is the last n within COSET_GUARD
    assert 255 * 512**2 <= COSET_GUARD < 256 * 514**2
    with mock.patch("aqgv.codesearch.Random", side_effect=PassedTheGuard), pytest.raises(PassedTheGuard):
        random_isotropic_code(256, 2, 1, seed=0)   # the rng is made just after the guard
    with pytest.raises(EnumerationSizeError, match=f"^{256 * 514**2} row-entry updates exceeds"):
        random_isotropic_code(257, 2, 1, seed=0)   # refused before a row is built


def test_isotropic_code_rejects_non_isotropic():
    with pytest.raises(InputShapeError):
        IsotropicCode(c=Subspace.span(F2, 4, [[1, 0, 0, 0], [0, 0, 1, 0]]))
    with pytest.raises(InputShapeError):
        IsotropicCode(c=zero_space(F2, 5))  # odd ambient


# ---------------------------------------------------------------------------
# random samplers
# ---------------------------------------------------------------------------

def test_random_nested_pair_shape_and_determinism():
    a = random_nested_pair(12, 2, 7, 4, 42)
    b = random_nested_pair(12, 2, 7, 4, 42)
    assert a == b
    assert a.c1.dim == 7 and a.c2.dim == 4
    assert a.c1.contains_space(a.c2)
    assert random_nested_pair(12, 2, 7, 4, 43) != a


def test_random_nested_pair_rejects_composite_q():
    with pytest.raises(UnsupportedFieldError):
        random_nested_pair(4, 4, 2, 1, 0)


def test_random_nested_pair_uniform_over_universe():
    universe = list(iter_subspaces(F2, 3, 2))
    pairs = []
    for c1 in universe:
        for coeff in iter_subspaces(F2, 2, 1):
            rows = []
            for srow in coeff.basis:
                vec = [0, 0, 0]
                for c, brow in zip(srow, c1.basis):
                    if c:
                        vec = [(x + c * y) % 2 for x, y in zip(vec, brow)]
                rows.append(vec)
            pairs.append(NestedPair(c1=c1, c2=Subspace.span(F2, 3, rows)))
    assert len(pairs) == 21

    n_draws = 10**4
    counts = {pair: 0 for pair in pairs}
    for t in range(n_draws):
        counts[random_nested_pair(3, 2, 2, 1, derive_trial_seed(99, t))] += 1
    p = 1 / 21
    sigma = math.sqrt(n_draws * p * (1 - p))
    for pair, count in counts.items():
        assert abs(count - n_draws * p) <= 5 * sigma, (pair, count)


def test_random_isotropic_code_uniform_over_universe():
    # Every extension step is uniform over C-dual \\ C, whose size does not
    # depend on C, so every Lagrangian of GF(2)^4 is equally likely.
    universe = [
        c for c in iter_subspaces(F2, 4, 2) if c.symplectic_dual().contains_space(c)
    ]
    assert len(universe) == 15

    n_draws = 10**4
    counts = {c: 0 for c in universe}
    for t in range(n_draws):
        counts[random_isotropic_code(2, 2, 0, derive_trial_seed(99, t)).c] += 1
    p = 1 / 15
    sigma = math.sqrt(n_draws * p * (1 - p))
    for c, count in counts.items():
        assert abs(count - n_draws * p) <= 5 * sigma, (c, count)


def test_random_isotropic_code_invariants():
    for n, q, k in ((5, 2, 1), (4, 3, 2), (6, 2, 3)):
        code = random_isotropic_code(n, q, k, 7)
        assert code.c.dim == n - k
        assert code.c.symplectic_dual().contains_space(code.c)
        assert code == random_isotropic_code(n, q, k, 7)
    for n, k in ((0, 0), (5, 6)):
        with pytest.raises(ParameterRangeError, match=rf"^need 1 <= n and 0 <= k <= n, got \({n}, {k}\)$"):
            random_isotropic_code(n, 2, k, 1)


def test_random_isotropic_code_trivial_k_equals_n():
    code = random_isotropic_code(4, 2, 4, 123)
    assert code.c.dim == 0
    assert code.c == zero_space(F2, 8)


def rebuilt_dual_sampler(n, q, k, seed):
    # Reference for random_isotropic_code: the same draws, with the
    # symplectic dual rebuilt from c at every step.
    field = GF(q)
    rng = random.Random(seed)
    c = zero_space(field, 2 * n)
    for _ in range(n - k):
        dual = c.symplectic_dual()
        while True:
            v = combine([rng.randrange(q) for _ in range(dual.dim)], dual.basis, q, 2 * n)
            if not c.contains(v):
                break
        c = Subspace.span(field, 2 * n, c.basis + (v,))
    return IsotropicCode(c=c)


@given(st.sampled_from([2, 3, 5]), st.integers(1, 8), st.data(), st.integers(0, 2**64))
def test_sampler_matches_rebuilt_dual_oracle_property(q, n, data, seed):
    k = data.draw(st.integers(0, n))
    assert random_isotropic_code(n, q, k, seed).c.basis == rebuilt_dual_sampler(n, q, k, seed).c.basis


def test_sampler_rebuilds_no_dual():
    refuse = AssertionError("a dual was rebuilt")
    with mock.patch.object(Subspace, "symplectic_dual", side_effect=refuse), \
            mock.patch.object(Subspace, "dual", side_effect=refuse):
        code = random_isotropic_code(11, 2, 1, seed=3)
    assert code.c.dim == 10 and code.c.symplectic_dual().contains_space(code.c)


def test_sampler_seed_to_basis_is_pinned():
    # A change in the samplers' draw order or row combination would move
    # every seeded search result, so the seed-to-code map is fixed here.
    pair = random_nested_pair(6, 2, 4, 2, seed=1)
    assert pair.c1.basis == (
        (1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 1, 1), (0, 0, 0, 1, 0, 0),
    )
    assert pair.c2.basis == ((1, 0, 1, 0, 0, 1), (0, 1, 1, 0, 1, 1))
    pair = random_nested_pair(5, 3, 3, 1, seed=7)
    assert pair.c1.basis == ((1, 0, 1, 0, 2), (0, 1, 0, 0, 0), (0, 0, 0, 1, 2))
    assert pair.c2.basis == ((1, 1, 1, 0, 2),)
    assert random_isotropic_code(4, 2, 1, seed=1).c.basis == (
        (1, 1, 0, 0, 0, 1, 0, 0),
        (0, 0, 1, 0, 1, 1, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, 1),
    )
    assert random_isotropic_code(3, 3, 1, seed=5).c.basis == (
        (1, 0, 2, 2, 2, 1),
        (0, 1, 1, 0, 1, 0),
    )


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

def test_witness_search_css_success_and_reverify():
    hit = gv_witness_search("css", q=2, n=12, k1=7, k2=5, dx=2, dz=2, trials=100, seed=1)
    assert hit is not None
    assert css_distances(hit.code).meets(2, 2)
    assert hit.distances == css_distances(hit.code)
    assert 1 <= hit.trial_index <= 100


def test_witness_search_trivial_profile_succeeds_first_trial():
    hit = gv_witness_search("stab", q=2, n=6, k=2, dx=1, dz=1, trials=5, seed=9)
    assert hit is not None and hit.trial_index == 1
    hit = gv_witness_search("css", q=3, n=5, k1=3, k2=1, dx=1, dz=1, trials=5, seed=9)
    assert hit is not None and hit.trial_index == 1


def test_witness_search_absent_when_impossible():
    # k1 = n forces weight-1 vectors into C1 \ C2
    assert gv_witness_search("css", q=2, n=4, k1=4, k2=0, dx=3, dz=3, trials=100, seed=3) is None


def test_witness_search_stab_success_and_reverify():
    hit = gv_witness_search("stab", q=2, n=8, k=2, dx=2, dz=2, trials=200, seed=5)
    assert hit is not None
    assert stab_detects_profile(hit.code, 2, 2)
    assert hit.distances == DistancePair(dx=2, dz=2)


def test_witness_search_parallel_matches_sequential():
    kwargs = dict(q=2, n=10, k1=6, k2=4, dx=2, dz=2, trials=40, seed=77)
    sequential = gv_witness_search("css", workers=1, **kwargs)
    parallel = gv_witness_search("css", workers=3, **kwargs)
    assert sequential == parallel


def test_witness_search_argument_validation():
    with pytest.raises(ParameterRangeError):
        gv_witness_search("css", q=2, n=4, dx=2, dz=2, trials=5, seed=0, k=2)
    with pytest.raises(ParameterRangeError):
        gv_witness_search("stab", q=2, n=4, dx=2, dz=2, trials=5, seed=0, k1=2, k2=1)
    with pytest.raises(ParameterRangeError):
        gv_witness_search("stab", q=2, n=4, dx=2, dz=2, trials=0, seed=0, k=2)
    with pytest.raises(ParameterRangeError):
        gv_witness_search("spam", q=2, n=4, dx=2, dz=2, trials=5, seed=0, k=2)
    with pytest.raises(ParameterRangeError):
        gv_witness_search("css", q=2, n=4, dx=6, dz=2, trials=5, seed=0, k1=2, k2=1)


def test_oversize_css_search_is_refused_by_its_draw_guard():
    # a search draws before it checks; the sampler refuses before it builds a row
    with pytest.raises(EnumerationSizeError) as refused, \
            mock.patch("aqgv.codesearch._random_full_rank", side_effect=AssertionError("built a row")):
        gv_witness_search("css", q=2, n=1000, k1=500, k2=0, dx=2, dz=2, trials=1, seed=0)
    assert str(refused.value) == f"{500 * 1000**2} row-entry updates exceeds the guard of {COSET_GUARD}"
    with pytest.raises(EnumerationSizeError, match=f"^{800 * 1600**2} row-entry updates exceeds"):
        random_nested_pair(1600, 2, 800, 0, 1)   # k1 n^2


def test_witness_search_success_rate_tracks_bound():
    # uniform sampler: per-trial success probability >= 1 - lhs
    lhs = css_gv_lhs(CssBoundQuery(q=2, n=12, k1=7, k2=5, dx=2, dz=2)).lhs
    floor = 1 - float(lhs)
    n_trials = 400
    wins = sum(
        css_distances(random_nested_pair(12, 2, 7, 5, derive_trial_seed(21, t))).meets(2, 2)
        for t in range(n_trials)
    )
    sigma = math.sqrt(floor * (1 - floor) / n_trials)
    assert wins / n_trials >= floor - 3 * sigma


# ---------------------------------------------------------------------------
# code files
# ---------------------------------------------------------------------------

def test_code_file_roundtrip_css(tmp_path, steane_pair):
    path = tmp_path / "steane.json"
    write_code_file(steane_pair, path)
    assert load_code_file(path) == steane_pair
    data = json.loads(path.read_text())
    assert data["type"] == "css" and data["q"] == 2 and data["n"] == 7


def test_code_file_roundtrip_stab(tmp_path, five_qubit):
    path = tmp_path / "five.json"
    write_code_file(five_qubit, path)
    assert load_code_file(path) == five_qubit
    data = json.loads(path.read_text())
    assert data["type"] == "stab" and len(data["generators"]) == 4
    assert all(len(row) == 10 for row in data["generators"])


def test_code_file_canonicalizes_rows(tmp_path):
    # non-RREF, redundant rows are accepted and canonicalized on load
    path = tmp_path / "code.json"
    path.write_text(json.dumps({
        "type": "css", "q": 2, "n": 3,
        "c1": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        "c2": [[1, 0, 1]],
    }))
    pair = load_code_file(path)
    assert pair.c1.basis == ((1, 0, 1), (0, 1, 1))
    assert pair.c2.dim == 1


def test_code_file_rejects_bad_entries_and_shapes(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "css", "q": 2, "n": 3, "c1": [[0, 1, 2]], "c2": []}))
    with pytest.raises(InputShapeError):
        load_code_file(path)
    path.write_text(json.dumps({"type": "nope", "q": 2, "n": 3}))
    with pytest.raises(InputShapeError):
        load_code_file(path)
    path.write_text(json.dumps({"type": "css", "q": 2, "n": 3, "c1": [[1, 0, 1]]}))
    with pytest.raises(InputShapeError):
        load_code_file(path)
    path.write_text("not json {")
    with pytest.raises(InputShapeError):
        load_code_file(path)
    # c2 not inside c1
    path.write_text(json.dumps({
        "type": "css", "q": 2, "n": 3, "c1": [[1, 1, 0]], "c2": [[1, 0, 1]],
    }))
    with pytest.raises(InputShapeError):
        load_code_file(path)
    # rows that are not lists of lists, and JSON booleans read as 0/1
    for data in (
        {"type": "css", "q": 2, "n": 3, "c1": 5, "c2": []},
        {"type": "css", "q": 2, "n": 3, "c1": None, "c2": []},
        {"type": "css", "q": 2, "n": 3, "c1": [[1, 0, 1]], "c2": [5]},
        {"type": "css", "q": 2, "n": 3, "c1": [[True, False, True]], "c2": []},
        {"type": "css", "q": 2, "n": True, "c1": [[1]], "c2": []},
        {"type": "stab", "q": True, "n": 1, "generators": [[1, 0]]},
        {"type": "stab", "q": 2, "n": 1, "generators": [5]},
    ):
        path.write_text(json.dumps(data))
        with pytest.raises(InputShapeError):
            load_code_file(path)
