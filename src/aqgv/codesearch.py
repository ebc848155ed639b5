"""Constructive counterpart of the counting bounds.

Exhaustive enumeration of nested code pairs with per-error undetectable
tallies, exact asymmetric distances and stabilizer profile matrices from
one rising-weight walk, single stabilizer profile checks that join the
bit-error and phase-error balls on their syndromes, seeded random
samplers, and the randomized witness search that turns the existence
argument into actual codes.

Both CSS difference sets are walked from rows at hand, with no elimination.
With C1's RREF generator matrix G1 and C2 = A.G1 for a k2-subspace A of
GF(q)^k1, C1 \\ C2 is {y.G1 : y not in A}: C2's rows extended by C1's rows
at N, the columns where C1 has a pivot and C2 does not.  The pair
enumeration takes every G1 and every A's basis as packed RREF rows, each
row a unit row plus a combination of unit rows, so no matrix is built from
list rows or eliminated.  Each A is spanned once, to count per
coefficient vector y the A that leave it out, and each C1 once, each y.G1
tallied by that count, so no pair's set is walked on its own; the phase set
C2-dual \\ C1-dual is the same set of the dual pair (C2-dual, C1-dual).
css_distances reads the rows at N as membership tests: x in C1 is in C2 iff
C2's parity-check rows at N vanish on it, and z in C2-dual is in C1-dual
iff C1's rows at N do; stab_profile_matrix reads the nested pair S <= S-dual
the same way.  Weight and membership do not change under a nonzero scalar,
so these walks, and the bit ball of a profile check, take one vector per
scalar class: the combinations whose first nonzero coefficient is 1, a
(q - 1)-th of the vectors.

All enumerations are guarded; this module is for desk-scale verification,
not scalability.  Its GF(p) arithmetic and packed layout are all in fields:
every walk reads a Subspace's packed rows, or the unit vectors, with
fields.Packing, which appends their syndromes under packed check rows, and
the samplers draw, combine and reduce packed rows with the same class.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import accumulate, chain, combinations, islice, product
from pathlib import Path
from random import Random
from typing import Iterator, Mapping, Sequence, Union

from ._value import Value
from .errors import InputShapeError, ParameterRangeError, _capped_ball, _capped_pow, _check_ints, _guard
from .fields import GF, Packing, Subspace, Vec, draw, inverse
from .fields import weight  # noqa: F401  (perfbench/tracing.py patches codesearch.weight by name)

ERROR_TABLE_GUARD = 10**6   # nonzero error vectors tallied at once
PROFILE_GUARD = 10**7       # vectors or row entries one kernel holds at once: a profile
                            # check's phase ball, a distance check's parity-check rows
COSET_GUARD = 2**26         # vectors (and collisions) one walk builds as it goes, row
                            # entries one draw updates, or vectors the lemma's tallies
                            # span over every C1 and every A


class NestedPair(Value):
    """A nested pair C2 <= C1 of codes in GF(q)^n (the CSS ingredient)."""

    __slots__ = _fields = ("c1", "c2")

    def __init__(self, c1: Subspace, c2: Subspace) -> None:
        if c1.field != c2.field or c1.ambient_dim != c2.ambient_dim:
            raise InputShapeError("C1 and C2 must share field and length")
        if not c1.contains_space(c2):
            raise InputShapeError("C2 must be a subspace of C1")
        self._set(c1=c1, c2=c2)

    @property
    def n(self) -> int:
        return self.c1.ambient_dim

    @property
    def q(self) -> int:
        return self.c1.field.p


class IsotropicCode(Value):
    """A symplectic self-orthogonal subspace of GF(q)^{2n}: an [[n, k]]_q
    stabilizer code with k = n - dim."""

    __slots__ = _fields = ("c",)

    def __init__(self, c: Subspace) -> None:
        if c.ambient_dim & 1:
            raise InputShapeError("stabilizer space needs an even ambient dimension")
        rows = c.packed
        if rows:   # no Packing without generators, whose n may be huge
            packing = c.packing
            if any(any(packing.products(packing.twist(u), rows[i + 1:])) for i, u in enumerate(rows)):
                raise InputShapeError("generators are not symplectic self-orthogonal")
        self._set(c=c)

    @property
    def n(self) -> int:
        return self.c.ambient_dim // 2

    @property
    def k(self) -> int:
        return self.n - self.c.dim

    @property
    def q(self) -> int:
        return self.c.field.p


class DistancePair(Value):
    """Minimum undetectable weights; None means the undetectable set is empty."""

    __slots__ = _fields = ("dx", "dz")

    def __init__(self, dx: int | None, dz: int | None) -> None:
        self._set(dx=dx, dz=dz)

    def meets(self, dx: int, dz: int) -> bool:
        """Whether the code qualifies at design distances (dx, dz)."""
        return (self.dx is None or self.dx >= dx) and (self.dz is None or self.dz >= dz)


class EnumerationReport(Value):
    """Exact tallies over every nested pair with the given dimensions."""

    __slots__ = _fields = ("q", "n", "k1", "k2", "total_pairs", "per_error_x", "per_error_z")

    def __init__(self, q: int, n: int, k1: int, k2: int, total_pairs: int,
                 per_error_x: Mapping[Vec, int], per_error_z: Mapping[Vec, int]) -> None:
        self._set(q=q, n=n, k1=k1, k2=k2, total_pairs=total_pairs,
                  per_error_x=per_error_x, per_error_z=per_error_z)

    def expected_counts(self) -> tuple[int, int]:
        """Per-error counts implied by the counting identities (exact): the
        CSS LHS numerators over its denominator, at total_pairs errors each."""
        from .bounds import css_lhs_ints
        addends, denom = css_lhs_ints(self.q, self.n, self.k1, self.k2, self.total_pairs, self.total_pairs)
        (x, x_rem), (z, z_rem) = (divmod(a, denom) for a in addends)
        if x_rem or z_rem:
            return (-1, -1)  # identities cannot hold
        return (x, z)

    @property
    def identities_hold(self) -> bool:
        x, z = self.expected_counts()
        return all(v == x for v in self.per_error_x.values()) and all(
            v == z for v in self.per_error_z.values()
        )


def _check_draw_size(updates: int) -> None:
    """A sampler's row-entry updates: (n - k)(2n)^2 for random_isotropic_code,
    k1 n^2 for random_nested_pair."""
    _guard(updates, COSET_GUARD, "{} row-entry updates exceeds the guard of {}")


def _check_pair_dims(n: int, k1: int, k2: int) -> None:
    _check_ints(n=n, k1=k1, k2=k2)
    if not (n >= 1 and 0 <= k2 <= k1 <= n):
        raise ParameterRangeError(f"need 1 <= n and 0 <= k2 <= k1 <= n, got {(n, k1, k2)}")


def _rref_matrices(q: int, n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every k x n RREF matrix over GF(q), each once, as a tuple of rows
    packed by ``Packing.plain(q, n)``: the canonical bases of the
    k-subspaces of GF(q)^n, so no elimination is needed.  Row i is the unit
    row at its pivot shifted by each combination of the unit rows at the
    free columns after it, passed to ``Packing.span`` last column first, and
    a pivot set's matrices are the product of its rows' lists: the last free
    cell varies fastest.  Those lists are held per pivot set, at most
    k q^(n-k) packed rows and at most k times the matrices the set yields.
    k = 0 yields the empty matrix before a Packing is built: n may be huge."""
    if not k:
        yield ()
        return
    packing = Packing.plain(q, n)
    units = packing.units()
    for pivots in combinations(range(n), k):
        free = [[units[j] for j in reversed(range(col + 1, n)) if j not in pivots] for col in pivots]
        yield from product(*(packing.shifted(units[col], packing.span(f)) for col, f in zip(pivots, free)))


def iter_subspaces(field: GF, ambient_dim: int, dim: int) -> Iterator[Subspace]:
    """Every dim-dimensional subspace of GF(p)^ambient_dim exactly once, in
    the order of ``_rref_matrices``, built from its packed rows.  Per pivot
    set it holds at most dim p^(ambient_dim - dim) packed rows (at most dim
    times the spaces that set yields), not one matrix at a time."""
    _check_ints(ambient_dim=ambient_dim, dim=dim)
    if not 0 <= dim <= ambient_dim:
        raise ParameterRangeError(f"need 0 <= dim <= ambient, got dim={dim}, ambient={ambient_dim}")
    return (Subspace.from_packed(field, ambient_dim, rows) for rows in _rref_matrices(field.p, ambient_dim, dim))


def _bit_tallies(packing: Packing, k1: int, k2: int) -> tuple[Counter, int]:
    """For each packed vector, how many nested pairs C2 <= C1 in packing's
    space with dim C1 = k1 and dim C2 = k2 have it in C1 \\ C2, and how
    many pairs there are.  C1 \\ C2 = {y.G1 : y not in A} (the module doc),
    y at position sum_j y_j q^j of a span of the unit rows (Packing.span),
    and G1 has full rank, so y.G1 is y's position in the span of G1.  Each
    A is spanned once to count, per coefficient vector y, the A that leave
    it out; each C1 is then spanned once and each y.G1 tallied by that
    count.  Nothing assumes the counts agree: that is what the lemma checks.
    packing has no checks: _rref_matrices packs its rows in that layout, so
    they are spanned as they come."""
    coeffs = Packing.plain(packing.p, k1)
    inside, spaces = Counter(), 0
    for rows in _rref_matrices(packing.p, k1, k2):
        inside.update(coeffs.span(rows))
        spaces += 1
    miss = [spaces - inside[y] for y in coeffs.span(coeffs.units())]
    tally, pairs = Counter(), 0
    for rows in _rref_matrices(packing.p, packing.n, k1):
        pairs += spaces
        for e, m in zip(packing.span(rows), miss):
            tally[e] += m
    return tally, pairs


def enumerate_nested_pairs(n: int, q: int, k1: int, k2: int) -> EnumerationReport:
    """Count every nested pair with dim C1 = k1, dim C2 = k2 and tally, for
    each nonzero error vector, how many pairs fail to detect it as a bit
    error and as a phase error.  Each pair counts once per tally: as itself
    for the bit errors, and as its dual image for the phase errors; each
    tally spans every C1 and every A once (_bit_tallies).  Before anything
    is spanned it refuses past ERROR_TABLE_GUARD nonzero errors, then past
    COSET_GUARD spanned vectors: the tally at dims (a, b) spans
    [n, a]_q q^a + [a, b]_q q^b, exact since q^n is capped by then."""
    from .bounds import gaussian_binomial
    GF(q)   # the field is checked first, before the dimensions
    _check_pair_dims(n, k1, k2)
    _guard(_capped_pow(q, n) - 1, ERROR_TABLE_GUARD, "{} error vectors exceeds the guard of {}")
    # (C1, C2) -> (C2-dual, C1-dual) maps the pairs of dims (k1, k2) one to one
    # onto those of dims (n - k2, n - k1), and C2-dual \ C1-dual is the image's
    # C1 \ C2: the phase tallies are the bit tallies of the dual pairs
    tallies = ((k1, k2), (n - k2, n - k1))
    spanned = sum(gaussian_binomial(n, a, q) * q**a + gaussian_binomial(a, b, q) * q**b for a, b in tallies)
    _guard(spanned, COSET_GUARD, "{} walked vectors exceeds the guard of {}")

    packing = Packing.plain(q, n)
    (per_x, total), (per_z, _) = (_bit_tallies(packing, a, b) for a, b in tallies)
    errors = packing.span(packing.units())[1:]
    keys = list(map(packing.unpack, errors))
    return EnumerationReport(
        q=q, n=n, k1=k1, k2=k2, total_pairs=total,
        per_error_x=dict(zip(keys, map(per_x.__getitem__, errors))),
        per_error_z=dict(zip(keys, map(per_z.__getitem__, errors))),
    )


def _failing_levels(q: int, n: int, rows: Sequence[int], checks: Sequence[int]) -> Iterator[Iterator[list[int]]]:
    """Level i = 1, 2, ... of packed ``rows``, one vector per scalar class
    (Packing.levels with classes: i nonzero coefficients, the first of them
    1), list by list, as the supports of its vectors that fail a packed check
    (none without checks).  A nonzero multiple of a vector has its weight and
    fails the same checks, so the classes give every weight and verdict the
    whole level would, at 1/(q - 1) of its vectors.  Systematic rows, an
    identity on an information set, make a level-i vector weigh at least i.
    Nothing of a level is built before its first list is asked for; past
    COSET_GUARD built (class vectors), the walk refuses."""
    packing, walked = Packing(q, n, checks), 0   # walked: vectors built

    def failing(level: Iterator[list[int]]) -> Iterator[list[int]]:
        nonlocal walked
        for chunk in level:
            walked += len(chunk)
            _guard(walked, COSET_GUARD, "{} walked vectors exceeds the guard of {}")
            yield packing.failing(chunk)

    return map(failing, packing.levels(packing.checked(rows), classes=True) if checks else ())


def _min_weight_failing(q: int, n: int, rows: Sequence[int], checks: Sequence[int]) -> int | None:
    """Least weight over span(rows) \\ {x : checks.x = 0}, or None when no
    vector of the span fails a check.  The walk takes one vector per scalar
    class (_failing_levels): weight and check failure do not change under a
    nonzero scalar, so each class's least weight is its one vector's.  The
    walk stops once the best weight found is <= i: no vector of level i or
    later can beat it, as a class vector of level i still weighs at least i
    (Brouwer's bound, with one information set)."""
    best = n + 1   # heavier than any vector
    for i, level in enumerate(_failing_levels(q, n, rows, checks), 1):
        if best <= i:
            break
        for failing in level:
            best = min(best, min(map(int.bit_count, failing), default=best))
            if best <= i:
                break
    return best if best <= n else None


def css_distances(pair: NestedPair) -> DistancePair:
    """Asymmetric distances of the CSS pair: dx = min weight over C1 \\ C2
    from C1's RREF rows, dz = min weight over C2-dual \\ C1-dual from C2's
    parity-check rows, each in rising weight with the membership checks of
    the module doc and no elimination."""
    c1, c2, q, n = pair.c1, pair.c2, pair.q, pair.n
    _guard((n - c2.dim) * n, PROFILE_GUARD, "{} parity-check entries exceeds the guard of {}")
    pivots1, pivots2 = set(c1.pivot_cols), set(c2.pivot_cols)
    free2 = [f for f in range(n) if f not in pivots2]   # one parity-check row of C2 each
    c2_parity = c2.parity_rows                          # systematic on free2
    at_n1 = [row for row, j in zip(c1.packed, c1.pivot_cols) if j not in pivots2]
    at_n2 = [row for row, f in zip(c2_parity, free2) if f in pivots1]
    return DistancePair(dx=_min_weight_failing(q, n, c1.packed, at_n2),
                        dz=_min_weight_failing(q, n, c2_parity, at_n1))


def stab_detects_profile(code: IsotropicCode, dx: int, dz: int) -> bool:
    """Whether the code qualifies as [[n, k, dx, dz]]: every error (ex|ez)
    with bit weight <= dx-1 and phase weight <= dz-1 (not both parts zero)
    lies outside S-dual \\ S.

    A generator (a|b) has symplectic product a.ez - b.ex with (ex|ez), so
    (ex|ez) is in S-dual exactly when its syndromes (b.ex) and (a.ez) agree.
    The balls are {0} and the first levels of the unit rows of a Packing,
    checked by b for bit errors and by a for phase errors; they are joined on
    syndrome, and only collisions (pairs whose sum lies in S-dual) are tested
    for membership in S, on packed rows (``Subspace.holds``): (ex|ez) is
    (ex|0) or'd with (0|ez), the twist of (ez|0) in GF(q)^2n.  The bit errors
    ex != 0 are walked one per scalar class (Packing.levels with classes):
    (ex|ez) and l(ex|ez) are detected together, and every l.ez is in the
    full phase ball.  The phase ball, held in a dict, and the unit rows are
    guarded by PROFILE_GUARD up front; the bit ball's classes and the
    collisions are counted against COSET_GUARD as they are walked."""
    from .bounds import check_ranges
    n, q = code.n, code.q
    check_ranges(q, n, dx, dz)
    if dx == dz == 1:
        return True   # both balls hold only 0
    _guard(_capped_ball(n, q, dz - 1) + 1, PROFILE_GUARD, "{} phase errors exceeds the guard of {}")
    _guard(n * (2 * n - code.k), PROFILE_GUARD, "{} unit-row entries exceeds the guard of {}")
    rows, half = code.c.packed, Packing.plain(q, n)   # half splits a packed (a|b) as its vector a and syndrome b
    phase = Packing(q, n, list(map(half.vector, rows)))
    bit = Packing(q, n, list(map(half.syndrome, rows)))
    syndrome, vector = phase.syndrome, phase.vector   # bit's split is the same
    lift = code.c.packing.twist   # (ez|0) -> (0|ez) in GF(q)^2n
    phase_by_syndrome: dict[int, list[int]] = {}
    for ez in chain.from_iterable(chain([[0]], *islice(phase.levels(phase.units()), dz - 1))):
        phase_by_syndrome.setdefault(syndrome(ez), []).append(ez)
    walked, message = 0, "{} bit errors and collisions exceeds the guard of {}"
    for chunk in chain([[0]], *islice(bit.levels(bit.units(), classes=True), dx - 1)):
        walked += len(chunk)
        _guard(walked, COSET_GUARD, message)
        for ex in chunk:
            collisions = phase_by_syndrome.get(syndrome(ex))
            if collisions:
                walked += len(collisions)
                _guard(walked, COSET_GUARD, message)
                for ez in collisions:
                    if (ex or ez) and not code.c.holds(vector(ex) | lift(vector(ez))):
                        return False
    return True


def stab_profile_matrix(code: IsotropicCode) -> list[list[bool]]:
    """Boolean matrix M[dx-1][dz-1] = detects-profile(dx, dz) over the full
    range 1..n+1, from one rising-weight walk over the undetectable errors
    S-dual \\ S: S <= S-dual is a nested pair in GF(q)^{2n}, walked as
    css_distances walks C1 \\ C2, from S-dual's RREF rows with S's
    parity-check rows at N (S-dual's pivots that S lacks) as the checks.

    The walk keeps, for each bit weight wx, the least phase weight of an
    undetectable (ex|ez) with wt(ex) = wx.  The profile (dx, dz) fails
    exactly when some wx <= dx-1 has that least weight <= dz-1, so row wx
    of the matrix is read off a prefix minimum, its cap.  The walk takes one
    error per scalar class (_failing_levels), which has the wx and wz of
    every multiple.  An error of level i or later weighs wx + wz >= i, so
    the walk stops once wx + cap <= i for every wx whose cap is above 0: no
    such error lowers a cap."""
    n, q, k, s = code.n, code.q, code.k, code.c
    _guard((n + k) * 2 * n, PROFILE_GUARD, "{} parity-check entries exceeds the guard of {}")
    dual = s.symplectic_dual()   # twists s.parity_rows, which the checks below reuse
    pivots, dual_pivots = set(s.pivot_cols), set(dual.pivot_cols)
    free = [f for f in range(2 * n) if f not in pivots]   # one parity-check row of S each
    at_n = [row for row, f in zip(s.parity_rows, free) if f in dual_pivots]
    half = Packing(q, n)
    x_half = sum(half.supports(half.units()))   # the support bits of ex
    least_wz = [n + 1] * (n + 1)   # n + 1: no undetectable error with that wx
    for i, level in enumerate(_failing_levels(q, 2 * n, dual.packed, at_n), 1):
        if all(wx + cap <= i for wx, cap in enumerate(accumulate(least_wz, min)) if cap):
            break
        for support in chain.from_iterable(level):
            wx = (support & x_half).bit_count()
            wz = support.bit_count() - wx
            if wz < least_wz[wx]:
                least_wz[wx] = wz
    return [[dz <= cap for dz in range(1, n + 2)] for cap in accumulate(least_wz, min)]


def _random_full_rank(rng: Random, field: GF, nrows: int, ncols: int) -> Subspace:
    """Row space of a uniformly random full-rank nrows x ncols matrix, its
    entries drawn in row order; the induced distribution over nrows-dim
    subspaces is uniform."""
    if not nrows:   # no Packing without rows: ncols may be huge
        return Subspace(field, ncols, ())
    packing = Packing.plain(field.p, ncols)
    while True:
        space = Subspace.from_packed(field, ncols, packing.draw_rows(rng, nrows))
        if space.dim == nrows:
            return space
        # reject rank-deficient draws


def random_nested_pair(n: int, q: int, k1: int, k2: int, seed: int) -> NestedPair:
    """Uniform draw from the set of nested pairs with dims (k1, k2).

    C1 is the row space of a uniform full-rank k1 x n matrix; C2 is drawn
    the same way inside C1's coordinates: C2 = span(A.G1) for a uniform
    k2 x k1 matrix A of coefficients (one ``fields.draw`` call), with G1
    C1's packed RREF rows, redrawn while dim C2 < k2.  G1 has full rank, so
    rank(A.G1) = rank A: C2 is eliminated, A is not, and a draw is kept
    exactly when A has full rank.  Deterministic in ``seed``.
    """
    field = GF(q)
    _check_pair_dims(n, k1, k2)
    _check_draw_size(k1 * n**2)
    rng = Random(seed)
    c1 = _random_full_rank(rng, field, k1, n)
    while True:
        a = draw(rng, q, k2 * k1)
        rows = [c1.packing.combine(a[i * k1:(i + 1) * k1], c1.packed) for i in range(k2)]   # A.G1, packed
        c2 = Subspace.from_packed(field, n, rows)
        if c2.dim == k2:
            return NestedPair(c1=c1, c2=c2)
        # reject rank-deficient draws


def random_isotropic_code(n: int, q: int, k: int, seed: int) -> IsotropicCode:
    """A random [[n, k]]_q stabilizer space built by iterated extension:
    repeatedly adjoin a uniform vector from (current dual) \\ (current
    space).  Deterministic in ``seed``.

    Each step is uniform over (current dual) \\ (current space), whose size
    q^(2n-i) - q^i does not depend on the space, so every ordered isotropic
    basis is equally likely and the draw is uniform over all [[n, k]]_q
    stabilizer spaces (checked over the 15 Lagrangians of GF(2)^4 in the
    tests).

    Only the symplectic dual D of the current space c is held, as packed
    RREF rows in pivot order, starting from the identity of GF(q)^{2n}; c
    is not, because the form is nondegenerate and so c = D^perp.  A draw
    is one batch of len(D) coefficients (``fields.draw``, the values of
    one ``randrange`` each) and v is their packed combination of D's rows.
    f(w) = <v, w> over D's rows (packed products with v's twist: at q = 2
    the parity of a common support) is zero everywhere exactly when v is
    in D^perp = c: such a draw is rejected, the same decision a residual
    test against c would make, so the rng is called in the same order.
    Else v is kept and D becomes D meet v-perp, O((2n)^2) per step: the row
    s of largest pivot with f(s) != 0 is subtracted, times f(w)/f(s), from
    every other row w with f(w) != 0, and dropped.  Row s is zero before its
    pivot and at every other pivot, so only s's pivot column (now free) and
    later columns change: the rows stay RREF, and as the RREF of a space is
    unique, D is exactly ``c.symplectic_dual()``.  So the draws are those of
    a per-step ``symplectic_dual()``.  The kept draws are made canonical
    once, by the Subspace they span.
    """
    field = GF(q)
    _check_ints(n=n, k=k)
    if not (n >= 1 and 0 <= k <= n):
        raise ParameterRangeError(f"need 1 <= n and 0 <= k <= n, got {(n, k)}")
    _check_draw_size((n - k) * (2 * n) ** 2)
    rng = Random(seed)
    m = 2 * n
    gens: list[int] = []
    if k < n:   # no packing for k = n: a huge n with no rows costs nothing
        packing = Packing.plain(q, m)
        dual = packing.units()
    for _ in range(n - k):
        while True:
            v = packing.combine(draw(rng, q, len(dual)), dual)
            f = packing.products(packing.twist(v), dual)
            if any(f):
                break
        gens.append(v)
        s = max(i for i, x in enumerate(f) if x)
        scaled = packing.times(inverse(f[s], q), dual[s])   # f(scaled) = 1
        dual = [packing.sub(w, x, scaled) if x else w
                for i, (w, x) in enumerate(zip(dual, f)) if i != s]
    return IsotropicCode(c=Subspace.from_packed(field, m, gens))


class SearchHit(Value):
    """A verified witness: the code, its verified distances (for stabilizer
    witnesses the requested profile, verified as met), and the 1-based
    trial that produced it."""

    __slots__ = _fields = ("code", "distances", "trial_index")

    def __init__(self, code: Union[NestedPair, IsotropicCode], distances: DistancePair,
                 trial_index: int) -> None:
        self._set(code=code, distances=distances, trial_index=trial_index)


def derive_trial_seed(seed: int, trial: int) -> int:
    """Injective per-trial seed so trials are independent of schedule."""
    return seed * (1 << 64) + trial


def gv_witness_search(
    kind: str,
    *,
    q: int,
    n: int,
    dx: int,
    dz: int,
    trials: int,
    seed: int,
    k1: int | None = None,
    k2: int | None = None,
    k: int | None = None,
    workers: int = 1,
) -> SearchHit | None:
    """Randomized witness search: draw up to ``trials`` codes and return the
    first (lowest trial index) whose verified distances meet (dx, dz).

    Trials run one after another in this process; trial t uses the derived
    seed f(seed, t), so the outcome depends only on ``seed`` and ``trials``.
    For the css kind the sampler is uniform, so when the corresponding
    bound is feasible each trial succeeds with probability at least
    1 - lhs, so a search rarely needs more than a few trials.

    ``workers`` is accepted and ignored, so that existing callers keep
    working: a search that hits in about one trial gains nothing from a
    worker pool but its start-up and shutdown.
    """
    from .bounds import CssBoundQuery, StabBoundQuery
    GF(q)  # a search needs a prime field; checked first, so a huge q is refused at once
    if kind == "css":
        if k1 is None or k2 is None:
            raise ParameterRangeError("css search needs k1 and k2")
        CssBoundQuery(q=q, n=n, k1=k1, k2=k2, dx=dx, dz=dz)
    elif kind == "stab":
        if k is None:
            raise ParameterRangeError("stab search needs k")
        StabBoundQuery(q=q, n=n, k=k, dx=dx, dz=dz)
    else:
        raise ParameterRangeError(f"kind must be 'css' or 'stab', got {kind!r}")
    _check_ints(trials=trials, seed=seed)
    if trials < 1:
        raise ParameterRangeError(f"trials must be >= 1, got {trials}")

    for trial in range(1, trials + 1):
        trial_seed = derive_trial_seed(seed, trial)
        if kind == "css":
            pair = random_nested_pair(n, q, k1, k2, trial_seed)
            dist = css_distances(pair)
            if dist.meets(dx, dz):
                return SearchHit(code=pair, distances=dist, trial_index=trial)
        else:
            code = random_isotropic_code(n, q, k, trial_seed)
            if stab_detects_profile(code, dx, dz):
                return SearchHit(code=code, distances=DistancePair(dx=dx, dz=dz), trial_index=trial)
    return None


def code_to_json_dict(code: Union[NestedPair, IsotropicCode]) -> dict:
    if isinstance(code, NestedPair):
        return {
            "type": "css",
            "q": code.q,
            "n": code.n,
            "c1": [list(row) for row in code.c1.basis],
            "c2": [list(row) for row in code.c2.basis],
        }
    return {
        "type": "stab",
        "q": code.q,
        "n": code.n,
        "generators": [list(row) for row in code.c.basis],
    }


def write_code_file(code: Union[NestedPair, IsotropicCode], path: str | Path) -> None:
    Path(path).write_text(json.dumps(code_to_json_dict(code), sort_keys=True) + "\n", encoding="utf-8")


def _json_rows(data: dict, key: str) -> list[list]:
    """The rows under ``key``, checked to be a list of lists; Subspace checks the entries."""
    rows = data.get(key)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputShapeError(f'{data["type"]} code file needs "{key}" as a list of integer rows')
    return rows


def load_code_file(path: str | Path) -> Union[NestedPair, IsotropicCode]:
    """Load a code from its JSON file form; rows are canonicalized and all
    invariants (entry ranges, nesting, isotropy) re-checked."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:   # bad UTF-8, JSON syntax, int digits or nesting
        raise InputShapeError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("type") not in ("css", "stab"):
        raise InputShapeError('code file needs "type": "css" or "stab"')
    q, n = data.get("q"), data.get("n")
    if type(q) is not int or type(n) is not int or n < 1:   # JSON true is not 1
        raise InputShapeError('code file needs integer "q" and "n" fields')
    field = GF(q)
    if data["type"] == "css":
        c1 = Subspace.span(field, n, _json_rows(data, "c1"))
        c2 = Subspace.span(field, n, _json_rows(data, "c2"))
        return NestedPair(c1=c1, c2=c2)
    return IsotropicCode(c=Subspace.span(field, 2 * n, _json_rows(data, "generators")))
