"""Constructive counterpart of the counting bounds.

Exhaustive enumeration of nested code pairs with per-error undetectable
tallies, asymmetric distances and stabilizer profile matrices from one
packed-vector coset walk, single stabilizer profile checks that join the
bit-error and phase-error balls on their syndromes, seeded random
samplers, and the randomized witness search that turns the existence
argument into actual codes.

All enumerations are guarded; this module is for desk-scale verification,
not scalability.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product
from operator import mul
from pathlib import Path
from random import Random
from typing import Iterator, Mapping, Sequence, Union

from .bounds import CssBoundQuery, StabBoundQuery, check_ranges, gaussian_binomial
from .errors import (
    EnumerationSizeError,
    InputShapeError,
    ParameterRangeError,
)
from .fields import GF, Packing, Subspace, Vec
from .fields import weight  # noqa: F401  (perfbench/tracing.py patches codesearch.weight by name)

PAIR_GUARD = 10**6          # nested pairs enumerated at once
ERROR_TABLE_GUARD = 10**6   # nonzero error vectors tallied at once
PROFILE_GUARD = 10**7       # (ex, ez) patterns checked by one profile call
COSET_GUARD = 2**26         # vectors one distance or profile-matrix walk visits


@dataclass(frozen=True)
class NestedPair:
    """A nested pair C2 <= C1 of codes in GF(q)^n (the CSS ingredient)."""

    c1: Subspace
    c2: Subspace

    def __post_init__(self) -> None:
        if self.c1.field != self.c2.field or self.c1.ambient_dim != self.c2.ambient_dim:
            raise InputShapeError("C1 and C2 must share field and length")
        if not self.c1.contains_space(self.c2):
            raise InputShapeError("C2 must be a subspace of C1")

    @property
    def n(self) -> int:
        return self.c1.ambient_dim

    @property
    def q(self) -> int:
        return self.c1.field.p


@dataclass(frozen=True)
class IsotropicCode:
    """A symplectic self-orthogonal subspace of GF(q)^{2n}: an [[n, k]]_q
    stabilizer code with k = n - dim."""

    c: Subspace

    def __post_init__(self) -> None:
        if self.c.ambient_dim % 2:
            raise InputShapeError("stabilizer space needs an even ambient dimension")
        n, q = self.n, self.q
        for u, v in combinations(self.c.basis, 2):
            if sum(u[j] * v[n + j] - u[n + j] * v[j] for j in range(n)) % q:
                raise InputShapeError("generators are not symplectic self-orthogonal")

    @cached_property
    def stabilizer_dual(self) -> Subspace:
        return self.c.symplectic_dual()

    @property
    def n(self) -> int:
        return self.c.ambient_dim // 2

    @property
    def k(self) -> int:
        return self.n - self.c.dim

    @property
    def q(self) -> int:
        return self.c.field.p


@dataclass(frozen=True)
class DistancePair:
    """Minimum undetectable weights; None means the undetectable set is empty."""

    dx: int | None
    dz: int | None

    def meets(self, dx: int, dz: int) -> bool:
        """Whether the code qualifies at design distances (dx, dz)."""
        return (self.dx is None or self.dx >= dx) and (self.dz is None or self.dz >= dz)


@dataclass(frozen=True)
class EnumerationReport:
    """Exact tallies over every nested pair with the given dimensions."""

    q: int
    n: int
    k1: int
    k2: int
    total_pairs: int
    per_error_x: Mapping[Vec, int]
    per_error_z: Mapping[Vec, int]

    def expected_counts(self) -> tuple[int, int]:
        """Per-error counts implied by the counting identities (exact)."""
        denom = self.q**self.n - 1
        x, x_rem = divmod((self.q**self.k1 - self.q**self.k2) * self.total_pairs, denom)
        z, z_rem = divmod(
            (self.q ** (self.n - self.k2) - self.q ** (self.n - self.k1)) * self.total_pairs,
            denom,
        )
        if x_rem or z_rem:
            return (-1, -1)  # identities cannot hold
        return (x, z)

    @property
    def identities_hold(self) -> bool:
        x, z = self.expected_counts()
        return all(v == x for v in self.per_error_x.values()) and all(
            v == z for v in self.per_error_z.values()
        )


def _digits() -> int:
    return sys.get_int_max_str_digits() or 4300   # 0 is no limit: keep messages short


def _capped_pow(q: int, e: int) -> int:
    return q ** min(e, 4 * _digits() + 1)


def _capped_ball(n: int, q: int, t: int) -> int:
    total, term, bits = 0, 1, 4 * _digits()
    for i in range(1, t + 1):   # add C(n, i) (q-1)^i until the sum passes 2^bits
        term = term * (n - i + 1) * (q - 1) // i
        total += term
        if total >> bits:
            break
    return total


def _guard(cost: int, guard: int, message: str) -> None:
    """Raise EnumerationSizeError(message) if ``cost`` exceeds ``guard``.

    A cost is built with the _capped_* helpers: exact below 2^B, B = 4d for
    the interpreter's int-to-str digit limit d, and at least 2^B past it, so
    their sums and products decide a guard without building huge numbers.
    As 2^B > 10^d, a cost the message shows in full is exact."""
    if cost > guard:
        d = _digits()
        raise EnumerationSizeError(message.format(cost if cost < 10**d else f"10^{d} or more", guard))


def _check_distance_size(q: int, n: int, k1: int, k2: int) -> None:
    """css_distances walks C1 and C2-dual: q^k1 + q^(n-k2) codewords."""
    codewords = _capped_pow(q, k1) + _capped_pow(q, n - k2)
    _guard(codewords, COSET_GUARD, "{} codewords exceeds the guard of {}")


def _check_profile_size(q: int, n: int, dx: int, dz: int) -> None:
    """stab_detects_profile's (ex, ez) patterns: one more than each ball
    size, of radius dx-1 and dz-1, multiplied."""
    patterns = (_capped_ball(n, q, dx - 1) + 1) * (_capped_ball(n, q, dz - 1) + 1)
    _guard(patterns, PROFILE_GUARD, "{} patterns exceeds the guard of {}")


def iter_subspaces(field: GF, ambient_dim: int, dim: int) -> Iterator[Subspace]:
    """Every dim-dimensional subspace of GF(p)^ambient_dim exactly once.

    Enumerates canonical RREF matrices directly: a choice of pivot columns
    plus arbitrary entries in the free cells.
    """
    n, k, q = ambient_dim, dim, field.p
    if not 0 <= k <= n:
        raise ParameterRangeError(f"need 0 <= dim <= ambient, got dim={k}, ambient={n}")
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivot_set]
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, col in enumerate(pivots):
                rows[i][col] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield Subspace(field, n, rows)


def _combine(coeffs: Sequence[int], rows: Sequence[Vec], p: int, n: int) -> Vec:
    """The combination sum_i coeffs[i] * rows[i] in GF(p)^n."""
    acc = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in enumerate(row):
                acc[j] += c * x
    return tuple(a % p for a in acc)


def _walk_difference(packing: Packing, big: Subspace, small: Subspace) -> Iterator[list[int]]:
    """Every vector of big \\ small (assumes small <= big) once, packed, in
    lists of at most SPAN_CHUNK; never yields zero.

    big's rows whose pivots small lacks extend small's basis to a basis of
    big (leading positions of a subspace are its pivots, so the combined
    rows have distinct leading positions).  With small's rows varying
    fastest, the span walks coset by coset of small, and its first
    q^dim(small) vectors are small itself.
    """
    small_pivots = set(small.pivot_cols)
    rows = small.basis + tuple(
        row for row, j in zip(big.basis, big.pivot_cols) if j not in small_pivots
    )
    return packing.span_chunks(
        [packing.pack(row) for row in rows], skip=big.field.p**small.dim
    )


def enumerate_nested_pairs(n: int, q: int, k1: int, k2: int) -> EnumerationReport:
    """Visit every nested pair with dim C1 = k1, dim C2 = k2 exactly once and
    tally, for each nonzero error vector, how many pairs fail to detect it
    as a bit error and as a phase error."""
    field = GF(q)
    if not (n >= 1 and 0 <= k2 <= k1 <= n):
        raise ParameterRangeError(f"need 1 <= n and 0 <= k2 <= k1 <= n, got {(n, k1, k2)}")
    e = k1 * (n - k1) + k2 * (k1 - k2)   # there are at least q^e pairs
    pairs = (_capped_pow(q, e) if e > 4 * _digits()
             else gaussian_binomial(n, k1, q) * gaussian_binomial(k1, k2, q))
    _guard(pairs, PAIR_GUARD, "{} pairs exceeds the guard of {}")
    _guard(_capped_pow(q, n) - 1, ERROR_TABLE_GUARD, "{} error vectors exceed the tally guard of {}")
    # each pair walks C1 \ C2 and C2-dual \ C1-dual, within q^k1 + q^(n-k2) vectors
    walked = pairs * (_capped_pow(q, k1) + _capped_pow(q, n - k2))
    _guard(walked, COSET_GUARD, "{} walked vectors exceeds the guard of {}")

    packing = Packing(q, n)
    units = [1 << (packing.width * j) for j in range(n)]
    per_x = dict.fromkeys(chain.from_iterable(packing.span_chunks(units, skip=1)), 0)
    per_z = dict.fromkeys(per_x, 0)
    total = 0
    for c1 in iter_subspaces(field, n, k1):
        c1_dual = c1.dual()
        for coeff_space in iter_subspaces(field, k1, k2):
            c2 = Subspace.span(field, n, [_combine(row, c1.basis, q, n) for row in coeff_space.basis])
            total += 1
            for tally, big, small in ((per_x, c1, c2), (per_z, c2.dual(), c1_dual)):
                for chunk in _walk_difference(packing, big, small):
                    for e in chunk:
                        tally[e] += 1
    unpack = packing.unpack
    return EnumerationReport(
        q=q, n=n, k1=k1, k2=k2, total_pairs=total,
        per_error_x={unpack(e): c for e, c in per_x.items()},
        per_error_z={unpack(e): c for e, c in per_z.items()},
    )


def _min_weight(packing: Packing, big: Subspace, small: Subspace) -> int | None:
    best = None
    for chunk in _walk_difference(packing, big, small):
        w = min(packing.weights(chunk))
        if best is None or w < best:
            best = w
            if best == 1:
                break
    return best


def css_distances(pair: NestedPair) -> DistancePair:
    """Asymmetric distances of the CSS pair by a packed coset walk:
    dx = min weight over C1 \\ C2, dz = min weight over C2-dual \\ C1-dual."""
    q, n = pair.q, pair.n
    _check_distance_size(q, n, pair.c1.dim, pair.c2.dim)
    packing = Packing(q, n)
    dx = _min_weight(packing, pair.c1, pair.c2)
    dz = _min_weight(packing, pair.c2.dual(), pair.c1.dual())
    return DistancePair(dx=dx, dz=dz)


def _ball(syn: Packing, vecs: Packing, cols: list[list[int]], t: int) -> Iterator[tuple[int, int, int]]:
    """(vector, syndrome, next free coordinate) for each vector of weight <= t,
    packed by ``vecs`` and ``syn``.  The syndrome of v is sum_j v_j * cols[j];
    each vector extends a lighter one, at the cost of one syndrome add."""
    q = syn.p
    steps = [
        [(c << vecs.width * j, syn.pack([c * x % q for x in col])) for c in range(1, q)]
        for j, col in enumerate(cols)
    ]
    level = [(0, 0, 0)]
    for w in range(t + 1):
        if w:
            level = [(v + u, syn.add(s, d), j + 1) for v, s, start in level
                     for j in range(start, len(cols)) for u, d in steps[j]]
        yield from level


def stab_detects_profile(code: IsotropicCode, dx: int, dz: int) -> bool:
    """Whether the code qualifies as [[n, k, dx, dz]]: every error (ex|ez)
    with bit weight <= dx-1 and phase weight <= dz-1 (not both parts zero)
    lies outside S-dual \\ S.

    A generator (a|b) has symplectic product a.ez - b.ex with (ex|ez), so
    (ex|ez) is in S-dual exactly when its syndromes (b.ex) and (a.ez) agree.
    The bit ball is joined on syndrome with the phase ball, and only the
    colliding pairs are tested for membership in S: the work is the two
    ball sizes plus the collisions.  The guard stays on the product of the
    ball sizes, as with k = 0 S-dual is S and every pair can collide."""
    n, q = code.n, code.q
    check_ranges(q, n, dx, dz)
    _check_profile_size(q, n, dx, dz)
    rows = code.c.basis
    syn, vecs = Packing(q, len(rows)), Packing(q, n)
    phase_by_syndrome: dict[int, list[int]] = {}
    for ez, s, _ in _ball(syn, vecs, [[row[j] for row in rows] for j in range(n)], dz - 1):
        phase_by_syndrome.setdefault(s, []).append(ez)
    for ex, s, _ in _ball(syn, vecs, [[row[n + j] for row in rows] for j in range(n)], dx - 1):
        for ez in phase_by_syndrome.get(s, ()):
            if (ex or ez) and not code.c.contains(vecs.unpack(ex) + vecs.unpack(ez)):
                return False
    return True


def stab_profile_matrix(code: IsotropicCode) -> list[list[bool]]:
    """Boolean matrix M[dx-1][dz-1] = detects-profile(dx, dz) over the full
    range 1..n+1, from one walk over the undetectable errors S-dual \\ S.

    The walk keeps, for each bit weight wx, the least phase weight of an
    undetectable (ex|ez) with wt(ex) = wx.  The profile (dx, dz) fails
    exactly when some wx <= dx-1 has that least weight <= dz-1, so each row
    of the matrix is read off a prefix minimum."""
    n, q, k = code.n, code.q, code.k
    undetectable = _capped_pow(q, n - k) * (_capped_pow(q, 2 * k) - 1)   # q^(n+k) - q^(n-k)
    _guard(undetectable, COSET_GUARD, "{} error vectors exceeds the guard of {}")
    packing = Packing(q, 2 * n)
    half = n * packing.width
    x_mask = (1 << half) - 1
    least_wz = [n + 1] * (n + 1)   # n + 1: no undetectable error with that wx
    for chunk in _walk_difference(packing, code.stabilizer_dual, code.c):
        for support in packing.supports(chunk):
            wx = (support & x_mask).bit_count()
            wz = (support >> half).bit_count()
            if wz < least_wz[wx]:
                least_wz[wx] = wz
    matrix = []
    dz_cap = n + 1
    for wx in range(n + 1):   # row dx = wx + 1
        dz_cap = min(dz_cap, least_wz[wx])
        matrix.append([dz <= dz_cap for dz in range(1, n + 2)])
    return matrix


def _random_full_rank(rng: Random, field: GF, nrows: int, ncols: int) -> Subspace:
    """Row space of a uniformly random full-rank nrows x ncols matrix; the
    induced distribution over nrows-dim subspaces is uniform."""
    while True:
        rows = [[rng.randrange(field.p) for _ in range(ncols)] for _ in range(nrows)]
        space = Subspace.span(field, ncols, rows)
        if space.dim == nrows:
            return space
        # reject rank-deficient draws


def random_nested_pair(n: int, q: int, k1: int, k2: int, seed: int) -> NestedPair:
    """Uniform draw from the set of nested pairs with dims (k1, k2).

    C1 is the row space of a uniform full-rank k1 x n matrix; C2 is drawn
    the same way inside C1's coordinates.  Deterministic in ``seed``.
    """
    field = GF(q)
    if not (n >= 1 and 0 <= k2 <= k1 <= n):
        raise ParameterRangeError(f"need 1 <= n and 0 <= k2 <= k1 <= n, got {(n, k1, k2)}")
    rng = Random(seed)
    c1 = _random_full_rank(rng, field, k1, n)
    coeffs = _random_full_rank(rng, field, k2, k1)   # its basis spans the same rows as the draw
    rows = [_combine(row, c1.basis, q, n) for row in coeffs.basis]
    return NestedPair(c1=c1, c2=Subspace.span(field, n, rows))


def _sub(a: Sequence[int], c: int, b: Sequence[int], p: int) -> list[int]:
    """a - c*b in GF(p)^n."""
    return [(x - c * y) % p for x, y in zip(a, b)]


def random_isotropic_code(n: int, q: int, k: int, seed: int) -> IsotropicCode:
    """A random [[n, k]]_q stabilizer space built by iterated extension:
    repeatedly adjoin a uniform vector from (current dual) \\ (current
    space).  Deterministic in ``seed``.

    Each step is uniform over (current dual) \\ (current space), whose size
    q^(2n-i) - q^i does not depend on the space, so every ordered isotropic
    basis is equally likely and the draw is uniform over all [[n, k]]_q
    stabilizer spaces (checked over the 15 Lagrangians of GF(2)^4 in the
    tests).

    No dual is rebuilt.  The current space c and its symplectic dual D are
    held as RREF rows (D's rows in pivot order, from the identity) and
    updated in place, O((2n)^2) per step.  A draw v is rejected while its
    residual against c is zero; else the normalized residual joins c, its
    pivot column cleared from c's other rows.  Then D becomes D meet v-perp:
    with f(w) = <v, w> on D's rows, the row s of largest pivot with
    f(s) != 0 is subtracted, times f(w)/f(s), from every other row w with
    f(w) != 0, and dropped.  Row s is zero before its pivot and at every
    other pivot, so only s's pivot column (now free) and later columns
    change: the rows stay RREF, and as the RREF of a space is unique, D is
    exactly ``c.symplectic_dual()``.  So the rng is called in the same
    order and the draws are those of a per-step ``symplectic_dual()``.
    """
    field = GF(q)
    if not (n >= 1 and 0 <= k <= n):
        raise ParameterRangeError(f"need 1 <= n and 0 <= k <= n, got {(n, k)}")
    rng = Random(seed)
    m = 2 * n
    dual = [[int(i == j) for j in range(m)] for i in range(m)]
    rows: list[list[int]] = []
    pivots: list[int] = []
    for _ in range(n - k):
        while True:
            v = _combine([rng.randrange(q) for _ in range(len(dual))], dual, q, m)
            r = list(v)
            for row, j in zip(rows, pivots):
                if r[j]:
                    r = _sub(r, r[j], row, q)
            if any(r):
                break
        j = next(i for i, x in enumerate(r) if x)
        inv = pow(r[j], q - 2, q)
        r = [x * inv % q for x in r]
        rows = [_sub(row, row[j], r, q) if row[j] else row for row in rows]
        at = bisect(pivots, j)
        rows.insert(at, r)
        pivots.insert(at, j)

        twisted = [-x for x in v[n:]] + list(v[:n])   # <v, w> = twisted . w
        f = [sum(map(mul, twisted, w)) % q for w in dual]
        s = max(i for i, x in enumerate(f) if x)
        inv = pow(f[s], q - 2, q)
        dual = [_sub(w, x * inv, dual[s], q) if x else w
                for i, (w, x) in enumerate(zip(dual, f)) if i != s]
    return IsotropicCode(c=Subspace(field, m, rows))


@dataclass(frozen=True)
class SearchHit:
    """A verified witness: the code, its verified distances (for stabilizer
    witnesses the requested profile, verified as met), and the 1-based
    trial that produced it."""

    code: Union[NestedPair, IsotropicCode]
    distances: DistancePair
    trial_index: int


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
    GF(q)  # a search needs a prime field; checked first, so a huge q is refused at once
    if kind == "css":
        if k1 is None or k2 is None:
            raise ParameterRangeError("css search needs k1 and k2")
        CssBoundQuery(q=q, n=n, k1=k1, k2=k2, dx=dx, dz=dz)
        _check_distance_size(q, n, k1, k2)   # the check's guard, before any draw
    elif kind == "stab":
        if k is None:
            raise ParameterRangeError("stab search needs k")
        StabBoundQuery(q=q, n=n, k=k, dx=dx, dz=dz)
        _check_profile_size(q, n, dx, dz)
    else:
        raise ParameterRangeError(f"kind must be 'css' or 'stab', got {kind!r}")
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
    Path(path).write_text(json.dumps(code_to_json_dict(code), sort_keys=True) + "\n")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true is not 1


def _json_rows(data: dict, key: str) -> list[list[int]]:
    rows = data.get(key)
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(_is_int(x) for x in row) for row in rows
    ):
        raise InputShapeError(f'{data["type"]} code file needs "{key}" as a list of integer rows')
    return rows


def load_code_file(path: str | Path) -> Union[NestedPair, IsotropicCode]:
    """Load a code from its JSON file form; rows are canonicalized and all
    invariants (entry ranges, nesting, isotropy) re-checked."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputShapeError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("type") not in ("css", "stab"):
        raise InputShapeError('code file needs "type": "css" or "stab"')
    q, n = data.get("q"), data.get("n")
    if not _is_int(q) or not _is_int(n) or n < 1:
        raise InputShapeError('code file needs integer "q" and "n" fields')
    field = GF(q)
    if data["type"] == "css":
        c1 = Subspace.span(field, n, _json_rows(data, "c1"))
        c2 = Subspace.span(field, n, _json_rows(data, "c2"))
        return NestedPair(c1=c1, c2=c2)
    return IsotropicCode(c=Subspace.span(field, 2 * n, _json_rows(data, "generators")))
