"""Exact linear algebra over prime fields GF(p), and the one home of GF(p)
arithmetic and of the packed vector layout: other modules reduce nothing
mod p and place no coordinate in a packed int, they call this module.

Vectors in the API are plain tuples of residues in ``[0, p)``.  Building a
subspace makes its rows canonical: it is held in reduced row-echelon form,
so two equal subspaces compare equal structurally and can be used as dict
keys.  Everything is immutable and pure; sizes are desk scale (ambient
dimension up to a few dozen).

Walks over whole spans do not use tuples: :class:`Packing` packs each
vector into one Python int, a fixed-width bit field per coordinate, so that
adding two vectors or taking a weight is a handful of big-int operations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import mul
from typing import Iterator, Sequence

from .errors import InputShapeError, UnsupportedFieldError

MAX_PRIME = 251
SPAN_CHUNK = 1 << 16   # packed vectors a span walk materializes in one list

Vec = tuple[int, ...]


@dataclass(frozen=True)
class GF:
    """A prime field GF(p), 2 <= p <= 251."""

    p: int

    def __post_init__(self) -> None:
        p = self.p  # range first: trial division below MAX_PRIME is instant
        if not isinstance(p, int) or not 2 <= p <= MAX_PRIME or any(p % d == 0 for d in range(2, p)):
            raise UnsupportedFieldError(
                f"field order must be a prime in [2, {MAX_PRIME}], got {p!r}"
            )


def weight(v: Sequence[int]) -> int:
    """Hamming weight: number of nonzero entries."""
    return sum(1 for x in v if x)


def symplectic_twist(v: Sequence[int], p: int) -> Vec:
    """(-b|a) mod p for v = (a|b) with entries in [0, p): the symplectic
    form <(a|b), (c|d)> = a.d - b.c is the standard product of
    symplectic_twist(v) with (c|d)."""
    n = len(v) // 2
    return tuple([(-x) % p for x in v[n:]] + list(v[:n]))


def symplectic_products(v: Sequence[int], rows: Sequence[Sequence[int]], p: int) -> list[int]:
    """<v, w> = a.d - b.c mod p for v = (a|b) and each w = (c|d) in rows."""
    twisted = symplectic_twist(v, p)
    return [sum(map(mul, twisted, w)) % p for w in rows]


def inverse(x: int, p: int) -> int:
    """x^-1 in GF(p), for x in [1, p)."""
    return pow(x, p - 2, p)


def sub(a: Sequence[int], c: int, b: Sequence[int], p: int) -> list[int]:
    """a - c*b in GF(p)^n."""
    return [(x - c * y) % p for x, y in zip(a, b)]


def combine(coeffs: Sequence[int], rows: Sequence[Sequence[int]], p: int, n: int) -> Vec:
    """The combination sum_i coeffs[i] * rows[i] in GF(p)^n."""
    acc = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * x for a, x in zip(acc, row)]
    return tuple([a % p for a in acc])


def _rref(mat: list[list[int]], p: int, ncols: int) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Reduced row echelon form of rows of length ncols, computed in place;
    returns (nonzero rows, pivot columns)."""
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == len(mat):
            break
        pr = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = inverse(mat[r][col], p)
        mat[r] = [(inv * x) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                mat[i] = sub(mat[i], mat[i][col], mat[r], p)
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def dual_rows(basis: Sequence[Sequence[int]], pivots: Sequence[int], p: int, n: int) -> list[list[int]]:
    """The parity-check rows of an RREF basis, a basis of its dual: per free
    column f, 1 at f and -basis[i][f] at pivots[i]."""
    rows = []
    for f in sorted(set(range(n)) - set(pivots)):
        x = [0] * n
        x[f] = 1
        for row, j in zip(basis, pivots):
            x[j] = (-row[f]) % p
        rows.append(x)
    return rows


class Packing:
    """GF(p)^n with each vector packed into one int: coordinate j sits in
    bits [j*width, (j+1)*width).

    For p = 2 the width is 1, addition is XOR and the weight is a popcount.
    For odd p the width b = (p-1).bit_length() + 1 leaves each field a spare
    top bit M = 2^(b-1) > p - 1, so one SWAR form is exact for every
    p <= 251: the sum of two residues is below 2M, and adding M - p sets a
    field's top bit exactly where that sum is >= p (where p is subtracted);
    adding M - 1 sets it exactly where a residue is nonzero.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.width = b = 1 if p == 2 else (p - 1).bit_length() + 1
        ones = sum(1 << (b * j) for j in range(n))   # the low bit of every field
        top = 1 << (b - 1)
        self._wrap = (top - p) * ones
        self._top = top * ones
        self._nonzero = (top - 1) * ones

    def unit(self, j: int) -> int:
        """The j-th unit vector, packed."""
        return 1 << self.width * j

    def pack(self, v: Sequence[int]) -> int:
        b = self.width
        return sum(x << (b * j) for j, x in enumerate(v))

    def unpack(self, x: int) -> Vec:
        b = self.width
        mask = (1 << b) - 1
        return tuple((x >> (b * j)) & mask for j in range(self.n))

    def add(self, a: int, r: int) -> int:
        if self.p == 2:
            return a ^ r
        s = a + r
        return s - (((s + self._wrap) & self._top) >> (self.width - 1)) * self.p

    def shifted(self, r: int, vs: Sequence[int]) -> list[int]:
        """[add(r, v) for v in vs]."""
        if self.p == 2:
            return list(map(r.__xor__, vs))
        wrap, top, shift, p = self._wrap, self._top, self.width - 1, self.p
        return [s - (((s + wrap) & top) >> shift) * p for s in map(r.__add__, vs)]

    def supports(self, vs: Sequence[int]) -> Iterator[int]:
        """For each packed vector, an int with one set bit per nonzero
        coordinate (the field's top bit); its popcount is the weight."""
        if self.p == 2:
            return iter(vs)
        return map(self._top.__and__, map(self._nonzero.__add__, vs))

    def weights(self, vs: Sequence[int]) -> Iterator[int]:
        return map(int.bit_count, self.supports(vs))

    def span(self, rows: Sequence[int]) -> list[int]:
        """All p^len(rows) combinations, rows[0] varying fastest; each
        vector costs one packed addition."""
        out = [0]
        for r in rows:
            block = out
            for _ in range(self.p - 1):
                block = self.shifted(r, block)
                out.extend(block)
        return out

    def _rows_per_chunk(self) -> int:
        """The most rows whose span fits in one list of SPAN_CHUNK vectors."""
        rows = 0
        while self.p ** (rows + 1) <= SPAN_CHUNK:
            rows += 1
        return rows

    def span_chunks(self, rows: Sequence[int], skip: int = 0) -> Iterator[list[int]]:
        """span(rows) after its first ``skip`` vectors, in lists of at most
        SPAN_CHUNK: the span of the leading rows is materialized once and
        shifted by each combination of the remaining rows, listed up front:
        callers walk at most codesearch.COSET_GUARD = 2^26 vectors, and when
        rows remain the inner span has >= 41^2 (p = 41), so that is <= ~40k."""
        inner_rows = min(len(rows), self._rows_per_chunk())
        inner = self.span(rows[:inner_rows])
        first, cut = divmod(skip, len(inner))
        for offset in self.span(rows[inner_rows:])[first:]:
            yield self.shifted(offset, inner[cut:]) if offset else inner[cut:]
            cut = 0

    def levels(self, rows: Sequence[int]) -> Iterator[Iterator[list[int]]]:
        """For i = 1, ..., len(rows), the combinations of ``rows`` with exactly
        i nonzero coefficients, in lists of at most max(SPAN_CHUNK, p - 1)
        vectors; nothing of a level is built before its first list is asked for.

        The rows are cut into blocks whose spans fit in SPAN_CHUNK, as in
        span_chunks (one row at least), and each block keeps its own levels.
        Level i of all rows joins level w of the first block with level i - w
        of the other blocks: one vector of the shorter list shifts the whole
        longer list, so each list is at most as long as one of its sides and
        each joined vector costs one packed add."""
        size = max(1, self._rows_per_chunk())
        blocks = [_BlockLevels(self, rows[start:start + size]) for start in range(0, len(rows), size)]
        return (self._joined_level(blocks, i) for i in range(1, len(rows) + 1))

    def _joined_level(self, blocks: list[_BlockLevels], i: int) -> Iterator[list[int]]:
        head, rest = blocks[0], blocks[1:]
        if not rest:
            yield head.level(i)
            return
        rest_rows = sum(len(block.rows) for block in rest)
        for w in range(max(0, i - rest_rows), min(i, len(head.rows)) + 1):
            inner = head.level(w)
            for outer in self._joined_level(rest, i - w):
                short, long = sorted((inner, outer), key=len)
                for v in short:
                    yield self.shifted(v, long) if v else long


class _BlockLevels:
    """The levels of one block of rows, each built once, on first use.

    Level w is ordered by the last row each vector uses, so the vectors of
    level w - 1 that use no row from j on are a prefix of it; level w's
    vectors that end in row j are that prefix shifted by each nonzero
    multiple of row j, one packed add per vector."""

    def __init__(self, packing: Packing, rows: Sequence[int]):
        self.packing = packing
        self.rows = rows
        self._levels = [[0]]
        self._ends = [1] * len(rows)   # per row j, the last level's vectors that use no row >= j

    def level(self, w: int) -> list[int]:
        shifted, multiples = self.packing.shifted, range(self.packing.p - 1)
        while len(self._levels) <= w:
            prev, level, ends = self._levels[-1], [], []
            for row, end in zip(self.rows, self._ends):
                ends.append(len(level))
                block = prev[:end]
                for _ in multiples:
                    block = shifted(row, block)
                    level.extend(block)
            self._levels.append(level)
            self._ends = ends
        return self._levels[w]


@dataclass(frozen=True)
class Subspace:
    """A linear code C <= GF(p)^n, held in its canonical RREF basis.

    Construction makes the rows canonical: ``Subspace(field, n, rows)``
    takes any rows (dependent, shuffled or zero ones included) and stores
    the reduced row-echelon basis of their span, with its pivot columns.
    So equality is structural: two Subspace values represent the same
    space iff they are equal.
    """

    field: GF
    ambient_dim: int
    basis: tuple[Vec, ...]
    pivot_cols: tuple[int, ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, p = self.ambient_dim, self.field.p
        if n < 0:
            raise InputShapeError("ambient dimension must be >= 0")
        rows = [list(row) for row in self.basis]
        for row in rows:
            if len(row) != n:
                raise InputShapeError(f"row length {len(row)} differs from ambient dimension {n}")
            if any(not isinstance(x, int) or not (0 <= x < p) for x in row):
                raise InputShapeError(f"entries must be integer residues in [0, {p})")
        basis, pivots = _rref(rows, p, n)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivot_cols", pivots)

    @classmethod
    def span(cls, field: GF, ambient_dim: int, rows: Sequence[Sequence[int]]) -> "Subspace":
        """Row space of ``rows``; the same as ``Subspace(field, ambient_dim, rows)``."""
        return cls(field, ambient_dim, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Sequence[int]) -> Vec:
        """Residual of v after elimination against the basis, zero iff v is a
        member: each RREF row is subtracted v[its pivot] times."""
        if len(v) != self.ambient_dim:
            raise InputShapeError("vector length differs from ambient dimension")
        coeffs = [1] + [-v[j] for j in self.pivot_cols]
        return combine(coeffs, [v, *self.basis], self.field.p, self.ambient_dim)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim or other.field != self.field:
            raise InputShapeError("subspaces live in different ambient spaces")
        return all(self.contains(row) for row in other.basis)

    def dual(self) -> "Subspace":
        """Dual code under the standard inner product sum(v_i * c_i) mod p."""
        rows = dual_rows(self.basis, self.pivot_cols, self.field.p, self.ambient_dim)
        return Subspace.span(self.field, self.ambient_dim, rows)

    def symplectic_dual(self) -> "Subspace":
        """Dual under <(a|b),(c|d)> = a.d - b.c: as <u, twist(y)> = u.y, it is the twist of dual()."""
        if self.ambient_dim % 2:
            raise InputShapeError("symplectic dual needs an even ambient dimension")
        rows = dual_rows(self.basis, self.pivot_cols, self.field.p, self.ambient_dim)
        return Subspace.span(self.field, self.ambient_dim, [symplectic_twist(y, self.field.p) for y in rows])
