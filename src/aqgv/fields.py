"""Exact linear algebra over prime fields GF(p), and the one home of GF(p)
arithmetic and of the packed layout of (vector | syndrome) rows: other
modules reduce nothing mod p and place no coordinate in a packed int.

Vectors in the API are plain tuples of residues in ``[0, p)``.  Building a
subspace makes its rows canonical: it is held in reduced row-echelon form,
so two equal subspaces compare equal structurally and can be used as dict
keys.  Everything is immutable and pure; sizes are desk scale (ambient
dimension up to a few dozen).

Walks over whole spans do not use tuples: :class:`Packing` packs each
vector into one Python int, a fixed-width bit field per coordinate, with
its syndrome under any check rows appended, so that adding two vectors or
taking a weight is a handful of big-int operations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import mul
from typing import Iterator, Sequence

from .errors import InputShapeError, UnsupportedFieldError

MAX_PRIME = 251
SPAN_CHUNK = 1 << 16   # packed vectors one list of Packing.levels holds (or p - 1)

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
    """GF(p)^n with each vector packed into one int, its syndrome under m >= 0
    check rows of length n appended: coordinate j sits in bits
    [j*width, (j+1)*width), and check i's entry of the syndrome in field
    n + i.  The syndrome is linear, so one packed add gives a vector and its
    syndrome; with no checks a row is the plain packed vector.  ``vector``
    and ``syndrome`` take the two parts off a packed row.

    For p = 2 the width is 1, addition is XOR and the weight is a popcount.
    For odd p the width b = (p-1).bit_length() + 1 leaves each field a spare
    top bit M = 2^(b-1) > p - 1, so one SWAR form is exact for every
    p <= 251: the sum of two residues is below 2M, and adding M - p sets a
    field's top bit exactly where that sum is >= p (where p is subtracted);
    adding M - 1 sets it exactly where a residue is nonzero.
    """

    def __init__(self, p: int, n: int, checks: Sequence[Sequence[int]] = ()):
        self.p = p
        self.n = n
        self.width = b = 1 if p == 2 else (p - 1).bit_length() + 1
        self._units = [1 << (b * j) for j in range(n)]
        self._checks = list(zip(checks, range(b * n, b * (n + len(checks)), b)))   # (check, its shift)
        ones = sum(1 << (b * j) for j in range(n + len(checks)))   # the low bit of every field
        top = 1 << (b - 1)
        self._wrap = (top - p) * ones
        self._top = top * ones
        self._nonzero = (top - 1) * ones
        self._cut = cut = b * n
        self._mask = (1 << cut) - 1
        self.vector = self._mask.__and__
        self.syndrome = cut.__rrshift__

    def rows(self, rows: Sequence[Sequence[int]]) -> list[int]:
        """Each row of GF(p)^n, packed with its syndrome appended."""
        units, p = self._units, self.p
        packed = [sum(map(mul, row, units)) for row in rows]   # row . (e_0, ..., e_{n-1})
        for check, s in self._checks:
            packed = [v + ((sum(map(mul, row, check)) % p) << s) for v, row in zip(packed, rows)]
        return packed

    def units(self) -> list[int]:
        """e_j with column j of the checks appended, for j < n, packed."""
        units = list(self._units)
        for check, s in self._checks:
            units = [u + (c << s) for u, c in zip(units, check)]
        return units

    def unpack(self, x: int) -> Vec:
        """The vector part of a packed row, as a tuple."""
        b = self.width
        mask = (1 << b) - 1
        return tuple((x >> (b * j)) & mask for j in range(self.n))

    def shifted(self, r: int, vs: Sequence[int]) -> list[int]:
        """[r + v for v in vs], each sum taken field by field in GF(p)."""
        if self.p == 2:
            return list(map(r.__xor__, vs))
        wrap, top, shift, p = self._wrap, self._top, self.width - 1, self.p
        return [s - (((s + wrap) & top) >> shift) * p for s in map(r.__add__, vs)]

    def supports(self, vs: Sequence[int]) -> Iterator[int]:
        """For each packed vector, an int with one set bit per nonzero
        coordinate (the field's top bit); its popcount is the weight.  A
        syndrome's entries count too, so take ``vector`` of a row first."""
        if self.p == 2:
            return iter(vs)
        return map(self._top.__and__, map(self._nonzero.__add__, vs))

    def failing(self, rows: Sequence[int]) -> list[int]:
        """``supports`` of the vector parts of the rows with a nonzero syndrome."""
        mask, cut = self._mask, self._cut
        failing = [v & mask for v in rows if v >> cut]
        return failing if self.p == 2 else list(self.supports(failing))

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

    def levels(self, rows: Sequence[int]) -> Iterator[Iterator[list[int]]]:
        """For i = 1, ..., len(rows), the combinations of ``rows`` with exactly
        i nonzero coefficients, in lists of at most max(SPAN_CHUNK, p - 1)
        vectors; nothing of a level is built before its first list is asked for.

        The rows are cut into blocks whose spans fit in SPAN_CHUNK (one row
        at least), and each block keeps its own levels.  Level i joins level
        w >= 1 of the first block j that a combination uses with level i - w
        of the blocks after j, so the join is at most i deep.  One vector of
        the shorter list shifts the whole longer list: each list is at most
        as long as one of its sides, and each joined vector costs one add."""
        size = 1   # rows per block
        while self.p ** (size + 1) <= SPAN_CHUNK:
            size += 1
        blocks = [_BlockLevels(self, rows[start:start + size]) for start in range(0, len(rows), size)]
        return (self._joined_level(blocks, i) for i in range(1, len(rows) + 1))

    def _joined_level(self, blocks: list[_BlockLevels], i: int, start: int = 0) -> Iterator[list[int]]:
        # last block first: block weights in lexicographic order, which decides where a walk stops
        for j in reversed(range(start, len(blocks))):
            for w in range(1, min(i, len(blocks[j].rows)) + 1):
                inner = blocks[j].level(w)
                if w == i:
                    yield inner
                    continue
                for outer in self._joined_level(blocks, i - w, j + 1):
                    short, long = sorted((inner, outer), key=len)
                    for v in short:
                        yield self.shifted(v, long)


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
