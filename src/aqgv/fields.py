"""Exact linear algebra over prime fields GF(p).

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
from itertools import islice
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

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("no inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)


def weight(v: Sequence[int]) -> int:
    """Hamming weight: number of nonzero entries."""
    return sum(1 for x in v if x)


def _rref(mat: list[list[int]], p: int) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Reduced row echelon form, computed in place; returns (nonzero rows,
    pivot columns)."""
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(inv * x) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(a - c * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


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

    def _lazy_span(self, rows: Sequence[int]) -> Iterator[int]:
        """span(rows) in the same order, lazily."""
        if not rows:
            yield 0
            return
        head = rows[0]
        for x in self._lazy_span(rows[1:]):
            yield x
            for _ in range(self.p - 1):
                x = self.add(x, head)
                yield x

    def span_chunks(self, rows: Sequence[int], skip: int = 0) -> Iterator[list[int]]:
        """span(rows) after its first ``skip`` vectors, in lists of at most
        SPAN_CHUNK: the span of the leading rows is materialized once and
        shifted by each combination of the remaining rows in turn."""
        inner_rows = 0
        while inner_rows < len(rows) and self.p ** (inner_rows + 1) <= SPAN_CHUNK:
            inner_rows += 1
        inner = self.span(rows[:inner_rows])
        first, cut = divmod(skip, len(inner))
        for offset in islice(self._lazy_span(rows[inner_rows:]), first, None):
            yield self.shifted(offset, inner[cut:]) if offset else inner[cut:]
            cut = 0


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
        basis, pivots = _rref(rows, p)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivot_cols", pivots)

    @classmethod
    def span(cls, field: GF, ambient_dim: int, rows: Sequence[Sequence[int]]) -> "Subspace":
        """Row space of ``rows``; the same as ``Subspace(field, ambient_dim, rows)``."""
        return cls(field, ambient_dim, rows)

    @classmethod
    def zero(cls, field: GF, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: GF, ambient_dim: int) -> "Subspace":
        rows = tuple(
            tuple(1 if j == i else 0 for j in range(ambient_dim)) for i in range(ambient_dim)
        )
        return cls(field, ambient_dim, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Sequence[int]) -> Vec:
        """Residual of v after elimination against the basis; zero iff v is a member."""
        if len(v) != self.ambient_dim:
            raise InputShapeError("vector length differs from ambient dimension")
        p = self.field.p
        out = [x % p for x in v]
        for row, j in zip(self.basis, self.pivot_cols):
            c = out[j]
            if c:
                out = [(a - c * b) % p for a, b in zip(out, row)]
        return tuple(out)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim or other.field != self.field:
            raise InputShapeError("subspaces live in different ambient spaces")
        return all(self.contains(row) for row in other.basis)

    def vectors(self) -> Iterator[Vec]:
        """All q^dim member vectors, zero included, the first basis row
        varying fastest."""
        packing = Packing(self.field.p, self.ambient_dim)
        for chunk in packing.span_chunks([packing.pack(row) for row in self.basis]):
            yield from map(packing.unpack, chunk)

    def dual(self) -> "Subspace":
        """Dual code under the standard inner product sum(v_i * c_i) mod p."""
        p = self.field.p
        pivots = set(self.pivot_cols)
        rows: list[list[int]] = []
        for f in range(self.ambient_dim):
            if f in pivots:
                continue
            x = [0] * self.ambient_dim
            x[f] = 1
            for row, j in zip(self.basis, self.pivot_cols):
                x[j] = (-row[f]) % p
            rows.append(x)
        return Subspace.span(self.field, self.ambient_dim, rows)

    def symplectic_dual(self) -> "Subspace":
        """Dual under <(a|b),(c|d)> = a.d - b.c on GF(p)^{2n}."""
        if self.ambient_dim % 2:
            raise InputShapeError("symplectic dual needs an even ambient dimension")
        n = self.ambient_dim // 2
        p = self.field.p
        # <v, w> = 0 for v = (a|b) is the standard-product condition (-b|a).w = 0.
        twisted = [
            tuple((-x) % p for x in row[n:]) + row[:n] for row in self.basis
        ]
        return Subspace.span(self.field, self.ambient_dim, twisted).dual()
