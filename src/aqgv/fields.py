"""Exact linear algebra over prime fields GF(p), and the one home of GF(p)
arithmetic and of the packed layout of (vector | syndrome) rows: other
modules reduce nothing mod p and place no coordinate in a packed int.

Vectors in the API are plain tuples of residues in ``[0, p)``.  Building a
subspace makes its rows canonical: it is held in reduced row-echelon form,
so two equal subspaces compare equal structurally and can be used as dict
keys.  GF and Subspace are frozen slotted values (assigning or deleting an
attribute raises AttributeError) and the functions are pure; sizes are desk
scale (ambient dimension up to a few thousand, as in a search at n = 2100
over GF(41)).

Row work does not use tuples: :class:`Packing` packs each vector into one
Python int, a fixed-width bit field per coordinate, with its syndrome under
any packed check rows appended (each entry a ``products``), so that adding
two vectors or taking a weight is a handful of big-int operations.  The one
elimination, ``_rref``, keeps each pivot row as its packed row; a Subspace
keeps those rows, by pivot column too, and its parity-check rows, built
from the packed rows (``_parity_rows``), so that membership, containment,
isotropy, duals and codesearch read them as they are.  A basis is unpacked
into tuples only when ``basis`` is first read.  The samplers draw a whole
matrix per call of :func:`draw`, with the values that one ``randrange`` per
entry would give, and build their codes packed.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, chain, compress
from operator import xor
from random import Random
from typing import Callable, Iterable, Iterator, Sequence

from ._value import Value
from .errors import InputShapeError, UnsupportedFieldError

MAX_PRIME = 251
SPAN_CHUNK = 1 << 16   # packed vectors one list of Packing.levels holds (or p - 1)

Vec = tuple[int, ...]


class GF(Value):
    """A prime field GF(p), 2 <= p <= 251."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int) -> None:
        # range first: trial division below MAX_PRIME is instant
        if not isinstance(p, int) or not 2 <= p <= MAX_PRIME or any(p % d == 0 for d in range(2, p)):
            raise UnsupportedFieldError(
                f"field order must be a prime in [2, {MAX_PRIME}], got {p!r}"
            )
        object.__setattr__(self, "p", p)


def weight(v: Sequence[int]) -> int:
    """Hamming weight: number of nonzero entries."""
    return sum(1 for x in v if x)


def inverse(x: int, p: int) -> int:
    """x^-1 in GF(p), for x in [1, p)."""
    return pow(x, p - 2, p)


@lru_cache(maxsize=None)
def _draw_tables(p: int) -> tuple[bytes, bytes]:
    """The table that keeps the top p.bit_length() bits of a byte, and the
    bytes whose top bits are p or more."""
    shift = 8 - p.bit_length()
    return bytes(b >> shift for b in range(256)), bytes(b for b in range(256) if b >> shift >= p)


def draw(rng: Random, p: int, count: int) -> bytes:
    """[rng.randrange(p) for _ in range(count)], as bytes, with rng left in
    the same state.  randrange(p) takes the top p.bit_length() bits of one
    32-bit word and draws again while they are p or more; here the words
    still missing are drawn by one getrandbits call, their top bytes cut to
    those bits and the rejected ones dropped, until count values are kept."""
    table, reject = _draw_tables(p)
    out = b""
    while len(out) < count:
        words = count - len(out)
        out += rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4].translate(table, reject)
    return out


_TO_DIGITS = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")   # entry -> its binary, octal or hex digit
_FROM_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


class Packing:
    """GF(p)^n with each vector packed into one int, its syndrome under m >= 0
    packed check rows appended: coordinate j sits in bits [j*width,
    (j+1)*width), and check i's ``products`` with the vector in field n + i.
    The syndrome is linear, so one packed add gives a vector and its
    syndrome; with no checks a row is the plain packed vector.  ``vector``
    and ``syndrome`` take the two parts off a packed row.

    For p = 2 the width is 1, addition is XOR and the weight is a popcount.
    For odd p the width b is the first of 3, 4, 8 and 16 whose top bit
    M = 2^(b-1) is >= p, a spare bit, so one SWAR form is exact for every
    p <= 251: the sum of two residues is below 2M, and adding M - p sets a
    field's top bit exactly where that sum is >= p (where p is subtracted);
    adding M - 1 sets it exactly where a residue is nonzero.

    So a field is one binary, octal or hex digit, one byte or two bytes,
    and a row enters and leaves by one conversion in C, O(n) whatever n
    is: ``rows`` reads it as the digits of int(.., 2, 8 or 16), lowest
    field last, or by int.from_bytes, and ``unpack`` writes it by
    format(.., "b", "o" or "x") or int.to_bytes.
    """

    def __init__(self, p: int, n: int, checks: Sequence[int] = ()):
        self.p = p
        self.n = n
        self.width = b = 1 if p == 2 else next(b for b in (3, 4, 8, 16) if 1 << (b - 1) >= p)
        self._checks = list(zip(checks, range(b * n, b * (n + len(checks)), b)))   # (check, its shift)
        self._ones = ones = ((1 << (b * (n + len(checks)))) - 1) // ((1 << b) - 1)   # the low bit of every field
        self._pones = p * ones
        top = 1 << (b - 1)
        self._wrap = (top - p) * ones
        self._top = top * ones
        self._nonzero = (top - 1) * ones
        self._cut = cut = b * n
        self._mask = (1 << cut) - 1
        self._slot = b // 8   # bytes per field, 0 when a field is one digit
        self._format = f"0{n}" + {1: "b", 3: "o", 4: "x"}.get(b, "")   # a row's digits, highest field first
        self._lowest_first = slice(None, -n - 1, -1)   # a format's n digits reversed (none for n = 0)
        self.vector = self._mask.__and__
        self.syndrome = cut.__rrshift__
        self.add = xor if p == 2 else self._adder()

    @staticmethod
    @lru_cache(maxsize=64)
    def plain(p: int, n: int) -> Packing:
        """The Packing of GF(p)^n with no checks, built once per (p, n)."""
        return Packing(p, n)

    def rows(self, rows: Sequence[Sequence[int]]) -> list[int]:
        """Each row of GF(p)^n (residues, as a sequence of ints or as bytes),
        packed with its syndrome appended (``checked``)."""
        return self.checked(self._vectors(rows))

    def checked(self, vectors: Sequence[int]) -> list[int]:
        """Packed vectors of GF(p)^n with their syndromes appended."""
        out = list(vectors)
        for check, s in self._checks:
            out = [v + (x << s) for v, x in zip(out, self.products(check, out))]
        return out

    def _vectors(self, rows: Sequence[Sequence[int]]) -> list[int]:
        slot = self._slot
        if not slot:   # one digit per entry, lowest field last; no digits (n = 0) read as 0
            base = 1 << self.width
            return [int(bytes(row)[::-1].translate(_TO_DIGITS) or b"0", base) for row in rows]
        packed, slots = [], bytearray(slot * self.n)   # a field's high byte stays 0
        for row in rows:
            slots[::slot] = bytes(row)
            packed.append(int.from_bytes(slots, "little"))
        return packed

    def units(self) -> list[int]:
        """e_j with column j of the checks appended, for j < n, packed: a
        check's product with e_j is its entry j, so each syndrome is a column."""
        units = [1 << (self.width * j) for j in range(self.n)]
        if not self._checks:
            return units
        columns = zip(*(self.unpack(check) for check, _ in self._checks))
        syndromes = Packing.plain(self.p, len(self._checks))._vectors(columns)
        return [u + (x << self._cut) for u, x in zip(units, syndromes)]

    def unpack(self, x: int) -> Vec:
        """The vector part of a packed row, as a tuple."""
        return tuple(self._entries(x))

    def _entries(self, x: int) -> bytes:
        """The vector part of a packed row, one byte per entry."""
        x &= self._mask
        if not self._slot:
            return format(x, self._format).encode()[self._lowest_first].translate(_FROM_DIGITS)
        return x.to_bytes(self._slot * self.n, "little")[::self._slot]

    def draw_rows(self, rng: Random, count: int) -> list[int]:
        """count uniform vectors, packed: the values of count * n calls of
        rng.randrange(p), row by row (``draw``)."""
        values, n = draw(rng, self.p, count * self.n), self.n
        return self.rows([values[i:i + n] for i in range(0, count * n, n)])

    def _adder(self) -> Callable[[int, int], int]:
        wrap, top, shift, p = self._wrap, self._top, self.width - 1, self.p

        def add(a: int, b: int) -> int:
            s = a + b
            return s - (((s + wrap) & top) >> shift) * p
        return add

    def neg(self, v: int) -> int:
        """-v in GF(p): p - v field by field, then p -> 0 by adding 0."""
        return v if self.p == 2 else self.add(self._pones - v, 0)

    def times(self, c: int, v: int) -> int:
        """c * v in GF(p), for c in [0, p), by doubling and adding."""
        if c < 2:
            return v if c else 0
        out, add = v, self.add
        for bit in bin(c)[3:]:   # below the top bit
            out = add(out, out)
            if bit == "1":
                out = add(out, v)
        return out

    def sub(self, a: int, c: int, b: int) -> int:
        """a - c*b in GF(p), for c in [0, p).  At c = 1 it is one add: p - b_j
        lies in [1, p] with no borrow, and a_j + p - b_j < 2p <= 2M."""
        if c == 1:
            return a ^ b if self.p == 2 else self.add(a, self._pones - b)
        return self.add(a, self.times(-c % self.p, b))

    def combine(self, coeffs: Sequence[int], rows: Sequence[int]) -> int:
        """sum_i coeffs[i] * rows[i] in GF(p): the rows whose coefficient has
        bit t set are summed for each bit t, and those sums joined by
        doubling from the top bit down.  At p = 2 it is one XOR of the rows
        with coefficient 1."""
        acc, add = 0, self.add
        for t in reversed(range((self.p - 1).bit_length())):
            acc = add(add(acc, acc), reduce(add, compress(rows, map((1 << t).__and__, coeffs)), 0))
        return acc

    def support(self, v: int) -> int:
        """An int with one set bit per nonzero field of v (its top bit)."""
        return v if self.p == 2 else (v + self._nonzero) & self._top

    def lowest(self, v: int) -> tuple[int, int, int]:
        """(support bit, column, entry) of the lowest nonzero field of v != 0."""
        bit = self.support(v) & -self.support(v)
        j = (bit.bit_length() - 1) // self.width
        return bit, j, (v >> (self.width * j)) & ((1 << self.width) - 1)

    def products(self, v: int, rows: Sequence[int]) -> list[int]:
        """v . w in GF(p) for each packed w in rows: the sum over bit pairs
        (s, t) of 2^(s+t) times the number of fields where v has bit s set
        and w bit t, one pass over all rows per pair.  At p = 2 that is the
        parity of their common support."""
        if self.p == 2:
            return [(v & w).bit_count() & 1 for w in rows]
        bits = range((self.p - 1).bit_length())   # the bits a residue can have set
        planes = [(s, (v >> s) & self._ones) for s in bits]   # bit s of every field, at the field's bit 0
        totals = [0] * len(rows)
        for t in bits:
            shifted = [w >> t for w in rows]   # bit t of each field at the field's bit 0
            for s, x in planes:
                totals = [a + ((x & w).bit_count() << (s + t)) for a, w in zip(totals, shifted)]
        return [a % self.p for a in totals]

    def twist(self, v: int) -> int:
        """(-b|a) for v = (a|b) in GF(p)^n, n even: the symplectic product
        <v, w> is the standard product of twist(v) with w."""
        half = self.width * (self.n // 2)
        return self.neg(v >> half) | ((v & ((1 << half) - 1)) << half)

    def shifted(self, r: int, vs: Sequence[int]) -> list[int]:
        """[r + v for v in vs], each sum taken field by field in GF(p)."""
        if self.p == 2:
            return list(map(r.__xor__, vs))
        wrap, top, shift, p = self._wrap, self._top, self.width - 1, self.p
        return [(s := r + v) - (((s + wrap) & top) >> shift) * p for v in vs]

    def _shifted_sections(self, shifts: Iterable[Sequence[int]], blocks: Iterable[Sequence[int]]) -> list[int]:
        """``shifted(r, vs)`` for each r of rs in turn, for each pair (rs, vs)
        of zip(shifts, blocks), joined in that order: one list pass, with no
        call per shift (``_BlockLevels.level``)."""
        sections = zip(shifts, blocks)
        if self.p == 2:
            return [r ^ v for rs, vs in sections for r in rs for v in vs]
        wrap, top, shift, p = self._wrap, self._top, self.width - 1, self.p
        return [(s := r + v) - (((s + wrap) & top) >> shift) * p for rs, vs in sections for r in rs for v in vs]

    def supports(self, vs: Sequence[int]) -> Iterator[int]:
        """For each packed vector, an int with one set bit per nonzero
        coordinate (the field's top bit); its popcount is the weight.  A
        syndrome's entries count too, so take ``vector`` of a row first."""
        if self.p == 2:
            return iter(vs)
        return map(self._top.__and__, map(self._nonzero.__add__, vs))

    def failing(self, rows: Sequence[int]) -> Iterator[int]:
        """Iterate the ``supports`` of the vector parts of the rows with a nonzero syndrome."""
        mask, cut = self._mask, self._cut
        return self.supports([v & mask for v in rows if v >> cut])

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

    def levels(self, rows: Sequence[int], classes: bool = False) -> Iterator[Iterator[list[int]]]:
        """For i = 1, ..., len(rows), the combinations of ``rows`` with exactly
        i nonzero coefficients, in lists of at most max(SPAN_CHUNK, p - 1)
        vectors; nothing of a level is built before its first list is asked for.
        With ``classes``, one combination per scalar class: those whose first
        nonzero coefficient is 1, 1/(p - 1) of each level (all of it at p = 2).

        The rows are cut into blocks whose spans fit in SPAN_CHUNK (one row
        at least), and each block keeps its own levels.  Level i joins level
        w >= 1 of the first block j that a combination uses with level i - w
        of the blocks after j, so the join is at most i deep; only block j
        holds the first nonzero coefficient, so only its levels are taken by
        class.  One vector of the shorter list shifts the whole longer list:
        each list is at most as long as one of its sides, and each joined
        vector costs one add."""
        size = 1   # rows per block
        while self.p ** (size + 1) <= SPAN_CHUNK:
            size += 1
        cuts = [rows[start:start + size] for start in range(0, len(rows), size)]
        blocks = [_BlockLevels(self, cut) for cut in cuts]
        firsts = [_BlockLevels(self, cut, classes=True) for cut in cuts] if classes and self.p > 2 else blocks
        return (self._joined_level(firsts, blocks, i) for i in range(1, len(rows) + 1))

    def _joined_level(self, firsts: list[_BlockLevels], blocks: list[_BlockLevels], i: int,
                      start: int = 0) -> Iterator[list[int]]:
        # last block first: block weights in lexicographic order, which decides where a walk stops
        for j in reversed(range(start, len(blocks))):
            for w in range(1, min(i, len(blocks[j].rows)) + 1):
                inner = firsts[j].level(w)
                if w == i:
                    yield inner
                    continue
                for outer in self._joined_level(blocks, blocks, i - w, j + 1):
                    short, long = sorted((inner, outer), key=len)
                    for v in short:
                        yield self.shifted(v, long)


class _BlockLevels:
    """The levels of one block of rows, each built once, on first use; with
    ``classes``, the combinations whose first nonzero coefficient is 1.

    Level w is ordered by the last row each vector uses, so the vectors of
    level w - 1 that use no row from j on are a prefix of it, ``prev[:end]``;
    level w's vectors that end in row j are that prefix shifted by each
    nonzero multiple of row j, 1, 2, ..., p - 1 times it in turn.  A level is
    one list pass over (row, multiple, prefix), one packed add per vector
    (``Packing._shifted_sections``); each row's multiples are made once per
    block, and the next level's ends are the running sums of its sections.
    Level 1 is the multiples themselves; of the classes, the rows alone, one
    multiple each, and the later levels recurse the same way: each vector's
    first coefficient stays the 1 it began with."""

    def __init__(self, packing: Packing, rows: Sequence[int], classes: bool = False):
        self.packing = packing
        self.rows = rows
        self._classes = classes
        self._levels = [[0]]
        self._ends: list[int] = []   # per row j, the last level's vectors that use no row >= j
        self._multiples: list[list[int]] | None = None   # per row, its p - 1 nonzero multiples

    def _row_multiples(self) -> list[list[int]]:
        if self._multiples is None:
            add, multiples = self.packing.add, []
            for row in self.rows:
                ms = [row]
                for _ in range(self.packing.p - 2):
                    ms.append(add(ms[-1], row))
                multiples.append(ms)
            self._multiples = multiples
        return self._multiples

    def level(self, w: int) -> list[int]:
        levels = self._levels
        while len(levels) <= w:
            if len(levels) == 1:
                multiples = [[row] for row in self.rows] if self._classes else self._row_multiples()
                level = list(chain.from_iterable(multiples))
                sizes = map(len, multiples)
            else:
                multiples, prev, ends = self._row_multiples(), levels[-1], self._ends
                level = self.packing._shifted_sections(multiples, map(prev.__getitem__, map(slice, ends)))
                sizes = (len(ms) * end for ms, end in zip(multiples, ends))
            levels.append(level)
            self._ends = list(accumulate(sizes, initial=0))   # the last is the level's length
        return levels[w]


def _clear(packing: Packing, v: int, marks: int, pivots: dict[int, int]) -> int:
    """v minus c * pivots[j] (``Packing.sub``) for each pivot column j whose
    support bit is in marks and where v's entry c is nonzero, lowest first.
    A pivot row is 1 at its column and 0 before it, so a subtraction changes
    v only from that column on."""
    support, sub, width = packing.support, packing.sub, packing.width
    field = (1 << width) - 1
    while x := support(v) & marks:
        j = ((x & -x).bit_length() - 1) // width
        v = sub(v, (v >> (width * j)) & field, pivots[j])
    return v


def _rref(packing: Packing, rows: Sequence[int]) -> tuple[
        tuple[int, ...], tuple[int, ...], tuple[int, dict[int, int]]]:
    """Reduced row echelon form of packed rows: (pivot columns, the nonzero
    rows packed, and the table ``_clear`` takes: marks and {pivot column:
    packed row}); nothing is unpacked.  Each row in turn is cleared at
    the pivots found so far, and its lowest nonzero field, scaled to 1,
    becomes a new pivot; then each pivot row, last pivot first, is cleared
    at the pivots after its own.  A row costs one packed operation per
    nonzero entry it has at a pivot, and none per column it skips."""
    pivots: dict[int, int] = {}   # pivot column -> its packed row
    marks = 0                     # the support bit of every pivot column
    for v in rows:
        v = _clear(packing, v, marks, pivots)
        if v:
            bit, j, x = packing.lowest(v)
            pivots[j] = packing.times(inverse(x, packing.p), v)
            marks |= bit
    columns = sorted(pivots)
    for j in reversed(columns):
        row = pivots[j]
        pivots[j] = _clear(packing, row, marks & ~packing.lowest(row)[0], pivots)
    return tuple(columns), tuple(pivots[j] for j in columns), (marks, pivots)


def _parity_rows(packing: Packing, rows: Sequence[int], pivots: Sequence[int]) -> tuple[int, ...]:
    """The parity-check rows of packed RREF rows with these pivot columns, a
    basis of their dual, packed: per free column f, 1 at f and -rows[i][f]
    at pivots[i].  They are built by columns, as bytes, one per entry, with
    no entry touched in Python: the negated rows' entries read as one k x n
    matrix, its free columns (strided slices) read as one matrix whose
    column i is column pivots[i] of the checks, each free column of the
    checks a unit, and the checks the strided slices of those columns."""
    n, k = packing.n, len(rows)
    pivot_set = set(pivots)
    free = [f for f in range(n) if f not in pivot_set]
    m = len(free)
    entries = b"".join(packing._entries(packing.neg(r)) for r in rows)
    at_free = b"".join(entries[f::n] for f in free)
    columns = [at_free[i::k] for i in range(k)]   # the checks' columns at the pivots, in pivot order
    for r, f in enumerate(free):
        columns.insert(f, bytes(r) + b"\x01" + bytes(m - r - 1))
    checks = b"".join(columns)
    return tuple(packing.rows([checks[r::m] for r in range(m)]))


class Subspace(Value):
    """A linear code C <= GF(p)^n, held in its canonical RREF basis.

    Construction makes the rows canonical: ``Subspace(field, n, rows)``
    takes any rows (dependent, shuffled or zero ones included) and stores
    the reduced row-echelon basis of their span, with its pivot columns.
    So equality is structural: two Subspace values represent the same
    space iff they are equal.  The rows are kept packed by ``packing``, as
    ``packed``, and by pivot column in ``_table`` (``_rref``); ``basis``,
    the same rows as tuples, is unpacked from ``packed`` when first read
    and kept in ``_basis``.  Those attributes, ``pivot_cols`` and the
    parity-check rows ``_parity`` are slots outside ``_fields``, derived
    from the canonical rows, so no argument, comparison, hash or repr reads
    them; ``basis`` stays a field, read through its property.
    """

    _fields = ("field", "ambient_dim", "basis")
    __slots__ = ("field", "ambient_dim", "_basis", "pivot_cols", "packed", "_table", "_parity")

    def __init__(self, field: GF, ambient_dim: int, basis: Sequence[Sequence[int]]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        n = ambient_dim
        if type(n) is not int or n < 0:   # type, not isinstance: bool is refused too
            raise InputShapeError(f"ambient dimension must be an integer >= 0, got {n!r}")
        rows = [list(row) for row in basis]
        for row in rows:
            if len(row) != n:
                raise InputShapeError(f"row length {len(row)} differs from ambient dimension {n}")
        self._check_entries(rows)
        self._canonical(self.packing.rows(rows) if rows else [])

    def _check_entries(self, rows: Sequence[Sequence[int]]) -> None:
        """Refuse rows of length n unless each entry is an int residue mod p, by
        C-level passes; type, not isinstance, so that bool is refused too."""
        if rows and self.ambient_dim and (set(map(type, chain.from_iterable(rows))) != {int}
                                          or min(map(min, rows)) < 0 or max(map(max, rows)) >= self.field.p):
            raise InputShapeError(f"entries must be integer residues in [0, {self.field.p})")

    def _canonical(self, packed: Sequence[int]) -> None:
        pivots, packed, table = _rref(self.packing, packed) if packed else ((), (), (0, {}))
        object.__setattr__(self, "_basis", None)   # basis, once asked for
        object.__setattr__(self, "pivot_cols", pivots)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_parity", None)   # parity_rows, once asked for

    @classmethod
    def span(cls, field: GF, ambient_dim: int, rows: Sequence[Sequence[int]]) -> "Subspace":
        """Row space of ``rows``; the same as ``Subspace(field, ambient_dim, rows)``."""
        return cls(field, ambient_dim, rows)

    @classmethod
    def from_packed(cls, field: GF, ambient_dim: int, rows: Sequence[int]) -> "Subspace":
        """Row space of rows packed by ``packing``, which come from packed
        arithmetic and so are not checked."""
        space = object.__new__(cls)
        object.__setattr__(space, "field", field)
        object.__setattr__(space, "ambient_dim", ambient_dim)
        space._canonical(rows)
        return space

    @property
    def packing(self) -> Packing:
        """The plain Packing of GF(p)^n that ``packed`` uses."""
        return Packing.plain(self.field.p, self.ambient_dim)

    @property
    def basis(self) -> tuple[Vec, ...]:
        """The canonical RREF rows as tuples, unpacked from ``packed`` on first use."""
        if self._basis is None:   # no Packing without rows: n may be huge
            object.__setattr__(self, "_basis", tuple(map(self.packing.unpack, self.packed)) if self.packed else ())
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.packed)

    def reduce(self, v: Sequence[int]) -> Vec:
        """Residual of v after elimination against the basis, zero iff v is a
        member: v packed, cleared at the pivot columns (``_clear``)."""
        if len(v) != self.ambient_dim:
            raise InputShapeError("vector length differs from ambient dimension")
        self._check_entries([v])
        packing = self.packing
        return packing.unpack(_clear(packing, packing.rows([v])[0], *self._table))

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def contains_space(self, other: "Subspace") -> bool:
        """Whether other <= self: each of other's packed rows is cleared at
        self's pivot columns, and must vanish."""
        if other.ambient_dim != self.ambient_dim or other.field != self.field:
            raise InputShapeError("subspaces live in different ambient spaces")
        if not other.packed:
            return True
        return not any(_clear(self.packing, v, *self._table) for v in other.packed)

    @property
    def parity_rows(self) -> tuple[int, ...]:
        """The parity-check rows of the packed basis (``_parity_rows``), built
        once: a basis of the dual, systematic on the free columns."""
        if self._parity is None:
            object.__setattr__(self, "_parity", _parity_rows(self.packing, self.packed, self.pivot_cols))
        return self._parity

    def dual(self) -> "Subspace":
        """Dual code under the standard inner product sum(v_i * c_i) mod p."""
        return Subspace.from_packed(self.field, self.ambient_dim, self.parity_rows)

    def symplectic_dual(self) -> "Subspace":
        """Dual under <(a|b),(c|d)> = a.d - b.c: as <u, twist(y)> = u.y, it
        is spanned by the twists (``Packing.twist``) of dual()'s rows."""
        if self.ambient_dim % 2:
            raise InputShapeError("symplectic dual needs an even ambient dimension")
        return Subspace.from_packed(self.field, self.ambient_dim, list(map(self.packing.twist, self.parity_rows)))
