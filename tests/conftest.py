import pytest
from hypothesis import settings

from aqgv.codesearch import IsotropicCode, NestedPair
from aqgv.fields import GF, Packing, Subspace

# Cyclic XZZXI generators of the [[5,1,3]] code, written as (x|z) rows.
FIVE_QUBIT_GENERATORS = (
    (1, 0, 0, 1, 0, 0, 1, 1, 0, 0),  # XZZXI
    (0, 1, 0, 0, 1, 0, 0, 1, 1, 0),  # IXZZX
    (1, 0, 1, 0, 0, 0, 0, 0, 1, 1),  # XIXZZ
    (0, 1, 0, 1, 0, 1, 0, 0, 0, 1),  # ZXIXZ
)

# Generator matrix of a [7,4] Hamming code; its dual is the [7,3] simplex
# code and lies inside it, forming the classic CSS ingredient.
HAMMING_7_4_ROWS = (
    (1, 0, 0, 0, 0, 1, 1),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 1, 1, 0),
    (0, 0, 0, 1, 1, 1, 1),
)

# Every property test draws the same examples on every run, however slow.
settings.register_profile("aqgv", derandomize=True, deadline=None)
settings.load_profile("aqgv")


def combine(coeffs, rows, p, n):
    """The combination sum_i coeffs[i] * rows[i] in GF(p)^n, by tuple arithmetic."""
    acc = [0] * n
    for c, row in zip(coeffs, rows):
        acc = [a + c * x for a, x in zip(acc, row)]
    return tuple(a % p for a in acc)


def dual_rows(basis, pivots, p, n):
    """The parity-check rows of an RREF basis, a basis of its dual, as lists:
    per free column f, 1 at f and -basis[i][f] at pivots[i]."""
    rows = []
    for f in sorted(set(range(n)) - set(pivots)):
        x = [0] * n
        x[f] = 1
        for row, j in zip(basis, pivots):
            x[j] = (-row[f]) % p
        rows.append(x)
    return rows


def zero_space(field: GF, n: int) -> Subspace:
    return Subspace(field, n, ())


def full_space(field: GF, n: int) -> Subspace:
    return Subspace(field, n, [[int(i == j) for j in range(n)] for i in range(n)])


def members(space: Subspace):
    """All q^dim member vectors of space as tuples, zero included, the
    first basis row varying fastest."""
    packing = Packing(space.field.p, space.ambient_dim)
    yield from map(packing.unpack, packing.span(packing.rows(space.basis)))


@pytest.fixture(scope="session")
def five_qubit() -> IsotropicCode:
    return IsotropicCode(c=Subspace.span(GF(2), 10, FIVE_QUBIT_GENERATORS))


@pytest.fixture(scope="session")
def steane_pair() -> NestedPair:
    c1 = Subspace.span(GF(2), 7, HAMMING_7_4_ROWS)
    return NestedPair(c1=c1, c2=c1.dual())
