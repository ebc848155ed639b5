"""Reference computations the benchmark checks aqgv against.

Nothing here imports aqgv.  Vectors are tuples of residues mod a prime p;
verdicts are integer comparisons.  The code aims at being obviously right,
not fast: the benchmark runs it outside the timed region.
"""

from __future__ import annotations

import math
from itertools import combinations


# --- GF(p) linear algebra -------------------------------------------------

def rref(rows, p):
    """Reduced row-echelon basis of the row space of ``rows`` over GF(p),
    as (basis rows, pivot columns)."""
    mat = [[x % p for x in row] for row in rows]
    basis, pivots = [], []
    for row in mat:
        for b, c in zip(basis, pivots):
            if row[c]:
                f = row[c]
                row = [(x - f * y) % p for x, y in zip(row, b)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [(inv * x) % p for x in row]
        for i, b in enumerate(basis):
            if b[lead]:
                f = b[lead]
                basis[i] = [(x - f * y) % p for x, y in zip(b, row)]
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=pivots.__getitem__)
    return [tuple(basis[i]) for i in order], [pivots[i] for i in order]


def rank(rows, p):
    return len(rref(rows, p)[0])


def in_span(basis_pivots, v, p):
    """Whether v lies in the space whose RREF (basis, pivots) is given."""
    basis, pivots = basis_pivots
    v = [x % p for x in v]
    for b, c in zip(basis, pivots):
        if v[c]:
            f = v[c]
            v = [(x - f * y) % p for x, y in zip(v, b)]
    return not any(v)


def null_space(rows, n, p):
    """A basis of {x in GF(p)^n : r . x = 0 for every row r}."""
    basis, pivots = rref(rows, p)
    out = []
    for free in range(n):
        if free in pivots:
            continue
        x = [0] * n
        x[free] = 1
        for b, c in zip(basis, pivots):
            x[c] = (-b[free]) % p
        out.append(tuple(x))
    return out


def dot(u, v, p):
    return sum(a * b for a, b in zip(u, v)) % p


def symplectic(u, v, n, p):
    """<(a|b),(c|d)> = a.d - b.c on GF(p)^{2n}."""
    return (dot(u[:n], v[n:], p) - dot(u[n:], v[:n], p)) % p


# --- counting and the two bounds ------------------------------------------

def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of GF(q)^n, by exact integer division."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    quotient, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"[{n},{k}]_{q} is not an integer")
    return quotient


def ball(n, q, t):
    """Nonzero vectors of GF(q)^n with weight at most t."""
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(1, t + 1))


def css_lhs(q, n, k1, k2, dx, dz):
    """The nested-pair bound LHS as a reduced (numerator, denominator)."""
    num = (q**k1 - q**k2) * ball(n, q, dx - 1) + (q ** (n - k2) - q ** (n - k1)) * ball(n, q, dz - 1)
    den = q**n - 1
    g = math.gcd(num, den)
    return num // g, den // g


def stab_lhs(q, n, k, dx, dz):
    """The stabilizer bound LHS as a reduced (numerator, denominator)."""
    num = (q ** (2 * k) - 1) * q ** (n - k) * ball(n, q, dx - 1) * ball(n, q, dz - 1)
    den = q ** (2 * n) - 1
    g = math.gcd(num, den)
    return num // g, den // g


def css_feasible(q, n, k1, k2, dx, dz):
    num, den = css_lhs(q, n, k1, k2, dx, dz)
    return num < den


def stab_feasible(q, n, k, dx, dz):
    num, den = stab_lhs(q, n, k, dx, dz)
    return num < den


def lemma_counts(q, n, k1, k2):
    """(pairs, per-error bit count, per-error phase count) the counting
    identities predict for nested pairs with dims (k1, k2)."""
    pairs = gaussian_binomial(n, k1, q) * gaussian_binomial(k1, k2, q)
    x, rx = divmod((q**k1 - q**k2) * pairs, q**n - 1)
    z, rz = divmod((q ** (n - k2) - q ** (n - k1)) * pairs, q**n - 1)
    if rx or rz:
        raise ArithmeticError(f"the counting identities give no integer counts at {(q, n, k1, k2)}")
    return pairs, x, z


def entropy(delta, q):
    """q-ary entropy h_q(delta) for 0 <= delta <= 1 - 1/q."""
    if delta == 0.0:
        return 0.0
    return (delta * math.log(q - 1) - delta * math.log(delta)
            - (1.0 - delta) * math.log(1.0 - delta)) / math.log(q)


def binom_cdf(k, n, p):
    """P(Binomial(n, p) <= k)."""
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(0, min(k, n) + 1))


# --- distances by brute force over error weights --------------------------

def _syndrome_columns(checks, n, p):
    """cols[i][v] = v * (column i of the check matrix), as a tuple."""
    return [[tuple((v * row[i]) % p for row in checks) for v in range(p)] for i in range(n)]


def _add(s, t, p):
    return tuple((a + b) % p for a, b in zip(s, t))


def css_min_weight(inner, outer, n, p):
    """Least weight of a vector that every row of ``inner`` annihilates but
    some row of ``outer`` does not, or None.  With inner = checks of C1 and
    outer = checks of C2 this is the least weight in C1 minus C2."""
    cin = _syndrome_columns(inner, n, p)
    cout = _syndrome_columns(outer, n, p)
    zin = (0,) * len(inner)
    zout = (0,) * len(outer)

    def search(start, left, sin, sout):
        if left == 0:
            return sin == zin and sout != zout
        for i in range(start, n - left + 1):
            for v in range(1, p):
                if search(i + 1, left - 1, _add(sin, cin[i][v], p), _add(sout, cout[i][v], p)):
                    return True
        return False

    for w in range(1, n + 1):
        if search(0, w, zin, zout):
            return w
    return None


def css_distances(c1_rows, c2_rows, n, p):
    """(dx, dz) of a CSS pair: least weights in C1 minus C2 and in the dual
    of C2 minus the dual of C1; None when the set is empty."""
    h1, h2 = null_space(c1_rows, n, p), null_space(c2_rows, n, p)
    return css_min_weight(h1, h2, n, p), css_min_weight(list(c2_rows), list(c1_rows), n, p)


def _all_vectors(checks, n, p):
    """(vector, weight, syndrome under ``checks``) for every vector of GF(p)^n."""
    cols = _syndrome_columns(checks, n, p)
    out = [((), 0, (0,) * len(checks))]
    for i in range(n):
        out = [(vec + (v,), w + (v != 0), _add(s, cols[i][v], p))
               for vec, w, s in out for v in range(p)]
    return out


def stab_profile(gens, n, p):
    """Detectability profile M[dx-1][dz-1] of the stabilizer space spanned
    by ``gens`` (rows (x|z) of length 2n): True iff no error (ex|ez) with
    wt(ex) <= dx-1, wt(ez) <= dz-1, not both zero, lies in the symplectic
    dual but outside the space."""
    space = rref(gens, p)
    gx = [g[:n] for g in gens]
    gz = [g[n:] for g in gens]
    # (ex|ez) is in the symplectic dual iff ex . gz_j == ez . gx_j for all j.
    xs = _all_vectors(gz, n, p)
    zs = _all_vectors(gx, n, p)
    by_syndrome = {}
    for ez, wz, s in sorted(zs, key=lambda t: t[1]):
        by_syndrome.setdefault(s, []).append((ez, wz))
    best = [math.inf] * (n + 1)  # least wt(ez) of an undetectable error, per wt(ex)
    for ex, wx, s in xs:
        for ez, wz in by_syndrome.get(s, ()):
            if wz >= best[wx]:
                break
            if (wx or wz) and not in_span(space, ex + ez, p):
                best[wx] = wz
                break
    matrix, cap = [], math.inf
    for dx in range(1, n + 2):
        cap = min(cap, best[dx - 1])
        matrix.append([dz <= cap for dz in range(1, n + 2)])
    return matrix


def is_isotropic(gens, n, p):
    return all(symplectic(u, v, n, p) == 0 for u, v in combinations(gens, 2))
