"""Exact rational and integer linear algebra used by the geometry modules.

No floating point is ever introduced. Rational rows are scaled to integer
rows by the lcm of their denominators (``_scale_to_int``), and every
elimination runs on those integers: ``_eliminate`` is fraction-free
Gauss–Jordan (each update ``p*row_i - f*pivot_row`` is divided by the row's
content), and ``det`` is Bareiss elimination (Bareiss 1968). ``Fraction``
objects are built only for the results that are rational: the entries of
``rref`` and ``solve_linear``, and the value of ``det``.

Every question about a saturated lattice (an integer kernel, the lattice of
a span, the covectors that vanish on a cell) is answered by a Hermite normal
form, ``_hermite`` (Cohen, *A Course in Computational Algebraic Number
Theory*, GTM 138, §2.4), built from extended-gcd row operations (``_xgcd``).
Its unimodular transform U gives a saturated basis of a left kernel in one
pass; a second pass gives each lattice one canonical basis. A quotient
Z^n / L is read through such a basis N of the covectors vanishing on L:
N maps Z^n onto Z^c with kernel L, so a class is an integer vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def frac(x) -> Fraction:
    """Coerce an int, string ("p/q"), or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def vadd(u: Sequence, v: Sequence) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Sequence, v: Sequence) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, v: Sequence) -> Vec:
    return tuple(c * a for a in v)


def vdot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v, strict=True))


def is_zero_vec(v: Sequence) -> bool:
    return all(a == 0 for a in v)


def gcd_list(xs: Iterable[int]) -> int:
    g = 0
    for x in xs:
        g = gcd(g, abs(x))
    return g


def _scale_to_int(row: Sequence) -> tuple[list[int], int]:
    """(integer row, factor): the rational row times the lcm of its
    denominators, and that lcm."""
    if all(type(a) is int for a in row):
        return list(row), 1
    fr = [a if isinstance(a, (int, Fraction)) else Fraction(a) for a in row]
    m = lcm(*(a.denominator for a in fr))
    return [a.numerator * (m // a.denominator) for a in fr], m


def primitive(v: Sequence) -> IntVec:
    """Scale a nonzero rational vector to the primitive integer vector with the
    same orientation (gcd of entries 1)."""
    iv, _ = _scale_to_int(v)
    g = gcd(*iv)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in iv)


def sign_normalize(v: Sequence[int]) -> IntVec:
    """Flip sign so the first nonzero entry is positive (canonical form for
    lineality generators, where orientation is immaterial)."""
    for a in v:
        if a != 0:
            return tuple(v) if a > 0 else tuple(-x for x in v)
    return tuple(v)


def _eliminate(rows: Sequence[Sequence], jordan: bool = True) -> tuple[list[list[int]], list[int]]:
    """Fraction-free elimination of the rows scaled to primitive integer rows.

    Returns (integer rows, pivot columns). Row r < len(pivots) has its first
    nonzero entry in column pivots[r]; the rows after those are zero. With
    ``jordan`` every pivot column is zero outside its pivot row, so row r
    divided by its pivot is row r of the RREF; without it only the rows
    below each pivot are cleared, which is enough for the rank.
    """
    m = []
    for row in rows:
        iv, _ = _scale_to_int(row)
        g = gcd(*iv)
        m.append([x // g for x in iv] if g > 1 else iv)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(0 if jordan else r + 1, nrows):
            f = m[i][c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            row = [a * x - b * y for x, y in zip(m[i], prow)]
            g = gcd(*row)
            m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return m, pivots


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction. Returns (rref_rows, pivot_cols)."""
    m, pivots = _eliminate(rows)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    ncols = len(m[0]) if m else 0
    out += [[Fraction(0)] * ncols for _ in range(len(m) - len(pivots))]
    return out, pivots


def matrix_rank(rows: Sequence[Sequence]) -> int:
    return len(_eliminate(rows, jordan=False)[1])


def solve_linear(a_rows: Sequence[Sequence], b: Sequence) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent."""
    if not a_rows:
        return ()
    ncols = len(a_rows[0])
    aug = [list(row) + [bi] for row, bi in zip(a_rows, b, strict=True)]
    m, pivots = _eliminate(aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        x[c] = Fraction(row[-1], row[c])
    return tuple(x)


def _kernel_rows(m: list[list[int]], pivots: list[int], ncols: int) -> list[IntVec]:
    """Kernel basis from the rows and pivots of ``_eliminate(rows)``: one
    primitive integer vector per free column, in column order, positive in
    its free column. Each is a positive multiple of the rational kernel
    vector that is 1 in its free column and 0 in the other free columns."""
    scale = lcm(*(row[pc] for row, pc in zip(m, pivots)))
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = scale
        for row, pc in zip(m, pivots):
            v[pc] = -row[free] * (scale // row[pc])
        g = gcd(*v)
        out.append(tuple(x // g for x in v))
    return out


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix: Bareiss fraction-free elimination on
    the rows scaled to integers, divided by the product of the scale factors."""
    m = []
    scale = 1
    for row in rows:
        iv, s = _scale_to_int(row)
        m.append(iv)
        scale *= s
    n = len(m)
    sign, prev = 1, 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        p, prow = m[c][c], m[c]
        for i in range(c + 1, n):
            f = m[i][c]
            m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], prow)]
        prev = p
    return Fraction(sign * prev, scale)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _hermite(rows: Sequence[Sequence[int]],
             ncols: int) -> tuple[list[list[int]], list[list[int]], int]:
    """Row Hermite normal form of an integer matrix: (H, U, rank) with
    H = U A and U unimodular. The first ``rank`` rows of H are in echelon
    form with positive pivots, every entry above a pivot lies in
    [0, pivot), and the other rows are zero; so the rows of U past
    ``rank`` are a basis of the integer left kernel of A."""
    h = [list(row) for row in rows]
    nrows = len(h)
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r + 1, nrows):
            if h[i][c]:
                g, s, t = _xgcd(h[r][c], h[i][c])
                a, b = h[r][c] // g, h[i][c] // g
                # [[s, t], [-b, a]] has determinant s*a + t*b = 1 and clears
                # column c of row i.
                for m in (h, u):
                    x, y = m[r], m[i]
                    m[r] = [s * xj + t * yj for xj, yj in zip(x, y)]
                    m[i] = [a * yj - b * xj for xj, yj in zip(x, y)]
        p = h[r][c]
        if not p:
            continue
        if p < 0:
            p = -p
            h[r], u[r] = [-x for x in h[r]], [-x for x in u[r]]
        for i in range(r):
            f = h[i][c] // p
            if f:
                h[i] = [x - f * y for x, y in zip(h[i], h[r])]
                u[i] = [x - f * y for x, y in zip(u[i], u[r])]
        r += 1
    return h, u, r


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[IntVec]:
    """Basis of the saturated lattice {x in Z^ncols : A x = 0} for an integer
    matrix A, in Hermite normal form: equal kernels give equal bases."""
    _, u, rank = _hermite([[row[j] for row in rows] for j in range(ncols)], len(rows))
    return [tuple(v) for v in _hermite(u[rank:], ncols)[0]]


def lattice_basis_of_span(vectors: Sequence[Sequence], ambient_dim: int) -> list[IntVec]:
    """Integer basis of the saturated lattice span(vectors) ∩ Z^n, in
    Hermite normal form."""
    return integer_kernel(_kernel_rows(*_eliminate(vectors), ambient_dim), ambient_dim)


def in_span(v: Sequence, vectors: Sequence[Sequence]) -> bool:
    vecs = [w for w in vectors if not is_zero_vec(w)]
    if is_zero_vec(v):
        return True
    if not vecs:
        return False
    return matrix_rank(vecs) == matrix_rank(list(vecs) + [list(v)])

