from fractions import Fraction
from itertools import permutations
from math import gcd
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_decomp

from troprr.linalg import (
    IntVec,
    _eliminate,
    _kernel_rows,
    _scale_to_int,
    _xgcd,
    det,
    in_span,
    integer_kernel,
    lattice_basis_of_span,
    matrix_rank,
    primitive,
    rref,
    sign_normalize,
    solve_linear,
    vdot,
)


def nullspace(rows):
    """Basis of {x : A x = 0} over the rationals: one vector per free column
    of the reduced row echelon form, 1 there and 0 in the other free
    columns. The oracle for the integer kernels."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = _eliminate(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return basis


def test_primitive_scaling():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert primitive((-2, 0)) == (-1, 0)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_vdot_checks_the_lengths():
    assert vdot((1, Fraction(1, 2)), (4, 2)) == 5
    assert vdot((), ()) == 0
    for u, v in (((1, 2), (1, 2, 3)), ((), (1,)), ((1,), ())):
        with pytest.raises(ValueError):
            vdot(u, v)


def test_sign_normalize():
    assert sign_normalize((-1, 2)) == (1, -2)
    assert sign_normalize((0, -3)) == (0, 3)
    assert sign_normalize((2, 5)) == (2, 5)


def test_rank_and_nullspace():
    assert matrix_rank([(1, 0), (0, 1)]) == 2
    assert matrix_rank([(1, 2), (2, 4)]) == 1
    ns = nullspace([(1, 2, 3)])
    assert len(ns) == 2
    for v in ns:
        assert vdot((1, 2, 3), v) == 0


def test_solve_linear():
    assert solve_linear([(1, 1), (1, -1)], (3, 1)) == (2, 1)
    assert solve_linear([(1, 1), (2, 2)], (1, 3)) is None


def test_det():
    assert det([(1, 0), (0, 1)]) == 1
    assert det([(0, 1), (1, 0)]) == -1
    assert det([(2, 0), (0, 3)]) == 6


def test_integer_kernel_is_saturated():
    # Kernel of (1, 1, 2): contains (1,-1,0) and (0,2,-1); the saturated kernel
    # lattice must contain (0,2,-1) itself, not only twice a generator.
    ker = integer_kernel([(1, 1, 2)], 3)
    assert len(ker) == 2
    for v in ker:
        assert vdot((1, 1, 2), v) == 0
    assert in_span((0, 2, -1), [tuple(Fraction(c) for c in k) for k in ker])
    # integrality of coordinates in the kernel basis
    sol = solve_linear(list(zip(*ker)), (0, 2, -1))
    assert all(s.denominator == 1 for s in sol)


def test_lattice_basis_of_span_saturation():
    basis = lattice_basis_of_span([(2, 4)], 2)
    assert len(basis) == 1
    assert tuple(map(abs, basis[0])) == (1, 2)
    basis = lattice_basis_of_span([(1, 0, 0), (0, 2, 2)], 3)
    assert len(basis) == 2
    sol = solve_linear(list(zip(*basis)), (0, 1, 1))
    assert sol is not None and all(s.denominator == 1 for s in sol)


def test_quotient_generator_index_two_case():
    # sigma spanned by (1,1) inside ambient Z^2, tau = origin (every
    # covector vanishes on it): the primitive generator of the quotient is
    # (1,1) itself, oriented by the reference.
    g = quotient_generator([(1, 0), (0, 1)], [(1, 1)], (2, 2))
    assert g == (1, 1)
    g = quotient_generator([(1, 0), (0, 1)], [(1, 1)], (-1, -1))
    assert g == (-1, -1)


def test_quotient_generator_modulo_line():
    # tau = x-axis (normal (0, 1)), sigma = plane Z^2: quotient generated by
    # anything with second coordinate +-1.
    g = quotient_generator([(0, 1)], [(1, 0), (0, 1)], (0, 5))
    assert abs(g[1]) == 1 and g[1] > 0


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda v: any(v)))
def test_primitive_is_primitive(v):
    from math import gcd
    p = primitive(tuple(v))
    g = 0
    for x in p:
        g = gcd(g, abs(x))
    assert g == 1


# -- the integer kernel against plain Fraction Gauss-Jordan ------------------


def oracle_rref(rows):
    """Reduced row echelon form by Gauss-Jordan over Fraction."""
    m = [[Fraction(a) for a in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [a / pv for a in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def oracle_det(rows):
    """Leibniz expansion over Fraction."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= Fraction(rows[i][j])
        total += term
    return total


entries = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


@st.composite
def rational_matrices(draw, min_rows=1):
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=min_rows, max_size=5))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(rows[draw(st.integers(0, len(rows) - 1))]))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return rows


@given(rational_matrices())
def test_rref_rank_nullspace_match_fraction_gauss_jordan(rows):
    expected, pivots = oracle_rref(rows)
    got, got_pivots = rref(rows)
    assert got == expected and got_pivots == pivots
    assert all(type(a) is Fraction for row in got for a in row)
    assert matrix_rank(rows) == len(pivots)
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -expected[r][fc]
        basis.append(tuple(v))
    assert nullspace(rows) == basis


@given(rational_matrices(), st.data())
def test_solve_linear_matches_fraction_gauss_jordan(rows, data):
    b = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    ncols = len(rows[0])
    m, pivots = oracle_rref([list(row) + [bi] for row, bi in zip(rows, b)])
    got = solve_linear(rows, b)
    if ncols in pivots:
        assert got is None
        return
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][-1]
    assert got == tuple(x)
    assert all(vdot(row, got) == bi for row, bi in zip(rows, b))


def test_solve_linear_inconsistent_and_empty():
    assert solve_linear([(1, 2), (2, 4)], (1, 3)) is None
    assert solve_linear([(0, 0)], (1,)) is None
    assert solve_linear([(0, 0)], (0,)) == (0, 0)
    assert solve_linear([], []) == ()
    assert rref([]) == ([], []) and matrix_rank([]) == 0 and nullspace([]) == []


@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_matches_leibniz_expansion(rows):
    got = det(rows)
    assert type(got) is Fraction and got == oracle_det(rows)


# -- the integer-lift quotient generator, the oracle of the lattice normals ----
#
# Moved here unchanged from ``troprr.linalg``, where lattice normals are now
# read as classes in Z^n / L(tau) (``troprr.cycles._normal_vector``).


def quotient_generator(
    tau_normals: Sequence[Sequence[int]],
    sigma_lattice: Sequence[Sequence[int]],
    reference: Sequence[int],
) -> IntVec:
    """Primitive generator of (lattice of sigma) / (lattice of tau), oriented
    so it points to the same side of tau as ``reference``.

    tau_normals: integer vectors spanning the covectors that vanish on tau's
    direction space (dim one less than sigma's), such as ``_kernel_rows``
    of tau's directions. sigma_lattice: integer basis of sigma's saturated
    direction lattice. reference: an integer vector in sigma's span not in
    tau's span. Nothing here builds a ``Fraction``.
    """
    # The functional ell is the first normal nonzero on sigma. Each kernel
    # row is a positive multiple of the matching rational kernel row, and the
    # gcd combination below does not change when every value is scaled by
    # the same positive factor, so the result is the one the rational
    # functional gives.
    ell = next((c for c in tau_normals if any(vdot(c, b) for b in sigma_lattice)), None)
    if ell is None:
        raise ValueError("sigma does not properly contain tau")
    # Image ell(sigma lattice) is a subgroup gZ of Z, g > 0; the extended
    # euclidean recombination finds a lattice vector w with ell(w) = g.
    coeffs = _extended_gcd_combo([vdot(ell, b) for b in sigma_lattice])
    w = tuple(sum(c * b[i] for c, b in zip(coeffs, sigma_lattice))
              for i in range(len(reference)))
    ref_val = vdot(ell, reference)
    if ref_val == 0:
        raise ValueError("reference vector lies in tau's span")
    return w if ref_val > 0 else tuple(-x for x in w)


def _extended_gcd_combo(values: Sequence[int]) -> list[int]:
    """Integer coefficients c with sum(c_i * values_i) = gcd(values) > 0."""
    g, coeffs = 0, []
    for v in values:
        g, s, t = _xgcd(g, v)
        coeffs = [s * c for c in coeffs] + [t]
    if g == 0:
        raise ValueError("all values are zero")
    return coeffs


def oracle_quotient_generator(tau_span, sigma_lattice, reference, ambient_dim):
    """quotient_generator with its functional taken as a Fraction
    ``nullspace`` row, as it was before the integer kernel rows."""
    tau_vecs = [v for v in tau_span if any(v)]
    if tau_vecs:
        candidates = nullspace(tau_vecs)
    else:
        candidates = [tuple(Fraction(int(i == j)) for j in range(ambient_dim))
                      for i in range(ambient_dim)]
    ell = next((c for c in candidates if any(vdot(c, b) for b in sigma_lattice)), None)
    if ell is None:
        raise ValueError("sigma does not properly contain tau")
    int_values, _ = _scale_to_int([vdot(ell, b) for b in sigma_lattice])
    coeffs = _extended_gcd_combo(int_values)
    w = tuple(sum(c * b[i] for c, b in zip(coeffs, sigma_lattice)) for i in range(ambient_dim))
    if (vdot(ell, w) > 0) != (vdot(ell, reference) > 0):
        w = tuple(-x for x in w)
    return w


@st.composite
def cone_pairs(draw):
    """(tau generators, sigma generators, reference): sigma is tau plus one
    more integer generator outside tau's span."""
    n = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    tau = draw(st.lists(vec, max_size=n - 1))
    extra = draw(vec.filter(lambda v: any(v) and not in_span(v, tau)))
    return tau, tau + [extra], extra


@settings(max_examples=200, deadline=None)
@given(cone_pairs(), st.sampled_from([1, -1]))
def test_quotient_generator_matches_fraction_functional(pair, side):
    tau, sigma, extra = pair
    n = len(extra)
    lattice = lattice_basis_of_span(sigma, n)
    ref = tuple(side * x for x in extra)
    got = quotient_generator(_kernel_rows(*_eliminate(tau), n), lattice, ref)
    assert got == oracle_quotient_generator(tau, lattice, ref, n)
    assert in_span(got, sigma) and not in_span(got, tau)


def oracle_lattice_basis_of_span(vectors, ambient_dim):
    """lattice_basis_of_span with the span's normals taken as Fraction
    ``nullspace`` rows scaled to integers, as it was before the integer
    kernel rows."""
    vecs = [v for v in vectors if any(v)]
    if not vecs:
        return []
    normals = nullspace(vecs)
    if not normals:
        return [tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim)]
    return list(integer_kernel([tuple(_scale_to_int(r)[0]) for r in normals], ambient_dim))


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_lattice_basis_of_span_matches_fraction_nullspace_normals(rows):
    n = len(rows[0])
    assert lattice_basis_of_span(rows, n) == oracle_lattice_basis_of_span(rows, n)


# -- the Hermite normal form against sympy's Smith normal form ----------------


def sympy_kernel(rows, ncols):
    """Integer kernel of A from sympy's Smith normal form S = U A V: the
    columns of V past the rank of S."""
    if not rows:
        return [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
    s, _, v = smith_normal_decomp(Matrix(rows))
    rank = sum(1 for i in range(min(s.shape)) if s[i, i])
    return [tuple(v[:, j]) for j in range(rank, ncols)]


def lattice_hnf(basis):
    """sympy's Hermite normal form of the lattice spanned by the basis."""
    return hermite_normal_form(Matrix(basis).T) if basis else None


@st.composite
def integer_matrices(draw):
    ncols = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
                         max_size=4)), ncols


@settings(max_examples=300, deadline=None)
@given(integer_matrices(), st.randoms(use_true_random=False),
       st.lists(st.integers(1, 4) | st.integers(-4, -1), min_size=4, max_size=4))
def test_integer_kernel_matches_smith_normal_form(matrix, rng, scales):
    rows, ncols = matrix
    ker = integer_kernel(rows, ncols)
    expected = sympy_kernel(rows, ncols)
    assert len(ker) == len(expected)
    assert all(vdot(row, v) == 0 for row in rows for v in ker)
    assert lattice_hnf(ker) == lattice_hnf(expected)
    # Canonical: the same kernel from permuted, rescaled rows is the same basis.
    moved = [[c * x for x in row] for c, row in zip(scales, rows)]
    rng.shuffle(moved)
    assert integer_kernel(moved, ncols) == ker


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6).filter(any))
def test_extended_gcd_combo_sums_to_the_gcd(values):
    coeffs = _extended_gcd_combo(values)
    assert len(coeffs) == len(values)
    assert sum(c * v for c, v in zip(coeffs, values)) == gcd(*values)
