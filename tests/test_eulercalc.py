"""Euler characteristics of hypersurface complements: power-tower paths,
compactly supported duals, polygon three-way counts, and curve pairs."""

import dataclasses
import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from troprr.eulercalc import (
    chi_c_complement,
    chi_complement,
    chi_complement_paths,
    chi_curve_complement_on_surface,
    curve_intersection_points,
    face_polynomial,
    point_in_cell_interior,
)
from troprr.hypersurface import (
    TropicalPolynomial,
    newton_polytope,
    random_smooth_polynomial,
    smooth_simplex_polynomial,
    tropical_hypersurface,
)
from troprr.instances import (
    curve_pair,
    curve_pair_moderate,
    delzant_catalogue,
    engine_pairing_degree,
    polygon_instance,
    ring_pairing_degree,
    sample_uniformity,
    verify_curve_pair,
    verify_polygon,
)
from troprr.linalg import lattice_basis_of_span, solve_linear, vsub
from troprr.polyhedra import LatticePolytope, Polyhedron, standard_simplex

TRIANGLE = LatticePolytope([(0, 0), (1, 0), (0, 1)])
CONIC_TRIANGLE = LatticePolytope([(0, 0), (2, 0), (0, 2)])


@pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (1, 3), (1, 4),
                                 (2, 1), (2, 2), (2, 3),
                                 (3, 1), (3, 2)])
def test_simplex_complement_paths(n, d):
    f = smooth_simplex_polynomial(n, d)
    expected = comb(n + d, n)
    assert chi_complement_paths(f) == (expected, expected)


@pytest.mark.parametrize("n,d", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_simplex_chi_c_dual(n, d):
    f = smooth_simplex_polynomial(n, d)
    assert chi_c_complement(f) == (-1) ** n * comb(d - 1, n)


def test_catalogue_size():
    assert len(delzant_catalogue()) >= 20


@pytest.mark.parametrize("verts,seed", [
    ([(0, 0), (2, 0), (2, 1), (0, 1)], 7),
    ([(0, 0), (3, 0), (1, 1), (0, 1)], 11),
    ([(1, 0), (2, 0), (2, 2), (0, 2), (0, 1)], 5),
])
def test_polygon_three_way(verts, seed):
    rec = verify_polygon(LatticePolytope(verts), seed)
    assert rec.rr == rec.chi == rec.lattice_count == rec.pick_count
    assert rec.paths[0] == rec.paths[1]


def test_curve_pair_identity():
    pair = curve_pair(TRIANGLE, CONIC_TRIANGLE, seed=3)
    lhs, rhs = verify_curve_pair(pair)
    assert lhs == rhs == 3
    assert curve_pair_moderate(pair) == "true"


def test_curve_pair_moderate_reports_a_boundary_point_unchecked():
    """A point in a boundary stratum is not checked, so the status is not
    "true" even though every checked point passes."""
    pair = curve_pair(TRIANGLE, CONIC_TRIANGLE, seed=3)
    assert all(fdim == 2 for fdim, _, _, _ in pair.points)
    edge = ((0, 0), (1, 0))
    boundary = dataclasses.replace(pair, points=pair.points + [(1, edge, (Fraction(1, 2),), 1)])
    assert curve_pair_moderate(boundary) == "unchecked"
    assert curve_pair_moderate(pair) == "true"


def test_curve_complement_counts_points():
    pair = curve_pair(TRIANGLE, CONIC_TRIANGLE, seed=3)
    # chi of the compactified line is 1; two transverse punctures add 2.
    assert chi_curve_complement_on_surface(pair.f, pair.points) == 3
    assert len(curve_intersection_points(pair.f, pair.g)) == 2


def test_one_intersection_pass_checks_both_curves():
    """A line whose vertex sits inside a bounded edge of a conic's curve:
    the point is a smooth point of the conic but a vertex of the line, so
    the forward call alone must already refuse it."""
    conic = random_smooth_polynomial(standard_simplex(2, 2).lattice_points(), 5)
    vertex = (Fraction(15711241, 16000000), Fraction(15927437, 16000000))
    line = TropicalPolynomial(2, {(0, 0): 0, (1, 0): -vertex[0], (0, 1): -vertex[1]})
    assert point_in_cell_interior(tropical_hypersurface(conic), vertex)
    for f, g in ((conic, line), (line, conic)):
        with pytest.raises(ValueError, match="hits a curve vertex"):
            curve_intersection_points(f, g)


@pytest.mark.parametrize("v1,v2,seed", [
    ([(0, 0), (1, 0), (0, 1)], [(0, 0), (2, 0), (0, 2)], 3),
    ([(0, 0), (2, 0), (0, 2)], [(0, 0), (2, 0), (0, 2)], 9),
    ([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 0), (2, 0), (2, 1), (0, 1)], 4),
])
def test_engine_matches_ring_pairing(v1, v2, seed):
    q1, q2 = LatticePolytope(v1), LatticePolytope(v2)
    f = polygon_instance(q1, seed)
    g = polygon_instance(q2, seed + 1)
    assert engine_pairing_degree(f, g) == ring_pairing_degree(q1, q2)


def test_uniformity_at_curve_vertices():
    f = polygon_instance(CONIC_TRIANGLE, 3)
    assert all(r.status == "true" for r in sample_uniformity(f))


def test_uniformity_checks_every_curve_vertex():
    # A smooth plane cubic has one vertex per triangle of its subdivision.
    results = sample_uniformity(smooth_simplex_polynomial(2, 3))
    assert len(results) == 9
    assert all(r.status == "true" for r in results)


def test_chi_complement_consistency_guard():
    f = smooth_simplex_polynomial(2, 2)
    assert chi_complement(f) == 6


# -- face truncations, against truncation by containment --------------------------


def containment_face_polynomial(f, face_vertices):
    """Reference truncation: the terms the face's polyhedron contains, in
    lattice coordinates of the span of their differences."""
    face_poly = Polyhedron(list(face_vertices))
    members = [e for e in f.terms if face_poly.contains(e)]
    base = members[0]
    basis = lattice_basis_of_span([vsub(e, base) for e in members if e != base], f.n)
    rows = [list(r) for r in zip(*basis)]
    terms = {}
    for e in members:
        sol = solve_linear(rows, vsub(e, base))
        assert all(s.denominator == 1 for s in sol)
        terms[tuple(int(s) for s in sol)] = f.terms[e]
    return TropicalPolynomial(len(basis), terms)


@st.composite
def random_polynomials(draw):
    """Exponents in a small box, so faces carry non-vertex terms and some
    Newton polytopes are not full-dimensional, with small rational heights."""
    n = draw(st.integers(1, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=8,
                         unique=True))
    heights = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return TropicalPolynomial(n, [(e, draw(heights)) for e in exps])


@settings(max_examples=150, deadline=None)
@given(random_polynomials())
@example(smooth_simplex_polynomial(3, 2))
@example(TropicalPolynomial(3, {e: 0 for e in itertools.product(range(2), repeat=3)}))
@example(TropicalPolynomial(2, {(0, 0): 0, (2, 0): 0, (1, 0): 1, (0, 2): 0, (1, 1): -1}))
def test_face_polynomial_matches_truncation_by_containment(f):
    p = newton_polytope(f)
    for _fdim, fverts in p.faces():
        ff, ref = face_polynomial(f, p, fverts), containment_face_polynomial(f, fverts)
        assert ff.n == ref.n
        assert list(ff.terms.items()) == list(ref.terms.items())
