"""Euler characteristics of hypersurface complements: power-tower paths,
compactly supported duals, polygon three-way counts, and curve pairs."""

from math import comb

import pytest

from troprr.eulercalc import (
    chi_c_complement,
    chi_complement,
    chi_complement_paths,
    chi_curve_complement_on_surface,
    curve_intersection_points,
)
from troprr.hypersurface import smooth_simplex_polynomial
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
from troprr.polyhedra import LatticePolytope

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
    assert curve_pair_moderate(pair)


def test_curve_complement_counts_points():
    pair = curve_pair(TRIANGLE, CONIC_TRIANGLE, seed=3)
    # chi of the compactified line is 1; two transverse punctures add 2.
    assert chi_curve_complement_on_surface(pair.f, pair.points) == 3
    assert len(curve_intersection_points(pair.f, pair.g)) == 2


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


def test_chi_complement_consistency_guard():
    f = smooth_simplex_polynomial(2, 2)
    assert chi_complement(f) == 6
