"""Acceptance suite: one test per top-level criterion, each ending in a
single PASS line. Every equality is exact integer equality."""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from troprr.curves import (
    TropicalCurveGraph,
    baker_norine_rank,
    brute_force_rank,
    complement_cohomology_ranks,
    divisor_degree,
    subdivide_edge,
)
from troprr.cycles import check_balancing, power_tower
from troprr.eulercalc import (
    chi_c_from_strata,
    chi_paths_from_strata,
    toric_strata,
)
from troprr.hypersurface import (
    TropicalPolynomial,
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
from troprr.matroids import (
    bergman_fan,
    beta,
    csm_cycle,
    graphic_matroid,
    uniform_matroid,
)
from troprr.polyhedra import LatticePolytope, cone_in_union
from troprr.toric import ProjectiveSpace, todd_series

SIMPLEX_RANGES = [(1, d) for d in range(1, 7)] + \
                 [(2, d) for d in range(1, 7)] + \
                 [(3, d) for d in range(1, 6)]

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _scaled_simplex(n: int, d: int) -> LatticePolytope:
    verts = [tuple(0 for _ in range(n))]
    for i in range(n):
        verts.append(tuple(d if j == i else 0 for j in range(n)))
    return LatticePolytope(verts)


@pytest.fixture(scope="module")
def simplex_suite():
    """Per (n, d): both complement-chi paths and chi_c, plus the wall-clock
    cost of the whole sweep (the criterion-1 budget)."""
    data = {}
    t0 = time.monotonic()
    for n, d in SIMPLEX_RANGES:
        f = smooth_simplex_polynomial(n, d)
        strata = toric_strata(f)
        data[(n, d)] = {
            "paths": chi_paths_from_strata(strata, n),
            "chi_c": chi_c_from_strata(strata),
        }
    return data, time.monotonic() - t0


@pytest.fixture(scope="module")
def polygon_suite():
    """Seeded record per catalogue polygon, plus the sweep's wall clock."""
    t0 = time.monotonic()
    records = [verify_polygon(q, 100 + i)
               for i, q in enumerate(delzant_catalogue())]
    return records, time.monotonic() - t0


def test_criterion_1_tpn_identity(simplex_suite):
    data, elapsed = simplex_suite
    for n, d in SIMPLEX_RANGES:
        rr = ProjectiveSpace(n).rr_number(d)
        count = len(_scaled_simplex(n, d).lattice_points())
        path_a, path_b = data[(n, d)]["paths"]
        assert rr == count == path_a, (n, d, rr, count, path_a)
        assert count == comb(n + d, n)
    assert elapsed < 30, f"criterion-1 sweep took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: projective identity on {len(SIMPLEX_RANGES)}"
          f" instances ({elapsed:.1f}s)")


def test_criterion_2_dual_identity(simplex_suite):
    data, _ = simplex_suite
    for n, d in SIMPLEX_RANGES:
        rr = ProjectiveSpace(n).rr_number(-d)
        interior = len(_scaled_simplex(n, d).interior_lattice_points())
        chi_c = data[(n, d)]["chi_c"]
        assert rr == (-1) ** n * interior == chi_c, (n, d, rr, interior, chi_c)
    print(f"\n[PASS] criterion 2: dual identity on {len(SIMPLEX_RANGES)}"
          " instances")


def test_criterion_3_polygon_three_way(polygon_suite):
    records, elapsed = polygon_suite
    assert len(records) >= 20
    for rec in records:
        assert rec.rr == rec.chi == rec.lattice_count == rec.pick_count, (
            rec.polygon.vertices, rec.rr, rec.chi, rec.lattice_count)
    assert elapsed < 60, f"criterion-3 sweep took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 3: three-way polygon identity on"
          f" {len(records)} Delzant polygons ({elapsed:.1f}s)")


def test_criterion_4_power_tower_consistency(simplex_suite, polygon_suite):
    data, _ = simplex_suite
    records, _ = polygon_suite
    total = 0
    for key, entry in data.items():
        a, b = entry["paths"]
        assert a == b, (key, a, b)
        total += 1
    for rec in records:
        assert rec.paths[0] == rec.paths[1], rec.polygon.vertices
        total += 1
    # Spot-check the relative-uniformity hypothesis on planar instances.
    for q, seed in [(delzant_catalogue()[0], 100), (delzant_catalogue()[7], 107)]:
        f = polygon_instance(q, seed)
        assert all(r.status == "true" for r in sample_uniformity(f))
    print(f"\n[PASS] criterion 4: both power-tower paths agree on {total}"
          " relatively uniform instances")


def test_criterion_5_curve_pairs():
    triangle = {d: _scaled_simplex(2, d) for d in (1, 2, 3)}
    rect = {(a, b): LatticePolytope([(0, 0), (a, 0), (a, b), (0, b)])
            for a, b in [(1, 1), (2, 1), (1, 2), (2, 2)]}
    cases = [
        (triangle[1], triangle[2], 3), (triangle[1], triangle[3], 5),
        (triangle[2], triangle[3], 7), (triangle[2], triangle[2], 9),
        (triangle[1], triangle[1], 11), (triangle[3], triangle[3], 13),
        (rect[(1, 1)], rect[(2, 1)], 15), (rect[(1, 1)], rect[(1, 2)], 17),
        (rect[(2, 1)], rect[(1, 2)], 19), (rect[(1, 1)], rect[(2, 2)], 21),
        (rect[(2, 2)], rect[(2, 1)], 23),
    ]
    assert len(cases) >= 10
    for q1, q2, seed in cases:
        pair = curve_pair(q1, q2, seed)
        assert curve_pair_moderate(pair) == "true", (q1.vertices, q2.vertices, seed)
        lhs, rhs = verify_curve_pair(pair)
        assert lhs == rhs, (q1.vertices, q2.vertices, seed, lhs, rhs)
    print(f"\n[PASS] criterion 5: complement difference equals the"
          f" Riemann-Roch number on {len(cases)} transverse pairs")


def test_criterion_6_curve_suite():
    theta = TropicalCurveGraph(2, [(0, 1), (0, 1), (0, 1)])
    assert theta.genus() == 2
    # Points in one open edge of a genus-2 curve.
    for k in (3, 4, 5):
        model, mids = subdivide_edge(theta, 0, k)
        divisor = [0] * model.n
        for m in mids:
            divisor[m] = 1
        assert complement_cohomology_ranks(model, divisor) == (k, 1)
        kan = model.canonical_divisor()
        assert baker_norine_rank(model, divisor) + 1 == k - 1
        k_minus_d = [a - b for a, b in zip(kan, divisor)]
        assert baker_norine_rank(model, k_minus_d) + 1 == 0
    # Riemann-Roch number vs ranks on 50 random graph/divisor pairs.
    rng = random.Random(20260823)
    for trial in range(50):
        n = rng.randint(2, 5)
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(1, 3))]
        graph = TropicalCurveGraph(n, edges)
        divisor = [rng.randint(0, 2) for _ in range(n)]
        g = graph.genus()
        kan = graph.canonical_divisor()
        r_d = baker_norine_rank(graph, divisor)
        r_kd = baker_norine_rank(graph, [a - b for a, b in zip(kan, divisor)])
        rr = divisor_degree(divisor) + 1 - g
        assert r_d - r_kd == rr, (edges, divisor)
        assert rr == divisor_degree(divisor) + graph.euler_characteristic()
    # Brute-force oracle on graphs with at most 5 vertices.
    small = [
        TropicalCurveGraph(2, [(0, 1), (0, 1), (0, 1)]),
        TropicalCurveGraph(2, [(0, 0), (0, 1), (1, 1)]),
        TropicalCurveGraph(4, K4_EDGES[:4] + [(0, 1)]),
        TropicalCurveGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
    ]
    rng = random.Random(7)
    checked = 0
    for graph in small:
        for _ in range(4):
            divisor = [rng.randint(-1, 2) for _ in range(graph.n)]
            assert baker_norine_rank(graph, divisor) == brute_force_rank(
                graph, divisor), (graph.edges, divisor)
            checked += 1
    print(f"\n[PASS] criterion 6: curve suite (genus-2 ranks, 50 random"
          f" Riemann-Roch checks, {checked} brute-force rank checks)")


def test_criterion_7_matroid_suite():
    t0 = time.monotonic()
    catalogue = [uniform_matroid(r, n)
                 for n in range(2, 8) for r in range(1, n)]
    catalogue.append(graphic_matroid(K4_EDGES))
    for m in catalogue:
        fan = bergman_fan(m)
        assert check_balancing(fan).ok, m
        r = m.rank(m.ground)
        for k in range(r):
            ck = csm_cycle(m, k)
            assert check_balancing(ck).ok, (m, k)
        top = csm_cycle(m, r - 1)
        assert set(top.weights.values()) <= {1}, m
        assert top.weights, m
    for n in range(2, 8):
        for r in range(1, n + 1):
            assert beta(uniform_matroid(r, n)) == comb(n - 2, r - 1), (r, n)
    # Support identity for powers of the hyperplane, rank at most 5.
    for r in range(2, 6):
        terms = {tuple(0 for _ in range(r)): Fraction(0)}
        for i in range(r):
            terms[tuple(1 if j == i else 0 for j in range(r))] = Fraction(0)
        f = TropicalPolynomial(r, terms)
        hyperplane = tropical_hypersurface(f)
        tower = power_tower(f, hyperplane)
        assert len(tower.layers) == r
        for j in range(r):
            layer = tower.layers[j]
            weighted = [layer.complex.cells[i] for i in layer.weights]
            assert len(weighted) == comb(r + 1, j + 2)
            berg = bergman_fan(uniform_matroid(r - j, r + 1))
            cones = [berg.complex.cells[i] for i in berg.weights]
            for cone in cones:
                assert any(c.contains_polyhedron(cone) for c in weighted)
            for c in weighted:
                assert cone_in_union(c, cones)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion-7 suite took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 7: matroid suite ({len(catalogue)} matroids,"
          f" beta values, support identity up to rank 5, {elapsed:.1f}s)")


def test_criterion_8_cross_oracle():
    cases = []
    for i, (v1, v2) in enumerate(itertools.product(
        [_scaled_simplex(2, 1), _scaled_simplex(2, 2), _scaled_simplex(2, 3)],
        repeat=2,
    )):
        cases.append((v1, v2, 31 + i))
    cases += [
        (LatticePolytope([(0, 0), (2, 0), (2, 1), (0, 1)]),
         LatticePolytope([(0, 0), (1, 0), (1, 2), (0, 2)]), 41),
        (LatticePolytope([(0, 0), (1, 0), (1, 1), (0, 1)]),
         LatticePolytope([(0, 0), (3, 0), (3, 2), (0, 2)]), 43),
    ]
    assert len(cases) >= 10
    for q1, q2, seed in cases:
        f = polygon_instance(q1, seed)
        g = polygon_instance(q2, seed + 1)
        assert engine_pairing_degree(f, g) == ring_pairing_degree(q1, q2), (
            q1.vertices, q2.vertices, seed)
    print(f"\n[PASS] criterion 8: engine pairing equals ring intersection"
          f" number on {len(cases)} instances")


def test_criterion_9_todd_machinery():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    series = sympy.series(x / (1 - sympy.exp(-x)), x, 0, 6).removeO()
    expected = [Fraction(str(sympy.nsimplify(series.coeff(x, k))))
                for k in range(5)]
    assert todd_series(4) == expected
    assert todd_series(4) == [Fraction(1), Fraction(1, 2), Fraction(1, 12),
                              Fraction(0), Fraction(-1, 720)]
    assert ProjectiveSpace(2).rr_number(0) == 1
    print("\n[PASS] criterion 9: Todd series matches the independent"
          " expansion; rr(0) = 1 on the plane")
