"""Seeded instance generators and verification records: a catalogue of
Delzant polygons, random smooth hypersurfaces on them, transverse curve pairs
on toric surfaces, and the exact quantities the consistency checks compare."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cycles import (
    degree,
    divisor_intersect,
    local_cycle,
    moderate_position,
    relatively_uniform,
)
from .eulercalc import (
    chi_complement,
    chi_complement_paths,
    chi_curve_complement_on_surface,
    curve_intersection_points,
)
from .hypersurface import (
    random_smooth_polynomial,
    restrict_to_hypersurface,
    tropical_hypersurface,
)
from .polyhedra import LatticePolytope, PolyhedralComplex, Polyhedron, local_cone
from .toric import ToricSurface, fan_from_polygon, is_delzant, pick_area_count


def delzant_catalogue() -> list[LatticePolytope]:
    """At least twenty Delzant lattice polygons with all coordinates in
    [-6, 6]: dilated triangles, rectangles, trapezoids, and corner chops."""
    polys = []
    for d in range(1, 7):
        polys.append(LatticePolytope([(0, 0), (d, 0), (0, d)]))
    for a, b in [(1, 1), (2, 1), (3, 2), (4, 3), (5, 2), (6, 1), (4, 4)]:
        polys.append(LatticePolytope([(0, 0), (a, 0), (a, b), (0, b)]))
    for a, b, k in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (1, 1, 2),
                    (2, 1, 2), (1, 1, 3)]:
        polys.append(LatticePolytope([(0, 0), (a + k * b, 0), (a, b), (0, b)]))
    # Rectangles with one corner chopped off by a unit triangle.
    for a, b in [(2, 1), (2, 2), (3, 2)]:
        polys.append(LatticePolytope([(1, 0), (a, 0), (a, b), (0, b), (0, 1)]))
    for q in polys:
        if not is_delzant(q):
            raise AssertionError(f"catalogue polygon is not Delzant: {q.vertices}")
        if any(abs(c) > 6 for v in q.vertices for c in v):
            raise AssertionError("catalogue polygon exceeds the coordinate bound")
    return polys


@dataclass
class PolygonRecord:
    """The three quantities compared on a smooth curve in a toric surface:
    the intersection-ring number deg((D - K).D)/2 + 1, the Euler
    characteristic of the complement, and the lattice-point count, plus the
    Pick-formula count as an extra oracle."""

    polygon: LatticePolytope
    seed: int
    rr: int
    chi: int
    lattice_count: int
    pick_count: int
    paths: tuple[int, int]


def polygon_instance(q: LatticePolytope, seed: int):
    """Random smooth tropical polynomial whose Newton polytope is q."""
    return random_smooth_polynomial(q.lattice_points(), seed)


def verify_polygon(q: LatticePolytope, seed: int) -> PolygonRecord:
    f = polygon_instance(q, seed)
    paths = chi_complement_paths(f)
    surf = fan_from_polygon(q)
    d = surf.polygon_divisor(q)
    return PolygonRecord(
        polygon=q,
        seed=seed,
        rr=surf.rr_number(d),
        chi=paths[0],
        lattice_count=len(q.lattice_points()),
        pick_count=pick_area_count(q),
        paths=paths,
    )


# -- transverse curve pairs ---------------------------------------------------------


@dataclass
class CurvePair:
    """Two smooth curves D (from f) and D' (from g) on a common toric
    surface, meeting transversally in interior points, with their divisor
    classes."""

    f: object
    g: object
    surface: ToricSurface
    d_class: tuple
    dp_class: tuple
    points: list
    seed: int


def curve_pair(q1: LatticePolytope, q2: LatticePolytope, seed: int,
               retries: int = 25) -> CurvePair:
    """Seeded transverse pair of smooth curves with Newton polytopes q1, q2
    (which must share a normal fan); retried until every intersection point
    is a simple interior point of both curves, which one
    ``curve_intersection_points(f, g)`` checks."""
    surf = fan_from_polygon(q1)
    if fan_from_polygon(q2).rays != surf.rays:
        raise ValueError("the polygons of D and D' must share a normal fan")
    d1 = surf.polygon_divisor(q1)
    d2 = surf.polygon_divisor(q2)
    expected = surf.intersection(d1, d2)
    rng = random.Random(seed)
    for _ in range(retries):
        s1 = rng.randrange(10 ** 6)
        s2 = rng.randrange(10 ** 6)
        f = polygon_instance(q1, s1)
        g = polygon_instance(q2, s2)
        try:
            pts = curve_intersection_points(f, g)
        except ValueError:
            continue
        if len(pts) != expected or any(w != 1 for _, _, _, w in pts):
            continue
        return CurvePair(f, g, surf, d1, d2, pts, seed)
    raise RuntimeError("no transverse pair found; widen the retry budget")


def verify_curve_pair(pair: CurvePair) -> tuple[int, int]:
    """Both sides of chi(X \\ D') - chi(D \\ (D' cap D)) =
    deg((D' - D).(D' - D - K))/2 + 1."""
    lhs = chi_complement(pair.g) - chi_curve_complement_on_surface(pair.f, pair.points)
    e = tuple(a - b for a, b in zip(pair.dp_class, pair.d_class))
    rhs = pair.surface.rr_number(e)
    return lhs, rhs


def curve_pair_moderate(pair: CurvePair) -> str:
    """Moderate position of the pair at its intersection points, as a
    hypothesis status: at each point (as the local cone of D' cap D) the
    lineality must be strictly smaller than the curve's local cone there.
    Only points of the dense torus are checked: "true" or "false" when
    every point is one, else "unchecked"."""
    curve = tropical_hypersurface(pair.f)
    samples = []
    n = curve.complex.ambient_dim
    for fdim, _, x, _ in pair.points:
        if fdim != n:
            return "unchecked"
        point_fan = PolyhedralComplex(n, [Polyhedron([tuple(0 for _ in range(n))])], [])
        samples.append((point_fan, local_cone(curve.complex, x)))
    return "true" if moderate_position(samples).ok else "false"


def engine_pairing_degree(f, g) -> int:
    """Degree of the divisor cut by g on the interior hypersurface of f:
    the stable-intersection pairing computed entirely inside the engine."""
    return degree(divisor_intersect(restrict_to_hypersurface(g, f)))


def ring_pairing_degree(q1: LatticePolytope, q2: LatticePolytope) -> int:
    """The same pairing from the toric intersection ring."""
    surf = fan_from_polygon(q1)
    return surf.intersection(surf.polygon_divisor(q1), surf.polygon_divisor(q2))


# -- relative uniformity ------------------------------------------------------------


def sample_uniformity(f):
    """relatively_uniform at every vertex of the interior hypersurface of f,
    in sorted order, against the ambient linear space."""
    curve = tropical_hypersurface(f)
    n = curve.complex.ambient_dim
    origin = tuple(0 for _ in range(n))
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    ambient = PolyhedralComplex(n, [Polyhedron([origin], lineality=basis)], [])
    cells = [curve.complex.cells[i] for i in curve.complex.faces_closure(curve.support_cells())]
    vertices = sorted(c.vertices[0] for c in cells if c.dim == 0 and not c.rays)
    return [relatively_uniform(local_cycle(curve, x), ambient) for x in vertices]
