"""Euler calculus on compactified tropical hypersurfaces: per-stratum divisor
power towers over the faces of the Newton polytope, Euler characteristics of
the power supports, and the two bookkeeping paths for chi of a complement."""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import (
    TropicalCycle,
    divisor_intersect,
    power_tower,
)
from .hypersurface import (
    TropicalPolynomial,
    _subdivision_of,
    ambient_cycle,
    restrict_to_hypersurface,
    tropical_hypersurface,
)
from .linalg import (
    lattice_basis_of_span,
    primitive,
    solve_linear,
    vdot,
    vsub,
)
from .polyhedra import LatticePolytope, PolyhedralComplex


def chi_c_cells(complex_: PolyhedralComplex, cell_indices) -> int:
    """Compactly supported Euler characteristic of a union of relatively open
    cells: each open d-cell contributes (-1)^d."""
    return sum((-1) ** complex_.cells[i].dim for i in cell_indices)


def chi_c_support(cycle: TropicalCycle) -> int:
    """chi_c of the closed support of a cycle."""
    return chi_c_cells(cycle.complex, cycle.support_cells())


# -- strata of the toric compactification ----------------------------------------


@dataclass
class FaceStratum:
    """One torus-orbit stratum of the toric variety of the Newton polytope:
    the face, a lattice coordinate system on its direction space, and the
    divisor power tower of the re-coordinatized truncation living in it."""

    face_dim: int
    face_vertices: tuple
    polynomial: TropicalPolynomial | None
    tower: object  # DivisorPowerTower for face_dim >= 1, else None


def face_polynomial(g: TropicalPolynomial, p: LatticePolytope,
                    fverts) -> TropicalPolynomial:
    """Truncation of g to the face of p (the Newton polytope of a polynomial
    f) with vertices fverts, in lattice coordinates of the face's direction
    space (exact dual pairing). The truncation keeps the terms maximizing
    <., u> for u the sum of the outer normals of p's facets through the face,
    a point of the relative interior of its normal cone: for g = f these are
    f's terms on the face. For another g, the two Newton polytopes must share
    their normal fan on this face; g's terms are written in the coordinates
    f's truncation uses."""
    base = fverts[0]
    dirs = [vsub(v, base) for v in fverts[1:]]
    n = p.ambient_dim
    basis = lattice_basis_of_span(dirs, n)
    on_face = sum(1 << p.vertices.index(v) for v in fverts)
    poly = p.polyhedron()
    tight_normals = [primitive(tuple(-c for c in h[1:]))
                     for h, z in zip(poly.hrep()[1], poly.facet_generators())
                     if z & on_face == on_face]
    u = tuple(sum(t[i] for t in tight_normals) for i in range(n))
    vals = {e: vdot(e, u) for e in g.terms}
    m = max(vals.values())
    members = [e for e, v in vals.items() if v == m]
    gbase = members[0]
    rows = [list(r) for r in zip(*basis)]
    terms = {}
    for e in members:
        sol = solve_linear(rows, vsub(e, gbase))
        if sol is None or any(s.denominator != 1 for s in sol):
            raise ValueError("face exponent outside the face lattice")
        terms[tuple(int(s) for s in sol)] = g.terms[e]
    return TropicalPolynomial(len(basis), terms)


def toric_strata(f: TropicalPolynomial) -> list[FaceStratum]:
    """One stratum per face of the Newton polytope, each carrying the divisor
    power tower of the truncated polynomial in that stratum's torus."""
    p = _subdivision_of(f).polytope
    out = []
    for fdim, fverts in p.faces():
        if fdim == 0:
            out.append(FaceStratum(0, fverts, None, None))
            continue
        ff = face_polynomial(f, p, fverts)
        base = ambient_cycle(ff)
        tower = power_tower(ff, base)
        out.append(FaceStratum(fdim, fverts, ff, tower))
    return out


def chi_layer(strata: list[FaceStratum], k: int) -> int:
    """chi of the compactified support |D^k| (k = 0 gives chi of the ambient
    compact toric space), summed stratum by stratum with chi_c."""
    total = 0
    for s in strata:
        if s.face_dim == 0:
            total += 1 if k == 0 else 0
            continue
        layers = s.tower.layers
        if k < len(layers) and not layers[k].is_empty():
            total += chi_c_support(layers[k])
    return total


def chi_complement_paths(f: TropicalPolynomial):
    """chi(X \\ D) for the hypersurface D of f inside the compact toric space
    of its Newton polytope, via both sides of the power-tower identity:
    (sum_k chi(|D^k|), sum_k (k+1) chi_c(|D^k| \\ |D^(k+1)|))."""
    return chi_paths_from_strata(toric_strata(f), f.n)


def chi_paths_from_strata(strata: list[FaceStratum], n: int):
    """Both power-tower paths from precomputed strata (ambient dimension n)."""
    path_a = sum(chi_layer(strata, k) for k in range(n + 1))
    path_b = 0
    for s in strata:
        if s.face_dim == 0:
            path_b += 1  # the point stratum lies in |D^0| only
            continue
        layers = s.tower.layers
        supports = []
        for k in range(s.face_dim + 1):
            if k < len(layers) and not layers[k].is_empty():
                supports.append(layers[k].support_cells())
            else:
                supports.append(set())
        supports.append(set())
        for k in range(s.face_dim + 1):
            diff = supports[k] - supports[k + 1]
            path_b += (k + 1) * chi_c_cells(layers[0].complex, diff)
    return path_a, path_b


def chi_complement(f: TropicalPolynomial) -> int:
    """chi(X \\ D) with the internal two-path consistency check."""
    a, b = chi_complement_paths(f)
    if a != b:
        raise ValueError(f"power-tower bookkeeping mismatch: {a} != {b}")
    return a


def chi_c_complement(f: TropicalPolynomial) -> int:
    """chi_c(X \\ D) = chi(X) - chi(closure of D), both compact."""
    return chi_c_from_strata(toric_strata(f))


def chi_c_from_strata(strata: list[FaceStratum]) -> int:
    return chi_layer(strata, 0) - chi_layer(strata, 1)


# -- curve complements inside a compactified hypersurface curve ------------------


def point_in_cell_interior(cycle: TropicalCycle, x) -> bool:
    """Whether x lies in the relative interior of exactly one weighted cell
    (a smooth edge point of a curve, away from all vertices)."""
    containing = [i for i in cycle.weights if cycle.complex.cells[i].contains(x)]
    if len(containing) != 1:
        return False
    for i in cycle.complex.faces_closure(containing):
        cell = cycle.complex.cells[i]
        if cell.dim == 0 and cell.contains(x):
            return False
    return True


def curve_intersection_points(f_curve: TropicalPolynomial,
                              f_other: TropicalPolynomial):
    """Points of D' cap D inside the compactified curve D of f_curve, stratum
    by stratum, for a D' whose Newton polytope shares its normal fan; raises
    if an intersection point is not a smooth interior point of both curves
    (retry with a different seed in that case), so the check is symmetric
    and one call per pair makes it."""
    p = _subdivision_of(f_curve).polytope
    points = []
    for fdim, fverts in p.faces():
        if fdim == 0:
            continue
        ff = face_polynomial(f_curve, p, fverts)
        gg = face_polynomial(f_other, p, fverts)
        if fdim == 1:
            # Boundary strata: each curve meets them in points; demand that
            # the two curves do not share one.
            if len(ff.terms) < 2 or len(gg.terms) < 2:
                continue
            hf, hg = tropical_hypersurface(ff), tropical_hypersurface(gg)
            pf = {hf.complex.cells[i].vertices[0] for i in hf.weights}
            pg = {hg.complex.cells[i].vertices[0] for i in hg.weights}
            if pf & pg:
                raise ValueError("second curve hits a boundary point of the "
                                 "first; re-seed the instance")
            continue
        curves = (tropical_hypersurface(ff), tropical_hypersurface(gg))
        pts = divisor_intersect(restrict_to_hypersurface(gg, ff))
        for i, w in pts.weights.items():
            x = pts.complex.cells[i].vertices[0]
            if not all(point_in_cell_interior(c, x) for c in curves):
                raise ValueError("intersection point hits a curve vertex")
            points.append((fdim, fverts, x, w))
    return points


def chi_curve_complement_on_surface(f_curve: TropicalPolynomial, points) -> int:
    """chi(D \\ (D' cap D)) for the compactified curve D of f_curve on a toric
    surface and a second curve D' meeting it in ``points`` (the list of
    ``curve_intersection_points``): chi of the compact curve plus the number
    of (necessarily interior) intersection points."""
    strata = toric_strata(f_curve)
    return chi_layer(strata, 1) + len(points)
