"""Exact-rational polyhedral geometry: polyhedra in V-representation, polyhedral
complexes with explicit face relations, local cones, lineality spaces,
sedentarity, and lattice-point enumeration.

All polyhedra are stored as vertices + rays + lineality generators over exact
rationals. The half-space representation is derived on demand, once, in
primitive integer rows, with its facet incidence: per inequality, the bitmask
of the generators it vanishes on (``facet_generators``). Containment tests
evaluate the rows on positive integer multiples of homogeneous points and
directions (of another polyhedron: its cached generators); the dimension is
the rank of the cached integer directions. Both conversions are one integer
double description (``_extreme_rays``): H->V on the homogenized cone with its
lineality turned into equalities, so that the vertices and rays it returns
are orthogonal to the lineality, and V->H on the dual cone, whose zero sets
are the incidence.
Canonicalizing a pointed polyhedron, the faces of a lattice polytope (as
intersections of facet point sets, ``_faces_from_facets``) and its fan
triangulation read the incidence instead of evaluating rows.
``cone_in_union`` keeps the polyhedra whose affine hull holds p, splits its
pieces with the same double-description cut (``_cut``) on integer generators
and reads coverage off per-hyperplane bitmasks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .linalg import (
    IntVec,
    Vec,
    _eliminate,
    _hermite,
    _kernel_rows,
    _scale_to_int,
    det,
    frac,
    gcd_list,
    in_span,
    lattice_basis_of_span,
    matrix_rank,
    primitive,
    sign_normalize,
    vadd,
    vdot,
    vscale,
    vsub,
)


class _NegInf:
    """Distinguished -infinity marker for T^n chart coordinates."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __eq__(self, other):
        return isinstance(other, _NegInf)

    def __hash__(self):
        return hash("_NegInf")


NEG_INF = _NegInf()


@dataclass(frozen=True)
class RationalPoint:
    """Point in a T^n chart: exact rationals, possibly -infinity entries."""

    coords: tuple

    def __post_init__(self):
        if len(self.coords) < 1:
            raise ValueError("point must have at least one coordinate")
        norm = tuple(c if c is NEG_INF else frac(c) for c in self.coords)
        object.__setattr__(self, "coords", norm)

    def __len__(self):
        return len(self.coords)

    def is_finite(self) -> bool:
        return all(c is not NEG_INF for c in self.coords)


def sedentarity(x: RationalPoint) -> int:
    """Number of -infinity coordinates of a point in a T^n chart."""
    return sum(1 for c in x.coords if c is NEG_INF)


def _as_vec(p) -> Vec:
    if isinstance(p, RationalPoint):
        if not p.is_finite():
            raise ValueError("operation requires a finite point")
        return tuple(p.coords)
    return tuple(frac(c) for c in p)


def _homogenized(lead: int, p) -> IntVec:
    """A positive integer multiple of (lead, p): integer input as it is,
    rational input times the lcm of its denominators."""
    if not isinstance(p, RationalPoint) and all(type(c) is int for c in p):
        return (lead,) + tuple(p)
    return tuple(_scale_to_int((lead,) + _as_vec(p))[0])


class Polyhedron:
    """Rational polyhedron in V-representation.

    vertices: finite rational points (at least one); rays: primitive integer
    directions; lineality: integer directions spanning the lineality space.
    """

    def __init__(self, vertices, rays=(), lineality=()):
        vs = tuple(_as_vec(v) for v in vertices)
        if not vs:
            raise ValueError("a polyhedron needs at least one vertex/base point")
        self.ambient_dim = len(vs[0])
        self.vertices = tuple(sorted(set(vs)))
        self.rays = tuple(sorted(set(primitive(r) for r in rays)))
        lin = []
        for l in lineality:
            lv = sign_normalize(primitive(l))
            if lv not in lin:
                lin.append(lv)
        self.lineality = tuple(sorted(lin))
        if any(len(v) != self.ambient_dim for v in vs + self.rays + self.lineality):
            raise ValueError("inconsistent ambient dimensions")
        self._hrep = None
        self._facet_gens = None
        self._gens = None
        self._int_dirs = None
        self._perp = None
        self._dim = None

    # -- basic geometry ----------------------------------------------------

    def _integer_directions(self) -> list[IntVec]:
        """Integer vectors spanning the direction (tangent) space:
        g0[0]·g[1:] − g[0]·g0[1:], a positive multiple of v − v0, for the
        homogeneous generator g of each vertex v after the first v0, g0 that
        of v0, then the rays and the lineality. Built once."""
        if self._int_dirs is None:
            gens = _homogeneous_generators(self)
            g0 = gens[0]
            self._int_dirs = [
                tuple(g0[0] * x - g[0] * y for x, y in zip(g[1:], g0[1:]))
                for g in gens[1:len(self.vertices)]
            ] + list(self.rays) + list(self.lineality)
        return self._int_dirs

    @property
    def dim(self) -> int:
        """Rank of the integer directions."""
        if self._dim is None:
            self._dim = len(_eliminate(self._integer_directions(), jordan=False)[1])
        return self._dim

    def _span_normals(self) -> list[IntVec]:
        """A basis N of the integer covectors that vanish on the direction
        space: the rows of U past the rank in the Hermite normal form of the
        transposed integer directions (the unit vectors for a point). U is
        unimodular, so N maps Z^n onto Z^c with kernel L, the saturated
        lattice of the directions: N·v is the class of v in Z^n / L. Built
        once."""
        if self._perp is None:
            dirs = self._integer_directions()
            _, u, rank = _hermite([[d[j] for d in dirs] for j in range(self.ambient_dim)],
                                  len(dirs))
            self._perp = [tuple(row) for row in u[rank:]]
        return self._perp

    def is_cone(self) -> bool:
        return self.vertices == ((0,) * self.ambient_dim,)

    # -- H-representation ----------------------------------------------------

    def hrep(self):
        """(equalities, inequalities) in homogeneous coordinates: a point x is
        in the polyhedron iff  e . (1, x) == 0 for all equalities and
        f . (1, x) >= 0 for all inequalities. Every row is a primitive
        integer tuple. Computed once, with ``facet_generators``."""
        if self._hrep is None:
            eqs, ineqs, self._facet_gens = _hrep_from_vrep(self)
            self._hrep = (eqs, ineqs)
        return self._hrep

    def facet_generators(self) -> list[int]:
        """The facet incidence: for each inequality of ``hrep()``, the bitmask
        of the homogeneous generators it vanishes on, bit i for
        ``_homogeneous_generators(self)[i]`` (the vertices, then the rays,
        then each lineality vector and its negative)."""
        self.hrep()
        return self._facet_gens

    def _satisfies(self, h: IntVec) -> bool:
        """Whether the H-representation holds at h, a positive integer
        multiple of a homogeneous point (1, x) or direction (0, d)."""
        eqs, ineqs = self.hrep()
        return all(vdot(e, h) == 0 for e in eqs) and all(vdot(f, h) >= 0 for f in ineqs)

    def contains(self, point) -> bool:
        return self._satisfies(_homogenized(1, point))

    def contains_direction(self, d) -> bool:
        """Whether the direction d lies in the recession cone."""
        return self._satisfies(_homogenized(0, d))

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        """Whether other lies in self: the H-rep holds on each of other's
        integer homogeneous generators, multiples of (1, v), (0, r), (0, +-l)."""
        return all(self._satisfies(g) for g in _homogeneous_generators(other))

    # -- canonical form ------------------------------------------------------

    def canonicalize(self) -> "Polyhedron":
        """Irredundant V-representation recomputed from the H-representation.

        When the H-rep rows have rank n + 1 the polyhedron is pointed, so its
        vertices and extreme rays are the given generators alone on the
        smallest face through them: those whose set of facets (read off
        ``facet_generators``) is in no other generator's. The polyhedron
        returned is the same set, so it keeps this H-rep (the rows in this
        polyhedron's order) and the incidence, re-indexed to the kept
        generators."""
        eqs, ineqs = self.hrep()
        n, nv = self.ambient_dim, len(self.vertices)
        if matrix_rank(eqs + ineqs) == n + 1:
            masks = self.facet_generators()
            on = [sum(1 << k for k, z in enumerate(masks) if z >> i & 1)
                  for i in range(nv + len(self.rays))]
            keep = [i for i, s in enumerate(on)
                    if not any(t & s == s for j, t in enumerate(on) if j != i)]
            poly = Polyhedron([self.vertices[i] for i in keep if i < nv],
                              [self.rays[i - nv] for i in keep if i >= nv])
            poly._hrep = self._hrep
            poly._facet_gens = [sum(1 << j for j, i in enumerate(keep) if z >> i & 1)
                                for z in masks]
            return poly
        poly = polyhedron_from_hrep(eqs, ineqs, n)
        if poly is None:
            raise ValueError("canonicalization emptied a nonempty polyhedron")
        return poly

    def __repr__(self):
        return (
            f"Polyhedron(dim={self.dim}, vertices={len(self.vertices)}, "
            f"rays={len(self.rays)}, lineality={len(self.lineality)})"
        )


def _homogeneous_generators(poly: Polyhedron) -> list[IntVec]:
    """Integer generators of the homogenization cone: a positive multiple of
    (1, v) per vertex, (0, r) per ray and (0, +-l) per lineality vector, in
    that order; (1, v) itself when v is integral. Built once per
    polyhedron; callers must not change the list."""
    if poly._gens is None:
        gens = [(1,) + tuple(c.numerator for c in v)
                if all(c.denominator == 1 for c in v) else primitive((1,) + v)
                for v in poly.vertices] + [(0,) + r for r in poly.rays]
        gens += [g for l in poly.lineality for g in ((0,) + l, (0,) + tuple(-c for c in l))]
        poly._gens = gens
    return poly._gens


def _hrep_from_vrep(poly: Polyhedron):
    """Facet enumeration of the homogenization cone, in integer rows, by the
    double description of its dual cone.

    One elimination of the generators G gives the equalities (its
    ``_kernel_rows``, the covectors vanishing on every generator) and an
    integer basis B of span(G), of dimension d. A facet normal lies in
    span(G), so it is sum(lam_i B_i) for an extreme ray lam of the pointed
    cone {lam : (B g) . lam >= 0 for every generator g} in Q^d
    (`_extreme_rays`), and that ray's zero set is the bitmask of the facet's
    tight generators, returned with its row. For d <= 1 the cone is the ray
    of its one generator g, and its one inequality is primitive(g), tight on
    no generator.

    The facets come in the order in which trying every (d - 1)-subset of
    generators in `combinations` order would first find them: sorted by the
    greedy basis of their tight generators, which is the lexicographically
    first independent (d - 1)-subset (`_greedy_basis`).
    """
    n = poly.ambient_dim
    gens = _homogeneous_generators(poly)
    m, pivots = _eliminate(gens)
    eqs = _kernel_rows(m, pivots, n + 1)
    d = len(pivots)
    if d <= 1:
        return eqs, [primitive(gens[0])], [0]
    basis = m[:d]
    rows = [tuple(vdot(b, g) for b in basis) for g in gens]
    cols = list(zip(*basis))
    keyed = []
    for lam, zeros in zip(*_extreme_rays(rows, d)):
        tight = [i for i in range(len(rows)) if zeros >> i & 1]
        if len(tight) > d - 1:
            tight = [tight[k] for k in _greedy_basis([rows[i] for i in tight])]
        keyed.append((tight, primitive([vdot(lam, col) for col in cols]), zeros))
    keyed.sort()
    return eqs, [nrm for _, nrm, _ in keyed], [zeros for *_, zeros in keyed]


def _greedy_basis(vectors) -> list[int]:
    """Indices of the vectors that are not in the span of the ones before
    them: the pivot columns of the matrix with these vectors as columns."""
    return _eliminate(list(zip(*vectors)), jordan=False)[1]


def _extreme_rays(rows, dim: int) -> tuple[list[IntVec], list[int]]:
    """Primitive extreme rays of the pointed cone {x : a . x >= 0 for every
    integer row a}, each with the bitmask of the rows that vanish on it (bit
    i for rows[i]); the rows must have rank dim.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996): start
    from the simplicial cone of the first dim independent rows A, whose rays
    are the columns of A^-1 (one elimination of [A | I]), and cut by the
    other rows one at a time, in order (`_cut`). H->V
    (`polyhedron_from_hrep`) runs it on the homogenized cone with the
    lineality added as equalities (a row and its negative), so the cone is
    pointed and its rays are orthogonal to the lineality; V->H
    (`_hrep_from_vrep`) runs it on the dual cone and also reads the masks.
    """
    basis = _greedy_basis(rows)
    m, _ = _eliminate([tuple(rows[i]) + tuple(int(j == k) for j in range(dim))
                       for k, i in enumerate(basis)])
    scale = lcm(*(row[r] for r, row in enumerate(m)))
    rays = [primitive([row[dim + k] * (scale // row[r]) for r, row in enumerate(m)])
            for k in range(dim)]
    full = sum(1 << i for i in basis)
    zeros = [full ^ (1 << i) for i in basis]
    for bit, a in enumerate(rows):
        if not full >> bit & 1:
            rays, zeros = _cut(rays, zeros, a, bit, dim)
    return rays, zeros


def _cut(rays, zeros, a, bit: int, dim: int):
    """One double-description step: the extreme rays, with their zero sets,
    of a pointed cone of dimension dim (modulo a lineality every row vanishes
    on) cut by a . x >= 0, where zeros[k] is the bitmask of the rows so far
    that vanish on rays[k] and bit is a's index. A positive and a negative
    ray span a new ray only when they are adjacent: no third ray vanishes on
    every row that vanishes on both."""
    vals = [vdot(a, r) for r in rays]
    new_rays = [r for r, v in zip(rays, vals) if v >= 0]
    new_zeros = [z | (1 << bit) if v == 0 else z for z, v in zip(zeros, vals) if v >= 0]
    for p, vp in enumerate(vals):
        if vp <= 0:
            continue
        for m, vm in enumerate(vals):
            if vm >= 0:
                continue
            common = zeros[p] & zeros[m]
            if common.bit_count() < dim - 2 or any(
                    common & ~z == 0 for k, z in enumerate(zeros) if k != p and k != m):
                continue
            new_rays.append(primitive(vadd(vscale(vp, rays[m]), vscale(-vm, rays[p]))))
            new_zeros.append(common | (1 << bit))
    return new_rays, new_zeros


def polyhedron_from_hrep(equalities, inequalities, ambient_dim: int) -> Polyhedron | None:
    """Vertex/ray/lineality enumeration for a homogeneous-coordinate H-rep,
    or None for an empty polyhedron.

    The homogenized cone {(lam, x) : lam >= 0, e . (lam, x) = 0,
    f . (lam, x) >= 0} has the lineality L, the kernel of all rows and lam.
    With L added to the equalities the cone is pointed and its rows have rank
    n + 1, so one ``_extreme_rays`` call gives its rays: lam > 0 is a vertex,
    lam = 0 a ray. The vertices and rays are those of the polyhedron's
    section orthogonal to its lineality, a representative that does not
    depend on the presentation of the rows.
    """
    n = ambient_dim
    lam = (1,) + (0,) * n
    eqs = [primitive(e) for e in equalities if any(e)]
    ineqs = [primitive(f) for f in inequalities if any(f)]
    lin = _kernel_rows(*_eliminate(eqs + ineqs + [lam]), n + 1)
    eqs += lin
    rays = _extreme_rays([lam] + eqs + ineqs + [tuple(-c for c in e) for e in eqs], n + 1)[0]
    verts = [tuple(Fraction(c, r[0]) for c in r[1:]) for r in rays if r[0]]
    if not verts:
        return None
    return Polyhedron(verts, [r[1:] for r in rays if not r[0]], [l[1:] for l in lin])


def intersect_polyhedra(p: Polyhedron, q: Polyhedron) -> Polyhedron | None:
    peq, pineq = p.hrep()
    qeq, qineq = q.hrep()
    return polyhedron_from_hrep(peq + qeq, pineq + qineq, p.ambient_dim)


def polyhedra_equal(p: Polyhedron, q: Polyhedron) -> bool:
    return p.contains_polyhedron(q) and q.contains_polyhedron(p)


# -- complexes ---------------------------------------------------------------


class PolyhedralComplex:
    """Finite polyhedral complex with an explicit covering face relation.

    face_relation: set of (face_index, cofacet_index) pairs where the face has
    dimension exactly one less than the cofacet (transitive reduction).

    The cells and the relation are never changed after construction, so one
    complex may be shared by several cycles. The facet/cofacet index and the
    lattice-normal memo of ``cycles`` depend on the geometry alone.
    """

    def __init__(self, ambient_dim: int, cells, face_relation):
        self.ambient_dim = ambient_dim
        self.cells: list[Polyhedron] = list(cells)
        self.face_relation = frozenset(tuple(p) for p in face_relation)
        self._faces_of = None
        self._cofaces_of = None
        self._normals: dict[tuple[int, int], IntVec] = {}

    def _index(self):
        """Facet and cofacet lists of every cell, built in one pass over the
        relation in its iteration order, so each list has the order of a
        scan of the relation."""
        faces: dict[int, list[int]] = {}
        cofaces: dict[int, list[int]] = {}
        for a, b in self.face_relation:
            faces.setdefault(b, []).append(a)
            cofaces.setdefault(a, []).append(b)
        self._faces_of, self._cofaces_of = faces, cofaces

    def maximal_cells(self) -> list[int]:
        non_max = {i for i, _ in self.face_relation}
        return [i for i in range(len(self.cells)) if i not in non_max]

    def facets_of(self, i: int) -> list[int]:
        if self._faces_of is None:
            self._index()
        return list(self._faces_of.get(i, ()))

    def cofacets_of(self, i: int) -> list[int]:
        if self._cofaces_of is None:
            self._index()
        return list(self._cofaces_of.get(i, ()))

    def faces_closure(self, cell_indices) -> set[int]:
        """All (iterated) faces of the given cells, including themselves."""
        out = set(cell_indices)
        frontier = list(cell_indices)
        while frontier:
            i = frontier.pop()
            for a in self.facets_of(i):
                if a not in out:
                    out.add(a)
                    frontier.append(a)
        return out

    def cells_containing(self, point) -> list[int]:
        return [i for i, c in enumerate(self.cells) if c.contains(point)]

    def is_cone_complex(self) -> bool:
        return all(c.is_cone() for c in self.cells)

    def __repr__(self):
        return f"PolyhedralComplex(ambient={self.ambient_dim}, cells={len(self.cells)})"


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_complex(c: PolyhedralComplex) -> ValidationReport:
    """Check the complex axioms on every cell, face relation and pair of
    cells; reports every violation found."""
    violations: list[str] = []
    for i, cell in enumerate(c.cells):
        for r in cell.rays:
            if gcd_list(r) != 1:
                violations.append(f"cell {i}: non-primitive ray {r}")
    for a, b in c.face_relation:
        ca, cb = c.cells[a], c.cells[b]
        if ca.dim != cb.dim - 1:
            violations.append(f"face relation ({a},{b}): not a covering pair")
        if not cb.contains_polyhedron(ca):
            violations.append(f"face relation ({a},{b}): face not contained in cofacet")
    # Geometric facets of each cell must be cells of the complex.
    for i, cell in enumerate(c.cells):
        eqs, ineqs = cell.hrep()
        for f in ineqs:
            if not any(f[1:]):
                continue
            face = polyhedron_from_hrep(eqs + [f], ineqs, c.ambient_dim)
            if face is None or face.dim != cell.dim - 1:
                continue
            found = any(
                polyhedra_equal(face, c.cells[j]) for j in c.facets_of(i)
            )
            if not found:
                violations.append(f"cell {i}: missing face {face!r}")
    # Pairwise intersections are common faces.
    for i, j in itertools.combinations(range(len(c.cells)), 2):
        inter = intersect_polyhedra(c.cells[i], c.cells[j])
        if inter is None:
            continue
        faces_i = c.faces_closure([i])
        faces_j = c.faces_closure([j])
        common = (faces_i & faces_j) | {i, j}
        if not any(polyhedra_equal(inter, c.cells[k]) for k in common):
            violations.append(f"cells {i},{j}: non-face intersection")
    return ValidationReport(ok=not violations, violations=violations)


def local_cone(c: PolyhedralComplex, x) -> PolyhedralComplex:
    """Star of x recentred at the origin, as a fan."""
    containing = c.cells_containing(x)
    if not containing:
        raise ValueError("point not in the support of the complex")
    hx = primitive((1,) + _as_vec(x))
    cones: list[Polyhedron] = []
    keys = {}
    index_map = {}
    for i in containing:
        eqs, ineqs = c.cells[i].hrep()
        # Tangent cone at x: homogeneous parts of the tight constraints.
        heqs = [(0,) + e[1:] for e in eqs if any(e[1:])]
        hineqs = [(0,) + f[1:] for f in ineqs if vdot(f, hx) == 0 and any(f[1:])]
        # H->V gives the irredundant generators, orthogonal to the lineality,
        # whatever rows describe the cone: they are its key.
        cone = polyhedron_from_hrep(heqs, hineqs, c.ambient_dim)
        key = (cone.vertices, cone.rays, cone.lineality)
        if key not in keys:
            keys[key] = len(cones)
            cones.append(cone)
        index_map[i] = keys[key]
    relation = set()
    for a, b in c.face_relation:
        if a in index_map and b in index_map and index_map[a] != index_map[b]:
            if cones[index_map[a]].dim == cones[index_map[b]].dim - 1:
                relation.add((index_map[a], index_map[b]))
    fan = PolyhedralComplex(c.ambient_dim, cones, relation)
    fan.index_map = index_map  # original cell index -> cone index
    return fan


def lineality_space(fan: PolyhedralComplex) -> list[IntVec]:
    """Integer basis of the largest linear subspace contained in the support
    (and in every maximal cone's span) of a cone complex."""
    if not fan.is_cone_complex():
        raise ValueError("lineality_space expects a cone complex")
    maxcells = fan.maximal_cells()
    if not maxcells:
        return []
    n = fan.ambient_dim
    # Start from the intersection of the cells' own lineality spaces.
    current = list(fan.cells[maxcells[0]].lineality)
    for i in maxcells[1:]:
        if not current:
            break
        current = _intersect_subspaces(current, fan.cells[i].lineality, n)
    # Try to extend by support-contained lines.
    candidate_rays = set()
    for i in maxcells:
        for r in fan.cells[i].rays:
            candidate_rays.add(r)
    changed = True
    while changed:
        changed = False
        for r in sorted(candidate_rays):
            if in_span(r, current):
                continue
            neg = tuple(-c for c in r)
            if not any(fan.cells[i].contains_direction(neg) for i in maxcells):
                continue
            # Accept r only if every maximal cone, translated along the line,
            # stays inside the support.
            cones = [fan.cells[i] for i in maxcells]
            ok = True
            for i in maxcells:
                shifted = Polyhedron(
                    fan.cells[i].vertices,
                    rays=fan.cells[i].rays,
                    lineality=list(fan.cells[i].lineality) + [r],
                )
                if not cone_in_union(shifted, cones):
                    ok = False
                    break
            if ok:
                current = current + [r]
                changed = True
    if not current:
        return []
    return lattice_basis_of_span(current, n)


def cone_in_union(p: Polyhedron, cones: list[Polyhedron]) -> bool:
    """Exact test whether the polyhedron p is covered by the union of the
    given polyhedra, by recursive splitting along their facet hyperplanes.

    Only the polyhedra C whose equalities vanish on p's homogeneous
    generators (aff p in aff C) are kept, and only their rows split; with
    none kept p is not covered. This is exact: any other C meets p inside a
    proper affine subspace of aff p, a closed set with empty interior in p.

    A piece is integer generators of its homogenization cone, (1, v) per
    vertex and (0, r) per ray times a positive integer, each with the bitmask
    of the rows it is tight on (p's facets, then the cuts on its path), and
    (0, l) per lineality vector. An uncovered piece is split by the first
    hyperplane with the piece strictly on both sides (`_halfspace`); that
    hyperplane splits neither half again, and both keep the piece's
    dimension. A piece no hyperplane splits lies on one side of each, so it
    is covered iff one polyhedron contains it.

    A piece evaluates each hyperplane h once, as a side mask: 1 if it has a
    point with h . x < 0, 2 if it has one with h . x > 0. A polyhedron's row
    on h forbids 1 (h . x >= 0), 2 (h . x <= 0) or both (h . x = 0). The
    piece is covered iff a candidate is left once, on every hyperplane, those
    forbidding a side the piece has (masks[i][s]) are cleared.

    The half a . x >= 0 of a split, and every piece split from it, keeps a
    point with a . x > 0. So a polyhedron whose row forbids that side meets
    it in a lower-dimensional set only: it is dropped from the piece's
    candidates (a bitmask), and a hyperplane that no candidate has no longer
    splits. A piece left with no candidate is not covered.
    """
    pgens = _homogeneous_generators(p)
    cones = [c for c in cones if all(vdot(e, g) == 0 for e in c.hrep()[0] for g in pgens)]
    if not cones:
        return False
    index: dict[IntVec, int] = {}
    # masks[i][0]: the polyhedra with a row on hyperplane i; masks[i][s]:
    # those whose row forbids side s.
    masks = []
    for k, c in enumerate(cones):
        eqs, ineqs = c.hrep()
        for j, a in enumerate(eqs + ineqs):
            h = sign_normalize(a)
            if h not in index:
                index[h] = len(masks)
                masks.append([0, 0, 0])
            forbid = 3 if j < len(eqs) else 1 if a == h else 2
            m = masks[index[h]]
            m[0] |= 1 << k
            m[1] |= (forbid & 1) << k
            m[2] |= (forbid >> 1) << k
    hyperplanes = list(index)

    def sides(gens, lin):
        memo = {}

        def side(i):
            s = memo.get(i)
            if s is None:
                h = hyperplanes[i]
                if any(vdot(h, l) for l in lin):
                    s = 3
                else:
                    vals = [vdot(h, g) for g in gens]
                    s = (min(vals) < 0) | (max(vals) > 0) << 1
                memo[i] = s
            return s
        return side

    def covered(side, cand) -> bool:
        for i, m in enumerate(masks):
            if m[0] & cand:
                s = side(i)
                cand &= ~(m[1] * (s & 1) | m[2] * (s >> 1))
                if not cand:
                    return False
        return cand != 0

    def split(gens, zeros, lin, dim, bit, cand, side) -> bool:
        for i, h in enumerate(hyperplanes):
            if masks[i][0] & cand and side(i) == 3:
                for a, s in ((h, 2), (tuple(-x for x in h), 1)):
                    left = cand & ~masks[i][s]
                    if not left:
                        return False
                    half = _halfspace(gens, zeros, lin, dim, a, bit)
                    half_side = sides(half[0], half[2])
                    if not covered(half_side, left) and not split(*half, bit + 1, left,
                                                                  half_side):
                        return False
                return True
        return False

    everything = (1 << len(cones)) - 1
    side = sides(pgens, [])
    if covered(side, everything):
        return True
    # The adjacency test of `_cut` holds only for the extreme generators.
    q = p.canonicalize()
    facets = p.hrep()[1]
    gens = [primitive((1,) + v) for v in q.vertices] + [(0,) + r for r in q.rays]
    zeros = [sum(1 << i for i, f in enumerate(facets) if vdot(f, g) == 0) for g in gens]
    lin = [(0,) + l for l in q.lineality]
    return split(gens, zeros, lin, p.dim + 1 - len(lin), len(facets), everything, side)


def _halfspace(gens, zeros, lin, dim: int, a, bit: int):
    """The half a . x >= 0 of a cone_in_union piece (gens, zeros, lin, dim),
    dim the dimension of its cone modulo the lineality and bit the index of
    a in the bitmasks. If a vanishes on the lineality this is one
    double-description cut. Otherwise a line l with a . l > 0 becomes a ray
    (tight on every earlier row), and the generators and the other lines are
    projected along l into a . x = 0."""
    along = [vdot(a, l) for l in lin]
    if not any(along):
        return (*_cut(gens, zeros, a, bit, dim), lin, dim)
    k = next(i for i, s in enumerate(along) if s)
    ray = lin[k] if along[k] > 0 else tuple(-x for x in lin[k])
    s = abs(along[k])

    def project(g, ag):
        return primitive(tuple(s * x - ag * y for x, y in zip(g, ray)))

    return ([project(g, vdot(a, g)) for g in gens] + [ray],
            [z | (1 << bit) for z in zeros] + [(1 << bit) - 1],
            [project(l, t) for i, (l, t) in enumerate(zip(lin, along)) if i != k],
            dim + 1)


def _intersect_subspaces(a, b, n):
    """Integer spanning set of the intersection of two subspaces given by
    integer spanning sets: the kernel of both sets' stacked normals."""
    if not a or not b:
        return []
    normals = _kernel_rows(*_eliminate(a), n) + _kernel_rows(*_eliminate(b), n)
    return _kernel_rows(*_eliminate(normals), n)


# -- lattice polytopes --------------------------------------------------------


class LatticePolytope:
    """Lattice polytope given by its integer vertices (irredundant)."""

    def __init__(self, points):
        pts = [tuple(int(c) for c in p) for p in points]
        if not pts:
            raise ValueError("empty point list")
        self.ambient_dim = len(pts[0])
        poly = Polyhedron(pts).canonicalize()
        self.vertices = tuple(sorted(tuple(int(c) for c in v) for v in poly.vertices))
        self._poly = poly

    @property
    def dim(self) -> int:
        return self._poly.dim

    def polyhedron(self) -> Polyhedron:
        return self._poly

    def contains(self, point) -> bool:
        return self._poly.contains(point)

    def lattice_points(self) -> list[IntVec]:
        lo = [min(v[i] for v in self.vertices) for i in range(self.ambient_dim)]
        hi = [max(v[i] for v in self.vertices) for i in range(self.ambient_dim)]
        out = []
        for p in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
            if self._poly.contains(p):
                out.append(p)
        return sorted(out)

    def interior_lattice_points(self) -> list[IntVec]:
        if self.dim < self.ambient_dim:
            return []
        return [p for p in self.lattice_points()
                if all(vdot(f, (1,) + p) > 0 for f in self._poly.hrep()[1])]

    def faces(self) -> list[tuple[int, tuple[IntVec, ...]]]:
        """All nonempty faces, the polytope itself included, as (dim, vertex
        tuple), sorted: the vertex sets of its facets, read off the facet
        incidence, closed under intersection."""
        return _faces_from_facets([self.vertices], [
            [v for i, v in enumerate(self.vertices) if z >> i & 1]
            for z in self._poly.facet_generators()])[0]

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"LatticePolytope(dim={self.dim}, vertices={self.vertices})"


def _faces_from_facets(tops, facets) -> tuple[list[tuple[int, tuple]], list[tuple[int, int]]]:
    """The point sets ``tops`` closed under intersection with the point sets
    ``facets``, as sorted (dim, sorted members) for every nonempty set, the
    dim being the rank of the members' differences; and the covers: pairs
    (i, j) of indices into that list where set i is set j cut by a facet set
    and one dimension lower. With a polytope's point set as the top and its
    facets' point sets as facets, these are its faces, every face being the
    intersection of the facets that contain it (Ziegler, Lectures on
    Polytopes, Thm 2.7), and the covers are its whole face relation: a facet
    of a face F is F cut by a facet of the polytope that misses F."""
    facets = [frozenset(s) for s in facets]
    found: dict[frozenset, tuple[int, tuple]] = {}
    frontier: list[frozenset] = []

    def reach(face):
        if face not in found:
            pts = tuple(sorted(face))
            found[face] = (matrix_rank([vsub(q, pts[0]) for q in pts[1:]]), pts)
            frontier.append(face)

    for t in tops:
        reach(frozenset(t))
    covers = []
    while frontier:
        face = frontier.pop()
        for sub in {face & s for s in facets if not face.isdisjoint(s)}:
            reach(sub)
            if found[sub][0] == found[face][0] - 1:
                covers.append((sub, face))
    order = sorted(found, key=found.get)
    index = {face: i for i, face in enumerate(order)}
    return [found[face] for face in order], [(index[g], index[f]) for g, f in covers]


def normalized_volume(simplex_points) -> int:
    """|det| of the edge matrix of a full-dimensional lattice simplex."""
    pts = [tuple(int(c) for c in p) for p in simplex_points]
    n = len(pts[0])
    if len(pts) != n + 1:
        raise ValueError("need exactly dim+1 points for a simplex")
    edges = [vsub(p, pts[0]) for p in pts[1:]]
    vol = det(edges)
    if vol == 0:
        raise ValueError("degenerate simplex")
    return abs(int(vol))


def polytope_normalized_volume(p: LatticePolytope) -> int:
    """Normalized volume (n! * euclidean volume) of a full-dimensional lattice
    polytope, by fan triangulation from a base vertex over the facets."""
    if p.dim != p.ambient_dim:
        raise ValueError("normalized volume needs a full-dimensional polytope")
    return sum(normalized_volume(s) for s in _fan_triangulation(p.polyhedron()))


def _fan_triangulation(poly: Polyhedron):
    """Triangulate a polytope, given as the Polyhedron of its vertices (whose
    H-rep is reused), by coning its first vertex over triangulations of the
    facets not containing it, each read off the facet incidence."""
    vs = poly.vertices
    if len(vs) == poly.dim + 1:
        return [list(vs)]
    facets = [Polyhedron([v for i, v in enumerate(vs) if z >> i & 1])
              for z in poly.facet_generators() if not z & 1]
    return [[vs[0]] + sub for facet in facets for sub in _fan_triangulation(facet)]


def standard_simplex(n: int, d: int = 1) -> LatticePolytope:
    """The dilated standard simplex d * Delta_n."""
    verts = [tuple(0 for _ in range(n))]
    for i in range(n):
        verts.append(tuple(d if j == i else 0 for j in range(n)))
    return LatticePolytope(verts)
