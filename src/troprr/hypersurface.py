"""Tropical polynomials (max-plus), regular subdivisions of Newton polytopes,
hypersurface cycles as dual complexes, and Cartier restrictions of
polynomials, each piece read off a dual face: of f to a cycle on its own
dual complex, and of g to the hypersurface of f, in any dimension, on the
complex of their tropical product."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cycles import CartierFunction, TropicalCycle
from .linalg import (
    frac,
    gcd_list,
    primitive,
    vadd,
    vdot,
    vsub,
)
from .polyhedra import (
    LatticePolytope,
    PolyhedralComplex,
    Polyhedron,
    _faces_from_facets,
    normalized_volume,
    polytope_normalized_volume,
)


class TropicalPolynomial:
    """max_a (<a, x> + c_a) over a finite set of integer exponents a with
    rational coefficients c_a."""

    def __init__(self, n: int, terms):
        self.n = int(n)
        items = dict(terms).items() if isinstance(terms, dict) else terms
        self.terms: dict[tuple[int, ...], Fraction] = {}
        for exp, coeff in items:
            e = tuple(int(c) for c in exp)
            if len(e) != self.n:
                raise ValueError("exponent of wrong length")
            c = frac(coeff)
            if e in self.terms:
                self.terms[e] = max(self.terms[e], c)
            else:
                self.terms[e] = c
        if not self.terms:
            raise ValueError("a tropical polynomial needs at least one term")

    def value(self, x) -> Fraction:
        xv = tuple(frac(c) for c in x)
        return max(vdot(e, xv) + c for e, c in self.terms.items())

    def __repr__(self):
        return f"TropicalPolynomial(n={self.n}, terms={len(self.terms)})"


def newton_polytope(f: TropicalPolynomial) -> LatticePolytope:
    return LatticePolytope(list(f.terms))


@dataclass
class RegularSubdivision:
    """Regular subdivision of the Newton polytope induced by the coefficients
    (upper-hull convention matching the max-plus polynomial).

    maximal_cells: list of (exponent frozenset, dual vertex in R^n); the
    exponent set is the full argmax set at the dual vertex.
    facets: list of (exponent frozenset, primitive outer normal), one per
    facet of the Newton polytope; the set holds every exponent on the facet."""

    polynomial: TropicalPolynomial
    polytope: LatticePolytope
    maximal_cells: list
    facets: list

    def faces(self):
        """All faces of all maximal cells as (member frozenset, dim), each
        listed once, sorted by dim and then members; members are ALL
        exponents of f lying on the face. Every facet of a face F of a
        maximal cell C lies in a facet of C that misses F, which is C cut by
        a neighbouring cell or by a Newton-polytope facet; so the faces are
        the cells' exponent sets closed under intersection with those sets,
        and the walk that closes them also finds each face's facets
        (``covers``)."""
        if not hasattr(self, "_faces"):
            cells = [exps for exps, _x in self.maximal_cells]
            tight = cells + [exps for exps, _outer in self.facets]
            faces, self._covers = _faces_from_facets(cells, tight)
            self._faces = [(frozenset(members), d) for d, members in faces]
        return self._faces

    def covers(self) -> list[tuple[int, int]]:
        """The face relation: pairs (i, j) of indices into ``faces()`` where
        face i is a facet of face j."""
        self.faces()
        return self._covers

    def is_smooth(self) -> bool:
        """All maximal cells are unimodular simplices."""
        n = self.polynomial.n
        for exps, _x in self.maximal_cells:
            if len(exps) != n + 1:
                return False
            if normalized_volume(sorted(exps)) != 1:
                return False
        return True


def regular_subdivision(f: TropicalPolynomial) -> RegularSubdivision:
    """Read the subdivision off the H-representation of the lifted polytope
    conv{(a, c_a)} + cone{-e_(n+1)}: an inequality b0 + <b, a> + bh h >= 0
    with bh < 0 is an upper facet, whose tight exponents form a maximal cell
    with dual vertex b / bh; one with bh == 0 and b != 0 is a Newton-polytope
    facet with outer normal -b. The tight exponents are read off the facet
    incidence: the lifted vertices come in the order of the sorted
    exponents, so bit i is the i-th exponent."""
    n = f.n
    p = newton_polytope(f)
    if p.dim != n:
        raise ValueError("Newton polytope must be full-dimensional")
    exps = sorted(f.terms)
    lifted = Polyhedron([e + (f.terms[e],) for e in exps], rays=[(0,) * n + (-1,)])
    assert [v[:n] for v in lifted.vertices] == exps
    cells, facets = [], []
    for h, z in zip(lifted.hrep()[1], lifted.facet_generators()):
        b, bh = h[1:-1], h[-1]
        tight = frozenset(e for i, e in enumerate(exps) if z >> i & 1)
        if bh < 0:
            cells.append((tight, tuple(Fraction(bi, bh) for bi in b)))
        elif any(b):
            facets.append((tight, primitive(tuple(-bi for bi in b))))
    maximal = sorted(cells, key=lambda t: sorted(t[0]))
    total = sum(
        normalized_volume(sorted(cell)) if len(cell) == n + 1
        else polytope_normalized_volume(LatticePolytope(list(cell)))
        for cell, _ in maximal
    )
    if total != polytope_normalized_volume(p):
        raise ValueError("subdivision cells do not cover the Newton polytope")
    return RegularSubdivision(f, p, maximal, facets)


# `tpn 3 d` meets 9 distinct term sets (the faces of the 3-simplex, up to
# lattice coordinates); 16 keeps every polynomial of such a command.
SUBDIVISION_MEMO_SIZE = 16
_subdivisions: dict[tuple, RegularSubdivision] = {}


def _subdivision_of(f: TropicalPolynomial) -> RegularSubdivision:
    """``regular_subdivision(f)`` memoized on f's term set, so that equal
    polynomials built as separate objects (the face truncations of
    ``face_polynomial``, a polynomial read twice from JSON) share one
    subdivision. Holds the SUBDIVISION_MEMO_SIZE most recent term sets; the
    oldest is dropped first."""
    key = (f.n, tuple(sorted(f.terms.items())))
    sub = _subdivisions.get(key)
    if sub is None:
        sub = regular_subdivision(f)
        if len(_subdivisions) >= SUBDIVISION_MEMO_SIZE:
            del _subdivisions[next(iter(_subdivisions))]
        _subdivisions[key] = sub
    return sub


def is_smooth(f: TropicalPolynomial) -> bool:
    return _subdivision_of(f).is_smooth()


class DualComplex(PolyhedralComplex):
    """The complex dual to the faces of a regular subdivision of a
    polynomial's Newton polytope: cell i is dual to the face whose members
    (every exponent on it) are ``faces[i]``, and a face of dim d gives a cell
    of dim n - d; ``terms`` are the polynomial's terms, which fix the
    subdivision."""

    def __init__(self, ambient_dim: int, cells, face_relation, terms: dict, faces: list):
        super().__init__(ambient_dim, cells, face_relation)
        self.terms = terms
        self.faces = faces


def _dual_complex(sub: RegularSubdivision, min_face_dim: int) -> DualComplex:
    """The complex of cells dual to the subdivision faces of dim >=
    min_face_dim, built once per subdivision and min_face_dim (complexes are
    never changed after construction, so the cycles built on it share it)."""
    if not hasattr(sub, "_dual_complexes"):
        sub._dual_complexes = {}
    if min_face_dim not in sub._dual_complexes:
        sub._dual_complexes[min_face_dim] = _build_dual_complex(sub, min_face_dim)
    return sub._dual_complexes[min_face_dim]


def _build_dual_complex(sub: RegularSubdivision, min_face_dim: int) -> DualComplex:
    """The cell dual to a face F of the subdivision is the closed region
    where every member of F attains the max (Maclagan-Sturmfels,
    Introduction to Tropical Geometry, Prop. 3.1.6). Its vertices are the
    dual vertices of the maximal cells containing F, and its rays the
    primitive outer normals of the Newton-polytope facets containing F.
    Cells come in face order, and a facet G of F makes F's cell a facet of
    G's: the face relation is the subdivision's covers, reversed.

    These generators are already irredundant, so the cell is not
    canonicalized: distinct maximal cells have distinct dual vertices (each
    cell is the full argmax set at its own), each is a vertex of the region
    (the argmax there is a whole maximal cell, reached nowhere else), and
    since the Newton polytope is full-dimensional its normal fan is pointed
    and the facet normals through F are the extreme rays of F's normal
    cone, the region's recession cone."""
    n = sub.polynomial.n
    faces = [(members, d) for members, d in sub.faces() if d >= min_face_dim]
    # The faces are sorted by dim, so the kept ones are the last len(faces).
    skip = len(sub.faces()) - len(faces)
    cells = []
    for members, d in faces:
        dual_verts = [x for exps, x in sub.maximal_cells if members <= exps]
        rays = [outer for tight, outer in sub.facets if members <= tight]
        cell = Polyhedron(dual_verts, rays=rays)
        if cell.dim != n - d:
            raise ValueError("dual cell of unexpected dimension")
        cells.append(cell)
    relation = {(j - skip, i - skip) for i, j in sub.covers() if i >= skip}
    return DualComplex(n, cells, relation, sub.polynomial.terms,
                       [members for members, _d in faces])


def tropical_hypersurface(f: TropicalPolynomial) -> TropicalCycle:
    """The hypersurface of f as a weighted complex dual to the regular
    subdivision: cells dual to subdivision faces of dimension >= 1, rays from
    outer normals of Newton-polytope facets, codimension-1 weights equal to
    the lattice lengths of the dual subdivision edges."""
    sub = _subdivision_of(f)
    n = f.n
    complex_ = _dual_complex(sub, 1)
    weights = {}
    for i, members in enumerate(complex_.faces):
        if complex_.cells[i].dim == n - 1:
            # The members of an edge lie on a line; its ends are the extremes.
            weights[i] = gcd_list(vsub(max(members), min(members)))
    cycle = TropicalCycle(complex_, n - 1, weights)
    cycle.subdivision = sub
    return cycle


def ambient_cycle(f: TropicalPolynomial) -> TropicalCycle:
    """All of R^n as a weight-1 cycle on the full dual complex of f's regular
    subdivision (regions of linearity down to the dual points), so that f is
    affine on every cell; the base of divisor power towers."""
    sub = _subdivision_of(f)
    n = f.n
    complex_ = _dual_complex(sub, 0)
    weights = {i: 1 for i, cell in enumerate(complex_.cells) if cell.dim == n}
    cycle = TropicalCycle(complex_, n, weights)
    cycle.subdivision = sub
    return cycle


def complement_components(f: TropicalPolynomial):
    """Connected components of R^n minus the hypersurface, for smooth f: one
    bounded-or-unbounded region per lattice point of the Newton polytope."""
    sub = _subdivision_of(f)
    if not sub.is_smooth():
        raise ValueError("complement components are catalogued for smooth f only")
    out = []
    for a in sub.polytope.lattice_points():
        dual_verts = [x for exps, x in sub.maximal_cells if a in exps]
        rays = [outer for tight, outer in sub.facets if a in tight]
        region = Polyhedron(dual_verts, rays=rays).canonicalize()
        out.append({"label": a, "region": region, "contractible": True})
    return out


# -- restriction of a polynomial to a cycle -----------------------------------


def cartier_from_polynomial(f: TropicalPolynomial, cycle: TropicalCycle) -> CartierFunction:
    """Restrict f to a cycle on its own dual complex (its hypersurface, its
    ambient cycle and every layer of their power towers) as a Cartier
    function. f is affine on each cell there, and every member of the
    cell's dual face attains the max on the whole cell; the piece is the
    smallest member. A cycle on any other complex is rejected: to cut a
    polynomial g with the hypersurface of another, use
    ``restrict_to_hypersurface``, whose complex refines both."""
    complex_ = cycle.complex
    if not (isinstance(complex_, DualComplex) and complex_.terms == f.terms):
        raise ValueError("the cycle is not on the polynomial's own dual complex; "
                         "restrict to another polynomial's hypersurface with "
                         "restrict_to_hypersurface")
    pieces = {}
    for i in sorted(cycle.weights):
        e = min(complex_.faces[i])
        pieces[i] = (e, f.terms[e])
    return CartierFunction(cycle, pieces)


def restrict_to_hypersurface(g: TropicalPolynomial, f: TropicalPolynomial) -> CartierFunction:
    """g restricted to the hypersurface of f, in any dimension, on the complex
    of the tropical product f*g (terms a + b, coefficient max(c_a + c_b)).

    V(f*g) is V(f) u V(g), and the product's regular subdivision is the
    mixed subdivision of Newt(f) + Newt(g): each face splits in one way
    only into a face F of f's subdivision plus a face G of g's, so the
    product's dual complex refines the linearity regions of both, and on
    the relative interior of a cell f's argmax is F and g's is G
    (Maclagan-Sturmfels, Introduction to Tropical Geometry, §3.6). F and G
    are read off the pairs (a, b) that give the face's members their
    coefficient: such a pair attains both maxima. The weighted cells are
    the (n-1)-cells where F is an edge, with its lattice length as weight;
    g's piece is the smallest member of G."""
    pairs: dict[tuple, list] = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            pairs.setdefault(vadd(a, b), []).append((ca + cb, a, b))
    prod = TropicalPolynomial(f.n, {c: max(v for v, _a, _b in ps) for c, ps in pairs.items()})
    complex_ = _dual_complex(_subdivision_of(prod), 1)
    weights, pieces = {}, {}
    for i, members in enumerate(complex_.faces):
        if complex_.cells[i].dim != f.n - 1:
            continue
        split = [(a, b) for c in members for v, a, b in pairs[c] if v == prod.terms[c]]
        edge = {a for a, _b in split}
        if len(edge) > 1:
            weights[i] = gcd_list(vsub(max(edge), min(edge)))
            e = min(b for _a, b in split)
            pieces[i] = (e, g.terms[e])
    return CartierFunction(TropicalCycle(complex_, f.n - 1, weights), pieces)


# -- generators ----------------------------------------------------------------


def polynomial_from_heights(n: int, points, heights) -> TropicalPolynomial:
    return TropicalPolynomial(n, list(zip([tuple(p) for p in points], heights)))


def alcove_heights(points, d: int):
    """Heights inducing a regular unimodular triangulation of the dilated
    standard simplex d*Delta_n using all its lattice points.

    Pull the points through the unimodular staircase map y_i = x_1 + ... + x_i
    and take the negative of a convex piecewise-linear function creasing
    exactly on the alcove hyperplanes y_i - y_j = k, y_i = k."""
    pts = [tuple(int(c) for c in p) for p in points]
    n = len(pts[0])

    def g(y):
        full = (0,) + y
        total = 0
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                for k in range(-d + 1, d):
                    total += abs(full[i] - full[j] - k)
        return total

    heights = []
    for p in pts:
        y = tuple(sum(p[:i + 1]) for i in range(n))
        heights.append(Fraction(-g(y)))
    return heights


def smooth_simplex_polynomial(n: int, d: int) -> TropicalPolynomial:
    """Smooth degree-d polynomial on R^n with Newton polytope d*Delta_n."""
    from .polyhedra import standard_simplex

    pts = standard_simplex(n, d).lattice_points()
    return polynomial_from_heights(n, pts, alcove_heights(pts, max(d, 1)))


SMOOTH_DRAWS = 50


def random_smooth_polynomial(points, seed: int = 0) -> TropicalPolynomial:
    """Random smooth polynomial in two variables using all the given lattice
    points: strictly concave base heights plus a small jitter, drawn again
    (up to SMOOTH_DRAWS times) until the induced subdivision is a
    unimodular triangulation."""
    pts = [tuple(int(c) for c in p) for p in points]
    n = len(pts[0])
    if n != 2:
        raise ValueError("random smooth generation is implemented for the plane")
    rng = random.Random(seed)
    for _ in range(SMOOTH_DRAWS):
        heights = [
            Fraction(-(x * x + y * y)) + Fraction(rng.randint(0, 10**6), 8 * 10**6)
            for x, y in pts
        ]
        f = polynomial_from_heights(n, pts, heights)
        sub = _subdivision_of(f)
        used = set().union(*(set(e) for e, _ in sub.maximal_cells))
        if sub.is_smooth() and len(used) == len(pts):
            return f
    raise ValueError(f"no smooth polynomial in {SMOOTH_DRAWS} draws")
