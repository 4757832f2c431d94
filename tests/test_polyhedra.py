import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from test_linalg import nullspace
from troprr.cycles import power_tower
from troprr.hypersurface import (
    TropicalPolynomial,
    smooth_simplex_polynomial,
    tropical_hypersurface,
)
from troprr import hypersurface, matroids, polyhedra
from troprr.linalg import (
    _eliminate,
    _kernel_rows,
    gcd_list,
    in_span,
    is_zero_vec,
    matrix_rank,
    primitive,
    rref,
    sign_normalize,
    solve_linear,
    vadd,
    vdot,
    vscale,
)
from troprr.matroids import bergman_complex, bergman_fan, graphic_matroid, uniform_matroid
from troprr.polyhedra import (
    NEG_INF,
    LatticePolytope,
    Polyhedron,
    PolyhedralComplex,
    RationalPoint,
    cone_in_union,
    intersect_polyhedra,
    lineality_space,
    local_cone,
    normalized_volume,
    polyhedra_equal,
    polyhedron_from_hrep,
    polytope_normalized_volume,
    sedentarity,
    standard_simplex,
    validate_complex,
)


def relative_interior_point(p):
    """Mean of the vertices plus the sum of the rays: a point of the
    relative interior of the polyhedron p."""
    n = len(p.vertices)
    x = p.vertices[0] if n == 1 else tuple(sum(c) / n for c in zip(*p.vertices))
    if p.rays:
        x = vadd(x, [sum(c) for c in zip(*p.rays)])
    return x


def tropical_line_complex():
    """Tropical line in R^2 under max-plus: rays (-1,0), (0,-1), (1,1)."""
    origin = Polyhedron([(0, 0)])
    r1 = Polyhedron([(0, 0)], rays=[(-1, 0)])
    r2 = Polyhedron([(0, 0)], rays=[(0, -1)])
    r3 = Polyhedron([(0, 0)], rays=[(1, 1)])
    return PolyhedralComplex(2, [origin, r1, r2, r3], {(0, 1), (0, 2), (0, 3)})


def test_sedentarity():
    assert sedentarity(RationalPoint((3, Fraction(1, 2)))) == 0
    assert sedentarity(RationalPoint((NEG_INF, 0))) == 1
    assert sedentarity(RationalPoint((NEG_INF, NEG_INF))) == 2


def test_sedentarity_semicontinuous_on_grid():
    # Along coordinatewise limits to -inf, sedentarity never decreases.
    path = [RationalPoint((1, 1)), RationalPoint((NEG_INF, 1)), RationalPoint((NEG_INF, NEG_INF))]
    seds = [sedentarity(p) for p in path]
    assert seds == sorted(seds)


def test_polyhedron_dim_and_contains():
    seg = Polyhedron([(0, 0), (2, 0)])
    assert seg.dim == 1
    assert seg.contains((1, 0))
    assert not seg.contains((1, 1))
    assert not seg.contains((3, 0))
    ray = Polyhedron([(0, 0)], rays=[(1, 1)])
    assert ray.contains((5, 5))
    assert not ray.contains((-1, -1))
    plane = Polyhedron([(0, 0)], lineality=[(1, 0), (0, 1)])
    assert plane.dim == 2
    assert plane.contains((7, -3))


def test_canonicalize_prunes_redundant_vertices():
    p = Polyhedron([(0, 0), (1, 0), (2, 0)])
    can = p.canonicalize()
    assert set(can.vertices) == {(0, 0), (2, 0)}


def test_canonicalize_folds_opposite_rays_into_lineality():
    p = Polyhedron([(0, 0)], rays=[(1, 0), (-1, 0)])
    can = p.canonicalize()
    assert can.lineality and not can.rays


def test_intersection():
    a = Polyhedron([(0, 0), (2, 0), (0, 2), (2, 2)])
    b = Polyhedron([(1, 1), (3, 1), (1, 3), (3, 3)])
    inter = intersect_polyhedra(a, b)
    assert inter is not None
    assert set(inter.vertices) == {(1, 1), (2, 1), (1, 2), (2, 2)}
    c = Polyhedron([(5, 5), (6, 5)])
    assert intersect_polyhedra(a, c) is None


def test_validate_single_point():
    c = PolyhedralComplex(2, [Polyhedron([(0, 0)])], set())
    assert validate_complex(c).ok


def test_validate_tropical_line():
    rep = validate_complex(tropical_line_complex())
    assert rep.ok, rep.violations


def test_validate_detects_non_face_intersection():
    # Two segments crossing at a midpoint that is not a listed cell.
    s1 = Polyhedron([(-1, 0), (1, 0)])
    s2 = Polyhedron([(0, -1), (0, 1)])
    p1 = Polyhedron([(-1, 0)])
    p2 = Polyhedron([(1, 0)])
    p3 = Polyhedron([(0, -1)])
    p4 = Polyhedron([(0, 1)])
    c = PolyhedralComplex(
        2, [s1, s2, p1, p2, p3, p4], {(2, 0), (3, 0), (4, 1), (5, 1)}
    )
    rep = validate_complex(c)
    assert not rep.ok
    assert any("non-face intersection" in v for v in rep.violations)


def test_validate_detects_non_primitive_ray():
    ray = Polyhedron([(0, 0)])
    ray.rays = ((2, 0),)  # bypass the constructor normalization on purpose
    c = PolyhedralComplex(2, [ray], set())
    rep = validate_complex(c)
    assert any("non-primitive" in v for v in rep.violations)


def test_local_cone_at_line_vertex():
    fan = local_cone(tropical_line_complex(), (0, 0))
    maxdims = sorted(fan.cells[i].dim for i in fan.maximal_cells())
    assert maxdims == [1, 1, 1]


def test_local_cone_interior_of_ray_is_a_line():
    fan = local_cone(tropical_line_complex(), (2, 2))
    assert len(fan.maximal_cells()) == 1
    cell = fan.cells[fan.maximal_cells()[0]]
    assert cell.dim == 1 and cell.lineality


def test_local_cone_point_complex():
    c = PolyhedralComplex(2, [Polyhedron([(1, 1)])], set())
    fan = local_cone(c, (1, 1))
    assert len(fan.cells) == 1 and fan.cells[0].dim == 0


def test_local_cone_interior_of_maximal_cell_is_tangent_span():
    square = Polyhedron([(0, 0), (1, 0), (0, 1), (1, 1)])
    c = PolyhedralComplex(2, [square], set())
    fan = local_cone(c, (Fraction(1, 2), Fraction(1, 2)))
    cell = fan.cells[0]
    assert cell.dim == 2 and len(cell.lineality) == 2


def canonical_key(p):
    """(vertices, rays, lineality) of p's canonical form."""
    can = p.canonicalize()
    return (can.vertices, can.rays, can.lineality)


def test_canonical_key_reduces_rays_modulo_the_lineality():
    # The half-plane y >= 0: bare, with the redundant row y >= -1, and
    # spanned by a ray that is not orthogonal to its lineality.
    bare = polyhedron_from_hrep([], [(0, 0, 1)], 2)
    padded = polyhedron_from_hrep([], [(0, 0, 1), (1, 0, 1)], 2)
    slanted = Polyhedron([(0, 0)], rays=[(-3, 1)], lineality=[(1, 0)])
    assert canonical_key(bare) == canonical_key(padded) == canonical_key(slanted)
    assert canonical_key(bare) == (((0, 0),), ((0, 1),), ((1, 0),))
    # A triangle's tangent cone at a point inside its edge from (0, 0) to
    # (2, 1): the half-plane x - 2y <= 0, with a ray and lineality. H->V
    # gives local_cone its cells in canonical form already.
    triangle = Polyhedron([(0, 0), (2, 1), (0, 2)])
    fan = local_cone(PolyhedralComplex(2, [triangle], set()), (1, Fraction(1, 2)))
    assert canonical_key(fan.cells[0]) == generators(fan.cells[0]) \
        == (((0, 0),), ((-1, 2),), ((2, 1),))
    # The same in the plane x = z of R^3, where the ray is still the one
    # orthogonal to the lineality (2, 1, 2).
    tilted = Polyhedron([(0, 0, 0), (2, 1, 2), (0, 2, 0)])
    fan = local_cone(PolyhedralComplex(3, [tilted], set()), (1, Fraction(1, 2), 1))
    assert canonical_key(fan.cells[0]) == generators(fan.cells[0]) \
        == (((0, 0, 0),), ((-1, 4, -1),), ((2, 1, 2),))


def test_local_cone_runs_no_v_to_h_once_the_cells_have_their_h_reps(monkeypatch):
    curve = tropical_hypersurface(smooth_simplex_polynomial(2, 3))
    c = curve.complex
    for cell in c.cells:
        cell.hrep()
    points = [relative_interior_point(cell) for cell in c.cells]
    calls = []
    original = polyhedra._hrep_from_vrep

    def counting(poly):
        calls.append(poly)
        return original(poly)

    monkeypatch.setattr(polyhedra, "_hrep_from_vrep", counting)
    fans = [local_cone(c, x) for x in points]
    assert sum(len(fan.cells) for fan in fans) > len(points) and not calls


def test_lineality_space_examples():
    # 3-ray fan: trivial lineality.
    fan = local_cone(tropical_line_complex(), (0, 0))
    assert lineality_space(fan) == []
    # R^2 as one cell: full lineality.
    full = PolyhedralComplex(2, [Polyhedron([(0, 0)], lineality=[(1, 0), (0, 1)])], set())
    assert len(lineality_space(full)) == 2
    # L_{U_{2,3}} x R: one-dimensional lineality (the R factor).
    cells = []
    rays2 = [(-1, 0), (0, -1), (1, 1)]
    origin_line = Polyhedron([(0, 0, 0)], lineality=[(0, 0, 1)])
    cells.append(origin_line)
    rel = set()
    for idx, r in enumerate(rays2):
        cells.append(Polyhedron([(0, 0, 0)], rays=[(r[0], r[1], 0)], lineality=[(0, 0, 1)]))
        rel.add((0, idx + 1))
    fan = PolyhedralComplex(3, cells, rel)
    lin = lineality_space(fan)
    assert len(lin) == 1 and tuple(map(abs, lin[0])) == (0, 0, 1)


def test_lineality_space_detects_split_line():
    # Two opposite rays listed as separate cells: support is a full line.
    o = Polyhedron([(0, 0)])
    rpos = Polyhedron([(0, 0)], rays=[(1, 0)])
    rneg = Polyhedron([(0, 0)], rays=[(-1, 0)])
    fan = PolyhedralComplex(2, [o, rpos, rneg], {(0, 1), (0, 2)})
    lin = lineality_space(fan)
    assert len(lin) == 1 and tuple(map(abs, lin[0])) == (1, 0)


def test_lattice_point_counts_match_binomials():
    for n in (1, 2, 3):
        for d in range(1, 9):
            p = standard_simplex(n, d)
            assert len(p.lattice_points()) == comb(d + n, n)
            if d > n:
                assert len(p.interior_lattice_points()) == comb(d - 1, n)


def test_lattice_points_examples():
    assert len(standard_simplex(2, 1).lattice_points()) == 3
    p2 = standard_simplex(2, 2)
    assert len(p2.lattice_points()) == 6
    assert p2.interior_lattice_points() == []
    assert standard_simplex(2, 3).interior_lattice_points() == [(1, 1)]


def test_normalized_volume():
    assert normalized_volume([(0, 0), (1, 0), (0, 1)]) == 1
    assert normalized_volume([(0, 0), (2, 0), (0, 1)]) == 2
    assert normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    with pytest.raises(ValueError):
        normalized_volume([(0, 0), (1, 0), (2, 0)])


def test_polytope_faces_of_square():
    sq = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    faces = sq.faces()
    dims = sorted(d for d, _ in faces)
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]


@pytest.mark.parametrize("n,d", [(n, d) for n in (1, 2, 3) for d in (1, 2, 3)])
def test_simplex_faces_are_its_vertex_subsets(n, d):
    """The faces of d*Delta_n are its nonempty vertex subsets, sorted by dim
    and then vertices, and a face covers the subsets one vertex smaller."""
    verts = standard_simplex(n, d).vertices
    expected = sorted((k - 1, s) for k in range(1, n + 2)
                      for s in itertools.combinations(verts, k))
    assert standard_simplex(n, d).faces() == expected
    faces, covers = polyhedra._faces_from_facets(
        [verts], [[v for v in verts if v != w] for w in verts])
    assert faces == expected
    assert sorted(covers) == [(i, j) for i, (di, vi) in enumerate(faces)
                              for j, (dj, vj) in enumerate(faces)
                              if dj == di + 1 and set(vi) < set(vj)]


# -- faces as intersections of facets, against the recursive walk -------------


def recursive_faces(vertices):
    """Reference face lattice: a V->H of every face found, recursing into
    the vertices tight on each of its facets."""
    found = {}

    def rec(subset):
        key = tuple(sorted(subset))
        if key in found:
            return
        sub = Polyhedron(list(subset))
        found[key] = sub.dim
        for f in sub.hrep()[1]:
            if not any(f[1:]):
                continue
            tight = [v for v in subset if vdot(f, (1,) + v) == 0]
            if tight and len(tight) < len(subset):
                rec(tuple(tight))

    rec(tuple(vertices))
    return sorted((d, vs) for vs, d in found.items())


@st.composite
def lattice_point_sets(draw):
    """Lattice points in R^1..R^3 spanning an affine space of dimension
    0..n: base + integer combinations of k drawn directions, so collinear
    and coplanar sets and single points come up."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n))
    ints = st.integers(-2, 2)
    base = draw(st.tuples(*[ints] * n))
    dirs = draw(st.lists(st.tuples(*[ints] * n), min_size=k, max_size=k))
    combos = draw(st.lists(st.tuples(*[ints] * k), min_size=1, max_size=7))
    return [tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base))
            for cs in combos]


CUBE = list(itertools.product((0, 1), repeat=3))
PRISM = [(x, y, z) for x, y in [(0, 0), (2, 0), (0, 1)] for z in (0, 3)]


@settings(max_examples=200, deadline=None)
@given(lattice_point_sets())
@example([(0, 0, 0)])
@example([(0, 0), (1, 1), (3, 3)])
@example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)])
@example(CUBE)
@example(PRISM)
def test_faces_match_the_recursive_walk(pts):
    p = LatticePolytope(pts)
    assert p.faces() == recursive_faces(p.vertices)


def test_faces_take_no_h_rep_per_face(monkeypatch):
    calls = []
    original = polyhedra._hrep_from_vrep
    monkeypatch.setattr(polyhedra, "_hrep_from_vrep", lambda p: calls.append(p) or original(p))
    cube = LatticePolytope(CUBE)
    calls.clear()
    assert len(cube.faces()) == 27
    assert len(calls) <= 1


def test_a_lattice_polytope_converts_v_to_h_once(monkeypatch):
    calls = []
    original = polyhedra._hrep_from_vrep
    monkeypatch.setattr(polyhedra, "_hrep_from_vrep", lambda p: calls.append(p) or original(p))
    hexagon = LatticePolytope([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1), (1, 1)])
    assert len(hexagon.faces()) == 13
    assert len(hexagon.lattice_points()) == 7 and hexagon.interior_lattice_points() == [(1, 1)]
    assert polytope_normalized_volume(hexagon) == 6
    assert len(calls) == 1
    # The canonical polyhedron keeps the H-rep, rows in the original order.
    square = Polyhedron([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)])
    assert square.canonicalize().hrep() == square.hrep()


def test_polyhedra_equal():
    a = Polyhedron([(0, 0), (1, 0), (2, 0)])
    b = Polyhedron([(0, 0), (2, 0)])
    assert polyhedra_equal(a, b)
    assert not polyhedra_equal(a, Polyhedron([(0, 0), (1, 0)]))


def test_hrep_rows_and_their_order():
    rect = Polyhedron([(0, 0), (2, 0), (0, 1), (2, 1)])
    assert rect.hrep() == ([], [(0, 1, 0), (0, 0, 1), (1, 0, -1), (2, -1, 0)])
    wedge = Polyhedron([(0, 0, 0)], rays=[(1, 0, 0), (0, 1, 0)], lineality=[(0, 0, 1)])
    assert wedge.hrep() == ([], [(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)])
    strip = Polyhedron([(Fraction(1, 2), 0), (0, Fraction(1, 3))], rays=[(1, 1)])
    assert strip.hrep() == ([], [(-1, 2, 3), (1, 3, -3), (1, -2, 2)])
    seg = Polyhedron([(0, 0, 1), (1, 1, 1)])
    eqs, ineqs = seg.hrep()
    assert eqs == [(0, -1, 1, 0), (-1, 0, 0, 1)] and ineqs == [(0, 1, 1, 0), (1, -1, -1, 1)]
    assert all(type(c) is int for row in eqs + ineqs for c in row)


# -- properties of the H-representation on random polyhedra ------------------

coords = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3))


def points(n):
    return st.lists(coords, min_size=n, max_size=n).map(tuple)


def directions(n):
    return st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any).map(tuple)


@st.composite
def random_polyhedra(draw, n=None):
    """A polytope, a cone, or a polyhedron with lineality, in R^1..R^3 (in
    R^n when n is given)."""
    if n is None:
        n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("polytope", "cone", "lineality")))
    if kind == "polytope":
        return Polyhedron(draw(st.lists(points(n), min_size=1, max_size=6)))
    if kind == "cone":
        return Polyhedron([(0,) * n], rays=draw(st.lists(directions(n), min_size=1, max_size=4)))
    return Polyhedron(
        draw(st.lists(points(n), min_size=1, max_size=3)),
        rays=draw(st.lists(directions(n), max_size=2)),
        lineality=draw(st.lists(directions(n), min_size=1, max_size=2)),
    )


def homogeneous_generators(p):
    gens = [(Fraction(1),) + v for v in p.vertices] + [(0,) + r for r in p.rays]
    for l in p.lineality:
        gens += [(0,) + l, (0,) + tuple(-c for c in l)]
    return gens


@settings(max_examples=60, deadline=None)
@given(random_polyhedra())
def test_hrep_rows_are_primitive_facet_normals(p):
    eqs, ineqs = p.hrep()
    gens = homogeneous_generators(p)
    d = p.ambient_dim + 1 - len(eqs)
    assert matrix_rank(gens) == d
    for row in eqs + ineqs:
        assert all(type(c) is int for c in row)
        assert gcd_list(int(c) for c in row) == 1
    for e in eqs:
        assert all(vdot(e, g) == 0 for g in gens)
    assert len(set(ineqs)) == len(ineqs)
    for f in ineqs:
        vals = [vdot(f, g) for g in gens]
        assert all(v >= 0 for v in vals)
        assert matrix_rank([g for g, v in zip(gens, vals) if v == 0]) == d - 1


@settings(max_examples=60, deadline=None)
@given(random_polyhedra())
@example(Polyhedron([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)]))
def test_facet_incidence_matches_fraction_evaluation(p):
    for q in (p, p.canonicalize()):
        gens = homogeneous_generators(q)
        assert q.facet_generators() == [
            sum(1 << i for i, g in enumerate(gens) if vdot(f, g) == 0) for f in q.hrep()[1]]


@settings(max_examples=60, deadline=None)
@given(random_polyhedra())
def test_from_hrep_gives_the_canonical_generators(p):
    back = polyhedron_from_hrep(*p.hrep(), p.ambient_dim)
    assert back is not None and back.dim == p.dim
    assert polyhedra_equal(back, p)
    assert back.hrep()[0] == p.hrep()[0] and set(back.hrep()[1]) == set(p.hrep()[1])
    if back.lineality:
        lin = [tuple(Fraction(c) for c in l) for l in back.lineality]
        assert all(in_span(l, lin) for l in p.lineality)
    else:
        # A pointed polyhedron's vertices and extreme rays are among any
        # generating set, and none of them is redundant.
        assert set(back.vertices) <= set(p.vertices) and set(back.rays) <= set(p.rays)
        for v in back.vertices:
            rest = [w for w in back.vertices if w != v]
            assert not rest or not Polyhedron(rest, back.rays).contains(v)
    if p.is_cone():
        assert back.vertices == p.vertices


@settings(max_examples=60, deadline=None)
@given(random_polyhedra(), st.data())
def test_containment_matches_fraction_evaluation(p, data):
    eqs, ineqs = p.hrep()
    n = p.ambient_dim

    def holds(h):
        return all(vdot(e, h) == 0 for e in eqs) and all(vdot(f, h) >= 0 for f in ineqs)

    samples = data.draw(st.lists(points(n), min_size=1, max_size=5))
    samples += list(p.vertices) + [tuple(Fraction(0) for _ in range(n))]
    samples.append(tuple((a + b) / 2 for a, b in zip(p.vertices[0], p.vertices[-1])))
    for x in samples:
        fx = tuple(Fraction(c) for c in x)
        assert p.contains(x) == holds((Fraction(1),) + fx)
        assert p.contains(RationalPoint(x)) == p.contains(x)
        assert p.contains_direction(x) == holds((Fraction(0),) + fx)
    assert all(p.contains_direction(r) for r in p.rays)


def per_vertex_contains_polyhedron(c, other):
    """contains_polyhedron as it was: each vertex of other through
    ``contains``, each ray and each lineality vector and its negative
    through ``contains_direction``."""
    return all(c.contains(v) for v in other.vertices) and all(
        c.contains_direction(r) for r in other.rays
    ) and all(
        c.contains_direction(l) and c.contains_direction(vscale(-1, l))
        for l in other.lineality
    )


@st.composite
def containment_pairs(draw):
    """(c, q) in one R^n: q is another random polyhedron, or is built from
    c's generators (some vertices and the midpoint of two, some rays, some
    lineality vectors, a lineality vector as a ray), sometimes with a random
    point, ray or line added, so that both outcomes occur."""
    c = draw(random_polyhedra())
    n = c.ambient_dim
    if draw(st.integers(0, 2)) == 0:
        return c, draw(random_polyhedra(n))
    vs = draw(st.lists(st.sampled_from(c.vertices), min_size=1, max_size=3))
    vs.append(tuple((a + b) / 2 for a, b in zip(vs[0], vs[-1])))
    rays = draw(st.lists(st.sampled_from(c.rays), max_size=2)) if c.rays else []
    lin = draw(st.lists(st.sampled_from(c.lineality), max_size=2)) if c.lineality else []
    if c.lineality and draw(st.booleans()):
        rays.append(vscale(-1, c.lineality[0]))
    extra = draw(st.integers(0, 3))
    if extra == 1:
        vs.append(draw(points(n)))
    elif extra == 2:
        rays.append(draw(directions(n)))
    elif extra == 3:
        lin.append(draw(directions(n)))
    return c, Polyhedron(vs, rays, lin)


CONTAINMENT_EXAMPLES = [
    # a half-plane with lineality against a rational point, a ray and a line
    (Polyhedron([(0, 0)], [(1, 0)], [(0, 1)]),
     Polyhedron([(Fraction(1, 2), 3)], [(1, 1)], [(0, 1)]), True),
    (Polyhedron([(0, 0)], [(1, 0)], [(0, 1)]),
     Polyhedron([(Fraction(1, 2), 3)], [], [(1, 0)]), False),
    (Polyhedron([(0, 0)], [(1, 0)], [(0, 1)]), Polyhedron([(Fraction(-1, 3), 0)]), False),
    # a rational triangle and a segment of it, and one leaving it
    (Polyhedron([(0, 0), (Fraction(3, 2), 0), (0, Fraction(3, 2))]),
     Polyhedron([(Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(3, 4))]), True),
    (Polyhedron([(0, 0), (Fraction(3, 2), 0), (0, Fraction(3, 2))]),
     Polyhedron([(Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(4, 5))]), False),
]


@settings(max_examples=200, deadline=None)
@given(containment_pairs())
def test_contains_polyhedron_matches_the_per_vertex_test(pair):
    c, q = pair
    assert c.contains_polyhedron(q) == per_vertex_contains_polyhedron(c, q)


@pytest.mark.parametrize("c,q,expected", CONTAINMENT_EXAMPLES)
def test_contains_polyhedron_examples(c, q, expected):
    assert c.contains_polyhedron(q) == per_vertex_contains_polyhedron(c, q) == expected


@settings(max_examples=100, deadline=None)
@given(random_polyhedra())
def test_dim_is_the_rank_of_the_directions(p):
    d = p.dim
    assert p._perp is None
    assert d == p.ambient_dim - len(p._span_normals())


@settings(max_examples=100, deadline=None)
@given(random_polyhedra())
def test_homogeneous_generators_are_primitive(p):
    gens = polyhedra._homogeneous_generators(p)
    nv = len(p.vertices)
    assert gens[:nv] == [primitive((1,) + v) for v in p.vertices]
    assert gens[nv:] == [tuple(int(x) for x in g) for g in homogeneous_generators(p)[nv:]]
    assert all(type(x) is int for g in gens for x in g)


# -- V->H by double description, against the subset enumeration it replaced ---


def kernel_line(rows, ncols):
    """Primitive integer generator of {x in Q^ncols : A x = 0} when that
    kernel is a line (A has rank ncols - 1), else None."""
    m, pivots = _eliminate(rows)
    if len(pivots) != ncols - 1:
        return None
    return _kernel_rows(m, pivots, ncols)[0]


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(coords, min_size=n, max_size=n), max_size=5), st.just(n))))
def test_kernel_line_is_the_primitive_kernel_generator(case):
    rows, ncols = case
    v = kernel_line(rows, ncols)
    if ncols - matrix_rank(rows) != 1:
        assert v is None
        return
    assert v is not None and any(v)
    assert all(vdot(row, v) == 0 for row in rows)
    assert primitive(v) == v


def enumerating_hrep(p):
    """Reference V->H: the kernel line of every (d - 1)-subset of the
    homogeneous generators, stacked on the equalities, in `combinations`
    order, kept at its first occurrence when it has one sign on every
    generator (d the dimension of their span)."""
    n = p.ambient_dim
    gens = polyhedra._homogeneous_generators(p)
    eqs = [primitive(e) for e in nullspace(gens)]
    d = n + 1 - len(eqs)
    ineqs = []
    for subset in itertools.combinations(gens, d - 1):
        nrm = kernel_line(list(subset) + eqs, n + 1)
        if nrm is None:
            continue
        vals = [vdot(nrm, g) for g in gens]
        if not all(v >= 0 for v in vals):
            if not all(v <= 0 for v in vals):
                continue
            nrm = tuple(-x for x in nrm)
        if nrm not in ineqs:
            ineqs.append(nrm)
    return eqs, ineqs


@st.composite
def vrep_cases(draw):
    """Polyhedra in R^1..R^4: points, segments and polytopes spanning an
    affine subspace (so with equalities), with rational vertices and
    sometimes a redundant midpoint; the same with rays and lineality, where
    a lineality vector may repeat a ray (a duplicate generator); and lifted
    polytopes conv{(a, c_a)} + cone{-e_(n+1)} of random polynomials in
    n = 1..3 variables."""
    kind = draw(st.sampled_from(("polytope", "unbounded", "lifted")))
    if kind == "lifted":
        n = draw(st.integers(1, 3))
        exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=9,
                             unique=True))
        heights = draw(st.lists(st.integers(-1, 1), min_size=len(exps), max_size=len(exps)))
        return Polyhedron([e + (c,) for e, c in zip(exps, heights)], rays=[(0,) * n + (-1,)])
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    base = draw(points(n))
    dirs = draw(st.lists(directions(n), min_size=k, max_size=k))
    coeffs = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2),
                      min_size=k, max_size=k)
    verts = [tuple(b + sum(c * dv[i] for c, dv in zip(cs, dirs)) for i, b in enumerate(base))
             for cs in draw(st.lists(coeffs, min_size=1, max_size=5))]
    if draw(st.booleans()):
        verts.append(tuple((Fraction(a) + b) / 2 for a, b in zip(verts[0], verts[-1])))
    if kind == "polytope":
        return Polyhedron(verts)
    rays = draw(st.lists(directions(n), max_size=3))
    lineality = draw(st.lists(directions(n), max_size=2))
    if rays and draw(st.booleans()):
        lineality.append(rays[0])
    return Polyhedron(verts, rays, lineality)


@settings(max_examples=300, deadline=None)
@given(vrep_cases())
@example(Polyhedron([(Fraction(1, 2), Fraction(-1, 3))]))
@example(Polyhedron([(0, 0, 1), (1, 1, 1)]))
@example(Polyhedron([(0, 0), (1, 0), (2, 0)]))
@example(Polyhedron([(0, 0)], rays=[(1, 0), (0, 1)], lineality=[(1, 0)]))
# facets whose first d - 1 tight generators are dependent (collinear points)
@example(Polyhedron([(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 2, 0), (1, 0, 1),
                     (1, 2, 0), (2, 1, 1)]))
@example(Polyhedron([(0, 0, 0, 0)], rays=[(1, 0, 0, 0)], lineality=[(0, 1, 0, 0), (0, 0, 1, 1)]))
@example(Polyhedron([p + (c,) for p, c in smooth_simplex_polynomial(3, 2).terms.items()],
                    rays=[(0, 0, 0, -1)]))
def test_hrep_matches_subset_enumeration(p):
    eqs, ineqs = enumerating_hrep(p)
    assert p.hrep() == (eqs, ineqs)


_K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
FACE_INDEX_CASES = {
    "U35": lambda: bergman_complex(uniform_matroid(3, 5))[0],
    "U46": lambda: bergman_complex(uniform_matroid(4, 6))[0],
    "K4": lambda: bergman_complex(graphic_matroid(_K4))[0],
    "hypersurface": lambda: tropical_hypersurface(smooth_simplex_polynomial(2, 3)).complex,
    "line": tropical_line_complex,
}


@pytest.mark.parametrize("name", sorted(FACE_INDEX_CASES))
def test_face_index_equals_relation_scan(name):
    c = FACE_INDEX_CASES[name]()
    for i in range(len(c.cells) + 1):
        assert c.facets_of(i) == [a for a, b in c.face_relation if b == i]
        assert c.cofacets_of(i) == [b for a, b in c.face_relation if a == i]
    # The returned lists are copies: changing one leaves the index intact.
    c.facets_of(0).append(-1)
    assert -1 not in c.facets_of(0)


# -- H->V by double description, against the subset enumeration it replaced ---


def enumerating_from_hrep(equalities, inequalities, n):
    """Reference H->V conversion: the same reduction modulo the equalities and
    the lineality, then every q-subset of the reduced inequalities is solved
    for a vertex and every (q-1)-subset for a ray."""
    eqs = [tuple(Fraction(c) for c in e) for e in equalities]
    ineqs = [tuple(Fraction(c) for c in f) for f in inequalities]

    def identity(k):
        return [tuple(Fraction(int(i == j)) for j in range(k)) for i in range(k)]

    if eqs:
        p0 = solve_linear([e[1:] for e in eqs], [-e[0] for e in eqs])
        if p0 is None:
            return None
        null = nullspace([e[1:] for e in eqs])
    else:
        p0, null = tuple(Fraction(0) for _ in range(n)), identity(n)
    k = len(null)
    if k == 0:
        ok = all(vdot(f, (Fraction(1),) + tuple(p0)) >= 0 for f in ineqs)
        return Polyhedron([p0]) if ok else None
    t_ineqs = [(tuple(vdot(f[1:], nv) for nv in null), -(f[0] + vdot(f[1:], p0)))
               for f in ineqs]
    normals = [c for c, _ in t_ineqs if not is_zero_vec(c)]
    lin_t = nullspace(normals) if normals else identity(k)
    if any(is_zero_vec(c) and rhs > 0 for c, rhs in t_ineqs):
        return None
    comp = nullspace(lin_t) if lin_t else identity(k)
    q = len(comp)
    red = [(tuple(vdot(c, cv) for cv in comp), rhs) for c, rhs in t_ineqs
           if not is_zero_vec(c)]
    verts_s, rays_s = set(), set()
    if q == 0:
        verts_s.add(())
    else:
        for subset in itertools.combinations(red, q):
            rows = [c for c, _ in subset]
            if matrix_rank(rows) == q:
                s = solve_linear(rows, [r for _, r in subset])
                if all(vdot(c, s) >= r for c, r in red):
                    verts_s.add(s)
        for subset in itertools.combinations(red, q - 1):
            rows = [c for c, _ in subset]
            dirs = nullspace(rows) if rows else identity(q)
            if len(dirs) == 1:
                for dd in (dirs[0], tuple(-a for a in dirs[0])):
                    if all(vdot(c, dd) >= 0 for c, _ in red):
                        rays_s.add(primitive(dd))
        if not verts_s:
            return None

    def t_to_x(t):
        return tuple(sum(t[i] * null[i][j] for i in range(k)) for j in range(n))

    def s_to_x(s):
        return t_to_x([sum(si * cv[j] for si, cv in zip(s, comp)) for j in range(k)])

    return Polyhedron(
        [vadd(s_to_x(s), p0) for s in verts_s],
        [primitive(x) for x in map(s_to_x, rays_s) if not is_zero_vec(x)],
        [primitive(x) for x in map(t_to_x, lin_t) if not is_zero_vec(x)],
    )


def generators(p):
    return None if p is None else (p.vertices, p.rays, p.lineality)


def modulo_lineality(p):
    """generators(p) with each vertex and ray projected, in Fraction
    arithmetic, onto the orthogonal complement of the lineality, and the
    lineality as the RREF of its span. Pointed polyhedra are unchanged."""
    if p is None or not p.lineality:
        return generators(p)
    lin = [tuple(Fraction(c) for c in l) for l in p.lineality]
    gram = [[vdot(a, b) for b in lin] for a in lin]

    def project(x):
        c = solve_linear(gram, [vdot(a, x) for a in lin])
        return tuple(xj - sum(ci * l[j] for ci, l in zip(c, lin)) for j, xj in enumerate(x))

    q = Polyhedron([project(v) for v in p.vertices], [project(r) for r in p.rays])
    return (q.vertices, q.rays, rref(lin)[0])


def rows_of(n):
    return st.lists(coords, min_size=n + 1, max_size=n + 1).map(tuple)


@st.composite
def random_hreps(draw):
    """(equalities, inequalities, n): random rows, or the H-rep of a random
    polyhedron with a few random rows, repeated rows and negated rows added."""
    if draw(st.booleans()):
        p = draw(random_polyhedra())
        n = p.ambient_dim
        eqs, ineqs = (list(rows) for rows in p.hrep())
    else:
        n = draw(st.integers(1, 3))
        eqs, ineqs = [], []
    eqs += draw(st.lists(rows_of(n), max_size=1 if eqs else 2))
    ineqs += draw(st.lists(rows_of(n), max_size=5))
    if ineqs and draw(st.booleans()):
        ineqs.append(tuple(-c for c in draw(st.sampled_from(ineqs))))
    if ineqs and draw(st.booleans()):
        ineqs.append(draw(st.sampled_from(ineqs)))
    return eqs, ineqs, n


@settings(max_examples=300, deadline=None)
@given(random_hreps())
# a single point
@example(([(1, -1, 0), (2, 0, -1)], [(0, 1, 0)], 2))
# q = 0: the whole plane, and an affine plane in R^3
@example(([], [], 2))
@example(([(1, 1, -1, 0)], [(3, 0, 0, 0)], 3))
# empty, by the equalities and by the inequalities
@example(([(1, 1, 0), (0, 1, 0)], [], 2))
@example(([], [(-1, 1, 0), (-1, -1, 0)], 2))
@example(([], [(-1, 0, 0)], 2))
# unbounded: a quadrant, a slab with lineality, a half-plane with rational rows
@example(([], [(0, 1, 0), (0, 0, 1)], 2))
@example(([], [(1, 1, 1, 0), (1, -1, -1, 0)], 3))
@example(([], [(Fraction(1, 2), 1, Fraction(-1, 3))], 2))
def test_double_description_matches_subset_enumeration(hrep):
    """Pointed results match exactly. With lineality, the double description
    returns the representatives orthogonal to it, so the reference's
    generators are projected there first."""
    eqs, ineqs, n = hrep
    got = polyhedron_from_hrep(eqs, ineqs, n)
    want = modulo_lineality(enumerating_from_hrep(eqs, ineqs, n))
    if got is not None and got.lineality:
        got = (got.vertices, got.rays, rref(got.lineality)[0])
    else:
        got = generators(got)
    assert got == want


@pytest.mark.parametrize("bounded", [True, False])
def test_from_hrep_does_not_depend_on_the_presentation(bounded):
    """The strip 0 <= x - y <= 1 (or the half-plane x - y >= 0) in the plane
    x + y + z = 1 of R^3, with lineality (1, 1, -2): with redundant rows,
    with its rows combined with the equality and scaled by rationals, and
    with the equality as two opposite inequalities. All give the
    representatives orthogonal to the lineality."""
    plane = (-1, 1, 1, 1)
    upper = [(1, -1, 1, 0)] if bounded else []
    redundant = polyhedron_from_hrep([plane, (-2, 2, 2, 2)],
                                     [(0, 1, -1, 0), (1, 1, -1, 0)] + upper * 2, 3)
    # x - y >= 0 plus half the equality; 1 - x + y >= 0 plus five times it.
    half = Fraction(1, 2)
    combined = polyhedron_from_hrep([tuple(Fraction(2, 3) * c for c in plane)],
                                    [(-half, 3 * half, -half, half)]
                                    + ([(-4, 4, 6, 5)] if bounded else []), 3)
    implicit = polyhedron_from_hrep([], [plane, tuple(-c for c in plane), (0, 1, -1, 0)]
                                    + upper, 3)
    assert generators(redundant) == generators(combined) == generators(implicit)
    assert redundant.lineality == ((1, 1, -2),)
    assert redundant.vertices == ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),) + (
        ((Fraction(5, 6), Fraction(-1, 6), Fraction(1, 3)),) if bounded else ())
    assert redundant.rays == (() if bounded else ((1, -1, 0),))
    for x in redundant.vertices + redundant.rays:
        assert vdot(x, redundant.lineality[0]) == 0


@st.composite
def redundant_generators(draw):
    """Generators with repeated and interior vertices, redundant and
    opposite rays, and sometimes lineality."""
    n = draw(st.integers(1, 3))
    vs = draw(st.lists(points(n), min_size=1, max_size=4))
    vs.append(tuple((Fraction(a) + b) / 2 for a, b in zip(vs[0], vs[-1])))
    rays = draw(st.lists(directions(n), max_size=3))
    if rays:
        rays.append(tuple(a + b for a, b in zip(rays[0], rays[-1])))
        if draw(st.booleans()):
            rays.append(tuple(-c for c in rays[0]))
        if any(rays[-1]):
            vs.append(vadd(vs[0], rays[-1]))
    lineality = draw(st.lists(directions(n), max_size=1))
    return Polyhedron(vs, [r for r in rays if any(r)], lineality)


@settings(max_examples=200, deadline=None)
@given(redundant_generators())
@example(Polyhedron([(0, 0), (1, 0), (2, 0)]))
@example(Polyhedron([(0, 0), (1, 1)], rays=[(1, 0), (-1, 0), (0, 1)]))
@example(Polyhedron([(0, 0, 0), (1, 0, 0)], rays=[(0, 1, 0)], lineality=[(0, 0, 1)]))
def test_canonicalize_fast_path_matches_the_general_path(p):
    general = polyhedron_from_hrep(*p.hrep(), p.ambient_dim)
    assert generators(p.canonicalize()) == generators(general)


def test_canonicalize_of_a_pointed_polyhedron_needs_no_h_to_v(monkeypatch):
    calls = []
    original = polyhedra.polyhedron_from_hrep

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polyhedra, "polyhedron_from_hrep", counting)
    square = Polyhedron([(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), 0)])
    assert square.canonicalize().vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    wedge = Polyhedron([(0, 0)], rays=[(1, 0), (1, 1), (0, 1)])
    assert wedge.canonicalize().rays == ((0, 1), (1, 0))
    assert not calls
    line = Polyhedron([(0, 0)], rays=[(1, 0), (-1, 0)])
    assert line.canonicalize().lineality == ((1, 0),) and len(calls) == 1


def enumerated_extreme_rays(rows, dim):
    """Reference: each kernel line of dim - 1 rows, in the orientation that
    meets every row, if either does."""
    out = set()
    for subset in itertools.combinations(rows, dim - 1):
        r = kernel_line(list(subset), dim)
        if r is not None:
            for cand in (r, tuple(-x for x in r)):
                if all(vdot(a, cand) >= 0 for a in rows):
                    out.add(cand)
    return out


def homogenized_facets(points):
    return [tuple(int(c) for c in f) for f in Polyhedron(points).hrep()[1]]


@pytest.mark.parametrize("rows,dim,count", [
    # the cone over the 3-cube, with the redundant row lambda >= 0
    (homogenized_facets(list(itertools.product((0, 1), repeat=3))) + [(1, 0, 0, 0)], 4, 8),
    # the cone over the 3-simplex
    (homogenized_facets([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), 4, 4),
    # the non-simplicial cone over a square, each row twice
    ([(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)] * 2, 3, 4),
    # the cone over a pentagon
    (homogenized_facets([(0, 0), (2, 0), (3, 1), (1, 3), (0, 2)]), 3, 5),
    # the nonnegative quadrant, the same cone cut down to a ray and to the origin
    ([(0, 1), (1, 0)], 2, 2),
    ([(0, 1), (1, 0), (0, -1)], 2, 1),
    ([(0, 1), (1, 0), (-1, -1)], 2, 0),
])
def test_extreme_ray_counts(rows, dim, count):
    rays, zeros = polyhedra._extreme_rays(rows, dim)
    assert len(rays) == len(set(rays)) == count
    assert zeros == [sum(1 << i for i, a in enumerate(rows) if vdot(a, r) == 0) for r in rays]
    assert set(rays) == enumerated_extreme_rays(rows, dim)
    assert all(gcd_list(r) == 1 for r in rays)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(tuple),
                         min_size=d, max_size=8))))
def test_extreme_rays_match_enumeration(case):
    dim, rows = case
    rows = [r for r in rows if any(r)]
    if matrix_rank(rows) < dim:
        rows += [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays, zeros = polyhedra._extreme_rays(rows, dim)
    assert len(rays) == len(set(rays))
    assert set(rays) == enumerated_extreme_rays(rows, dim)
    assert zeros == [sum(1 << i for i, a in enumerate(rows) if vdot(a, r) == 0) for r in rays]


# -- cone_in_union by double-description cuts, against the splitting it replaced


def splitting_cone_in_union(p, cones):
    """Reference cover test: each piece is rebuilt from its H-rep plus the
    cut by polyhedron_from_hrep and tested with contains_polyhedron."""
    hyperplanes = []
    seen = set()
    for c in cones:
        eqs, ineqs = c.hrep()
        for h in eqs + ineqs:
            key = sign_normalize(tuple(int(x) for x in h))
            if key not in seen:
                seen.add(key)
                hyperplanes.append(key)

    def rec(piece, depth):
        if any(c.contains_polyhedron(piece) for c in cones):
            return True
        if depth > len(hyperplanes):
            return False
        gens = homogeneous_generators(piece)
        peqs, pineqs = piece.hrep()
        for h in hyperplanes:
            vals = [vdot(h, g) for g in gens]
            if any(v > 0 for v in vals) and any(v < 0 for v in vals):
                for half in (h, tuple(-x for x in h)):
                    part = polyhedron_from_hrep(list(peqs), list(pineqs) + [half],
                                                piece.ambient_dim)
                    if part is None or part.dim < piece.dim:
                        continue
                    if not rec(part, depth + 1):
                        return False
                return True
        return False

    return rec(p, 0)


def unpruned_cone_in_union(p, cones):
    """cone_in_union without its candidate pruning: every piece is tested
    against every polyhedron and split by the first hyperplane of any of
    them that splits it."""
    rows = [c.hrep() for c in cones]
    hyperplanes = list(dict.fromkeys(
        sign_normalize(h) for eqs, ineqs in rows for h in eqs + ineqs))

    def covered(gens, lin):
        return any(all(vdot(e, g) == 0 for e in eqs for g in gens)
                   and all(vdot(f, g) >= 0 for f in ineqs for g in gens)
                   and all(vdot(a, l) == 0 for a in eqs + ineqs for l in lin)
                   for eqs, ineqs in rows)

    def split(gens, zeros, lin, dim, bit):
        for h in hyperplanes:
            vals = [vdot(h, g) for g in gens]
            if any(vdot(h, l) for l in lin) or max(vals) > 0 > min(vals):
                for a in (h, tuple(-x for x in h)):
                    half = polyhedra._halfspace(gens, zeros, lin, dim, a, bit)
                    if not covered(half[0], half[2]) and not split(*half, bit + 1):
                        return False
                return True
        return False

    if covered(polyhedra._homogeneous_generators(p), []):
        return True
    q = p.canonicalize()
    facets = p.hrep()[1]
    gens = [primitive((1,) + v) for v in q.vertices] + [(0,) + r for r in q.rays]
    zeros = [sum(1 << i for i, f in enumerate(facets) if vdot(f, g) == 0) for g in gens]
    lin = [(0,) + l for l in q.lineality]
    return split(gens, zeros, lin, p.dim + 1 - len(lin), len(facets))


@st.composite
def cover_cases(draw):
    """(p, polyhedra) in R^2 or R^3: mostly cones, some with lineality, some
    polyhedra with vertices; p is a cone, a polyhedron, or the union of two
    of the polyhedra's generators, often with redundant generators added."""
    n = draw(st.integers(2, 3))

    def cone():
        return Polyhedron([(0,) * n], draw(st.lists(directions(n), min_size=1, max_size=3)),
                          draw(st.lists(directions(n), max_size=1)) if draw(st.booleans()) else [])

    def polyhedron():
        return Polyhedron(draw(st.lists(points(n), min_size=1, max_size=3)),
                          draw(st.lists(directions(n), max_size=2)),
                          draw(st.lists(directions(n), max_size=1)))

    cones = [cone() for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        cones.append(polyhedron())
    kind = draw(st.sampled_from(("union", "cone", "polyhedron")))
    if kind == "union":
        a, b = draw(st.sampled_from(cones)), draw(st.sampled_from(cones))
        vs, rays, lin = a.vertices + b.vertices, a.rays + b.rays, a.lineality + b.lineality
    else:
        q = cone() if kind == "cone" else polyhedron()
        vs, rays, lin = q.vertices, q.rays, q.lineality
    vs, rays = list(vs), list(rays)
    if draw(st.booleans()):
        vs.append(tuple((a + b) / 2 for a, b in zip(vs[0], vs[-1])))
        if rays:
            rays.append(tuple(a + b for a, b in zip(rays[0], rays[-1])))
            vs.append(vadd(vs[0], rays[0]))
    return Polyhedron(vs, [r for r in rays if any(r)], lin), cones


def cone(rays, lineality=()):
    return Polyhedron([(0,) * len(rays[0])], rays, lineality)


QUADRANT = cone([(1, 0), (0, 1)])
FAN_RAYS = [(1, 0), (3, 1), (2, 1), (1, 1), (1, 2), (0, 1)]
COVER_EXAMPLES = [
    # a quadrant split exactly by two wedges, and one wedge short of it
    (QUADRANT, [cone([(1, 0), (1, 1)]), cone([(1, 1), (0, 1)])], True),
    (QUADRANT, [cone([(1, 0), (2, 1)]), cone([(1, 1), (0, 1)])], False),
    # the quadrant fanned into five wedges, and with the last one short
    (QUADRANT, [cone(pair) for pair in zip(FAN_RAYS, FAN_RAYS[1:])], True),
    (QUADRANT, [cone(pair) for pair in zip(FAN_RAYS, FAN_RAYS[1:-1] + [(1, 3)])], False),
    # the same quadrant with a redundant ray, and a redundant vertex
    (cone([(1, 0), (1, 1), (0, 1)]), [cone([(1, 0), (1, 1)]), cone([(1, 1), (0, 1)])], True),
    (Polyhedron([(0, 0), (1, 1)], [(1, 0), (1, 2), (0, 1)]),
     [cone([(1, 0), (1, 1)]), cone([(1, 1), (0, 1)])], True),
    # a line and a half-plane given by opposite rays, split into their halves
    (cone([(1, 0), (-1, 0)]), [cone([(1, 0)]), cone([(-1, 0)])], True),
    (cone([(1, 0), (-1, 0), (0, 1)]), [QUADRANT, cone([(-1, 0), (0, 1)])], True),
    # a half-plane, whose line is cut by the lineality step, and a plane
    (cone([(1, 0)], [(0, 1)]), [cone([(1, 0), (0, 1)]), cone([(1, 0), (0, -1)])], True),
    (cone([(1, 0)], [(0, 1)]), [cone([(1, 0), (0, 1)]), cone([(1, -1), (0, -1)])], False),
    (cone([(1, 0)], [(1, 0), (0, 1)]),
     [cone([(1, 0), (0, 1)], [(1, 1)]), cone([(1, 0), (0, -1)], [(1, 1)])], True),
    # a lineality piece against cones that themselves have lineality
    (cone([(0, 0, 1)], [(1, 0, 0), (0, 1, 0)]),
     [cone([(0, 1, 0), (0, 0, 1)], [(1, 0, 0)]), cone([(0, -1, 0), (0, 0, 1)], [(1, 0, 0)])],
     True),
    # a polytope covered by two triangles, and by two that leave a gap
    (Polyhedron([(0, 0), (2, 0), (2, 2), (0, 2), (1, 0)]),
     [Polyhedron([(0, 0), (2, 0), (2, 2)]), Polyhedron([(0, 0), (2, 2), (0, 2)])], True),
    (Polyhedron([(0, 0), (2, 0), (2, 2), (0, 2)]),
     [Polyhedron([(0, 0), (2, 0), (2, 2)]), Polyhedron([(0, 0), (2, 2), (1, 2)])], False),
    # rays whose affine hull misses the quadrant, beside wedges that cover
    # it and beside one wedge short of it
    (QUADRANT, [cone([(1, 0)]), cone([(1, 1)]), cone([(0, 1)]),
                cone([(1, 0), (1, 1)]), cone([(1, 1), (0, 1)])], True),
    (QUADRANT, [cone([(1, 0)]), cone([(1, 1)]), cone([(0, 1)]), cone([(1, 0), (1, 1)])],
     False),
    # a 2-cell in R^3 inside a 3-cone, and split between two 3-cones beside
    # a plane that misses it
    (cone([(1, 0, 0), (0, 1, 0)]), [cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])], True),
    (cone([(1, 0, 0), (0, 1, 0)]),
     [cone([(1, 0, 1), (0, 1, 1)]), cone([(1, 0, 0), (1, 1, 0), (0, 0, 1)]),
      cone([(1, 1, 0), (0, 1, 0), (0, 0, -1)])], True),
    # a half-plane against rays only: every cone is pruned
    (cone([(1, 0)], [(0, 1)]), [cone([(1, 0)]), cone([(0, 1)]), cone([(0, -1)])], False),
]


@settings(max_examples=300, deadline=None)
@given(cover_cases())
def test_cone_in_union_matches_splitting(case):
    p, cones = case
    assert cone_in_union(p, cones) == unpruned_cone_in_union(p, cones) == \
        splitting_cone_in_union(p, cones)


@pytest.mark.parametrize("p,cones,expected", COVER_EXAMPLES)
def test_cone_in_union_examples(p, cones, expected):
    assert cone_in_union(p, cones) == unpruned_cone_in_union(p, cones) == \
        splitting_cone_in_union(p, cones) == expected


def test_cover_tests_cut_only_on_the_cones_whose_affine_hull_holds_p(monkeypatch):
    """Every cut of a cover test is on a row of a polyhedron whose affine
    hull contains p; with no such polyhedron p is not covered and no piece
    is cut."""
    original = polyhedra._halfspace
    cuts = []

    def recording(gens, zeros, lin, dim, a, bit):
        cuts.append(sign_normalize(a))
        return original(gens, zeros, lin, dim, a, bit)

    monkeypatch.setattr(polyhedra, "_halfspace", recording)
    pruned = 0
    for p, cones, expected in COVER_EXAMPLES:
        gens = homogeneous_generators(p)
        kept = [c for c in cones if all(vdot(e, g) == 0 for e in c.hrep()[0] for g in gens)]
        pruned += len(cones) - len(kept)
        rows = {sign_normalize(a) for c in kept for a in c.hrep()[0] + c.hrep()[1]}
        cuts.clear()
        assert cone_in_union(p, cones) == expected
        assert set(cuts) <= rows
        if not kept:
            assert not cuts and not expected
    assert pruned >= 8


def support_identity_cases(r, layers=None):
    """(weighted cell, Bergman cones, expected) for the j-th power of the
    hyperplane in R^r, for every j < r or each j in layers: inside the fan
    of U(r - j, r + 1), and not inside the smaller fan of U(r - j - 1, r + 1)."""
    terms = {tuple(0 for _ in range(r)): 0}
    for i in range(r):
        terms[tuple(int(i == j) for j in range(r))] = 0
    f = TropicalPolynomial(r, terms)
    tower = power_tower(f, tropical_hypersurface(f))
    out = []
    for j in range(r) if layers is None else layers:
        layer = tower.layers[j]
        for k, expected in ((r - j, True), (r - j - 1, False)):
            if k >= 1:
                berg = bergman_fan(uniform_matroid(k, r + 1))
                cones = [berg.complex.cells[i] for i in berg.weights]
                out += [(layer.complex.cells[i], cones, expected) for i in layer.weights]
    return out


def test_cone_in_union_on_the_rank_3_support_identity():
    cases = support_identity_cases(3)
    assert {e for _, _, e in cases} == {True, False}
    for p, cones, expected in cases:
        assert cone_in_union(p, cones) == unpruned_cone_in_union(p, cones) == \
            splitting_cone_in_union(p, cones) == expected


@pytest.mark.parametrize("r", [2, 4])
def test_pruned_cone_in_union_matches_unpruned_on_the_support_identity(r):
    cases = support_identity_cases(r)
    assert {e for _, _, e in cases} == {True, False}
    for p, cones, expected in cases:
        assert cone_in_union(p, cones) == unpruned_cone_in_union(p, cones) == expected


def piece_polyhedron(gens, lin):
    """The polyhedron of cone_in_union's homogeneous piece generators."""
    return Polyhedron([tuple(Fraction(x, g[0]) for x in g[1:]) for g in gens if g[0]],
                      [g[1:] for g in gens if not g[0]], [l[1:] for l in lin])


def test_no_split_path_repeats_a_hyperplane(monkeypatch):
    """Every half is cut by a hyperplane new to its path, keeps the
    dimension of its piece and is generated by its extreme generators
    alone, so the recursion needs no depth cutoff."""
    original = polyhedra._halfspace
    path = {}
    depths = []

    def recording(gens, zeros, lin, dim, a, bit):
        half = original(gens, zeros, lin, dim, a, bit)
        key = sign_normalize(a)
        assert key not in [path[b] for b in path if b < bit]
        for b in [b for b in path if b > bit]:
            del path[b]
        path[bit] = key
        depths.append(len(path))
        assert matrix_rank(half[0] + half[2]) == matrix_rank(gens + lin)
        can = piece_polyhedron(half[0], half[2]).canonicalize()
        assert len(can.vertices) + len(can.rays) == len(half[0])
        return half

    monkeypatch.setattr(polyhedra, "_halfspace", recording)
    for p, cones, expected in support_identity_cases(3) + COVER_EXAMPLES:
        path.clear()
        assert cone_in_union(p, cones) == expected
    assert max(depths) >= 3


def test_kernel_calls_of_the_rank_4_layer_0_cover_tests(monkeypatch):
    """The cover tests of the rank-4 support identity's layer 0 (10 cells
    against the 60 cones of U(4, 5) and the 20 of U(3, 5)), on fresh
    complexes: one V->H conversion per polyhedron (90) and at most 100
    double-description cuts (the cover test made 159 before it pruned by
    affine hull)."""
    monkeypatch.setattr(hypersurface, "_subdivisions", {})
    monkeypatch.setattr(matroids, "_last_complex", {})
    cases = support_identity_cases(4, [0])
    assert len(cases) == 20
    calls = {"_cut": 0, "_hrep_from_vrep": 0}
    for name in calls:
        original = getattr(polyhedra, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(polyhedra, name, counting)
    for p, cones, expected in cases:
        assert cone_in_union(p, cones) == expected
    assert calls["_hrep_from_vrep"] <= 90
    assert calls["_cut"] <= 100
