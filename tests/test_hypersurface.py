import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from test_polyhedra import relative_interior_point
from troprr import hypersurface
from troprr.cycles import (
    CartierFunction,
    TropicalCycle,
    check_balancing,
    degree,
    divisor_intersect,
    power_tower,
)
from troprr.hypersurface import (
    SUBDIVISION_MEMO_SIZE,
    TropicalPolynomial,
    _build_dual_complex,
    _dual_complex,
    ambient_cycle,
    cartier_from_polynomial,
    complement_components,
    is_smooth,
    newton_polytope,
    random_smooth_polynomial,
    regular_subdivision,
    restrict_to_hypersurface,
    smooth_simplex_polynomial,
    tropical_hypersurface,
)
from troprr.instances import delzant_catalogue
from troprr.linalg import (
    frac,
    is_zero_vec,
    matrix_rank,
    primitive,
    solve_linear,
    vadd,
    vdot,
    vscale,
    vsub,
)
from troprr import polyhedra
from troprr.polyhedra import (
    LatticePolytope,
    PolyhedralComplex,
    Polyhedron,
    normalized_volume,
    polytope_normalized_volume,
    standard_simplex,
    validate_complex,
)


def line_poly():
    return TropicalPolynomial(2, {(0, 0): 0, (1, 0): 0, (0, 1): 0})


def argmax(f, x) -> frozenset:
    """The exponents of f's terms that attain its maximum at x."""
    xv = tuple(frac(c) for c in x)
    vals = {e: vdot(e, xv) + c for e, c in f.terms.items()}
    m = max(vals.values())
    return frozenset(e for e, v in vals.items() if v == m)


def test_polynomial_value_and_argmax():
    f = line_poly()
    assert f.value((3, 1)) == 3
    assert argmax(f, (3, 1)) == frozenset({(1, 0)})
    assert argmax(f, (0, 0)) == frozenset({(0, 0), (1, 0), (0, 1)})


def test_newton_polytope_of_line():
    assert newton_polytope(line_poly()).vertices == ((0, 0), (0, 1), (1, 0))


def test_line_subdivision_single_smooth_cell():
    sub = regular_subdivision(line_poly())
    assert len(sub.maximal_cells) == 1
    assert sub.is_smooth()


def test_line_hypersurface_geometry():
    x = tropical_hypersurface(line_poly())
    assert x.dim == 1
    # One vertex (dual of the single triangle) and three rays of weight 1.
    zero_cells = [i for i, c in enumerate(x.complex.cells) if c.dim == 0]
    assert len(zero_cells) == 1
    assert x.complex.cells[zero_cells[0]].vertices == ((0, 0),)
    rays = sorted(x.complex.cells[i].rays[0] for i in x.weights)
    assert rays == [(-1, 0), (0, -1), (1, 1)]
    assert all(w == 1 for w in x.weights.values())
    assert check_balancing(x).ok
    assert validate_complex(x.complex).ok


def test_smooth_conic_counts():
    f = smooth_simplex_polynomial(2, 2)
    sub = regular_subdivision(f)
    assert sub.is_smooth()
    assert len(sub.maximal_cells) == 4
    x = tropical_hypersurface(f)
    vertices = [i for i, c in enumerate(x.complex.cells) if c.dim == 0]
    bounded = [i for i in x.weights if not x.complex.cells[i].rays]
    unbounded = [i for i in x.weights if x.complex.cells[i].rays]
    assert len(vertices) == 4
    assert len(bounded) == 3
    assert len(unbounded) == 6
    assert all(w == 1 for w in x.weights.values())
    assert check_balancing(x).ok


def test_pushed_down_interior_point_is_not_smooth():
    pts = standard_simplex(2, 2).lattice_points()
    f = TropicalPolynomial(
        2, {p: (0 if sum(p) in (0, 2) and max(p) in (0, 2) else -5) for p in pts}
    )
    assert not is_smooth(f)


def test_conic_complement_components():
    comps = complement_components(smooth_simplex_polynomial(2, 2))
    assert len(comps) == 6
    assert all(c["contractible"] for c in comps)


def test_univariate_roots_and_multiplicities():
    f = TropicalPolynomial(1, {(0,): 0, (1,): 0, (2,): -3})
    x = tropical_hypersurface(f)
    assert x.dim == 0
    roots = sorted(
        (x.complex.cells[i].vertices[0][0], w) for i, w in x.weights.items()
    )
    assert roots == [(0, 1), (3, 1)]
    g = TropicalPolynomial(1, {(0,): 0, (2,): 0})
    y = tropical_hypersurface(g)
    assert degree(y) == 2


def test_line_self_intersection_degree_one():
    f = line_poly()
    x = tropical_hypersurface(f)
    tower = power_tower(f, x)
    assert len(tower.layers) == 2
    assert degree(tower.layers[1]) == 1


def test_conic_self_intersection_degree_four():
    f = smooth_simplex_polynomial(2, 2)
    x = tropical_hypersurface(f)
    tower = power_tower(f, x)
    assert degree(tower.layers[1]) == 4


def test_line_times_shifted_line_via_refinement():
    x = tropical_hypersurface(line_poly())
    g = TropicalPolynomial(2, {(0, 0): 0, (1, 0): -1})
    # g breaks the (1,1)-ray of the line at (1,1): it is not affine on the
    # line's own complex, and the restriction lives on the product's complex.
    with pytest.raises(ValueError, match="not on the polynomial's own dual complex"):
        cartier_from_polynomial(g, x)
    phi = restrict_to_hypersurface(g, line_poly())
    assert phi.cycle is not x
    d = divisor_intersect(phi)
    assert degree(d) == 1
    assert d.support_contains((1, 1))


def test_tower_supports_are_nested():
    f = smooth_simplex_polynomial(2, 2)
    x = tropical_hypersurface(f)
    tower = power_tower(f, x)
    for k in range(len(tower.layers) - 1):
        assert tower.layers[k + 1].support_cells() <= tower.layers[k].support_cells()


@pytest.mark.parametrize("seed", range(5))
def test_random_smooth_conics(seed):
    pts = standard_simplex(2, 2).lattice_points()
    f = random_smooth_polynomial(pts, seed=seed)
    x = tropical_hypersurface(f)
    assert all(w == 1 for w in x.weights.values())
    assert check_balancing(x).ok
    bounded = [i for i in x.weights if not x.complex.cells[i].rays]
    assert len(bounded) == 3


def test_cubic_curve_has_cycle_vertex_count():
    # Smooth plane cubic: 9 vertices, 9 bounded edges, 9 rays (3 per
    # direction), genus-1 dual graph.
    f = smooth_simplex_polynomial(2, 3)
    sub = regular_subdivision(f)
    assert sub.is_smooth() and len(sub.maximal_cells) == 9
    x = tropical_hypersurface(f)
    vertices = [i for i, c in enumerate(x.complex.cells) if c.dim == 0]
    bounded = [i for i in x.weights if not x.complex.cells[i].rays]
    unbounded = [i for i in x.weights if x.complex.cells[i].rays]
    assert (len(vertices), len(bounded), len(unbounded)) == (9, 9, 9)
    assert check_balancing(x).ok


def test_smooth_simplex_polynomial_in_three_variables():
    f = smooth_simplex_polynomial(3, 2)
    sub = regular_subdivision(f)
    assert sub.is_smooth()
    assert len(sub.maximal_cells) == 8
    x = tropical_hypersurface(f)
    assert x.dim == 2
    assert check_balancing(x).ok


# -- one subdivision per polynomial, one dual complex per subdivision -----------


def test_equal_polynomials_share_one_subdivision(subdivision_calls):
    f = smooth_simplex_polynomial(2, 2)
    # The same term set built as a separate object, in another term order.
    g = TropicalPolynomial(2, list(reversed(list(f.terms.items()))))
    x = tropical_hypersurface(f)
    base = ambient_cycle(g)
    assert is_smooth(g)
    assert len(complement_components(f)) == 6
    assert len(subdivision_calls) == 1
    assert x.subdivision is base.subdivision
    shifted = TropicalPolynomial(2, {e: c + (e == (0, 0)) for e, c in f.terms.items()})
    tropical_hypersurface(shifted)
    assert len(subdivision_calls) == 2


def test_a_drawn_polynomial_keeps_its_subdivision(subdivision_calls):
    f = random_smooth_polynomial(standard_simplex(2, 2).lattice_points(), seed=3)
    drawn = len(subdivision_calls)
    tropical_hypersurface(f)
    ambient_cycle(f)
    assert drawn >= 1 and len(subdivision_calls) == drawn


def test_subdivision_memo_keeps_the_newest_entries(subdivision_calls):
    polys = [TropicalPolynomial(2, {(0, 0): 0, (1, 0): k, (0, 1): 0})
             for k in range(SUBDIVISION_MEMO_SIZE + 4)]
    for f in polys:
        assert is_smooth(f)
        assert len(hypersurface._subdivisions) <= SUBDIVISION_MEMO_SIZE
    assert SUBDIVISION_MEMO_SIZE == 16
    assert len(subdivision_calls) == len(polys)
    is_smooth(polys[-1])
    is_smooth(polys[-SUBDIVISION_MEMO_SIZE])
    assert len(subdivision_calls) == len(polys)
    is_smooth(polys[0])  # evicted: built again
    assert len(subdivision_calls) == len(polys) + 1
    assert len(hypersurface._subdivisions) == SUBDIVISION_MEMO_SIZE


def _cell_key(cell):
    return cell.vertices, cell.rays, cell.lineality


@pytest.mark.parametrize("f", [
    line_poly(),
    smooth_simplex_polynomial(2, 3),
    smooth_simplex_polynomial(3, 2),
    random_smooth_polynomial(standard_simplex(2, 2).lattice_points(), seed=3),
    TropicalPolynomial(2, {(0, 0): 0, (2, 0): 0, (0, 2): 0, (1, 1): -5}),
], ids=["line", "cubic", "space-quadric", "random-conic", "not-smooth"])
def test_cached_dual_complex_equals_a_fresh_build(f):
    sub = regular_subdivision(f)
    for min_face_dim in (0, 1):
        cached = _dual_complex(sub, min_face_dim)
        assert _dual_complex(sub, min_face_dim) is cached
        fresh = _build_dual_complex(regular_subdivision(f), min_face_dim)
        assert [_cell_key(c) for c in cached.cells] == [_cell_key(c) for c in fresh.cells]
        assert cached.face_relation == fresh.face_relation
        assert cached.faces == fresh.faces


def test_cycles_of_one_polynomial_share_the_dual_complex(subdivision_calls):
    f = smooth_simplex_polynomial(2, 2)
    x, y = tropical_hypersurface(f), tropical_hypersurface(f)
    assert x is not y and x.complex is y.complex
    assert x.complex.faces is y.complex.faces and x.weights == y.weights
    assert ambient_cycle(f).complex is not x.complex
    assert ambient_cycle(f).complex is ambient_cycle(f).complex


# -- subdivisions read off the lifted polytope, against the enumeration ---------


def enumerating_subdivision(f):
    """Reference maximal cells: for every affinely independent (n+1)-subset of
    exponents, solve the equal-value system and keep the solutions where those
    terms attain the global maximum."""
    n = f.n
    terms = sorted(f.terms.items())
    cells = {}
    for subset in itertools.combinations(range(len(terms)), n + 1):
        a0, c0 = terms[subset[0]]
        rows = [vsub(terms[i][0], a0) for i in subset[1:]]
        if matrix_rank(rows) != n:
            continue
        rhs = [c0 - terms[i][1] for i in subset[1:]]
        x = solve_linear(rows, rhs)
        if x is None:
            continue
        val = vdot(a0, x) + c0
        vals = {e: vdot(e, x) + c for e, c in terms}
        if any(v > val for v in vals.values()):
            continue
        argmax = frozenset(e for e, v in vals.items() if v == val)
        if argmax in cells:
            continue
        if matrix_rank([vsub(e, a0) for e in argmax]) == n:
            cells[argmax] = tuple(x)
    return sorted(cells.items(), key=lambda t: sorted(t[0]))


def enumerating_facets(f):
    """Reference Newton facets: (exponents on the facet, primitive outer
    normal) for every non-trivial inequality of the Newton polytope."""
    _eqs, ineqs = newton_polytope(f).polyhedron().hrep()
    out = set()
    for h in ineqs:
        if is_zero_vec(h[1:]):
            continue
        tight = frozenset(
            e for e in f.terms
            if vdot(h, (Fraction(1),) + tuple(Fraction(c) for c in e)) == 0
        )
        out.add((tight, primitive(tuple(-c for c in h[1:]))))
    return out


def all_pairs_relation(sub, min_face_dim):
    """Reference face relation of the dual complex: every pair of the
    reference subdivision faces of dim >= min_face_dim tested for inclusion,
    the cells numbered in face order."""
    faces = [(members, d) for members, d in per_cell_faces(sub) if d >= min_face_dim]
    index = {members: i for i, (members, _d) in enumerate(faces)}
    relation = set()
    for (m1, d1), (m2, d2) in itertools.combinations(faces, 2):
        if d2 == d1 + 1 and m1 < m2:
            relation.add((index[m2], index[m1]))
        elif d1 == d2 + 1 and m2 < m1:
            relation.add((index[m1], index[m2]))
    return relation


def per_cell_faces(sub):
    """Reference subdivision faces: the faces of every maximal cell's
    polytope, each with the cell's exponents its polyhedron contains."""
    found = {}
    for exps, _x in sub.maximal_cells:
        for fdim, fverts in LatticePolytope(list(exps)).faces():
            fpoly = Polyhedron(list(fverts))
            found[frozenset(e for e in exps if fpoly.contains(e))] = fdim
    return sorted(found.items(), key=lambda t: (t[1], sorted(t[0])))


HEIGHTS = {
    "integer": st.integers(-2, 2),
    "rational": st.fractions(min_value=-3, max_value=3, max_denominator=4),
    "tied": st.just(0),
}
# Largest coordinate and number of exponents per n: small enough for the
# enumeration, large enough for missing points and points below the hull.
BOX = {1: (5, 6), 2: (3, 9), 3: (2, 9)}


@st.composite
def random_polynomials(draw, dims=(1, 2, 3)):
    """Random exponents in a small box (so lattice points go missing) with
    integer, rational, all-equal or concave-plus-jitter heights."""
    n = draw(st.sampled_from(dims))
    top, size = BOX[n]
    exps = draw(st.lists(st.tuples(*[st.integers(0, top)] * n),
                         min_size=n + 1, max_size=size, unique=True))
    kind = draw(st.sampled_from(sorted(HEIGHTS) + ["concave"]))
    if kind == "concave":
        heights = [-vdot(e, e) + draw(st.integers(0, 1)) for e in exps]
    else:
        heights = [draw(HEIGHTS[kind]) for _ in exps]
    return TropicalPolynomial(n, list(zip(exps, heights)))


SQUARES = TropicalPolynomial(2, {(0, 0): 0, (1, 0): 0, (2, 0): -1, (0, 1): 0,
                                 (1, 1): 0, (2, 1): -1, (0, 2): -3,
                                 (1, 2): Fraction(-5, 2)})


@settings(max_examples=150, deadline=None)
@given(random_polynomials())
# a constant: the only lifted polytope with the row at infinity as a facet
@example(TropicalPolynomial(0, {(): 3}))
# tied heights: two unit squares among the cells; one cell with all of 2*Delta_2
@example(SQUARES)
@example(TropicalPolynomial(2, {p: 0 for p in standard_simplex(2, 2).lattice_points()}))
# an interior point below the hull, and a rectangle cut into two squares
@example(TropicalPolynomial(2, {(0, 0): 0, (2, 0): 0, (0, 2): 0, (1, 1): -5}))
@example(TropicalPolynomial(3, {p: -(p[0] == 1) for p in itertools.product(
    range(3), range(2), range(2))}))
@example(smooth_simplex_polynomial(3, 2))
def test_lifted_subdivision_matches_enumeration(f):
    assume(newton_polytope(f).dim == f.n)
    sub = regular_subdivision(f)
    assert sub.maximal_cells == enumerating_subdivision(f)
    assert len(set(sub.facets)) == len(sub.facets)
    assert set(sub.facets) == enumerating_facets(f)
    assert sub.faces() == per_cell_faces(sub)


def fraction_evaluated_subdivision(f):
    """Reference maximal cells and Newton facets: the rows of the lifted
    polytope's H-rep, each evaluated in Fraction at every lifted term to find
    the exponents it is tight on."""
    n = f.n
    terms = sorted(f.terms.items())
    lifted = Polyhedron([e + (c,) for e, c in terms], rays=[(0,) * n + (-1,)])
    cells, facets = [], []
    for h in lifted.hrep()[1]:
        h = tuple(Fraction(c) for c in h)
        b, bh = h[1:-1], h[-1]
        tight = frozenset(e for e, c in terms if h[0] + vdot(b, e) + bh * c == 0)
        if bh < 0:
            cells.append((tight, tuple(bi / bh for bi in b)))
        elif any(b):
            facets.append((tight, primitive(tuple(-bi for bi in b))))
    return sorted(cells, key=lambda t: sorted(t[0])), facets


@settings(max_examples=100, deadline=None)
@given(random_polynomials(dims=(2, 3)))
@example(SQUARES)
# exponents inside every edge of 2*Delta_2 and inside the faces of 2*Delta_3
@example(TropicalPolynomial(2, {p: 0 for p in standard_simplex(2, 2).lattice_points()}))
@example(TropicalPolynomial(3, {p: -(p == (1, 1, 0)) for p in
                                standard_simplex(3, 3).lattice_points()}))
@example(smooth_simplex_polynomial(3, 2))
def test_subdivision_incidence_matches_fraction_evaluation(f):
    assume(newton_polytope(f).dim == f.n)
    sub = regular_subdivision(f)
    assert (sub.maximal_cells, sub.facets) == fraction_evaluated_subdivision(f)


def test_subdivision_faces_take_no_h_rep(monkeypatch):
    sub = regular_subdivision(smooth_simplex_polynomial(3, 2))
    calls = []
    monkeypatch.setattr(polyhedra, "_hrep_from_vrep", lambda p: calls.append(p))
    # 10 vertices, 25 edges, 24 triangles and 8 tetrahedra: Euler number 1.
    assert [sum(1 for _m, d in sub.faces() if d == k) for k in range(4)] == [10, 25, 24, 8]
    assert calls == []


def test_tied_heights_give_square_cells():
    cells = [exps for exps, _x in regular_subdivision(SQUARES).maximal_cells]
    assert sorted(len(exps) for exps in cells) == [3, 3, 3, 4, 4]
    assert not is_smooth(SQUARES)


def crease(x, d: int) -> int:
    """The convex crease function of `alcove_heights` on raw coordinates:
    the sum of |x_i - x_j - k| over 0 <= i < j <= n, with x_0 = 0, and
    -d < k < d."""
    full = (0,) + tuple(x)
    return sum(abs(full[i] - full[j] - k) for i, j in itertools.combinations(range(len(full)), 2)
               for k in range(-d + 1, d))


@pytest.mark.parametrize("d,cells", [(2, 48), (3, 162)])
def test_alcoved_cube_subdivides_in_seconds(d, cells):
    """The cube [0, d]^3 with heights -crease(x): 64 lifted points for d = 3,
    whose V->H once tried all C(65, 4) generator subsets (123.6 s on a
    2-core box). The double description takes under half a second there;
    the gate leaves room for a slow box."""
    pts = list(itertools.product(range(d + 1), repeat=3))
    f = hypersurface.polynomial_from_heights(3, pts, [Fraction(-crease(p, d)) for p in pts])
    t0 = time.monotonic()
    sub = regular_subdivision(f)
    elapsed = time.monotonic() - t0
    assert len(sub.maximal_cells) == cells
    assert all(len(exps) == 4 and normalized_volume(sorted(exps)) == 1
               for exps, _x in sub.maximal_cells)
    assert sub.is_smooth()
    assert elapsed < 10, f"subdividing [0, {d}]^3 took {elapsed:.1f}s"


# -- read off the subdivision, against the computations it replaces ----------


def _dominates(a, ca, b, cb, cell: Polyhedron) -> bool:
    """Whether <a,x>+ca >= <b,x>+cb on the whole cell."""
    diff = vsub(a, b)
    for v in cell.vertices:
        if vdot(diff, v) + (ca - cb) < 0:
            return False
    for r in cell.rays:
        if vdot(diff, r) < 0:
            return False
    for l in cell.lineality:
        if vdot(diff, l) != 0:
            return False
    return True


def searched_pieces(f, cycle):
    """Reference Cartier pieces: per weighted cell, the first term in sorted
    order that is maximal at a relative interior point and dominates every
    other term on the cell (None where no term does)."""
    terms = sorted(f.terms.items())
    pieces = {}
    for i in sorted(cycle.weights):
        cell = cycle.complex.cells[i]
        p = relative_interior_point(cell)
        vals = [(vdot(e, p) + c, e, c) for e, c in terms]
        m = max(v for v, _, _ in vals)
        pieces[i] = next(((e, c) for v, e, c in vals if v == m and all(
            _dominates(e, c, b, cb, cell) for b, cb in terms if b != e)), None)
    return pieces


@settings(max_examples=100, deadline=None)
@given(random_polynomials())
@example(SQUARES)
@example(TropicalPolynomial(2, {(0, 0): 0, (2, 0): 0, (0, 2): 0, (1, 1): -5}))
@example(TropicalPolynomial(3, {p: -(p[0] == 1) for p in itertools.product(
    range(3), range(2), range(2))}))
@example(smooth_simplex_polynomial(3, 2))
@example(smooth_simplex_polynomial(4, 2))
def test_subdivision_read_offs_match_the_computations_they_replace(f):
    assume(newton_polytope(f).dim == f.n)
    sub = regular_subdivision(f)
    for min_face_dim in (0, 1):
        complex_ = _build_dual_complex(sub, min_face_dim)
        # Dual cells are irredundant as built.
        for cell in complex_.cells:
            assert _cell_key(cell) == _cell_key(cell.canonicalize())
        # The relation read off the covers is the all-pairs one.
        assert complex_.face_relation == all_pairs_relation(sub, min_face_dim)
    # Dual-face pieces are the searched ones on every tower layer.
    for base in (ambient_cycle(f), tropical_hypersurface(f)):
        for layer in power_tower(f, base).layers:
            assert cartier_from_polynomial(f, layer).pieces == searched_pieces(f, layer)
    # A simplex cell's determinant volume is its polytope volume.
    for exps, _x in sub.maximal_cells:
        if len(exps) == f.n + 1:
            assert normalized_volume(sorted(exps)) == polytope_normalized_volume(
                LatticePolytope(list(exps)))


def test_dual_face_pieces_need_the_same_terms():
    x = tropical_hypersurface(line_poly())
    # The same terms as a separate polynomial read the dual faces ...
    same = TropicalPolynomial(2, dict(line_poly().terms))
    assert cartier_from_polynomial(same, x).pieces == searched_pieces(same, x)
    # ... other terms on the line's complex are refused; the search still
    # finds the one term of g on every cell.
    g = TropicalPolynomial(2, {(1, 0): 5})
    with pytest.raises(ValueError, match="restrict_to_hypersurface"):
        cartier_from_polynomial(g, x)
    assert searched_pieces(g, x) == {i: ((1, 0), 5) for i in x.weights}


# -- restriction to a hypersurface, against the curve refinement it replaces --


def _envelope_breakpoints(f: TropicalPolynomial, base, direction, lo, hi):
    """Parameter values t in the open interval (lo, hi) (hi may be None for
    +infinity, lo None for -infinity) where max_a <a, base + t dir> + c_a has
    a kink."""
    forms = [(vdot(e, direction), vdot(e, base) + c) for e, c in f.terms.items()]
    bps = set()
    for (s1, i1), (s2, i2) in itertools.combinations(forms, 2):
        if s1 == s2:
            continue
        t = (i2 - i1) / (s1 - s2)
        if lo is not None and t <= lo:
            continue
        if hi is not None and t >= hi:
            continue
        val = s1 * t + i1
        if all(s * t + i <= val for s, i in forms):
            bps.add(t)
    return sorted(bps)


def refine_curve_by_polynomial(f: TropicalPolynomial, cycle: TropicalCycle) -> TropicalCycle:
    """Refine the weighted 1-cells of a curve at the breakpoints of f, keeping
    weights; returns an equivalent cycle on the refined complex."""
    if cycle.dim != 1:
        raise ValueError("refinement is implemented for curves only")
    points: list[tuple] = []
    point_index: dict[tuple, int] = {}

    def pt(v):
        key = tuple(frac(c) for c in v)
        if key not in point_index:
            point_index[key] = len(points)
            points.append(key)
        return point_index[key]

    segments = []  # (Polyhedron, weight, endpoint point-indices)
    for i, w in sorted(cycle.weights.items()):
        cell = cycle.complex.cells[i]
        if cell.lineality:
            base = cell.vertices[0]
            d = cell.lineality[0]
            bps = _envelope_breakpoints(f, base, d, None, None)
            if not bps:
                segments.append((cell, w, []))
                continue
            cuts = [vadd(base, vscale(t, d)) for t in bps]
            neg = tuple(-c for c in d)
            segments.append((Polyhedron([cuts[0]], rays=[neg]), w, [pt(cuts[0])]))
            for a, b in zip(cuts, cuts[1:]):
                segments.append((Polyhedron([a, b]), w, [pt(a), pt(b)]))
            segments.append((Polyhedron([cuts[-1]], rays=[d]), w, [pt(cuts[-1])]))
        elif cell.rays:
            base = cell.vertices[0]
            d = tuple(Fraction(c) for c in cell.rays[0])
            bps = _envelope_breakpoints(f, base, d, Fraction(0), None)
            cuts = [base] + [vadd(base, vscale(t, d)) for t in bps]
            for a, b in zip(cuts, cuts[1:]):
                segments.append((Polyhedron([a, b]), w, [pt(a), pt(b)]))
            segments.append((Polyhedron([cuts[-1]], rays=[cell.rays[0]]), w, [pt(cuts[-1])]))
        else:
            u, v = cell.canonicalize().vertices[:2]
            d = vsub(v, u)
            bps = _envelope_breakpoints(f, u, d, Fraction(0), Fraction(1))
            cuts = [u] + [vadd(u, vscale(t, d)) for t in bps] + [v]
            for a, b in zip(cuts, cuts[1:]):
                segments.append((Polyhedron([a, b]), w, [pt(a), pt(b)]))
    # Carry over the existing 0-cells of the closed support.
    for i in cycle.support_cells():
        c = cycle.complex.cells[i]
        if c.dim == 0:
            pt(c.vertices[0])
    cells = [Polyhedron([p]) for p in points]
    relation = set()
    weights = {}
    for poly, w, ends in segments:
        idx = len(cells)
        cells.append(poly)
        weights[idx] = w
        for e in ends:
            relation.add((e, idx))
    refined = TropicalCycle(PolyhedralComplex(cycle.complex.ambient_dim, cells, relation), 1, weights)
    return refined



def refined_restriction(g, f):
    """Reference restriction of g to the curve of f: the curve refined at
    g's breakpoints, then each piece searched for."""
    refined = refine_curve_by_polynomial(g, tropical_hypersurface(f))
    return CartierFunction(refined, searched_pieces(g, refined))


def divisor_points(phi):
    d = divisor_intersect(phi)
    return {d.complex.cells[i].vertices[0]: w for i, w in d.weights.items()}


SMALL_POLYGONS = [q for q in delzant_catalogue() if len(q.lattice_points()) <= 10]
TIED_CONIC = TropicalPolynomial(2, {p: 0 for p in standard_simplex(2, 2).lattice_points()})


def smooth_catalogue_polynomials():
    """Random smooth polynomials on the small catalogue polygons: triangles,
    which share a normal fan with each other, rectangles, trapezoids and
    chopped corners, which mostly do not."""
    return st.builds(lambda q, seed: random_smooth_polynomial(q.lattice_points(), seed),
                     st.sampled_from(SMALL_POLYGONS), st.integers(0, 10**6))


@settings(max_examples=100, deadline=None)
@given(smooth_catalogue_polynomials(), smooth_catalogue_polynomials())
# g's curve along a ray of the line, through its vertex, and the shifted line
@example(line_poly(), TropicalPolynomial(2, {(0, 0): 0, (0, 1): 0}))
@example(line_poly(), TropicalPolynomial(2, {(0, 0): 0, (1, 1): 0}))
@example(line_poly(), TropicalPolynomial(2, {(0, 0): 0, (1, 0): -1}))
# a one-term g, affine everywhere, and the conic of tied heights on the line
@example(line_poly(), TropicalPolynomial(2, {(1, 0): 5}))
@example(line_poly(), TIED_CONIC)
# that conic's curve, of weight 2, cut by the shifted line
@example(TIED_CONIC, TropicalPolynomial(2, {(0, 0): 0, (1, 0): -1}))
def test_restriction_to_a_curve_matches_the_refinement(f, g):
    phi = restrict_to_hypersurface(g, f)
    assert check_balancing(phi.cycle).ok
    assert phi.pieces == searched_pieces(g, phi.cycle)
    assert divisor_points(phi) == divisor_points(refined_restriction(g, f))


@pytest.mark.parametrize("d,e", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_surface_cut_twice_by_a_second_polynomial(d, e):
    """deg(V(f).g.g) = d e^2 for a degree-d surface in R^3 and a degree-e g:
    g restricted to the surface on the product's complex, then to the curve
    it cuts by the search on that same complex."""
    f = smooth_simplex_polynomial(3, d)
    rng = random.Random(10 * d + e)
    g = TropicalPolynomial(3, {p: rng.randint(-20, 20)
                               for p in standard_simplex(3, e).lattice_points()})
    curve = divisor_intersect(restrict_to_hypersurface(g, f))
    assert check_balancing(curve).ok
    second = CartierFunction(curve, searched_pieces(g, curve))
    assert degree(divisor_intersect(second)) == d * e * e
