import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp

from test_linalg import cone_pairs, oracle_quotient_generator, quotient_generator
from test_polyhedra import random_polyhedra, relative_interior_point
from troprr.cycles import (
    CartierFunction,
    TropicalCycle,
    UniformityResult,
    _normal_vector,
    check_balancing,
    degree,
    divisor_intersect,
    local_cycle,
    moderate_position,
    power_tower,
    relatively_uniform,
)
from troprr.hypersurface import (
    ambient_cycle,
    cartier_from_polynomial,
    is_smooth,
    polynomial_from_heights,
    random_smooth_polynomial,
    smooth_simplex_polynomial,
    tropical_hypersurface,
)
from troprr.linalg import (
    _eliminate,
    _kernel_rows,
    det,
    gcd_list,
    in_span,
    is_zero_vec,
    lattice_basis_of_span,
    matrix_rank,
    primitive,
    vdot,
    vsub,
)
from troprr.matroids import csm_cycle, uniform_matroid
from troprr.polyhedra import (
    PolyhedralComplex,
    Polyhedron,
    _homogeneous_generators,
    lineality_space,
    local_cone,
    standard_simplex,
)


def directions(p):
    """Fraction vectors spanning the direction (tangent) space of p."""
    base = p.vertices[0]
    out = [vsub(v, base) for v in p.vertices[1:]]
    out.extend(tuple(Fraction(c) for c in r) for r in p.rays)
    out.extend(tuple(Fraction(c) for c in l) for l in p.lineality)
    return [v for v in out if not is_zero_vec(v)]


def plane_fan_complex():
    """R^2 subdivided into the three linearity regions of max(0, x, y)."""
    origin = Polyhedron([(0, 0)])
    r_nx = Polyhedron([(0, 0)], rays=[(-1, 0)])
    r_ny = Polyhedron([(0, 0)], rays=[(0, -1)])
    r_diag = Polyhedron([(0, 0)], rays=[(1, 1)])
    c_zero = Polyhedron([(0, 0)], rays=[(-1, 0), (0, -1)])
    c_x = Polyhedron([(0, 0)], rays=[(1, 1), (0, -1)])
    c_y = Polyhedron([(0, 0)], rays=[(1, 1), (-1, 0)])
    cells = [origin, r_nx, r_ny, r_diag, c_zero, c_x, c_y]
    rel = {
        (0, 1), (0, 2), (0, 3),
        (1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (1, 6),
    }
    return PolyhedralComplex(2, cells, rel)


def plane_cycle():
    return TropicalCycle(plane_fan_complex(), 2, {4: 1, 5: 1, 6: 1})


def tropical_line_cycle(weights=(1, 1, 1)):
    origin = Polyhedron([(0, 0)])
    r1 = Polyhedron([(0, 0)], rays=[(-1, 0)])
    r2 = Polyhedron([(0, 0)], rays=[(0, -1)])
    r3 = Polyhedron([(0, 0)], rays=[(1, 1)])
    c = PolyhedralComplex(2, [origin, r1, r2, r3], {(0, 1), (0, 2), (0, 3)})
    return TropicalCycle(c, 1, {1: weights[0], 2: weights[1], 3: weights[2]})


def test_balancing_of_line():
    assert check_balancing(tropical_line_cycle()).ok


def test_balancing_detects_bad_weight():
    rep = check_balancing(tropical_line_cycle(weights=(1, 2, 1)))
    assert not rep.ok


def test_divisor_of_max_on_plane_is_line():
    x = plane_cycle()
    phi = CartierFunction(
        x,
        {
            4: ((0, 0), Fraction(0)),
            5: ((1, 0), Fraction(0)),
            6: ((0, 1), Fraction(0)),
        },
    )
    d = divisor_intersect(phi)
    assert d.dim == 1
    # Weighted cells are exactly the three rays of the tropical line, weight 1.
    assert d.weights == {1: 1, 2: 1, 3: 1}
    assert check_balancing(d).ok


def test_affine_function_has_empty_divisor():
    x = plane_cycle()
    phi = CartierFunction(
        x, {i: ((3, -2), Fraction(7, 2)) for i in (4, 5, 6)}
    )
    d = divisor_intersect(phi)
    assert d.is_empty()


def test_divisor_on_line_is_point():
    y = tropical_line_cycle()
    # max(0, x) restricted to the line: 0 on the two negative rays, x on (1,1).
    phi = CartierFunction(
        y,
        {
            1: ((0, 0), Fraction(0)),
            2: ((0, 0), Fraction(0)),
            3: ((1, 0), Fraction(0)),
        },
    )
    d = divisor_intersect(phi)
    assert d.dim == 0
    assert d.weights == {0: 1}
    assert degree(d) == 1


def test_continuity_check_rejects_mismatched_pieces():
    y = tropical_line_cycle()
    with pytest.raises(ValueError):
        CartierFunction(
            y,
            {
                1: ((0, 0), Fraction(0)),
                2: ((0, 0), Fraction(1)),  # disagrees at the origin
                3: ((1, 0), Fraction(0)),
            },
        )


def oracle_continuous(cycle, pieces):
    """Pieces agree at every vertex and on every ray and lineality direction
    of every shared codimension-1 face, in Fraction arithmetic."""
    for tau_idx, sigmas in cycle.codim1_cells().items():
        tau = cycle.complex.cells[tau_idx]
        for s1, s2 in itertools.combinations(sigmas, 2):
            (l1, c1), (l2, c2) = pieces[s1], pieces[s2]
            if any(vdot(l1, v) + c1 != vdot(l2, v) + c2 for v in tau.vertices) or any(
                    vdot(l1, d) != vdot(l2, d) for d in tau.rays + tau.lineality):
                return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["plane", "line", "strip"]), st.data())
def test_continuity_check_matches_vertex_and_direction_agreement(which, data):
    if which == "strip":
        # Two half-strips sharing the segment from (1/2, 0) to (1/2, 1).
        seg = Polyhedron([(Fraction(1, 2), 0), (Fraction(1, 2), 1)])
        left = Polyhedron([(Fraction(1, 2), 0), (Fraction(1, 2), 1)], rays=[(-1, 0)])
        right = Polyhedron([(Fraction(1, 2), 0), (Fraction(1, 2), 1)], rays=[(1, 0)])
        cycle = TropicalCycle(PolyhedralComplex(2, [seg, left, right], {(0, 1), (0, 2)}),
                              2, {1: 1, 2: 1})
    else:
        cycle = plane_cycle() if which == "plane" else tropical_line_cycle()
    piece = st.tuples(st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0)]),
                      st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1)]))
    pieces = {i: data.draw(piece) for i in cycle.weights}
    try:
        CartierFunction(cycle, pieces)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == oracle_continuous(cycle, pieces)


def test_divisor_invariant_under_constant_shift():
    x = plane_cycle()
    base = {4: ((0, 0), Fraction(0)), 5: ((1, 0), Fraction(0)), 6: ((0, 1), Fraction(0))}
    shifted = {i: (lin, const + 5) for i, (lin, const) in base.items()}
    d1 = divisor_intersect(CartierFunction(x, base))
    d2 = divisor_intersect(CartierFunction(x, shifted))
    assert d1.weights == d2.weights


@given(
    st.integers(-5, 5), st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5),
)
def test_global_affine_pieces_give_empty_divisor(a, b, c):
    x = plane_cycle()
    phi = CartierFunction(x, {i: ((a, b), c) for i in (4, 5, 6)})
    assert divisor_intersect(phi).is_empty()


# -- position checks -----------------------------------------------------------


def r2_fan():
    return PolyhedralComplex(
        2, [Polyhedron([(0, 0)], lineality=[(1, 0), (0, 1)])], set()
    )


def line_fan(direction=(1, 0)):
    return PolyhedralComplex(2, [Polyhedron([(0, 0)], lineality=[direction])], set())


def test_moderate_position_line_in_plane():
    assert moderate_position([(line_fan(), r2_fan())]).ok


def test_moderate_position_rejects_equal_lineality():
    rep = moderate_position([(r2_fan(), r2_fan())])
    assert not rep.ok


def test_moderate_position_rejects_noncontained_lineality():
    # Y's local cone has a lineality direction that X's lacks entirely.
    x_fan = PolyhedralComplex(
        3, [Polyhedron([(0, 0, 0)], lineality=[(1, 0, 0), (0, 1, 0)])], set()
    )
    y_fan = PolyhedralComplex(3, [Polyhedron([(0, 0, 0)], lineality=[(0, 0, 1)])], set())
    rep = moderate_position([(y_fan, x_fan)])
    assert not rep.ok


def test_relatively_uniform_line_in_plane():
    y = tropical_line_cycle()
    assert relatively_uniform(y, r2_fan()).status == "true"


def test_relatively_uniform_rejects_weight_two():
    y = tropical_line_cycle(weights=(1, 1, 2))
    assert relatively_uniform(y, r2_fan()).status == "false"


def test_relatively_uniform_rejects_four_rays():
    origin = Polyhedron([(0, 0)])
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    cells = [origin] + [Polyhedron([(0, 0)], rays=[r]) for r in rays]
    c = PolyhedralComplex(2, cells, {(0, i) for i in range(1, 5)})
    y = TropicalCycle(c, 1, {i: 1 for i in range(1, 5)})
    assert relatively_uniform(y, r2_fan()).status == "false"


def test_relatively_uniform_smooth_point_case():
    # Y locally a line inside X = R^2: the r = 1 (smooth-point) case.
    y = TropicalCycle(line_fan(), 1, {0: 1})
    assert relatively_uniform(y, r2_fan()).status == "true"


def test_relatively_uniform_unsupported_for_nonlinear_ambient():
    y = tropical_line_cycle()
    x = local_cone(plane_fan_complex(), (0, 0))
    # The ambient fan here IS all of R^2 but presented with three maximal
    # cones; the catalogue only covers a single linear cell, so reject as
    # unsupported rather than guessing.
    res = relatively_uniform(y, x)
    assert res.status == "unsupported"


# -- integer lattice normals, against the Fraction path they replaced ------------


def oracle_normal_vector(c, tau_idx, sigma_idx):
    """_normal_vector as it was computed in Fraction arithmetic: tau's
    Fraction directions, sigma's lattice from its Fraction directions, and
    the difference of the cells' relative-interior points as the side."""
    tau, sigma = c.cells[tau_idx], c.cells[sigma_idx]
    ref = tuple(a - b for a, b in zip(relative_interior_point(sigma),
                                      relative_interior_point(tau)))
    lattice = lattice_basis_of_span(directions(sigma), c.ambient_dim)
    return oracle_quotient_generator(directions(tau), lattice, ref, c.ambient_dim)


def assert_normal_is_the_oracle_class(c, tau_idx, sigma_idx):
    """_normal_vector's (p, ref, g) is the oracle's lattice normal u read in
    Z^n / L(tau) through tau's span normals N: p == N·u and N·ref == g·p."""
    p, ref, g = _normal_vector(c, tau_idx, sigma_idx)
    normals = c.cells[tau_idx]._span_normals()
    u = oracle_normal_vector(c, tau_idx, sigma_idx)
    assert p == tuple(vdot(h, u) for h in normals), (tau_idx, sigma_idx)
    assert tuple(vdot(h, ref) for h in normals) == tuple(g * x for x in p), (tau_idx, sigma_idx)


@settings(max_examples=100, deadline=None)
@given(random_polyhedra())
def test_normal_reference_is_the_sum_over_the_generators(sigma):
    """At every facet tau of a random polyhedron sigma, _normal_vector's
    ref, read off the column sums of sigma's generators, is the sum over
    them of t0[0]·g[1:] − g[0]·t0[1:]."""
    nv = len(sigma.vertices)
    n = sigma.ambient_dim
    gens = _homogeneous_generators(sigma)
    for z in sigma.facet_generators():
        if not z & ((1 << nv) - 1):
            continue
        tau = Polyhedron([v for i, v in enumerate(sigma.vertices) if z >> i & 1],
                         [r for i, r in enumerate(sigma.rays) if z >> (nv + i) & 1],
                         sigma.lineality)
        c = PolyhedralComplex(n, [tau, sigma], {(0, 1)})
        t0 = _homogeneous_generators(tau)[0]
        assert _normal_vector(c, 0, 1)[1] == tuple(
            sum(t0[0] * g[i] - g[0] * t0[i] for g in gens) for i in range(1, n + 1))


def smooth_polynomial(n, d, seed):
    """A random smooth polynomial on the lattice points of d * Delta_n:
    strictly concave heights plus a jitter, drawn again until smooth."""
    pts = standard_simplex(n, d).lattice_points()
    if n == 2:
        return random_smooth_polynomial(pts, seed)
    rng = random.Random(seed)
    for _ in range(50):
        heights = [Fraction(-sum(x * x for x in p)) + Fraction(rng.randint(0, 10 ** 6), 8 * 10 ** 6)
                   for p in pts]
        f = polynomial_from_heights(n, pts, heights)
        if is_smooth(f):
            return f
    raise AssertionError("no smooth polynomial drawn")


@pytest.mark.parametrize("n,d,seed", [(2, 2, 1), (2, 2, 2), (2, 3, 3), (2, 4, 4),
                                      (3, 2, 5), (3, 2, 6)])
def test_memoized_normals_match_fraction_path_on_dual_complexes(n, d, seed):
    """Every (tau, sigma) pair of both dual complexes of a random smooth
    polynomial, whose cells have rational vertices, and every pair a layer
    of its power towers asks for."""
    f = smooth_polynomial(n, d, seed)
    checked = 0
    for base in (ambient_cycle(f), tropical_hypersurface(f)):
        c = base.complex
        pairs = set(c.face_relation)
        for layer in power_tower(f, base).layers:
            pairs |= {(tau, s) for tau, sigmas in layer.codim1_cells().items() for s in sigmas}
        for tau_idx, sigma_idx in sorted(pairs):
            assert_normal_is_the_oracle_class(c, tau_idx, sigma_idx)
        checked += len(pairs)
    assert checked > 0


def test_index_two_normal_class():
    # The segment from the origin to (2, 2) at its vertex: the reference is
    # (2, 2), twice the class (1, 1) of the primitive normal.
    c = PolyhedralComplex(2, [Polyhedron([(0, 0)]), Polyhedron([(0, 0), (2, 2)])], {(0, 1)})
    assert _normal_vector(c, 0, 1) == ((1, 1), (2, 2), 2)


@settings(max_examples=200, deadline=None)
@given(cone_pairs(), st.sampled_from([1, -1]))
@example(([], [[2, 2]], [2, 2]), 1)
@example(([], [[2, 2]], [2, 2]), -1)
@example(([[1, 0, 0]], [[1, 0, 0], [0, 2, 4]], [0, 2, 4]), 1)
def test_normal_class_matches_the_quotient_generator(pair, side):
    """tau the span of tau's generators, sigma tau plus the segment from the
    origin to side·extra: tau's span normals N are a saturated basis of the
    covectors vanishing on tau, and (p, ref, g) is the class of the moved
    ``quotient_generator``'s lift."""
    tau_gens, sigma_gens, extra = pair
    n = len(extra)
    origin = (0,) * n
    lin = [v for v in tau_gens if any(v)]
    end = tuple(side * x for x in extra)
    c = PolyhedralComplex(n, [Polyhedron([origin], lineality=lin),
                              Polyhedron([origin, end], lineality=lin)], {(0, 1)})
    normals = c.cells[0]._span_normals()
    codim = n - matrix_rank(lin)
    assert len(normals) == codim
    assert not any(vdot(h, v) for h in normals for v in lin)
    # N maps Z^n onto Z^codim iff its maximal minors are coprime.
    minors = (det([[h[j] for j in cols] for h in normals])
              for cols in itertools.combinations(range(n), codim))
    assert gcd_list(int(m) for m in minors) == 1
    u = quotient_generator(_kernel_rows(*_eliminate(tau_gens), n),
                           lattice_basis_of_span(sigma_gens, n), end)
    p, ref, g = _normal_vector(c, 0, 1)
    assert p == tuple(vdot(h, u) for h in normals)
    assert tuple(vdot(h, ref) for h in normals) == tuple(g * x for x in p)


@pytest.mark.parametrize("build", [
    lambda: csm_cycle(uniform_matroid(3, 5), 1),
    lambda: csm_cycle(uniform_matroid(3, 5), 2),
    lambda: tropical_hypersurface(smooth_simplex_polynomial(3, 2)),
], ids=["csm-U35-1", "csm-U35-2", "hypersurface-R3"])
def test_one_perturbed_weight_fails_balancing(build):
    cycle = build()
    assert check_balancing(cycle).ok
    for i in cycle.weights:
        weights = dict(cycle.weights)
        weights[i] += 1
        assert not check_balancing(TropicalCycle(cycle.complex, cycle.dim, weights)).ok, i


def oracle_divisor_weights(phi):
    """sum w l_sigma(u) − l_tau(sum w u) at every codimension-1 cell tau,
    with the oracle's integer lifts u of the lattice normals."""
    a, c = phi.cycle, phi.cycle.complex
    out = {}
    for tau_idx, sigmas in a.codim1_cells().items():
        total, weight = [0] * c.ambient_dim, 0
        for s in sigmas:
            u, w = oracle_normal_vector(c, tau_idx, s), a.weights[s]
            weight += w * vdot(phi.pieces[s][0], u)
            total = [t + w * x for t, x in zip(total, u)]
        weight -= vdot(phi.pieces[sigmas[0]][0], total)
        if weight:
            out[tau_idx] = weight
    return out


@pytest.mark.parametrize("f", [
    smooth_polynomial(2, 3, 7), smooth_polynomial(3, 2, 8), smooth_simplex_polynomial(4, 1),
], ids=["R2-d3", "R3-d2", "hyperplane-R4"])
def test_divisor_weights_match_the_oracle_lifts(f):
    tower = power_tower(f, ambient_cycle(f))
    assert len(tower.layers) == f.n + 1
    for layer, below in zip(tower.layers, tower.layers[1:]):
        assert below.weights == oracle_divisor_weights(cartier_from_polynomial(f, layer))


# -- relative uniformity, against a Smith normal form oracle --------------------


def quotient_coordinates(ly):
    """x -> coordinates of x in Z^n / (span(ly) ∩ Z^n) for a basis ly of a
    saturated lattice, read off sympy's Smith normal form S = U M V of the
    matrix M with columns ly: U maps that lattice onto the first len(ly)
    coordinate axes."""
    if not ly:
        return tuple
    s, u, _ = smith_normal_decomp(Matrix(ly).T)
    assert all(s[i, i] == 1 for i in range(len(ly)))
    return lambda x: tuple(u[len(ly):, :] * Matrix(x))


def oracle_relatively_uniform(y_local, x_local):
    """relatively_uniform computed by sympy: classes modulo lineal(Y) in
    Smith normal form coordinates, and every r-subset of them tested for a
    lattice basis by its invariant factors."""
    n = x_local.ambient_dim
    x_max = x_local.maximal_cells()
    lx = lineality_space(x_local)
    if len(x_max) != 1 or x_local.cells[x_max[0]].dim != len(lx):
        return UniformityResult("unsupported", "ambient local cone is not a linear space")
    w_basis = [tuple(Fraction(c) for c in b) for b in lx]
    dim_w = len(w_basis)
    y_complex = y_local.complex
    y_cells = [y_complex.cells[i] for i in y_local.weights]
    if not y_cells:
        return UniformityResult("unsupported", "empty local cycle")
    if any(w != 1 for w in y_local.weights.values()):
        return UniformityResult("false", "non-unit weight on a local cone")
    dim_y = y_local.dim
    if dim_y != dim_w - 1:
        return UniformityResult("unsupported", "Y is not of codimension 1 in X")
    ly = lineality_space(
        PolyhedralComplex(n, [y_complex.cells[i] for i in sorted(y_local.weights)], set())
    )
    m = len(ly)
    r = dim_w - m
    for c in y_cells:
        for d in directions(c):
            if not in_span(d, w_basis):
                return UniformityResult("false", "Y not contained in the ambient local cone")
    if r == 1:
        if all(c.dim == m for c in y_cells):
            return UniformityResult("true")
        return UniformityResult("false", "expected a linear local cone for r=1")
    coords = quotient_coordinates(ly)
    classes, cones = set(), []
    for c in y_cells:
        for l in c.lineality:
            if not in_span(l, ly):
                return UniformityResult("false", "cell lineality exceeds Y's lineality")
        cone = set()
        for ray in c.rays:
            image = coords(ray)
            if is_zero_vec(image):
                return UniformityResult("false", "a ray collapses into the lineality space")
            cone.add(primitive(image))
        if cone in cones:
            return UniformityResult("false", "overlapping non-equal rays in the quotient")
        cones.append(cone)
        classes |= cone
    if len(classes) != r + 1:
        return UniformityResult("false", f"expected {r + 1} rays after quotient, got {len(classes)}")
    if not is_zero_vec([sum(xs) for xs in zip(*classes)]):
        return UniformityResult("false", "quotient rays do not sum to zero")
    for subset in itertools.combinations(sorted(classes), r):
        if invariant_factors(Matrix(subset)) != (1,) * r:
            return UniformityResult("false", "a ray subset is not a lattice basis")
    return UniformityResult("true")


def linear_fan(basis):
    n = len(basis[0])
    return PolyhedralComplex(n, [Polyhedron([(0,) * n], lineality=basis)], set())


def cycle_pair(cells, weights=None, ambient=None):
    """(Y, X): Y weights the cells (1 unless weights says otherwise), X is the
    linear span of ambient (all of R^n if None)."""
    n = cells[0].ambient_dim
    y = TropicalCycle(PolyhedralComplex(n, cells, set()), cells[0].dim,
                      dict(enumerate(weights or [1] * len(cells))))
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return y, linear_fan(ambient or units)


def local_pair(n, cell_rays, lineality=(), weights=None, ambient=None):
    """cycle_pair of the cones spanned by each entry of cell_rays and the
    common lineality."""
    return cycle_pair([Polyhedron([(0,) * n], rays, lineality) for rays in cell_rays],
                      weights, ambient)


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
# A plane and a half-plane meeting in the line of E1: lineal(Y) is that line.
PLANE_AND_HALF_PLANE = [Polyhedron([(0, 0, 0)], lineality=[E1, E2]),
                        Polyhedron([(0, 0, 0)], [E3], [E1])]


@st.composite
def local_pairs(draw):
    """Fans in R^2 and R^3 inside all of R^n or a drawn plane W of R^3, mostly
    of codimension 1 in W: cones over k >= 1 rays and a common lineality of
    dimension dim W - 1 - k, or (k = 1) two rays of W and their negated sum.
    Rays and lineality mostly lie in W; the weights are 1, or with one
    chance in five drawn from 1 and 2."""
    n = draw(st.sampled_from([2, 3]))
    vec = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    ambient = None
    if n == 3 and draw(st.booleans()):
        ambient = draw(st.lists(vec, min_size=2, max_size=2))
        if matrix_rank(ambient) != n - 1:
            ambient = None
    span = ambient or [tuple(int(i == j) for j in range(n)) for i in range(n)]
    coeffs = st.lists(st.integers(-3, 3), min_size=len(span), max_size=len(span))
    in_w = coeffs.map(lambda cs: tuple(sum(c * b[i] for c, b in zip(cs, span))
                                       for i in range(n))).filter(any)
    direction = st.one_of(in_w, in_w, in_w, vec)
    lin_dim = draw(st.integers(0, len(span) - 2))
    lineality = draw(st.lists(direction, min_size=lin_dim, max_size=lin_dim))
    k = len(span) - 1 - lin_dim
    if k == 1 and draw(st.booleans()):
        rays = draw(st.lists(in_w, min_size=2, max_size=2))
        total = tuple(-sum(c) for c in zip(*rays))
        cell_rays = [[r] for r in rays] + ([[total]] if any(total) else [])
    else:
        cell_rays = draw(st.lists(st.lists(direction, min_size=k, max_size=k),
                                  min_size=1, max_size=4))
    cells = [Polyhedron([(0,) * n], rays, lineality) for rays in cell_rays]
    dim = cells[0].dim
    cells = [c for c in cells if c.dim == dim]
    weights = [1] * len(cells)
    if draw(st.integers(0, 4)) == 0:
        weights = draw(st.lists(st.sampled_from([1, 2]), min_size=len(cells),
                                max_size=len(cells)))
    y = TropicalCycle(PolyhedralComplex(n, cells, set()), dim, dict(enumerate(weights)))
    return y, linear_fan(span)


@settings(max_examples=300, deadline=None)
@given(local_pairs())
@example(local_pair(2, [[(-1, 0)], [(0, -1)], [(1, 1)]]))  # the tropical line: true
@example(local_pair(2, [[]], [(1, 0)]))  # r = 1, a line in the plane: true
@example(local_pair(2, [[(-1, 0)], [(0, -1)], [(1, 1)]], weights=[1, 1, 2]))  # non-unit weight
@example(local_pair(3, [[(1, 0, 1)], [(0, 1, 0)], [(-1, -1, -1)]],
                    ambient=[E1, E2]))  # not contained in W
@example(cycle_pair(PLANE_AND_HALF_PLANE))  # lineality beyond lineal(Y)
@example(local_pair(3, [[E1, E3], [E1, (0, 0, -1)]]))  # a ray collapses
@example(local_pair(3, [[E1], [(2, 0, 1)], [E2], [(-1, -1, 0)]], [E3]))  # overlap
@example(local_pair(2, [[(1, 0)], [(-1, 0)], [(0, 1)], [(0, -1)]]))  # four rays
@example(local_pair(2, [[(1, 0)], [(0, 1)], [(-1, -2)]]))  # no zero sum
@example(local_pair(2, [[(1, 0)], [(1, 3)], [(-2, -3)]]))  # no lattice basis
@example(local_pair(2, [[(1, 0)], [(0, 1)]]))  # the ambient's codimension 2
def test_relatively_uniform_matches_the_gram_projection(pair):
    y, x = pair
    assert relatively_uniform(y, x) == oracle_relatively_uniform(y, x)


def test_the_examples_reach_every_false_branch():
    pairs = [
        local_pair(2, [[(-1, 0)], [(0, -1)], [(1, 1)]], weights=[1, 1, 2]),
        local_pair(3, [[(1, 0, 1)], [(0, 1, 0)], [(-1, -1, -1)]], ambient=[E1, E2]),
        cycle_pair(PLANE_AND_HALF_PLANE),
        local_pair(3, [[E1, E3], [E1, (0, 0, -1)]]),
        local_pair(3, [[E1], [(2, 0, 1)], [E2], [(-1, -1, 0)]], [E3]),
        local_pair(2, [[(1, 0)], [(-1, 0)], [(0, 1)], [(0, -1)]]),
        local_pair(2, [[(1, 0)], [(0, 1)], [(-1, -2)]]),
        local_pair(2, [[(1, 0)], [(1, 3)], [(-2, -3)]]),
    ]
    reasons = [relatively_uniform(y, x).reason for y, x in pairs]
    assert reasons == [
        "non-unit weight on a local cone",
        "Y not contained in the ambient local cone",
        "cell lineality exceeds Y's lineality",
        "a ray collapses into the lineality space",
        "overlapping non-equal rays in the quotient",
        "expected 3 rays after quotient, got 4",
        "quotient rays do not sum to zero",
        "a ray subset is not a lattice basis",
    ]


def test_relatively_uniform_takes_primitive_classes_modulo_a_skew_lineality():
    # Modulo (1,1,1) the rays are 3 times the classes of -e1, -e2 and e1 + e2:
    # the local fan is R x (tropical line), though the rays' images under the
    # span normals (1,0,-1), (0,1,-1) are (-3,0), (0,-3) and (3,3).
    y, x = local_pair(3, [[(-2, 1, 1)], [(1, -2, 1)], [(1, 1, -2)]], [(1, 1, 1)])
    assert relatively_uniform(y, x) == UniformityResult("true")


@pytest.mark.parametrize("d,edges", [(2, 24), (3, 72)])
def test_relatively_uniform_at_every_edge_of_a_smooth_surface_in_r3(d, edges):
    """Locally R x (tropical line) at every edge, bounded or not."""
    surface = tropical_hypersurface(smooth_simplex_polynomial(3, d))
    c = surface.complex
    cells = [i for i in c.faces_closure(surface.support_cells()) if c.cells[i].dim == 1]
    assert len(cells) == edges
    ambient = linear_fan([E1, E2, E3])
    for i in cells:
        y = local_cycle(surface, relative_interior_point(c.cells[i]))
        assert relatively_uniform(y, ambient) == UniformityResult("true"), i


@pytest.mark.parametrize("n,d,seeds", [(2, 2, range(6)), (2, 3, range(6)), (3, 2, range(4))])
def test_relatively_uniform_matches_the_gram_projection_on_hypersurfaces(n, d, seeds):
    """At a relative-interior point of every cell of hypersurfaces with
    small integer heights, mostly not smooth: weights 2, lattice-basis and
    sum failures occur as well as true cases."""
    ambient = linear_fan([tuple(int(i == j) for j in range(n)) for i in range(n)])
    pts = standard_simplex(n, d).lattice_points()
    statuses = set()
    for seed in seeds:
        rng = random.Random(seed)
        curve = tropical_hypersurface(
            polynomial_from_heights(n, pts, [rng.randint(-3, 3) for _ in pts]))
        for i in sorted(curve.complex.faces_closure(curve.support_cells())):
            y = local_cycle(curve, relative_interior_point(curve.complex.cells[i]))
            result = relatively_uniform(y, ambient)
            assert result == oracle_relatively_uniform(y, ambient)
            statuses.add(result.status)
    assert statuses == {"true", "false"}
