import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from test_linalg import oracle_quotient_generator
from troprr.cycles import (
    CartierFunction,
    TropicalCycle,
    _normal_vector,
    check_balancing,
    degree,
    divisor_intersect,
    moderate_position,
    power_tower,
    relatively_uniform,
)
from troprr.hypersurface import (
    ambient_cycle,
    is_smooth,
    polynomial_from_heights,
    random_smooth_polynomial,
    tropical_hypersurface,
)
from troprr.linalg import lattice_basis_of_span
from troprr.polyhedra import PolyhedralComplex, Polyhedron, local_cone, standard_simplex


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
    ref = tuple(a - b for a, b in zip(sigma.relative_interior_point(),
                                      tau.relative_interior_point()))
    lattice = lattice_basis_of_span(sigma.directions(), c.ambient_dim)
    return oracle_quotient_generator(tau.directions(), lattice, ref, c.ambient_dim)


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
            assert _normal_vector(c, tau_idx, sigma_idx) == \
                oracle_normal_vector(c, tau_idx, sigma_idx), (tau_idx, sigma_idx)
        checked += len(pairs)
    assert checked > 0
