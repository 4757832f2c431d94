"""Tropical cycles: weighted balanced complexes, the Cartier-divisor pairing
(corner locus), divisor power towers, and the local position checks
(moderate position, relative uniformity)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .linalg import (
    IntVec,
    _eliminate,
    _kernel_rows,
    det,
    gcd_list,
    in_span,
    integer_kernel,
    primitive,
    vdot,
)
from .polyhedra import (
    PolyhedralComplex,
    _homogeneous_generators,
    lineality_space,
    local_cone,
)


class TropicalCycle:
    """Pure-dimensional weighted polyhedral complex.

    weights maps maximal-cell index -> nonzero integer. The empty cycle (no
    weighted cells) is a first-class value with a dimension label.
    """

    def __init__(self, complex_: PolyhedralComplex, dim: int, weights: dict[int, int]):
        self.complex = complex_
        self.dim = dim
        self.weights = {i: int(w) for i, w in weights.items() if w != 0}
        for i in self.weights:
            if complex_.cells[i].dim != dim:
                raise ValueError("weighted cell of wrong dimension; cycle must be pure")

    def is_empty(self) -> bool:
        return not self.weights

    def support_cells(self) -> set[int]:
        """Indices of all cells in the closed support (weighted cells and
        their faces)."""
        return self.complex.faces_closure(self.weights.keys())

    def support_contains(self, point) -> bool:
        return any(self.complex.cells[i].contains(point) for i in self.weights)

    def codim1_cells(self) -> dict[int, list[int]]:
        """Map codim-1 cell index -> adjacent weighted maximal cells."""
        out: dict[int, list[int]] = {}
        for i in self.weights:
            for tau in self.complex.facets_of(i):
                out.setdefault(tau, []).append(i)
        return out

    def __repr__(self):
        return f"TropicalCycle(dim={self.dim}, cells={len(self.weights)})"


def degree(a: TropicalCycle) -> int:
    """Sum of point weights of a 0-dimensional cycle."""
    if a.dim != 0:
        raise ValueError("degree is defined for 0-dimensional cycles")
    return sum(a.weights.values())


@dataclass
class BalancingReport:
    ok: bool
    failures: list[str] = field(default_factory=list)


def _normal_vector(complex_: PolyhedralComplex, tau_idx: int, sigma_idx: int):
    """(p, ref, g) for sigma's lattice normal at its face tau.

    ref is an integer vector of sigma's span pointing from tau into sigma:
    the sum over sigma's homogeneous generators g of t0[0]·g[1:] − g[0]·t0[1:],
    t0 the generator of tau's first vertex (tau is a face of sigma, so a
    functional vanishing on tau's directions has one sign on every term),
    read off the generators' column sums S as t0[0]·S[1:] − S[0]·t0[1:].
    With N tau's ``_span_normals``, q = N·ref, g = gcd(q) and p = q / g.
    N maps Z^n onto Z^c with kernel L(tau), the saturated lattice of tau's
    directions, and sigma's saturated lattice maps onto a saturated line;
    so p is the class of sigma's lattice normal in Z^n / L(tau), and
    ref / g represents it (Allermann–Rau, *Math. Z.* 264, 2010, §2).
    Balancing and the divisor pairing need only that class.

    It depends on the geometry only, not on weights, so the complex's memo
    keeps it, at most once per pair of its face relation, for every cycle
    on the complex. It is built from integers alone."""
    key = (tau_idx, sigma_idx)
    v = complex_._normals.get(key)
    if v is None:
        tau = complex_.cells[tau_idx]
        t0 = _homogeneous_generators(tau)[0]
        gens = _homogeneous_generators(complex_.cells[sigma_idx])
        total = [sum(col) for col in zip(*gens)]
        ref = tuple(t0[0] * total[i] - t0[i] * total[0]
                    for i in range(1, complex_.ambient_dim + 1))
        q = [vdot(h, ref) for h in tau._span_normals()]
        g = gcd(*q)
        v = complex_._normals[key] = (tuple(x // g for x in q), ref, g)
    return v


def check_balancing(a: TropicalCycle) -> BalancingReport:
    """At every codimension-1 cell tau, the weighted classes p of the
    adjacent cells' lattice normals in Z^n / L(tau) (``_normal_vector``)
    must sum to zero."""
    failures = []
    for tau_idx, sigmas in a.codim1_cells().items():
        total = [0] * len(a.complex.cells[tau_idx]._span_normals())
        for s in sigmas:
            p, w = _normal_vector(a.complex, tau_idx, s)[0], a.weights[s]
            total = [t + w * x for t, x in zip(total, p)]
        if any(total):
            failures.append(
                f"balancing fails at cell {tau_idx}: the weighted lattice normals "
                f"sum to the class {tuple(total)}, not 0"
            )
    return BalancingReport(ok=not failures, failures=failures)


class CartierFunction:
    """Piecewise integer-affine function on the support of a cycle: one affine
    piece (integer linear part, rational constant) per weighted maximal cell,
    agreeing on shared faces."""

    def __init__(self, cycle: TropicalCycle, pieces: dict[int, tuple[tuple[int, ...], Fraction]]):
        self.cycle = cycle
        self.pieces = {
            i: (tuple(int(c) for c in lin), Fraction(const))
            for i, (lin, const) in pieces.items()
        }
        for i in cycle.weights:
            if i not in self.pieces:
                raise ValueError(f"missing affine piece for weighted cell {i}")
        self._check_continuity()

    def _check_continuity(self):
        """Two pieces agree on a shared face tau iff their difference
        (c1 - c2, l1 - l2) vanishes on tau's homogeneous generators."""
        for tau_idx, sigmas in self.cycle.codim1_cells().items():
            gens = _homogeneous_generators(self.cycle.complex.cells[tau_idx])
            for s1, s2 in itertools.combinations(sigmas, 2):
                (l1, c1), (l2, c2) = self.pieces[s1], self.pieces[s2]
                diff = (c1 - c2,) + tuple(a - b for a, b in zip(l1, l2))
                if any(vdot(diff, g) for g in gens):
                    raise ValueError(
                        f"affine pieces of cells {s1},{s2} disagree on face {tau_idx}"
                    )


def divisor_intersect(phi: CartierFunction) -> TropicalCycle:
    """Corner locus of phi on its cycle: the codimension-1 cycle whose
    weight at tau is sum w_sigma (l_sigma − l_tau)(u_sigma), l the linear
    parts of phi and u_sigma sigma's lattice normal; zero-weight cells are
    dropped. The sum depends on the classes of the u_sigma in Z^n / L(tau)
    only, and ref / g stands for that class (``_normal_vector``)."""
    a = phi.cycle
    complex_ = a.complex
    if a.dim == 0 or a.is_empty():
        return TropicalCycle(complex_, max(a.dim - 1, 0), {})
    new_weights: dict[int, int] = {}
    for tau_idx, sigmas in a.codim1_cells().items():
        # Any adjacent piece restricts to tau: they agree on its directions.
        l_tau = phi.pieces[sigmas[0]][0]
        weight = 0
        for s in sigmas:
            _, ref, g = _normal_vector(complex_, tau_idx, s)
            # l_sigma − l_tau vanishes on tau, so it is an integer combination
            # of tau's span normals and its value on ref is a multiple of g.
            value, rest = divmod(sum((x - y) * r for x, y, r
                                     in zip(phi.pieces[s][0], l_tau, ref)), g)
            if rest:
                raise ValueError(f"pieces of cells {s},{sigmas[0]} differ on face {tau_idx}")
            weight += a.weights[s] * value
        if weight:
            new_weights[tau_idx] = weight
    return TropicalCycle(complex_, a.dim - 1, new_weights)


class DivisorPowerTower:
    """Cycles X, D.X, D^2.X, ... sharing one master complex."""

    def __init__(self, layers: list[TropicalCycle]):
        self.layers = layers


def power_tower(f, x_cycle: TropicalCycle) -> DivisorPowerTower:
    """Iterate the divisor pairing of a tropical polynomial f on a cycle,
    restricting f to each successive support, until a layer is empty or of
    dimension 0: at most x_cycle.dim pairings."""
    from .hypersurface import cartier_from_polynomial  # cycle-free layering

    layers = [x_cycle]
    while layers[-1].dim > 0 and not layers[-1].is_empty():
        layers.append(divisor_intersect(cartier_from_polynomial(f, layers[-1])))
    return DivisorPowerTower(layers)


# -- position checks -----------------------------------------------------------


@dataclass
class PositionReport:
    ok: bool
    witness: object = None


def moderate_position(pairs) -> PositionReport:
    """Each pair is (local cone of Y, local cone of X) at one sampled point;
    moderate position requires lineal(Y) to be a PROPER subspace of
    lineal(X) at every point."""
    for idx, (y_fan, x_fan) in enumerate(pairs):
        ly = lineality_space(y_fan)
        lx = lineality_space(x_fan)
        if len(ly) >= len(lx) or not all(in_span(b, lx) for b in ly):
            return PositionReport(ok=False, witness=idx)
    return PositionReport(ok=True)


@dataclass
class UniformityResult:
    status: str  # "true", "false", or "unsupported"
    reason: str = ""

    def __bool__(self):
        return self.status == "true"


def relatively_uniform(y_local: TropicalCycle, x_local: PolyhedralComplex) -> UniformityResult:
    """Whether the local-cone inclusion Y in X matches the model
    L_M x L_{U_{r,r+1}} inside L_M x L_{U_{r+1,r+1}} for Boolean M.

    Supported catalogue: X locally linear (its local cone is a linear
    subspace W); Y of codimension 1 in X whose quotient by its lineality is
    the fan over r+1 primitive rays summing to zero, any r of which form a
    lattice basis, with all weights 1. Anything else is flagged unsupported.

    All in integers: Y lies in W iff its cells' integer directions vanish on
    W's span normals. A basis Q of the saturated lattice of covectors
    vanishing on lineal(Y) (``integer_kernel``) maps Z^n onto the quotient
    lattice Z^n / lineal(Y); a ray's class is the primitive vector of its
    image. The classes lie in the saturated image of W ∩ Z^n, so r of them
    are a basis of it iff their r x r minors have gcd 1 (Cauchy–Binet); as
    the r + 1 classes sum to zero, one r-subset stands for all of them.
    """
    n = x_local.ambient_dim
    x_max = x_local.maximal_cells()
    lx = lineality_space(x_local)
    if len(x_max) != 1 or x_local.cells[x_max[0]].dim != len(lx):
        return UniformityResult("unsupported", "ambient local cone is not a linear space")
    dim_w = len(lx)
    y_complex = y_local.complex
    y_cells = [y_complex.cells[i] for i in y_local.weights]
    if not y_cells:
        return UniformityResult("unsupported", "empty local cycle")
    if any(w != 1 for w in y_local.weights.values()):
        return UniformityResult("false", "non-unit weight on a local cone")
    if y_local.dim != dim_w - 1:
        return UniformityResult("unsupported", "Y is not of codimension 1 in X")
    ly = lineality_space(
        PolyhedralComplex(n, [y_complex.cells[i] for i in sorted(y_local.weights)], set())
    )
    r = dim_w - len(ly)
    w_normals = _kernel_rows(*_eliminate(lx), n)
    if any(vdot(h, d) for c in y_cells for d in c._integer_directions() for h in w_normals):
        return UniformityResult("false", "Y not contained in the ambient local cone")
    if r == 1:
        # lineal(Y) lies in every cell, all of dimension dim Y = dim lineal(Y):
        # Y is a linear space, a smooth point of D in a smooth chart.
        return UniformityResult("true")
    q = integer_kernel(ly, n)

    def image(v) -> IntVec:
        return tuple(vdot(h, v) for h in q)

    classes: set[IntVec] = set()
    cones: set[frozenset[IntVec]] = set()
    for c in y_cells:
        if any(any(image(l)) for l in c.lineality):
            return UniformityResult("false", "cell lineality exceeds Y's lineality")
        ims = [image(ray) for ray in c.rays]
        if not all(map(any, ims)):
            return UniformityResult("false", "a ray collapses into the lineality space")
        cone = frozenset(map(primitive, ims))
        if cone in cones:
            return UniformityResult("false", "overlapping non-equal rays in the quotient")
        cones.add(cone)
        classes |= cone
    if len(classes) != r + 1:
        return UniformityResult("false", f"expected {r + 1} rays after quotient, got {len(classes)}")
    if any(map(sum, zip(*classes))):
        return UniformityResult("false", "quotient rays do not sum to zero")
    basis = sorted(classes)[:r]
    minors = (det([[v[j] for j in js] for v in basis])
              for js in itertools.combinations(range(len(q)), r))
    if gcd_list(int(m) for m in minors) != 1:
        return UniformityResult("false", "a ray subset is not a lattice basis")
    return UniformityResult("true")


def local_cycle(a: TropicalCycle, x) -> TropicalCycle:
    """Star of a cycle at a point x of its support: the fan of tangent cones
    of the cells through x, with the inherited weights."""
    fan = local_cone(a.complex, x)
    weights: dict[int, int] = {}
    for i, w in a.weights.items():
        j = fan.index_map.get(i)
        if j is not None:
            weights[j] = weights.get(j, 0) + w
    return TropicalCycle(fan, a.dim, weights)
