"""Exact toric Riemann-Roch: Todd series over rationals, the cohomology ring
of projective space, and intersection theory on smooth complete toric
surfaces, with polygon/fan dictionaries."""

from __future__ import annotations

import functools
from fractions import Fraction

from .linalg import det, frac, primitive, vadd, vdot
from .polyhedra import LatticePolytope


# -- power series helpers (truncated at a fixed order) --------------------------


def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if i > order or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def _series_inverse(a, order):
    if a[0] == 0:
        raise ValueError("series with zero constant term has no inverse")
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / a[0]
    for k in range(1, order + 1):
        s = Fraction(0)
        for i in range(1, k + 1):
            if i < len(a):
                s += a[i] * inv[k - i]
        inv[k] = -s / a[0]
    return inv


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def todd_series(order: int) -> list[Fraction]:
    """Coefficients of x / (1 - e^(-x)) up to the given order."""
    # (1 - e^(-x)) / x = sum_k (-1)^k x^k / (k+1)!
    base = [Fraction((-1) ** k, _factorial(k + 1)) for k in range(order + 1)]
    return _series_inverse(base, order)


def _exp_series(c, order):
    """exp(c x) truncated."""
    return [Fraction(c) ** k / _factorial(k) for k in range(order + 1)]


# -- projective space ------------------------------------------------------------


class ProjectiveSpace:
    """TP^n with cohomology ring Z[H]/H^(n+1); classes are coefficient lists
    in powers of the hyperplane class H, and the point class integrates to 1."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        td = todd_series(n)
        # Todd class: (H / (1 - e^(-H)))^(n+1) truncated at H^n.
        tot = [Fraction(1)] + [Fraction(0)] * n
        for _ in range(n + 1):
            tot = _series_mul(tot, td, n)
        self.todd_class = tot

    def integrate(self, cls) -> Fraction:
        return Fraction(cls[self.n]) if len(cls) > self.n else Fraction(0)

    def rr_number(self, d: int) -> int:
        """chi(O(dH)) = integral of exp(dH) * Td."""
        val = self.integrate(_series_mul(_exp_series(d, self.n), self.todd_class, self.n))
        if val.denominator != 1:
            raise ValueError("non-integral Riemann-Roch number")
        return int(val)


# -- toric surfaces ---------------------------------------------------------------


class ToricSurface:
    """Smooth complete toric surface from cyclically ordered primitive rays.

    Divisor classes are integer tuples of coefficients over the rays.
    Consecutive rays must span unimodular cones (counterclockwise); the
    constructor reverses a clockwise input."""

    def __init__(self, rays):
        rs = [primitive(tuple(int(c) for c in r)) for r in rays]
        if len(rs) < 3 or len(set(rs)) != len(rs):
            raise ValueError("need at least three distinct rays")
        dets = [det([rs[i], rs[(i + 1) % len(rs)]]) for i in range(len(rs))]
        if all(d == -1 for d in dets):
            rs.reverse()
            dets = [det([rs[i], rs[(i + 1) % len(rs)]]) for i in range(len(rs))]
        if not all(d == 1 for d in dets):
            raise ValueError("rays must be cyclic with unimodular consecutive cones")
        self.rays = tuple(rs)
        m = len(rs)
        self.self_intersections = []
        for i in range(m):
            prev = rs[(i - 1) % m]
            nxt = rs[(i + 1) % m]
            # u_{i-1} + u_{i+1} = a_i u_i.
            s = vdot(vadd(prev, nxt), rs[i])
            norm = vdot(rs[i], rs[i])
            a = Fraction(s, norm)
            # Verify exactly (the sum must be proportional to u_i).
            if tuple(a * c for c in rs[i]) != tuple(
                Fraction(x) for x in vadd(prev, nxt)
            ) or a.denominator != 1:
                raise ValueError("wall relation fails; fan is not smooth/complete")
            # u_{i-1} + u_{i+1} + (D_i^2) u_i = 0, so D_i^2 = -a_i.
            self.self_intersections.append(-int(a))
        k2 = self.intersection(self.canonical_class(), self.canonical_class())
        if k2 + m != 12:
            raise ValueError("Noether check failed; fan data inconsistent")

    def canonical_class(self):
        return tuple(-1 for _ in self.rays)

    def intersection(self, d1, d2) -> int:
        m = len(self.rays)
        total = 0
        for i in range(m):
            total += d1[i] * d2[i] * self.self_intersections[i]
            total += d1[i] * d2[(i + 1) % m]
            total += d1[i] * d2[(i - 1) % m]
        return total

    def rr_number(self, d) -> int:
        """chi(O(D)) = D.(D - K)/2 + 1."""
        k = self.canonical_class()
        dk = self.intersection(d, tuple(di - ki for di, ki in zip(d, k)))
        if dk % 2:
            raise ValueError("non-integral Riemann-Roch number")
        return dk // 2 + 1

    def adjunction_genus(self, d) -> Fraction:
        """Arithmetic genus of a curve in |D|: D.(D + K)/2 + 1."""
        k = self.canonical_class()
        dk = self.intersection(d, tuple(di + ki for di, ki in zip(d, k)))
        return Fraction(dk, 2) + 1

    def virtual_genus_integral(self, divisors) -> int:
        """integral of prod_j (1 - exp(-D_j)) * Td(X), expanded exactly.

        One divisor gives chi(O_D); two divisors give the intersection
        number D_1.D_2."""
        k = self.canonical_class()
        minus_k = tuple(-c for c in k)
        if len(divisors) == 1:
            (d,) = divisors
            val = Fraction(self.intersection(d, minus_k) - self.intersection(d, d), 2)
        elif len(divisors) == 2:
            d1, d2 = divisors
            val = Fraction(self.intersection(d1, d2))
        else:
            val = Fraction(0)  # degree > 2 terms vanish on a surface
        if val.denominator != 1:
            raise ValueError("non-integral virtual genus integral")
        return int(val)

    def polygon_divisor(self, q: LatticePolytope):
        """The nef divisor of a lattice polygon whose normal fan is refined by
        this fan: coefficient a_i = -min over q of <u_i, .>."""
        out = []
        for u in self.rays:
            vals = [vdot(u, v) for v in q.vertices]
            a = -min(vals)
            out.append(int(a))
        return tuple(out)


def _cyclic_angular_sort(vectors):
    """Sort integer 2-vectors counterclockwise starting in the closed upper
    half plane, exactly (no floating point)."""

    def half(v):
        x, y = v
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = a[0] * b[1] - a[1] * b[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(vectors, key=functools.cmp_to_key(cmp))


def fan_from_polygon(q: LatticePolytope) -> ToricSurface:
    """Toric surface of the inner normal fan of a two-dimensional lattice
    polygon (the polygon must be Delzant for the fan to be smooth)."""
    if q.ambient_dim != 2 or q.dim != 2:
        raise ValueError("need a full-dimensional lattice polygon")
    eqs, ineqs = q.polyhedron().hrep()
    normals = []
    for h in ineqs:
        u = primitive(h[1:])
        if u not in normals:
            normals.append(u)
    return ToricSurface(_cyclic_angular_sort(normals))


def polygon_vertices_ccw(q: LatticePolytope):
    """Vertices of a lattice polygon in counterclockwise cyclic order."""
    cx = Fraction(sum(v[0] for v in q.vertices), len(q.vertices))
    cy = Fraction(sum(v[1] for v in q.vertices), len(q.vertices))
    rel = [(frac(v[0]) - cx, frac(v[1]) - cy) for v in q.vertices]
    order = _cyclic_angular_sort(rel)
    lookup = {r: v for v, r in zip(q.vertices, rel)}
    return [lookup[r] for r in order]


def is_delzant(q: LatticePolytope) -> bool:
    """Whether at every vertex the two primitive edge directions form a basis
    of the lattice (so the normal fan is smooth)."""
    if q.ambient_dim != 2 or q.dim != 2:
        return False
    verts = polygon_vertices_ccw(q)
    m = len(verts)
    for i in range(m):
        prev = verts[(i - 1) % m]
        nxt = verts[(i + 1) % m]
        v = verts[i]
        e1 = primitive(tuple(a - b for a, b in zip(prev, v)))
        e2 = primitive(tuple(a - b for a, b in zip(nxt, v)))
        if abs(det([e1, e2])) != 1:
            return False
    return True


def pick_area_count(q: LatticePolytope) -> int:
    """Lattice-point count of a polygon via Pick's theorem: an oracle
    independent of direct enumeration."""
    from .polyhedra import polytope_normalized_volume

    if q.ambient_dim != 2 or q.dim != 2:
        raise ValueError("Pick's theorem needs a lattice polygon")
    double_area = polytope_normalized_volume(q)  # 2 * area
    verts = polygon_vertices_ccw(q)
    boundary = 0
    from math import gcd

    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        boundary += gcd(abs(a[0] - b[0]), abs(a[1] - b[1]))
    # A = I + B/2 - 1  =>  I = A - B/2 + 1; total = I + B.
    if (double_area - boundary) % 2:
        raise ValueError("parity violation in Pick's theorem")
    interior = (double_area - boundary) // 2 + 1
    return interior + boundary
