"""Matroids with explicit base lists, the beta invariant, Bergman fans in
pinned coordinates, and matroid Chern-Schwartz-MacPherson cycles."""

from __future__ import annotations

import itertools

from .cycles import TropicalCycle
from .polyhedra import PolyhedralComplex, Polyhedron

_MAX_GROUND = 12


class Matroid:
    """Matroid on ground set {1, ..., n} given by its bases."""

    def __init__(self, n: int, bases, check: bool = True):
        self.n = int(n)
        if self.n > _MAX_GROUND:
            raise ValueError(f"ground sets larger than {_MAX_GROUND} are not supported")
        self.ground = frozenset(range(1, self.n + 1))
        self.bases = frozenset(frozenset(b) for b in bases)
        if not self.bases:
            raise ValueError("a matroid needs at least one basis")
        sizes = {len(b) for b in self.bases}
        if len(sizes) != 1:
            raise ValueError("bases must be equicardinal")
        (self.rank_value,) = sizes
        for b in self.bases:
            if not b <= self.ground:
                raise ValueError("basis outside the ground set")
        self._basis_masks = None
        self._ranks: dict[int, int] = {}
        # beta of the flag minor (M|hi)/lo, keyed by (lo, hi), for csm_cycle.
        self._flag_betas: dict[tuple[frozenset, frozenset], int] = {}
        if check:
            self._check_exchange()

    def _check_exchange(self):
        for b1 in self.bases:
            for b2 in self.bases:
                for e in b1 - b2:
                    if not any((b1 - {e}) | {f} in self.bases for f in b2 - b1):
                        raise ValueError("basis exchange axiom fails")

    def rank(self, subset=None) -> int:
        """The largest intersection of the subset with a basis, counted on
        bitmasks of the bases (built on the first call). Memoized on the
        subset's bitmask: at most 2^n <= 2^12 entries, kept as long as the
        matroid."""
        if subset is None:
            return self.rank_value
        s = 0
        for e in subset:
            s |= 1 << e
        r = self._ranks.get(s)
        if r is None:
            if self._basis_masks is None:
                self._basis_masks = [sum(1 << e for e in b) for b in self.bases]
            r = self._ranks[s] = max((b & s).bit_count() for b in self._basis_masks)
        return r

    def closure(self, subset) -> frozenset:
        s = frozenset(subset)
        r = self.rank(s)
        return frozenset(e for e in self.ground if self.rank(s | {e}) == r)

    def flats(self) -> list[frozenset]:
        """All flats, grouped in no particular order; includes closure of the
        empty set and the full ground set."""
        out = {self.closure(())}
        frontier = list(out)
        while frontier:
            f = frontier.pop()
            for e in self.ground - f:
                g = self.closure(f | {e})
                if g not in out:
                    out.add(g)
                    frontier.append(g)
        return sorted(out, key=lambda f: (len(f), sorted(f)))

    def proper_flats(self) -> list[frozenset]:
        return [f for f in self.flats() if f and f != self.ground]

    def loops(self) -> frozenset:
        return frozenset(e for e in self.ground if self.rank({e}) == 0)

    def coloops(self) -> frozenset:
        out = self.ground
        for b in self.bases:
            out = out & b
        return out

    def delete(self, subset) -> "Matroid":
        return flag_minor(self, (), self.ground - frozenset(subset))

    def contract(self, subset) -> "Matroid":
        return flag_minor(self, subset, self.ground)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        for size in range(1, self.n // 2 + 1):
            for s in itertools.combinations(sorted(self.ground), size):
                s = frozenset(s)
                if self.rank(s) + self.rank(self.ground - s) == self.rank_value:
                    return False
        return True

    def _key(self):
        return (self.n, self.bases)

    def __repr__(self):
        return f"Matroid(n={self.n}, rank={self.rank_value}, bases={len(self.bases)})"


def uniform_matroid(r: int, n: int) -> Matroid:
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    if r == 0:
        return Matroid(n, [frozenset()], check=False)
    bases = [frozenset(b) for b in itertools.combinations(range(1, n + 1), r)]
    return Matroid(n, bases, check=False)


def graphic_matroid(edges) -> Matroid:
    """Matroid of spanning trees; edges are (u, v) pairs and become ground
    elements 1..m in the given order."""
    edges = [tuple(e) for e in edges]
    vertices = sorted({v for e in edges for v in e})
    m = len(edges)
    nv = len(vertices)

    def is_forest(subset):
        parent = {v: v for v in vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for i in subset:
            u, w = edges[i - 1]
            ru, rw = find(u), find(w)
            if ru == rw:
                return False
            parent[ru] = rw
        return True

    bases = []
    for cand in itertools.combinations(range(1, m + 1), nv - 1):
        if is_forest(cand):
            bases.append(frozenset(cand))
    if not bases:
        raise ValueError("graph is not connected")
    return Matroid(m, bases, check=False)


# -- invariants ------------------------------------------------------------------


_beta_memo: dict = {}


def beta(m: Matroid) -> int:
    """Crapo beta invariant via deletion-contraction."""
    key = m._key()
    if key in _beta_memo:
        return _beta_memo[key]
    if m.n == 0:
        result = 0
    elif m.n == 1:
        result = 1 if m.rank_value == 1 else 0
    elif m.loops():
        result = 0
    else:
        coloops = m.coloops()
        e = next((x for x in sorted(m.ground) if x not in coloops), None)
        if e is None:
            # Every element is a coloop: a direct sum of n >= 2 coloops.
            result = 0
        else:
            result = beta(m.delete({e})) + beta(m.contract({e}))
    _beta_memo[key] = result
    return result


def beta_by_rank_sum(m: Matroid) -> int:
    """Independent formula: (-1)^r(M) * sum over subsets of (-1)^|S| r(S)."""
    total = 0
    for size in range(m.n + 1):
        for s in itertools.combinations(sorted(m.ground), size):
            total += (-1) ** size * m.rank(s)
    return (-1) ** m.rank_value * total


def characteristic_polynomial(m: Matroid) -> list[int]:
    """Coefficients [c_0, ..., c_r] of the characteristic polynomial
    sum_S (-1)^|S| t^(r - r(S)), index = power of t."""
    r = m.rank_value
    coeffs = [0] * (r + 1)
    for size in range(m.n + 1):
        for s in itertools.combinations(sorted(m.ground), size):
            coeffs[r - m.rank(s)] += (-1) ** size
    return coeffs


# -- Bergman fan and CSM cycles ----------------------------------------------


def pin(v):
    """Quotient R^n -> R^(n-1) by the all-ones line: (v_i - v_n)_i<n."""
    return tuple(v[i] - v[-1] for i in range(len(v) - 1))


def flat_generator(f: frozenset, n: int):
    """Primitive ray generator of a proper nonempty flat in pinned
    coordinates: the pinned negative indicator vector."""
    vec = tuple(-1 if i in f else 0 for i in range(1, n + 1))
    return pin(vec)


def _chains(proper_flats):
    """All chains (tuples ordered by inclusion) of proper nonempty flats,
    including the empty chain."""
    by_size = sorted(proper_flats, key=lambda f: (len(f), sorted(f)))
    chains = [()]
    frontier = [()]
    while frontier:
        c = frontier.pop()
        top = c[-1] if c else None
        for f in by_size:
            if top is None or (top < f):
                nc = c + (f,)
                chains.append(nc)
                frontier.append(nc)
    return chains


def bergman_complex(m: Matroid):
    """Cone complex of the Bergman fan in pinned R^(n-1): one cone per chain
    of proper nonempty flats. Returns (complex, chain list)."""
    n = m.n
    flats = m.proper_flats()
    ray = {f: flat_generator(f, n) for f in flats}
    chains = sorted(set(_chains(flats)), key=lambda c: (len(c), [sorted(f) for f in c]))
    index = {c: i for i, c in enumerate(chains)}
    origin = tuple(0 for _ in range(n - 1))
    cells = [Polyhedron([origin], rays=[ray[f] for f in c]) for c in chains]
    relation = set()
    for c in chains:
        if not c:
            continue
        for i in range(len(c)):
            sub = c[:i] + c[i + 1:]
            relation.add((index[sub], index[c]))
    return PolyhedralComplex(n - 1, cells, relation), chains


_last_complex: dict = {}


def _shared_bergman_complex(m: Matroid):
    """bergman_complex(m), kept for the last matroid asked for: the Bergman
    fan and every CSM cycle of one matroid then share one complex, and with
    it the complex's lattice-normal memo. The complex is never changed
    after construction, so sharing it is safe. One slot only, so that a
    caller who keeps many matroids alive does not keep their complexes."""
    key = m._key()
    hit = _last_complex.get(key)
    if hit is None:
        _last_complex.clear()
        hit = _last_complex[key] = bergman_complex(m)
    return hit


def bergman_fan(m: Matroid) -> TropicalCycle:
    """The Bergman fan as a weight-1 cycle of dimension rank-1."""
    if m.loops():
        raise ValueError("Bergman fan requires a loopless matroid")
    complex_, chains = _shared_bergman_complex(m)
    r = m.rank_value
    weights = {i: 1 for i, c in enumerate(chains) if len(c) == r - 1}
    cycle = TropicalCycle(complex_, r - 1, weights)
    cycle.chains = chains
    return cycle


def flag_minor(m: Matroid, lo, hi) -> Matroid:
    """The minor (M|hi)/lo for nested subsets lo <= hi of the ground set,
    relabelled to 1..|hi - lo|."""
    lo = frozenset(lo)
    hi = frozenset(hi)
    if not lo <= hi:
        raise ValueError("flag minor needs nested subsets")
    rest = sorted(hi - lo)
    pos = {e: i + 1 for i, e in enumerate(rest)}
    rlo = m.rank(lo)
    r = m.rank(hi) - rlo
    bases = []
    for cand in itertools.combinations(rest, r):
        if m.rank(lo | set(cand)) == rlo + len(cand):
            bases.append(frozenset(pos[e] for e in cand))
    if not bases:
        bases = [frozenset()]
    return Matroid(len(rest), bases, check=False)


def csm_cycle(m: Matroid, k: int) -> TropicalCycle:
    """Dimension-k CSM cycle of a loopless matroid on the Bergman complex:
    the weight of the cone of a length-k flag F_1 < ... < F_k is
    (-1)^(r-1-k) * prod beta of the flag minors (M|F_(i+1))/F_i. Each
    minor's beta is kept on the matroid, so it is computed once for all k."""
    if m.loops():
        raise ValueError("CSM cycles require a loopless matroid")
    r = m.rank_value
    if not 0 <= k <= r - 1:
        raise ValueError("k must lie between 0 and rank-1")
    complex_, chains = _shared_bergman_complex(m)
    sign = (-1) ** (r - 1 - k)
    betas = m._flag_betas
    weights = {}
    for i, c in enumerate(chains):
        if len(c) != k:
            continue
        flag = (frozenset(),) + c + (m.ground,)
        w = 1
        for pair in zip(flag, flag[1:]):
            b = betas.get(pair)
            if b is None:
                b = betas[pair] = beta(flag_minor(m, *pair))
            w *= b
            if w == 0:
                break
        if w != 0:
            weights[i] = sign * w
    cycle = TropicalCycle(complex_, k, weights)
    cycle.chains = chains
    return cycle
