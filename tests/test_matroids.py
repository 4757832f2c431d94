import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from test_cycles import assert_normal_is_the_oracle_class
from test_polyhedra import unpruned_cone_in_union
from troprr import linalg, matroids, polyhedra
from troprr.cycles import _normal_vector, check_balancing, degree, power_tower
from troprr.hypersurface import TropicalPolynomial, tropical_hypersurface
from troprr.matroids import (
    Matroid,
    bergman_complex,
    bergman_fan,
    beta,
    beta_by_rank_sum,
    characteristic_polynomial,
    csm_cycle,
    flag_minor,
    graphic_matroid,
    uniform_matroid,
)
from troprr.linalg import matrix_rank
from troprr.polyhedra import cone_in_union, validate_complex


K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_uniform_basics():
    m = uniform_matroid(2, 3)
    assert m.rank() == 2
    assert m.rank({1}) == 1
    assert m.closure({1}) == frozenset({1})
    assert sorted(map(sorted, m.proper_flats())) == [[1], [2], [3]]
    assert m.is_connected()


def test_exchange_axiom_rejected():
    with pytest.raises(ValueError):
        Matroid(4, [frozenset({1, 2}), frozenset({3, 4})])


def test_minors():
    m = uniform_matroid(2, 4)
    d = m.delete({4})
    assert (d.n, d.rank_value) == (3, 2)
    c = m.contract({4})
    assert (c.n, c.rank_value) == (3, 1)
    fm = flag_minor(uniform_matroid(3, 4), frozenset(), frozenset({1, 2}))
    assert (fm.n, fm.rank_value) == (2, 2)


def test_beta_uniform_binomials():
    for n in range(2, 7):
        for r in range(1, n + 1):
            assert beta(uniform_matroid(r, n)) == comb(n - 2, r - 1)


def test_beta_against_rank_sum_oracle():
    mats = [uniform_matroid(r, n) for n in range(1, 6) for r in range(1, n + 1)]
    mats.append(graphic_matroid(K4_EDGES))
    for m in mats:
        assert beta(m) == beta_by_rank_sum(m)


def test_beta_disconnected_is_zero():
    free2 = Matroid(2, [frozenset({1, 2})])  # two coloops
    assert beta(free2) == 0


def test_characteristic_polynomials():
    assert characteristic_polynomial(uniform_matroid(2, 3)) == [2, -3, 1]
    assert characteristic_polynomial(graphic_matroid(K4_EDGES)) == [-6, 11, -6, 1]


def test_graphic_k4():
    m = graphic_matroid(K4_EDGES)
    assert (m.n, m.rank_value) == (6, 3)
    assert len(m.bases) == 16  # Cayley: 4^2 spanning trees


def test_bergman_fan_u23_is_tropical_line():
    x = bergman_fan(uniform_matroid(2, 3))
    rays = sorted(x.complex.cells[i].rays[0] for i in x.weights)
    assert rays == [(-1, 0), (0, -1), (1, 1)]
    assert check_balancing(x).ok
    assert validate_complex(x.complex).ok


@pytest.mark.parametrize(
    "m",
    [uniform_matroid(2, 4), uniform_matroid(3, 4), graphic_matroid(K4_EDGES)],
    ids=["U24", "U34", "K4"],
)
def test_bergman_and_csm_balancing(m):
    x = bergman_fan(m)
    assert check_balancing(x).ok
    for k in range(m.rank_value):
        c = csm_cycle(m, k)
        assert check_balancing(c).ok


def test_csm_top_is_bergman_with_unit_weights():
    for m in (uniform_matroid(2, 4), uniform_matroid(3, 4), graphic_matroid(K4_EDGES)):
        top = csm_cycle(m, m.rank_value - 1)
        berg = bergman_fan(m)
        assert top.weights == berg.weights


def test_csm_zero_of_boolean_is_empty():
    # Free matroid on three elements: disconnected, beta = 0, so the
    # 0-dimensional CSM cycle carries no weight at all.
    m = uniform_matroid(3, 3)
    assert csm_cycle(m, 0).is_empty()


def test_csm_zero_degrees_match_complement_euler_characteristics():
    # Generic arrangements: line minus three points and the complement of
    # four generic lines in the plane.
    assert degree(csm_cycle(uniform_matroid(2, 3), 0)) == -1
    assert degree(csm_cycle(uniform_matroid(3, 4), 0)) == 1


@pytest.mark.parametrize("r", [2, 3])
def test_support_identity_small_rank(r):
    # Powers of the hyperplane cut down supports through the chain of
    # uniform Bergman fans.
    terms = {tuple(0 for _ in range(r)): 0}
    for i in range(r):
        terms[tuple(1 if j == i else 0 for j in range(r))] = 0
    f = TropicalPolynomial(r, terms)
    x = tropical_hypersurface(f)
    tower = power_tower(f, x)
    assert len(tower.layers) == r
    for j in range(r):
        layer = tower.layers[j]
        weighted = [layer.complex.cells[i] for i in layer.weights]
        assert len(weighted) == comb(r + 1, j + 2)
        assert all(w > 0 for w in layer.weights.values())
        berg = bergman_fan(uniform_matroid(r - j, r + 1))
        cones = [berg.complex.cells[i] for i in berg.weights]
        for cone in cones:
            assert any(c.contains_polyhedron(cone) for c in weighted)
        for c in weighted:
            assert cone_in_union(c, cones)


SHARED_CASES = [uniform_matroid(3, 5), uniform_matroid(4, 6), graphic_matroid(K4_EDGES)]
SHARED_IDS = ["U35", "U46", "K4"]


@pytest.mark.parametrize("m", SHARED_CASES, ids=SHARED_IDS)
def test_memoized_normals_match_fraction_quotient_generator(m):
    c, _ = bergman_complex(m)
    for tau_idx, sigma_idx in c.face_relation:
        assert_normal_is_the_oracle_class(c, tau_idx, sigma_idx)
        assert _normal_vector(c, tau_idx, sigma_idx) is _normal_vector(c, tau_idx, sigma_idx)


def test_bergman_complex_builds_each_flat_generator_once(monkeypatch):
    calls = []
    real = matroids.flat_generator
    monkeypatch.setattr(matroids, "flat_generator", lambda f, n: calls.append(f) or real(f, n))
    m = uniform_matroid(4, 7)
    bergman_complex(m)
    assert len(calls) == len(m.proper_flats())


def test_balancing_runs_at_most_one_hermite_form_per_cell(monkeypatch):
    """A cell's dimension is the rank of its integer directions, so building
    bergman_fan(U(4, 7)) runs no Hermite form; balancing it runs at most one
    per codimension-1 cone (252), and the fan and its CSM cycles at most one
    per cell."""
    calls = []
    real = linalg._hermite

    def counting(rows, ncols):
        calls.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "_hermite", counting)
    monkeypatch.setattr(polyhedra, "_hermite", counting)
    monkeypatch.setattr(matroids, "_last_complex", {})
    m = uniform_matroid(4, 7)
    fan = bergman_fan(m)
    assert calls == []
    assert check_balancing(fan).ok
    assert 0 < len(calls) <= 252
    for k in range(m.rank_value):
        assert check_balancing(csm_cycle(m, k)).ok
    assert 0 < len(calls) <= len(fan.complex.cells)


def test_fan_and_csm_cycles_share_one_complex(monkeypatch):
    built = []
    real = matroids.bergman_complex

    def counting(m):
        built.append(m._key())
        return real(m)

    monkeypatch.setattr(matroids, "bergman_complex", counting)
    monkeypatch.setattr(matroids, "_last_complex", {})
    for m in SHARED_CASES:
        # An equal matroid built anew hits the memo too: it is keyed by the
        # bases, not by the object.
        twin = Matroid(m.n, m.bases, check=False)
        cycles = [bergman_fan(m)] + [csm_cycle(x, k) for x in (m, twin)
                                     for k in range(m.rank_value)]
        assert all(cy.complex is cycles[0].complex for cy in cycles)
        assert all(cy.chains is cycles[0].chains for cy in cycles)
    assert built == [m._key() for m in SHARED_CASES]


# Parent-computed (weight, number of cells) per k, and whether it balances.
CSM_SUMMARY = {
    "U35": {0: ([(3, 1)], True), 1: ([(-2, 5)], True), 2: ([(1, 20)], True)},
    "U46": {0: ([(-4, 1)], True), 1: ([(3, 6)], True), 2: ([(-2, 30)], True),
            3: ([(1, 120)], True)},
    "K4": {0: ([(2, 1)], True), 1: ([(-1, 10)], True), 2: ([(1, 18)], True)},
}


@pytest.mark.parametrize("m,name", list(zip(SHARED_CASES, SHARED_IDS)), ids=SHARED_IDS)
def test_csm_weights_and_balancing_on_shared_and_fresh_complexes(m, name, monkeypatch):
    shared = {k: csm_cycle(m, k) for k in range(m.rank_value)}
    summary = {}
    for k, cy in shared.items():
        counts = {}
        for w in cy.weights.values():
            counts[w] = counts.get(w, 0) + 1
        summary[k] = (sorted(counts.items()), check_balancing(cy).ok)
    assert summary == CSM_SUMMARY[name]
    for k, cy in shared.items():
        monkeypatch.setattr(matroids, "_last_complex", {})
        fresh = csm_cycle(m, k)
        assert fresh.complex is not cy.complex
        assert fresh.weights == cy.weights
        assert check_balancing(fresh) == check_balancing(cy)


def scanned_rank(m, subset):
    """The rank by the scan the bitmasks replaced."""
    s = frozenset(subset)
    return max(len(b & s) for b in m.bases)


def representable_matroids(count, seed):
    """Column matroids of random integer matrices with entries in -1..1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, r = rng.randint(2, 6), rng.randint(1, 4)
        cols = [tuple(rng.randint(-1, 1) for _ in range(r)) for _ in range(n)]
        bases = [b for b in combinations(range(1, n + 1), r)
                 if matrix_rank([cols[e - 1] for e in b]) == r]
        if bases:
            out.append(Matroid(n, bases))
    return out


def test_rank_matches_the_basis_scan():
    """Every subset is asked twice: once with a cold memo, then, with the
    memo warm, with its elements in reverse order and as a frozenset."""
    cases = [uniform_matroid(r, n) for n in range(1, 7) for r in range(n + 1)]
    cases += [graphic_matroid(K4_EDGES)] + representable_matroids(25, 5)
    for m in cases:
        subsets = [s for k in range(m.n + 1) for s in combinations(range(1, m.n + 1), k)]
        expected = [scanned_rank(m, s) for s in subsets]
        assert [m.rank(s) for s in subsets] == expected, m.bases
        assert len(m._ranks) == len(subsets)
        assert [m.rank(s[::-1]) for s in subsets] == expected, m.bases
        assert [m.rank(frozenset(s)) for s in subsets] == expected, m.bases
        assert len(m._ranks) == len(subsets)


def test_balancing_a_csm_cycle_builds_no_fraction(monkeypatch):
    m = uniform_matroid(4, 6)
    cycle = csm_cycle(m, 2)
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert check_balancing(cycle).ok
    monkeypatch.undo()
    assert made == []


def test_flag_minor_runs_once_per_pair_across_all_k(monkeypatch):
    pairs = []
    original = matroids.flag_minor

    def counting(m, lo, hi):
        pairs.append((frozenset(lo), frozenset(hi)))
        return original(m, lo, hi)

    monkeypatch.setattr(matroids, "flag_minor", counting)
    for m in (uniform_matroid(4, 6), graphic_matroid(K4_EDGES)):
        pairs.clear()
        for k in range(m.rank_value):
            csm_cycle(m, k)
        assert len(pairs) == len(set(pairs)) > 0


def test_pruned_cone_in_union_matches_unpruned_on_random_bergman_fans():
    """Each maximal cone of one random Bergman fan against the maximal cones
    of another on the same ground set, of no smaller rank."""
    fans = [bergman_fan(m) for m in representable_matroids(80, 11) if not m.loops()]
    pairs = [(a, b) for a in fans for b in fans if a is not b
             and a.complex.ambient_dim == b.complex.ambient_dim and a.dim <= b.dim][:25]
    outcomes = set()
    for a, b in pairs:
        cones = [b.complex.cells[i] for i in b.weights]
        for i in a.weights:
            got = cone_in_union(a.complex.cells[i], cones)
            assert got == unpruned_cone_in_union(a.complex.cells[i], cones)
            outcomes.add(got)
    assert outcomes == {True, False}
